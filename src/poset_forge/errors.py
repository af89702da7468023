"""Exception taxonomy, one class per rejectable condition."""


class PosetForgeError(Exception):
    """Base class for all library errors."""


# -- construction -------------------------------------------------------

class DuplicateElement(PosetForgeError):
    pass


class CycleError(PosetForgeError):
    pass


class UnknownElement(PosetForgeError):
    pass


class UnknownName(PosetForgeError):
    pass


class MissingPart(PosetForgeError):
    pass


class EmptyPart(PosetForgeError):
    pass


class NotAChain(PosetForgeError):
    pass


class NotATree(PosetForgeError):
    pass


class PaletteMismatch(PosetForgeError, ValueError):
    pass


class OutOfRange(PosetForgeError, ValueError):
    """A size parameter outside its range: a negative canonical size, a
    family or class cap below 1, or a subset size above the poset's."""


class NotInjective(PosetForgeError, ValueError):
    """An embedding map that sends two elements to one, or one to two."""


class FrozenField(PosetForgeError, AttributeError):
    """An assignment to, or deletion of, a field of an immutable record."""


# -- intervals ----------------------------------------------------------

class EmptySet(PosetForgeError):
    pass


class EmptyPoset(PosetForgeError):
    pass


class TooLarge(PosetForgeError):
    pass


class BadBound(PosetForgeError, ValueError):
    """A size bound from the environment that is not an integer."""


class NotDistinct(PosetForgeError, ValueError):
    """``ssr`` given a point equal to one of the pair it compares."""


class NotAnInterval(PosetForgeError):
    pass


class Overlap(PosetForgeError):
    pass


# -- composition --------------------------------------------------------

class Malformed(PosetForgeError):
    pass


class MissingArgument(PosetForgeError):
    pass


class BadIndex(PosetForgeError):
    pass


class MissingLeaf(PosetForgeError):
    pass


# -- decomposition trees ------------------------------------------------

class BadLabel(PosetForgeError):
    pass


class NoLabel(BadLabel, KeyError):
    """``StructuredTree.label(v, x)`` for a pair that carries no label: v is
    not a sum node below x.  Its argument is the pair ``(v, x)``."""


class NotUpClosedChain(PosetForgeError):
    pass


class VerificationFailure(PosetForgeError):
    """A map failed verification: an input map given to be lifted that is
    not an embedding, or an output that failed its own post-verification,
    which indicates a library bug."""


# -- classes and families -----------------------------------------------

class SpecConflict(PosetForgeError, ValueError):
    """A class spec given both or neither of an allowed list and a size
    cap."""


class EmptyFamily(PosetForgeError, ValueError):
    pass


class NameCountMismatch(PosetForgeError, ValueError):
    """A family given a number of names other than its number of
    members."""


# -- text formats -------------------------------------------------------

class ParseError(PosetForgeError):
    pass


# -- command line -------------------------------------------------------

class BadOption(PosetForgeError, ValueError):
    """A command line the CLI cannot read: an unknown verb or option, a
    missing or malformed value, a word left over, or an option that does
    not apply to the options around it."""
