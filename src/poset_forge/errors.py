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


# -- intervals ----------------------------------------------------------

class EmptySet(PosetForgeError):
    pass


class EmptyPoset(PosetForgeError):
    pass


class TooLarge(PosetForgeError):
    pass


class BadBound(PosetForgeError, ValueError):
    """A size bound from the environment that is not an integer."""


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


class NotUpClosedChain(PosetForgeError):
    pass


class VerificationFailure(PosetForgeError):
    """A map failed verification: an input map given to be lifted that is
    not an embedding, or an output that failed its own post-verification,
    which indicates a library bug."""


# -- text formats -------------------------------------------------------

class ParseError(PosetForgeError):
    pass
