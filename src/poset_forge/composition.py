"""Composition sequences, their index posets, and poset decomposition.

A composition sequence is a list of sum-arities, each with a distinguished
slot where the rest of the composition nests.  Evaluating it means summing
arguments over the single index poset built by :func:`h_eta` from the
arities' rows.  One bottom-up step evaluates a composition set, and the tail
of a position's sequence, which is all that recomposition along a chain
reads.  Going the other way, :func:`maximal_decomposition` peels a poset
into indecomposable arities along a canonical maximal interval chain, and
:func:`decomposition_function` iterates that until only singletons remain.
The iteration carries masks over the input's rows, on an explicit stack,
and builds posets only for the layer arities, with no transpose.  The chain
and every layer's blocks are read off one walk down the strong modules of
the mask that hold the anchor (``interval._spine``, after Ehrenfeucht,
Gabow, McConnell and Sullivan, J. Algorithms 16, 1994): a layer adds the
children of one strong module, and its blocks are those children with two
or more points.  Each arity is indecomposable by construction, a prime
module's quotient or at most two points (Gallai 1967), so the walk checks
none of them.  Each leaf is an element of the input.
"""

from .core import (
    _ID_ESCAPES,
    _Frozen,
    _bits,
    _induced_rows,
    ColouredPoset,
    Poset,
    coloured_isomorphic,
    p_sum_with_sources,
)
from .errors import (
    BadIndex,
    EmptyPoset,
    Malformed,
    MissingArgument,
    MissingLeaf,
    PaletteMismatch,
    UnknownElement,
)
from .interval import IntervalChain, _mask_to_set, _spine


class CompositionSequence(_Frozen):
    """Entries (arity poset, distinguished slot); the last slot set is full."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise Malformed("a composition sequence has at least one entry")
        for arity, s in entries:
            if len(arity) == 0:
                raise Malformed("arities are non-empty")
            if s not in arity:
                raise Malformed(f"distinguished element {s!r} not in its arity")
        object.__setattr__(self, "entries", entries)

    def __len__(self):
        return len(self.entries)

    def arity(self, i):
        return self.entries[i][0]

    def distinguished(self, i):
        return self.entries[i][1]

    def slots(self, i):
        """Argument slots at layer i: the arity minus the distinguished
        element, except at the final layer where every slot is open."""
        arity, s = self.entries[i]
        if i == len(self.entries) - 1:
            return tuple(arity.elements)
        return tuple(e for e in arity.elements if e != s)

    def positions(self):
        return tuple(
            (i, u) for i in range(len(self.entries)) for u in self.slots(i)
        )

    def head(self, j):
        return CompositionSequence(self.entries[: j + 1])

    def tail(self, j):
        return CompositionSequence(self.entries[j + 1 :])


def h_eta_with_slots(seq):
    """Index poset of a composition sequence, plus slot ids -> (i, u); its
    rows are built directly, by the rule of :func:`h_eta`."""
    slot_of = {f"{i}.{u}": (i, u) for i, u in seq.positions()}
    rows = []
    earlier = 0  # the slots of earlier layers above their distinguished slot
    for i, (arity, s) in enumerate(seq.entries):
        first = len(rows)
        slots = [arity.index[u] for u in seq.slots(i)]
        later = (1 << len(slot_of)) - (1 << first + len(slots))
        up = [row << first for row in _induced_rows(arity.above, slots)]
        d = arity.index[s]
        for a in slots:
            rows.append(earlier | up[a] | (later if arity.above[a] >> d & 1 else 0))
        earlier |= up[d]
    return Poset(list(slot_of), rows), slot_of


def h_eta(seq):
    """The poset whose sum realizes the whole composition in one step.

    Slots u, v at layers i <= j compare by: the layer-i arity when i == j;
    u below the layer-i distinguished slot when i < j; v above the layer-j
    distinguished slot when i > j.
    """
    return h_eta_with_slots(seq)[0]


def _shared_palette(args):
    palette = None
    for q in args.values():
        if palette is None:
            palette = q.palette
        elif q.palette != palette:
            raise PaletteMismatch("all arguments must share one palette")
    return palette


def eval_f_eta_with_sources(seq, args):
    """Evaluate and keep, per output element, its (slot, original id) origin."""
    for pos in seq.positions():
        if pos not in args:
            raise MissingArgument(f"no argument for slot {pos}")
    palette = _shared_palette(args)
    index, slot_of = h_eta_with_slots(seq)
    parts = {sid: args[slot_of[sid]].poset for sid in index.elements}
    total, sources = p_sum_with_sources(index, parts)
    origin = {
        composite: (slot_of[sid], a) for composite, (sid, a) in sources.items()
    }
    colouring = {
        composite: args[pos].colour(a) for composite, (pos, a) in origin.items()
    }
    return ColouredPoset(total, colouring, palette), origin


def eval_f_eta(seq, args):
    """Sum the arguments over the sequence's index poset, colours inherited."""
    return eval_f_eta_with_sources(seq, args)[0]


def split_assoc_check(seq, args, j):
    """Evaluating all at once equals nesting the tail into slot j's
    distinguished position of the head."""
    if not 0 <= j < len(seq):
        raise BadIndex(f"index {j} out of range")
    if j == len(seq) - 1:
        return True
    lhs = eval_f_eta(seq, args)
    tail = seq.tail(j)
    tail_args = {
        (i - (j + 1), u): args[(i, u)] for (i, u) in seq.positions() if i > j
    }
    nested = eval_f_eta(tail, tail_args)
    head = seq.head(j)
    head_args = {
        (i, u): args[(i, u)] for (i, u) in seq.positions() if i < j
    }
    for u in seq.slots(j):
        head_args[(j, u)] = args[(j, u)]
    head_args[(j, seq.distinguished(j))] = nested
    rhs = eval_f_eta(head, head_args)
    return coloured_isomorphic(lhs, rhs)


# -- maximal decomposition -------------------------------------------------

def _fresh_id(taken):
    name = "_s"
    while name in taken:
        name = "_" + name
    return name


def _layers(carrier, within, anchor):
    """Maximal decomposition of the order induced on the mask within, along
    its canonical chain down to the point at index anchor.

    Returns (sequence, argument masks keyed by (layer, slot), chain masks).
    The intervals of the order induced on an interval M are the intervals
    inside M (Gallai 1967), so everything is read off the carrier's rows.
    The chain and its layers come from one walk down the strong modules
    that hold the anchor (``interval._spine``).  Layer j's arity keeps the first point of
    each child that member j adds to member j + 1, in order of those
    points, and that child is the slot's argument; then comes a
    distinguished stand-in slot for the next member, listed last, which
    takes the rows of that member's first point.  The last layer is the
    anchor alone, its own child.

    Nothing is checked at run time, since the walk guarantees it:

    1. Each next member is an interval.  From a module M, ``_spine`` steps
       at a parallel node by removing one child, and any union of a
       parallel node's children is a module; at a linear node by removing
       an end child of a consecutive run, and such a run is a module; at a
       prime node by removing every child but the anchor's, and that child
       is a strong module.  A module of a module of within is a module of
       within.  So the stand-in may take the rows of any point of it.
    2. Each arity is indecomposable.  A parallel or linear layer is one
       child plus the stand-in, two points; the last layer is one point.  A
       prime layer has one point per child of a prime strong module, with
       the stand-in for the anchor's child: that is the module's quotient,
       which is indecomposable (Gallai 1967).
    3. Every slot has an argument.  ``args`` gets one entry per child
       added at layer j, and those children are exactly the layer's slots
       other than the stand-in; the last layer's one slot is the anchor.

    An arity's ``below`` rows are the carrier's ``below`` rows read on the
    same index list (``_induced_rows``), so they are the transpose of its
    ``above`` rows, as ``Poset._from_rows`` needs: the list holds distinct
    carrier points, and bit k of ``above'[m]`` and bit m of ``below'[k]``
    both say that point m of the list is below point k.
    """
    names = carrier.elements
    up, dn = carrier.above, carrier.below
    spine = _spine(carrier, anchor, within)
    entries = []
    args = {}
    for j, (cur, children) in enumerate(spine):
        kept = []
        for child in sorted(children or [cur], key=lambda c: c & -c):
            first = (child & -child).bit_length() - 1
            kept.append(first)
            args[(j, names[first])] = child
        ids = [names[i] for i in kept]
        if j + 1 < len(spine):
            rest = spine[j + 1][0]
            kept.append((rest & -rest).bit_length() - 1)
            ids.append(_fresh_id({names[i] for i in _bits(cur & ~rest)}))
        arity = Poset._from_rows(
            ids,
            _induced_rows([up[i] for i in kept], kept),
            _induced_rows([dn[i] for i in kept], kept),
        )
        entries.append((arity, ids[-1]))
    return CompositionSequence(entries), args, [m for m, _ in spine]


def maximal_decomposition(x, anchor=None):
    """Peel a coloured poset into indecomposable arities along the
    canonical maximal interval chain (``_layers`` on the whole poset).

    Returns (sequence, arguments, chain) with the arguments keyed by
    (layer, slot).  Evaluating the sequence on the arguments rebuilds the
    input, and the tail of the sequence from layer j rebuilds chain member
    j; both facts are exercised heavily by the test suite.
    """
    if len(x) == 0:
        raise EmptyPoset("cannot decompose an empty poset")
    carrier = x.poset
    if anchor is None:
        anchor = carrier.elements[0]
    if anchor not in carrier:
        raise UnknownElement(f"unknown anchor {anchor!r}")
    full = (1 << len(carrier)) - 1
    seq, masks, chain = _layers(carrier, full, carrier.index[anchor])
    args = {pos: x.restrict(_mask_to_set(carrier, m)) for pos, m in masks.items()}
    members = tuple(_mask_to_set(carrier, m) for m in chain)
    return seq, args, IntervalChain(carrier, members)


# -- composition sets --------------------------------------------------------

class CompositionSet:
    """A prefix-closed tree of composition sequences.

    Positions are tuples of (layer, slot) pairs; the root position is
    normally () but subtrees keep their original address.  A position is a
    child of its parent exactly when its last pair names one of the parent
    sequence's slots.
    """

    def __init__(self, root, sequences, leaves):
        self.root = tuple(root)
        self.sequences = dict(sequences)
        self.leaves = frozenset(leaves)
        self._validate()

    @classmethod
    def _grown(cls, sequences, leaves):
        """A set rooted at (), with no ``_validate``: for ``_decompose``,
        whose walk adds each position exactly once, as a slot of a sequence
        it has already added, or as the root.

        That is the property ``_validate`` checks.  The walk pushes the
        root, and for each sequence it adds, one position per slot:
        ``_layers`` returns one argument per slot, by construction.  So the
        positions it adds are exactly those reached from the root.  Distinct
        slots give distinct positions, so each position is pushed once and
        stored once, as a leaf when its mask is one point and as a sequence
        otherwise, never as both.
        """
        fset = cls.__new__(cls)
        fset.root = ()
        fset.sequences = sequences
        fset.leaves = frozenset(leaves)
        return fset

    def _validate(self):
        """Walk from the root through each sequence's slots: the positions
        reached must be exactly the internal ones and the leaves."""
        if self.sequences.keys() & self.leaves:
            raise Malformed("a position cannot be both internal and a leaf")
        reached = set()
        todo = [self.root]
        while todo:
            p = todo.pop()
            reached.add(p)
            if p in self.sequences:
                todo.extend(p + (pos,) for pos in self.sequences[p].positions())
        if reached != self.positions():
            raise Malformed(
                "positions do not match the slots reached from the root "
                f"{self.root}: {sorted(reached ^ self.positions(), key=repr)}"
            )

    def positions(self):
        return set(self.sequences) | set(self.leaves)

    def __eq__(self, other):
        return (
            isinstance(other, CompositionSet)
            and self.root == other.root
            and self.sequences == other.sequences
            and self.leaves == other.leaves
        )


def _decompose(x):
    """Iterate maximal decomposition down to singletons, on masks over x's
    rows.

    Returns (composition set, leaves), where leaves maps each leaf position
    to its element of x.
    """
    if len(x) == 0:
        raise EmptyPoset("cannot decompose an empty poset")
    carrier = x.poset
    seqs, leaves = {}, {}
    # pre-order on an explicit stack, each position's slots in argument
    # order, so that no depth of nesting reaches the recursion limit
    todo = [((), (1 << len(carrier)) - 1)]
    while todo:
        p, within = todo.pop()
        if not within & within - 1:
            leaves[p] = carrier.elements[within.bit_length() - 1]
            continue
        seq, args, _ = _layers(carrier, within, (within & -within).bit_length() - 1)
        seqs[p] = seq
        todo.extend((p + (pos,), m) for pos, m in reversed(args.items()))
    return CompositionSet._grown(seqs, leaves), leaves


def decomposition_function(x):
    """Iterate maximal decomposition down to singleton leaves.

    Returns (composition set, leaf arguments); evaluating the set on the
    leaves reproduces the input up to isomorphism.  Terminates because every
    argument is strictly smaller than its parent.
    """
    fset, leaves = _decompose(x)
    return fset, {p: x.restrict([e]) for p, e in leaves.items()}


def _value(fset, leaf_args, p, start=0):
    """The value of position p of a composition set on its leaf arguments;
    from a start layer on, the value of the tail of p's sequence from there."""
    if p not in fset.sequences:
        return leaf_args[p]
    seq = fset.sequences[p].tail(start - 1) if start else fset.sequences[p]
    args = {
        (i, u): _value(fset, leaf_args, p + ((i + start, u),)) for i, u in seq.positions()
    }
    return eval_f_eta(seq, args)


def eval_g(fset, leaf_args):
    """Bottom-up evaluation of a composition set on its leaf arguments:
    every leaf needs one, and then the root's value is summed up."""
    for leaf in fset.leaves:
        if leaf not in leaf_args:
            raise MissingLeaf(f"no value for leaf {leaf}")
    return _value(fset, leaf_args, fset.root)


# -- serialization -----------------------------------------------------------

# a \, / or . inside a slot name is backslash-escaped, so that distinct
# positions render distinctly
_SLOT_ESCAPES = {**_ID_ESCAPES, ord("/"): "\\/"}


def render_position(p):
    if not p:
        return "e"
    return "/".join(f"{i}.{u.translate(_SLOT_ESCAPES)}" for i, u in p)


def inline_poset(p):
    covers = ",".join(f"{a}<{b}" for a, b in p.cover_pairs())
    return "{" + ",".join(p.elements) + ":" + covers + "}"


def composition_set_text(fset, leaf_args=None):
    """Indented, bit-stable dump: one line per position sequence, in
    pre-order, walked with an explicit stack so that any depth the
    constructor accepts can be dumped."""
    lines = []
    todo = [(fset.root, 0)]
    while todo:
        p, depth = todo.pop()
        pad = "  " * depth
        rel = p[len(fset.root):]
        if p in fset.sequences:
            seq = fset.sequences[p]
            body = " ".join(
                f"[{inline_poset(arity)}/{s}]" for arity, s in seq.entries
            )
            lines.append(f"{pad}{render_position(rel)}: {body}")
            # reversed, so that the first slot is emitted first
            todo.extend((p + (pos,), depth + 1) for pos in reversed(seq.positions()))
        else:
            suffix = ""
            if leaf_args is not None and p in leaf_args:
                leaf = leaf_args[p]
                e = leaf.elements[0]
                suffix = f" {e} colour={leaf.colour(e)}"
            lines.append(f"{pad}{render_position(rel)}: leaf{suffix}")
    return "\n".join(lines) + "\n"
