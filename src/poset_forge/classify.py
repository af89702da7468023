"""Class-membership predicates built on indecomposable subsets.

For finite posets, membership in a class cut out by a family of allowed
indecomposables reduces to one check: every indecomposable induced subposet
must be on the list (or within the size budget).  Every pair is
indecomposable, and the larger indecomposable subsets are read off the
prime nodes of the strong-module tree (``interval._strong_modules``;
Gallai 1967).  Let S be an indecomposable subset of 3 or more points, and
M the smallest strong module that holds it.  Strong modules holding a
common point are nested, so S lies in no child of M (a child holding S
would be a smaller one), and:

- S meets each child C of M in at most one point: C is a module, so S & C
  is a module of the order induced on S, and S & C is not all of S;
- so S is a transversal of the children it meets, and as each child is a
  module, two of its points relate as their children do in M's quotient.
  S induces the same shape as that set of children in the quotient, which
  is therefore an indecomposable subset of 3 or more children;
- M is prime: a parallel or linear quotient is an antichain or a chain,
  in which any two points of 3 or more form a module;
- conversely, each transversal of an indecomposable subset of 3 or more
  children of a prime node's quotient induces that subset's shape, so it
  is indecomposable, and that node is the smallest strong module holding
  it, since it lies in no child.  So no subset is found twice.

So the indecomposable subsets of 3 or more points are the transversals of
those of each prime quotient, and every transversal of one quotient subset
has its shape and its size: a verdict is decided once per quotient subset,
and only the subsets that violate are lifted.  One pass (``_subsets``)
lists the pairs and lifts the quotient subsets for every caller: the
subsets up to a size, those over a size cap, and those a list refuses.

The indecomposable subsets of a quotient (or of any poset) are found in one
pass over its subset masks in increasing order, in which every proper
subset of M comes before M (``_indecomposable_masks``).  A decomposable M
with two or more points has a minimal proper interval I of two or more
points, and I is indecomposable: a proper interval of I would be an
interval of M inside it.  So each indecomposable I, once found, marks every
proper superset of I that contains no point splitting I
(``interval._split``; I is an interval of each of them), and a set of two
or more points that reaches its turn unmarked is indecomposable.  Run on
the whole poset, that pass is the specification the lifted subsets are
checked against.  A single poset is tested on its own by
``interval.is_indecomposable``: its root strong module must be prime, with
every point a child.  Reports carry witnesses, because everything
downstream of these predicates wants them.
"""

from . import config
from .core import Poset, _bits, _embed_assign, _Frozen, _induced_rows, _Record, canonical, embed, is_isomorphic
from .errors import OutOfRange, SpecConflict
from .interval import _canonical_sets, _split, _strong_modules


# masks are read from the marks one block of this many subsets at a time
_BLOCK = 1 << 10


def _indecomposable_masks(carrier, max_size):
    """Masks of 2..max_size points inducing an indecomposable order, in
    increasing order.

    Bit S of ``dec`` is set once some indecomposable proper subset of S is
    an interval of S.  The supersets of M in which M is an interval are M
    plus any set of the free points, those outside M that do not split it
    (``interval._split``), built by doubling the family once per free
    point.  The family holds M itself too, whose bit has been read.  The
    marks are read a block at a time, and each new family is cleared from
    the block being read as well.
    """
    size = 1 << len(carrier)
    block = min(_BLOCK, size)
    dec = 0
    out = []
    for base in range(0, size, block):
        todo = ~(dec >> base) & ((1 << block) - 1)
        while todo:
            low = todo & -todo
            todo ^= low
            m = base + low.bit_length() - 1
            if not 2 <= m.bit_count() <= max_size:
                continue
            out.append(m)
            free = (size - 1) & ~m & ~_split(carrier, (m & -m).bit_length() - 1, m)
            family = 1 << m
            while free:
                f = free & -free
                free ^= f
                family |= family << f
            dec |= family
            todo &= ~(family >> base)
    return out


def _quotients(poset):
    """(children, quotient) for each prime node of poset
    (``interval._strong_modules``), the children sorted by lowest point:
    the quotient is the order induced on the children's lowest points, in
    the order of the children, and is poset itself when the children are
    all of its points one by one."""
    for _, kind, children in _strong_modules(poset):
        if kind != "prime":
            continue
        children = sorted(children, key=lambda c: c & -c)
        if len(children) == len(poset):
            yield children, poset
            continue
        reps = [(c & -c).bit_length() - 1 for c in children]
        # rows induced on one index from both row sets are transposes
        yield children, Poset._from_rows(
            [poset.elements[i] for i in reps],
            _induced_rows([poset.above[i] for i in reps], reps),
            _induced_rows([poset.below[i] for i in reps], reps),
        )


def _lift(children, quotient, poset, masks):
    """Every transversal of each quotient mask: the subsets that take one
    point from each child it holds.  A single-point child adds its point
    with one OR.  When the quotient is poset itself, child j is point j
    (the children are sorted by lowest point), so each mask lifts to
    itself."""
    if quotient is poset:
        return masks
    points = [[1 << i for i in _bits(c)] if c & c - 1 else None for c in children]
    out = []
    for q in masks:
        lifted = [0]
        fixed = 0
        while q:
            low = q & -q
            q ^= low
            j = low.bit_length() - 1
            if points[j] is None:
                fixed |= children[j]
            else:
                lifted = [m | p for m in lifted for p in points[j]]
        out += [m | fixed for m in lifted]
    return out


def _pairs(poset, comparable, incomparable):
    """Masks of the pairs of points that compare, when comparable is true,
    and of those that do not, when incomparable is."""
    out = []
    for i in range(len(poset)):
        later = -(2 << i)
        rest = 0
        if comparable:
            rest |= poset.above[i] | poset.below[i]
        if incomparable:
            rest |= poset.beside[i]
        rest &= later
        while rest:
            low = rest & -rest
            rest ^= low
            out.append(1 << i | low)
    return out


def _subsets(poset, lo, hi, refused=None):
    """Masks of the indecomposable subsets of lo..hi points, in no set
    order: every pair, when 2 is in lo..hi, and the lifts of the quotient
    subsets of max(lo, 3) to hi points of each prime node (module
    docstring) that ``refused(quotient, mask)`` keeps, when it is given.
    The tree is walked only when hi is 3 or more, and a quotient is
    scanned only when it has max(lo, 3) children or more."""
    masks = _pairs(poset, True, True) if lo <= 2 <= hi else []
    least = max(lo, 3)
    for children, quotient in _quotients(poset) if hi > 2 else ():
        if len(children) >= least:
            found = _indecomposable_masks(quotient, min(hi, len(children)))
            found = [m for m in found if m.bit_count() >= least]
            if refused is not None:
                found = [m for m in found if refused(quotient, m)]
            masks += _lift(children, quotient, poset, found)
    return masks


def _poset(x):
    """The poset of x, a coloured poset or a poset."""
    return x.poset if hasattr(x, "poset") else x


def indecomposable_subsets(x, max_size, bound=None):
    """All subsets of size 2..max_size inducing an indecomposable subposet
    (``_subsets``)."""
    x = _poset(x)
    config.check_size(len(x), config.INTERVAL_ENUM_BOUND, bound, "poset", "elements")
    if max_size > len(x):
        raise OutOfRange("max_size exceeds the poset size")
    return _canonical_sets(x, _subsets(x, 2, max_size))


def is_n_free(x):
    """No induced subposet is a copy of the four-element N."""
    x = _poset(x)
    return _embed_assign(canonical("N", 0), x) is None


class ClassSpec(_Frozen):
    """Allowed indecomposables: an explicit list of posets (coloured ones
    are read as their posets), or a size cap."""

    __slots__ = ("allowed", "max_size")

    def __init__(self, allowed=None, max_size=None):
        # allowed: tuple of Posets, or None; max_size: size cap, or None
        if (allowed is None) == (max_size is None):
            raise SpecConflict("give exactly one of allowed or max_size")
        if max_size is not None and max_size < 1:
            raise OutOfRange("max_size must be >= 1")
        allowed = None if allowed is None else tuple(map(_poset, allowed))
        object.__setattr__(self, "allowed", allowed)
        object.__setattr__(self, "max_size", max_size)


class ClassReport(_Record):
    """Violating indecomposable subsets, in canonical order; empty = member."""

    __slots__ = ("carrier", "violations")

    def __init__(self, carrier, violations=None):
        self.carrier = carrier
        self.violations = [] if violations is None else violations

    @property
    def passed(self):
        return not self.violations

    def text(self):
        lines = []
        for v in self.violations:
            ordered = sorted(v, key=self.carrier.index.__getitem__)
            lines.append("violation " + ",".join(ordered))
        lines.append("verdict " + ("pass" if self.passed else "fail"))
        return "\n".join(lines) + "\n"


def class_check(x, spec, bound=None):
    """List every indecomposable subset the spec does not allow.

    With an explicit list, allowed means isomorphic to a listed poset (the
    singleton must be listed for size-1 subsets to pass); with a size cap,
    allowed means at most that many elements.  A pair is a 2-chain or a
    2-antichain, so the list is searched for those two shapes once, and the
    pairs of a failing shape are listed by whether their points compare.
    Every larger indecomposable subset is a transversal of an
    indecomposable subset of a prime node's quotient, with the same shape
    (module docstring), so each verdict is decided once per quotient
    subset, and only the violating ones are lifted.  A size cap reads the
    popcount of the quotient mask, and a list is searched once per distinct
    tuple of rows induced on it, since equal rows are the same poset up to
    names.
    """
    poset = _poset(x)
    config.check_size(len(poset), config.INTERVAL_ENUM_BOUND, bound, "poset", "elements")
    if spec.max_size is not None:
        bad = _subsets(poset, spec.max_size + 1, len(poset))
        return ClassReport(poset, _canonical_sets(poset, bad))
    sizes = {len(p) for p in spec.allowed}
    # the singletons sort first, in element order, as one-point masks
    bad = [] if 1 in sizes else [1 << i for i in range(len(poset))]
    # a pair passes when its shape does: [2-antichain, 2-chain]
    pair_ok = [
        any(is_isomorphic(shape, p) for p in spec.allowed)
        for shape in (canonical("antichain", 2), canonical("chain", 2))
    ]
    if not all(pair_ok):
        bad += _pairs(poset, not pair_ok[1], not pair_ok[0])
    verdicts = {}

    def refused(quotient, m):
        if m.bit_count() not in sizes:
            return True
        index = list(_bits(m))
        rows = _induced_rows([quotient.above[i] for i in index], index)
        allowed = verdicts.get(rows)
        if allowed is None:
            sub = Poset([quotient.elements[i] for i in index], rows)
            allowed = verdicts[rows] = any(is_isomorphic(sub, p) for p in spec.allowed)
        return not allowed

    bad += _subsets(poset, 3, len(poset), refused)
    return ClassReport(poset, _canonical_sets(poset, bad))


class PrefixReport(_Record):
    """Which binary-tree-style obstructions embed, with witnesses."""

    __slots__ = ("depth", "tree", "reversed_tree", "perp")

    def __init__(self, depth, tree=None, reversed_tree=None, perp=None):
        # each witness is an EmbeddingMap, or None when absent
        self.depth = depth
        self.tree = tree
        self.reversed_tree = reversed_tree
        self.perp = perp

    def _witnesses(self):
        return [
            ("binary_tree_prefix", self.tree),
            ("reversed_binary_tree_prefix", self.reversed_tree),
            ("perp_prefix", self.perp),
        ]

    def found(self):
        return [name for name, w in self._witnesses() if w is not None]

    def text(self):
        lines = [f"prefix_depth {self.depth}"]
        for name, w in self._witnesses():
            if w is None:
                lines.append(f"{name} absent")
            else:
                image = " ".join(f"{a}->{b}" for a, b in w.mapping)
                lines.append(f"{name} embeds {image}")
        return "\n".join(lines) + "\n"


def pathological_prefix_check(x, depth, bound=None):
    """Probe x for depth-bounded copies of the three obstruction orders.

    Each prefix has 2**depth - 1 points, which is more than x has iff depth
    is at least the bit length of len(x) + 1; then none embeds, and none is
    built.  A negative depth takes the other path, where ``canonical``
    refuses it."""
    poset = _poset(x)
    config.check_size(len(poset), config.INTERVAL_ENUM_BOUND, bound, "poset", "elements")
    if depth >= (len(poset) + 1).bit_length():
        return PrefixReport(depth)
    return PrefixReport(
        depth,
        tree=embed(canonical("binary_tree_prefix", depth), poset),
        reversed_tree=embed(canonical("reversed_binary_tree_prefix", depth), poset),
        perp=embed(canonical("perp_prefix", depth), poset),
    )
