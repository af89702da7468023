"""Class-membership predicates built on indecomposable subsets.

For finite posets, membership in a class cut out by a family of allowed
indecomposables reduces to one check: every indecomposable induced subposet
must be on the list (or within the size budget).  The indecomposable
subsets are found in one pass over the subset masks in increasing order,
in which every proper subset of M comes before M.  A decomposable M with
two or more points has a minimal proper interval I of two or more points,
and I is indecomposable: a proper interval of I would be an interval of M
inside it.  So each indecomposable I, once found, marks every proper
superset of I that contains no point splitting I (``interval._split``; I
is an interval of each of them), and a set of two or more points that
reaches its turn unmarked is indecomposable.  A single poset is tested on
its own by ``interval.is_indecomposable``, with n - 1 closures.  Reports
carry witnesses, because everything downstream of these predicates wants
them.
"""

from . import config
from .core import Poset, _bits, _embed_assign, _Frozen, _induced_rows, _Record, canonical, embed, is_isomorphic
from .interval import _canonical_sets, _split


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


def indecomposable_subsets(x, max_size, bound=None):
    """All subsets of size 2..max_size inducing an indecomposable subposet."""
    x = x.poset if hasattr(x, "poset") else x
    config.check_size(len(x), config.INTERVAL_ENUM_BOUND, bound, "poset", "elements")
    if max_size > len(x):
        raise ValueError("max_size exceeds the poset size")
    return _canonical_sets(x, _indecomposable_masks(x, max_size))


def is_n_free(x):
    """No induced subposet is a copy of the four-element N."""
    x = x.poset if hasattr(x, "poset") else x
    return _embed_assign(canonical("N", 0), x) is None


class ClassSpec(_Frozen):
    """Allowed indecomposables: an explicit list of posets, or a size cap."""

    __slots__ = ("allowed", "max_size", "prefix_depth")

    def __init__(self, allowed=None, max_size=None, prefix_depth=3):
        # allowed: tuple of Posets, or None; max_size: size cap, or None
        if (allowed is None) == (max_size is None):
            raise ValueError("give exactly one of allowed or max_size")
        if max_size is not None and max_size < 1:
            raise ValueError("max_size must be >= 1")
        if prefix_depth < 1:
            raise ValueError("prefix_depth must be >= 1")
        object.__setattr__(self, "allowed", None if allowed is None else tuple(allowed))
        object.__setattr__(self, "max_size", max_size)
        object.__setattr__(self, "prefix_depth", prefix_depth)


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
    allowed means at most that many elements.  Each verdict is decided once
    per induced shape: a size cap reads the popcount of the subset's mask,
    and a list is searched once per distinct tuple of rows induced on the
    mask (in carrier order), since equal rows are the same poset up to
    names.  A pair is a 2-chain or a 2-antichain, so the list is searched
    for those two shapes once, and each pair is judged by whether its
    points compare.  Only the violating masks are named.
    """
    poset = x.poset if hasattr(x, "poset") else x
    config.check_size(len(poset), config.INTERVAL_ENUM_BOUND, bound, "poset", "elements")
    masks = _indecomposable_masks(poset, len(poset))
    if spec.max_size is not None:
        bad = [m for m in masks if m.bit_count() > spec.max_size]
        return ClassReport(poset, _canonical_sets(poset, bad))
    sizes = {len(p) for p in spec.allowed}
    # the singletons sort first, in element order, as one-point masks
    bad = [] if 1 in sizes else [1 << i for i in range(len(poset))]
    # a pair passes when its shape does: [2-antichain, 2-chain]
    pair_ok = [
        any(is_isomorphic(shape, p) for p in spec.allowed)
        for shape in (canonical("antichain", 2), canonical("chain", 2))
    ]
    verdicts = {}
    for m in masks:
        size = m.bit_count()
        if size not in sizes:
            bad.append(m)
            continue
        if size == 2:
            i = (m & -m).bit_length() - 1
            if not pair_ok[bool((poset.above[i] | poset.below[i]) & m)]:
                bad.append(m)
            continue
        index = list(_bits(m))
        rows = _induced_rows([poset.above[i] for i in index], index)
        allowed = verdicts.get(rows)
        if allowed is None:
            sub = Poset([poset.elements[i] for i in index], rows)
            allowed = verdicts[rows] = any(is_isomorphic(sub, p) for p in spec.allowed)
        if not allowed:
            bad.append(m)
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
    """Probe x for depth-bounded copies of the three obstruction orders."""
    poset = x.poset if hasattr(x, "poset") else x
    config.check_size(len(poset), config.INTERVAL_ENUM_BOUND, bound, "poset", "elements")
    return PrefixReport(
        depth,
        tree=embed(canonical("binary_tree_prefix", depth), poset),
        reversed_tree=embed(canonical("reversed_binary_tree_prefix", depth), poset),
        perp=embed(canonical("perp_prefix", depth), poset),
    )
