"""Class-membership predicates built on indecomposable subsets.

For finite posets, membership in a class cut out by a family of allowed
indecomposables reduces to one check: every indecomposable induced subposet
must be on the list (or within the size budget).  Each subset is tested on
its own with the pair-closure test (``interval._indecomposable_mask``): it
is indecomposable iff every pair inside it closes to the whole subset.
Reports carry witnesses, because everything downstream of these predicates
wants them.
"""

from dataclasses import dataclass, field

from . import config
from .core import Poset, canonical, embed, is_isomorphic
from .errors import TooLarge
from .interval import _indecomposable_mask


def _indecomposable_masks(carrier, max_size):
    return [
        mask
        for mask in range(1, 1 << len(carrier))
        if 2 <= mask.bit_count() <= max_size
        and _indecomposable_mask(carrier, mask)
    ]


def indecomposable_subsets(x, max_size, bound=None):
    """All subsets of size 2..max_size inducing an indecomposable subposet."""
    x = x.poset if hasattr(x, "poset") else x
    limit = config.effective_bound(config.INTERVAL_ENUM_BOUND, bound)
    if len(x) > limit:
        raise TooLarge(f"poset has {len(x)} > {limit} elements")
    if max_size > len(x):
        raise ValueError("max_size exceeds the poset size")
    sets = [
        frozenset(x.elements[i] for i in range(len(x)) if m >> i & 1)
        for m in _indecomposable_masks(x, max_size)
    ]
    sets.sort(key=lambda s: (len(s), tuple(sorted(x.index[e] for e in s))))
    return sets


def is_n_free(x):
    """No induced subposet is a copy of the four-element N."""
    x = x.poset if hasattr(x, "poset") else x
    return embed(canonical("N", 0), x) is None


@dataclass(frozen=True)
class ClassSpec:
    """Allowed indecomposables: an explicit list of posets, or a size cap."""

    allowed: tuple = None  # tuple of Posets, or None
    max_size: int = None  # size cap, or None
    prefix_depth: int = 3

    def __post_init__(self):
        if (self.allowed is None) == (self.max_size is None):
            raise ValueError("give exactly one of allowed or max_size")
        if self.max_size is not None and self.max_size < 1:
            raise ValueError("max_size must be >= 1")
        if self.prefix_depth < 1:
            raise ValueError("prefix_depth must be >= 1")


@dataclass
class ClassReport:
    """Violating indecomposable subsets, in canonical order; empty = member."""

    carrier: Poset
    violations: list = field(default_factory=list)

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
    allowed means at most that many elements.
    """
    poset = x.poset if hasattr(x, "poset") else x
    report = ClassReport(poset)
    if spec.allowed is not None:
        singleton_ok = any(len(p) == 1 for p in spec.allowed)
        if not singleton_ok:
            for e in poset.elements:
                report.violations.append(frozenset([e]))
    for s in indecomposable_subsets(poset, len(poset), bound):
        if spec.max_size is not None:
            if len(s) > spec.max_size:
                report.violations.append(s)
        else:
            sub = poset.restrict(s)
            if not any(is_isomorphic(sub, p) for p in spec.allowed):
                report.violations.append(s)
    report.violations.sort(
        key=lambda s: (len(s), tuple(sorted(poset.index[e] for e in s)))
    )
    return report


@dataclass
class PrefixReport:
    """Which binary-tree-style obstructions embed, with witnesses."""

    depth: int
    tree: object = None  # EmbeddingMap or None
    reversed_tree: object = None
    perp: object = None

    def found(self):
        return [
            name
            for name, w in (
                ("binary_tree_prefix", self.tree),
                ("reversed_binary_tree_prefix", self.reversed_tree),
                ("perp_prefix", self.perp),
            )
            if w is not None
        ]

    def text(self):
        lines = [f"prefix_depth {self.depth}"]
        for name, w in (
            ("binary_tree_prefix", self.tree),
            ("reversed_binary_tree_prefix", self.reversed_tree),
            ("perp_prefix", self.perp),
        ):
            if w is None:
                lines.append(f"{name} absent")
            else:
                image = " ".join(f"{a}->{b}" for a, b in w.mapping)
                lines.append(f"{name} embeds {image}")
        return "\n".join(lines) + "\n"


def pathological_prefix_check(x, depth, bound=None):
    """Probe x for depth-bounded copies of the three obstruction orders."""
    poset = x.poset if hasattr(x, "poset") else x
    limit = config.effective_bound(config.INTERVAL_ENUM_BOUND, bound)
    if len(poset) > limit:
        raise TooLarge(f"poset has {len(poset)} > {limit} elements")
    return PrefixReport(
        depth,
        tree=embed(canonical("binary_tree_prefix", depth), poset),
        reversed_tree=embed(canonical("reversed_binary_tree_prefix", depth), poset),
        perp=embed(canonical("perp_prefix", depth), poset),
    )
