"""Intervals (modules), indecomposability, quotients and interval chains.

An interval is a non-empty subset whose members are indistinguishable from
outside: every outside point has the same relation (<, > or incomparable)
to all of them.  ``_split`` gives the points that tell a mask's members
apart: a mask is an interval iff no outside point is in its split, and
every test of the interval condition on masks reads it.  ``_parts`` gives
P(M, v), the maximal intervals of M that avoid a point v, which partition M
minus v (Ehrenfeucht, Gabow, McConnell and Sullivan, J. Algorithms 16,
1994), by splitting parts until each is an interval.  The rest is read off
the strong-module tree (Gallai 1967), one node at a time by ``_node``: a
parallel or linear module's children are the components of its
comparability or incomparability rows, and a prime module's are its
anchor's child and the parts of P(M, anchor) that one backward pass over
the rows reaches from the first part, which is always a child
(``_prime_children``).  The canonical chain of a mask, and the blocks of
each of its layers, come from one walk down the strong modules that hold
its anchor (``_spine``).  One walk over every strong module
(``_strong_modules``) serves the rest: ``enumerate_intervals`` lists the
strong modules and the unions and runs of children that parallel and
linear nodes allow, and ``classify`` reads the indecomposable subsets off
its prime nodes' children.  A poset is indecomposable iff its root is
prime with every point a child.  The enumeration and the chain keep a size
bound, and anything too big for it is rejected up front with a clear
error.
"""

from itertools import compress

from . import config
from .core import _Frozen, _bits
from .errors import (
    EmptyPoset,
    EmptySet,
    NotAnInterval,
    NotDistinct,
    Overlap,
    UnknownElement,
)


def ssr(p, a, b, carrier):
    """True iff p relates to a and b the same way (<, > and incomparable)."""
    if len({p, a, b}) != 3:
        raise NotDistinct("ssr needs three distinct elements")
    return carrier.relation(p, a) == carrier.relation(p, b)


def _split(carrier, a, mask):
    """The points that relate to the point at index a differently from some
    point of mask: the union over c in mask of
    ``(above[a] ^ above[c]) | (below[a] ^ below[c])``.

    A point p outside a mask M splits M when it relates to two points of M
    differently.  Fix any a in M.  If p splits M, it relates to one of
    those two points differently from a; and if p relates to some c in M
    differently from a, it splits M at {a, c}.  So p splits M iff some c in
    M relates to p differently from a.  Being distinct from a and c, p
    relates to each of them by whether it lies in its ``above`` row and in
    its ``below`` row, so differently iff p lies in ``above[a] ^ above[c]``
    or in ``below[a] ^ below[c]``.  Hence the points outside M that split
    M are ``_split(carrier, a, M) & ~M``, for any a in M; M is an interval
    iff there are none, and every interval holding M holds them all.
    """
    up, dn = carrier.above, carrier.below
    up_a, dn_a = up[a], dn[a]
    split = 0
    # the bits are walked inline: through the ``_bits`` generator, a job
    # of the decompose benchmark ran about 5% slower (2 cores, CPython 3.11)
    while mask:
        low = mask & -mask
        mask ^= low
        c = low.bit_length() - 1
        split |= (up_a ^ up[c]) | (dn_a ^ dn[c])
    return split


def is_interval(carrier, members):
    """Check the interval condition for one subset: no outside point
    splits it (``_split``)."""
    members = set(members)
    if not members:
        raise EmptySet("an interval is non-empty")
    unknown = members - set(carrier.elements)
    if unknown:
        raise UnknownElement(f"unknown elements {sorted(unknown)}")
    mask = sum(1 << carrier.index[e] for e in members)
    return not _split(carrier, (mask & -mask).bit_length() - 1, mask) & ~mask


def _mask_to_set(carrier, mask):
    names = carrier.elements
    return frozenset(names[i] for i in _bits(mask))


# binary digits as the 0 and 1 selectors of ``itertools.compress``
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _canonical_sets(carrier, masks):
    """The masks as sets of element names, sorted by size and then by their
    ascending index tuples.

    Each mask is read as its bits from index 0 up, as bytes of ``0`` and
    ``1`` digits.  Between two masks of one size, the first index in only
    one of them decides, and the mask that holds it comes first: its digits
    are the larger there.  So the pairs (-size, digits) sort in descending
    order, and each set is read off its digits."""
    names = carrier.elements
    n = len(names)
    keys = sorted([(-m.bit_count(), f"{m:0{n}b}".encode()[::-1]) for m in masks], reverse=True)
    return [frozenset(compress(names, digits.translate(_DIGIT_FLAGS))) for _, digits in keys]


def enumerate_intervals(carrier, bound=None):
    """All intervals, singletons and the full carrier included.

    Returned sorted by (size, canonical index tuple); capped by the interval
    enumeration bound (default 16, overridable).

    Every interval is a strong module, or a union of two or more (not all)
    children of a parallel node, or a run of two or more (not all)
    consecutive children of a linear node (Gallai 1967; Möhring and
    Radermacher, Annals of Discrete Mathematics 19, 1984), and each of
    those is one.  So one walk over the strong modules
    (``_strong_modules``) lists them all, once each.
    """
    n = len(carrier)
    config.check_size(n, config.INTERVAL_ENUM_BOUND, bound, "carrier", "elements")
    masks = [1 << i for i in range(n)]
    for module, kind, children in _strong_modules(carrier):
        masks.append(module)
        if kind == "parallel":
            unions = [0]
            for c in children:
                unions += [u | c for u in unions]
            # union number j holds child i iff bit i of j is set
            masks += [u for j, u in enumerate(unions[:-1]) if j & j - 1]
        elif kind == "linear":
            k = len(children)
            for i in range(k - 1):
                run = children[i]
                for j in range(i + 1, k - (i == 0)):
                    run |= children[j]
                    masks.append(run)
    return _canonical_sets(carrier, masks)


def _parts(carrier, v, within):
    """Masks of P(within, v): the maximal intervals of the order induced on
    the mask within that avoid the point at index v (v must be in within).

    Two intervals that avoid v and meet have an interval avoiding v as their
    union, so these maximal ones partition within minus v (Ehrenfeucht,
    Gabow, McConnell and Sullivan, J. Algorithms 16, 1994).  They are found
    by refinement from the one part within minus v.  A part with no
    splitter in within (``_split``) is an interval, and final.  Otherwise
    it splits three ways by the lowest splitter's ``above``, ``below`` and
    ``beside`` rows, pushed in that order, so that the beside block is
    taken next (``_prime_children`` relies on this order).  No maximal
    interval avoiding v is ever cut, since every splitter of a part holding
    it lies outside it.
    """
    up, dn, side = carrier.above, carrier.below, carrier.beside
    done = []
    todo = [within & ~(1 << v)] if within & within - 1 else []
    while todo:
        part = todo.pop()
        split = _split(carrier, (part & -part).bit_length() - 1, part) & within & ~part
        if not split:
            done.append(part)
            continue
        s = (split & -split).bit_length() - 1
        todo.extend(m for m in (part & up[s], part & dn[s], part & side[s]) if m)
    return done


def is_indecomposable(carrier):
    """True iff every interval is a singleton or the whole poset.

    Every poset on one or two points is.  On three or more, it is iff the
    whole poset is a prime node whose children are its n points (``_node``).
    Every interval of a prime node is the node or lies in one child, and
    each child is an interval.  A parallel or linear node of three or more
    points has a proper interval of two or more: a child, or the union or
    run of two of its children.
    """
    n = len(carrier)
    if n == 0:
        raise EmptyPoset("indecomposability is about non-empty posets")
    if n < 3:
        return True
    kind, children = _node(carrier, 0, (1 << n) - 1)
    return kind == "prime" and len(children) == n


def quotient(carrier, parts):
    """Collapse disjoint intervals to their first-enumerated representative.

    Returns the quotient poset together with the representative map sending
    every carrier element to the element standing for it.
    """
    parts = [frozenset(p) for p in parts]
    for p in parts:
        if not is_interval(carrier, p):
            raise NotAnInterval(f"{sorted(p)} is not an interval")
    seen = set()
    for p in parts:
        if p & seen:
            raise Overlap(f"intervals overlap at {sorted(p & seen)}")
        seen |= p
    rep_of = {}
    for p in parts:
        rep = min(p, key=carrier.index.__getitem__)
        for e in p:
            rep_of[e] = rep
    for e in carrier.elements:
        rep_of.setdefault(e, e)
    kept = [e for e in carrier.elements if rep_of[e] == e]
    return carrier.restrict(kept), rep_of


class Interval(_Frozen):
    """An interval of a fixed carrier poset."""

    __slots__ = ("carrier", "members")

    def __init__(self, carrier, members):
        members = frozenset(members)
        if not is_interval(carrier, members):
            raise NotAnInterval(f"{sorted(members)} is not an interval")
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "members", members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, e):
        return e in self.members


class IntervalChain(_Frozen):
    """Strictly nested intervals of one carrier, largest first."""

    __slots__ = ("carrier", "members")  # members: frozensets, strictly decreasing

    def __init__(self, carrier, members):
        members = tuple(map(frozenset, members))
        for cur, nxt in zip(members, members[1:]):
            if not (nxt < cur):
                raise NotAnInterval("chain entries must be strictly nested")
        for m in members:
            if not is_interval(carrier, m):
                raise NotAnInterval(f"{sorted(m)} is not an interval")
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "members", members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @property
    def intervals(self):
        return tuple(Interval(self.carrier, m) for m in self.members)


def _components(carrier, within, comparable):
    """Masks of the connected components of the comparability graph on the
    mask within (``above | below`` rows), or of its incomparability graph
    (``beside`` rows) when comparable is false, in the order of their lowest
    points."""
    up, dn, side = carrier.above, carrier.below, carrier.beside
    out = []
    rest = within
    while rest:
        comp = new = rest & -rest
        rest ^= new
        while new:
            reach = 0
            while new:
                low = new & -new
                new ^= low
                i = low.bit_length() - 1
                reach |= up[i] | dn[i] if comparable else side[i]
            new = reach & rest
            rest ^= new
            comp |= new
        out.append(comp)
    return out


def _tie(mask):
    """The order in which the chain adds sibling modules: smaller first, and
    on equal sizes the one with the lowest point."""
    return mask.bit_count(), mask & -mask


def _node(carrier, anchor, module):
    """(kind, children) for the strong module ``module``, a mask of two or
    more points, and the point at index anchor in it: its maximal strong
    proper submodules, split one of three ways (Gallai 1967).

    - ``"parallel"``: the comparability rows do not connect the module, and
      its children are their components, by lowest point; any union of them
      is a module;
    - ``"linear"``: the ``beside`` rows do not connect it, and its children
      are their components, each below the next, bottom first; a run of
      consecutive ones is a module;
    - ``"prime"``: any other module.  Every module of it is it or lies in
      one child, and the children, the anchor's first, are read off the
      first part of P(module, anchor) and one backward pass
      (``_prime_children``).
    """
    children = _components(carrier, module, True)
    if len(children) > 1:
        return "parallel", children
    children = _components(carrier, module, False)
    if len(children) == 1:
        return "prime", _prime_children(carrier, anchor, module)
    # bottom first, by the points of the module below each child's first
    # point: all those of the children below it, and fewer than its size of
    # its own
    dn = carrier.below
    children.sort(key=lambda c: (dn[(c & -c).bit_length() - 1] & module).bit_count())
    return "linear", children


def _prime_children(carrier, anchor, module):
    """The children of the prime strong module ``module`` (a mask): first
    the child C of the point at index anchor, a point of it, which is
    ``module & ~reach``, then those that avoid the anchor, in the order of
    ``_parts``.

    Write v for the anchor and S for the module.  Every module of S is S or
    lies in one child, so the children that avoid v are parts of P(S, v)
    (``_parts``), and every other part lies in C.  For a point y of S other
    than v, let same(y) be the one of y's ``above``, ``below`` and
    ``beside`` rows that holds v, and diff(y) the points of S outside
    same(y) and other than y: those that y relates to differently than to
    v.  v is in no diff(y).

    1. A set T of S that holds v and misses y is split by y iff T meets
       diff(y).  So the closure of T in S, the smallest module of S that
       holds T, is T plus every y with a path y, y1, ..., z into T, each
       point in the diff of the one before.  No such path ends at v, so it
       ends in T minus v.
    2. For a point z of S other than v, the closure of {z, v} is S iff z
       is outside C: if z is in C, C is a module that holds both; if not,
       the closure meets two children, so it lies in no child and is S.
    3. The first part X of ``_parts`` is a child that avoids v, whichever
       splitter ``_parts`` takes.  Write U, D and W for the points of S
       above, below and beside v.  S minus v is no module (it would lie in
       one child, leaving S at most two), and v is its only possible
       splitter in S, so its first split pushes U, D and W in that order,
       and W is popped first.  W minus C is not empty: in the prime
       quotient of S, were C's point comparable to every other point, the
       points below it would form a module, and so would those above it,
       which leaves at most 3 points.  Now let a popped part P meet C and
       hold all of W minus C.  P meets two children, so it is no module
       and not final, and each splitter s of P lies in U, D or C, since P
       lies in W and holds W minus C.
       - s in C: each point of W minus C is beside v, so beside s too, C
         being a module.  The beside block holds all of W minus C, and is
         pushed last and popped next.
       - s in U minus C: s lies above all of C, so C's points in P go to
         the below block.  No point of W minus C lies above s, or it would
         lie above v.  So the beside block is not empty (else s would not
         split P), misses C, and is pushed last and popped next.
       - s in D minus C: the same, upside down.
       So from W on, the parts popped hold all of W minus C until one
       misses C.  That one holds a point of W minus C, and so does every
       part popped after it up to the first finished one, X, since each of
       them lies inside it.  A finished part is a member of P(S, v), a
       module other than S, so it lies in one child; if that child is not
       C, it avoids v, and the part, being maximal, is that child.  X
       misses C, so it is a child that avoids v.  The proof relies
       only on ``_parts`` pushing the above, below and beside blocks in
       that order, and popping the last block pushed.
    4. The backward pass.  ``reach`` starts at X and adds diff(y) for each
       point y it has just added, inside S, until nothing is new; it never
       adds v.  A point z it reaches has a path from a point x of X, so by
       1 the closure of {z, v} holds x, which is outside C; that closure is
       then S, and by 2 z is outside C.  Conversely, for z outside C and
       other than v, the closure of {z, v} is S by 2, so by 1 each x in X
       has a path to z, and ``reach`` holds z.  So ``reach`` is S minus C,
       and the children that avoid v are the parts that meet it.
    """
    up, dn, side = carrier.above, carrier.below, carrier.beside
    parts = _parts(carrier, anchor, module)
    reach = new = parts[0]
    while new:
        diff = 0
        while new:
            low = new & -new
            new ^= low
            y = low.bit_length() - 1
            row = up[y]
            if not row >> anchor & 1:
                row = dn[y]
                if not row >> anchor & 1:
                    row = side[y]
            diff |= ~row
        new = diff & module & ~reach
        reach |= new
    return [module & ~reach] + [x for x in parts if x & reach]


def _strong_modules(carrier):
    """(module, kind, children) for every strong module of the carrier of
    two or more points, from the whole carrier down (``_node``).

    One walk with an explicit stack opens each such module once, at its
    lowest point; the children it pushes are those ``_node`` gave, before
    the consumer sees the list, so the walk's order does not depend on
    what the consumer does with it.
    """
    stack = [(1 << len(carrier)) - 1] if len(carrier) > 1 else []
    while stack:
        module = stack.pop()
        kind, children = _node(carrier, (module & -module).bit_length() - 1, module)
        stack += [c for c in children if c & c - 1]
        yield module, kind, children


def _spine(carrier, anchor, within, bound=None):
    """The canonical chain of the order induced on the mask within, from
    within down to the point at index anchor, as (member, children) pairs,
    largest member first: children are the masks that the member adds to
    the next member (none for the anchor alone).  The size bound of
    ``enumerate_intervals`` applies to within's points.

    The chain is the greedy one: while any interval can be inserted keeping
    all members pairwise nested, insert the smallest, breaking ties by the
    lexicographically least sorted index tuple.  It is read off the strong
    modules that hold the anchor, the modules that overlap no module
    (Ehrenfeucht, Gabow, McConnell and Sullivan, J. Algorithms 16, 1994),
    walked down from within one node at a time (``_node``).

    Every module of within that holds the anchor and a point outside the
    anchor's child C of a strong module S holds C, being a module that
    meets the strong C without lying in it.  So read bottom-up, the greedy
    chain passes through each strong module on the walk, and between C and
    S it takes the smallest modules that hold C: at a prime node S itself;
    at a parallel node C plus the other children one at a time, in ``_tie``
    order; at a linear node C plus the smaller (``_tie``) of the two
    neighbouring children of the run, one at a time.  Equal sizes go to the
    lower index tuple, which holds the lowest point where two candidates
    differ, and so the lowest point of the two children they add.
    """
    config.check_size(
        within.bit_count(), config.INTERVAL_ENUM_BOUND, bound, "carrier", "elements"
    )
    point = 1 << anchor
    spine = []
    module = within
    while module != point:
        kind, children = _node(carrier, anchor, module)
        if kind == "prime":
            spine.append((module, children[1:]))
            module = children[0]
            continue
        if kind == "parallel":
            added = sorted((c for c in children if not c & point), key=_tie)
        else:
            t = next(k for k, c in enumerate(children) if c & point)
            lower, upper = children[:t][::-1], children[t + 1 :]  # nearest first
            added = []
            while lower or upper:
                if not upper or lower and _tie(lower[0]) < _tie(upper[0]):
                    added.append(lower.pop(0))
                else:
                    added.append(upper.pop(0))
        for c in reversed(added):
            spine.append((module, [c]))
            module &= ~c
    spine.append((point, []))
    return spine


def maximal_interval_chain(carrier, anchor=None, bound=None):
    """Canonical maximal nested chain from the full carrier down to {anchor},
    which defaults to the first canonical element (``_spine``)."""
    if len(carrier) == 0:
        raise EmptyPoset("cannot chain an empty poset")
    if anchor is None:
        anchor = carrier.elements[0]
    if anchor not in carrier:
        raise UnknownElement(f"unknown anchor {anchor!r}")
    full = (1 << len(carrier)) - 1
    spine = _spine(carrier, carrier.index[anchor], full, bound)
    return IntervalChain(carrier, tuple(_mask_to_set(carrier, m) for m, _ in spine))
