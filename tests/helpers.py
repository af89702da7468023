"""Shared test machinery: independent brute-force oracles, exhaustive poset
catalogs, and seeded random generators.

The oracles here restate definitions directly (triple loops, permutation
scans) and never call the library code paths they are used to check.  The
exceptions are the library's former designs, kept to check their
replacements: ``close``, the library's former closure of a mask, which
shares only ``interval._split`` with the library (and is checked against
``brute_intervals`` itself); ``pair_closure_indecomposable``, the old
indecomposability test, one closure per pair; ``greedy_chain_masks``, the
old interval chain, grown one closure at a time; ``closure_children``, the
old children of a prime node, one closure per part; ``brute_h_eta``, the
old index poset from name pairs; ``extract_recompose``, the old recomposition,
which evaluates one extracted tree per slot; ``backward_backtrack``
with ``backward_code_rows``, the old search kernel, which checks each
source against the earlier ones only once it reaches it; and
``full_label_narrow``, the old meet and label entries of ``st_embed``,
which give every node above a sum node one code per earlier first node,
read against the target tree's definition (``target_masks``); and
``argparse_oracle``, the CLI's former argparse parser.
"""

import argparse
import contextlib
import functools
import io
import itertools

from hypothesis import strategies as st

from poset_forge import (
    ColouredPoset,
    Poset,
    QuasiOrder,
    make_poset,
)
from poset_forge.composition import CompositionSequence, eval_f_eta, render_position
from poset_forge.dectree import StructuredTree, subtree_extract
from poset_forge.interval import _split
from poset_forge.core import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    EmbeddingMap,
    _bits,
    one_colour_palette,
)


# -- direct-definition oracles ------------------------------------------------

def rel_name(poset, a, b):
    if a == b:
        return "="
    if poset.lt(a, b):
        return "<"
    if poset.lt(b, a):
        return ">"
    return "|"


def brute_lt(elements, pairs):
    """The strict order generated by pairs: every (a, b) with b reachable
    from a along one or more generating pairs, found by depth-first search."""
    succ = {e: [] for e in elements}
    for a, b in pairs:
        succ[a].append(b)
    out = set()
    for a in elements:
        stack = list(succ[a])
        seen = set()
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ[b])
        out |= {(a, b) for b in seen}
    return out


def brute_ssr(poset, p, a, b):
    for want in ("<", ">", "|"):
        if (rel_name(poset, p, a) == want) != (rel_name(poset, p, b) == want):
            return False
    return True


def induced(poset, names):
    """The order induced on names, stored in the order given, from the name
    pairs that ``poset.lt`` reports."""
    names = list(names)
    return make_poset(names, [(a, b) for a in names for b in names if poset.lt(a, b)])


def brute_intervals(poset):
    """Every non-empty subset passing the literal interval condition: each
    point outside it has one relation to all of its points."""
    out = []
    els = poset.elements
    rel = {(p, a): rel_name(poset, p, a) for p in els for a in els}
    for r in range(1, len(els) + 1):
        for sub in itertools.combinations(els, r):
            inside = set(sub)
            if all(
                len({rel[p, a] for a in sub}) == 1 for p in els if p not in inside
            ):
                out.append(frozenset(sub))
    return out


def brute_strong_modules(poset):
    """The intervals from ``brute_intervals`` that overlap no other: each
    other interval is disjoint from it, inside it or around it."""
    intervals = brute_intervals(poset)
    return [
        s for s in intervals
        if all(not s & t or s <= t or t <= s for t in intervals)
    ]


def brute_prime_children(poset):
    """Each prime strong module with its children, as sets of names: the
    strong modules (``brute_strong_modules``) whose children, the maximal
    strong modules strictly inside one, are neither pairwise comparable nor
    pairwise incomparable."""
    strong = brute_strong_modules(poset)
    out = {}
    for s in strong:
        inner = [t for t in strong if t < s]
        children = {t for t in inner if not any(t < u for u in inner)}
        pairs = [
            poset.relation(min(a), min(b)) == INCOMPARABLE
            for a, b in itertools.combinations(children, 2)
        ]
        if any(pairs) and not all(pairs):
            out[s] = children
    return out


def brute_prime_modules(poset):
    """The prime strong modules (``brute_prime_children``)."""
    return list(brute_prime_children(poset))


def brute_interval_chain(poset, anchor=None, intervals=None):
    """The canonical maximal interval chain, largest member first, by greedy
    insertion: from {full set, {anchor}}, insert the least interval, by size
    and then by sorted index tuple, nested with every member, while there
    is one.  ``intervals`` defaults to ``brute_intervals(poset)``."""
    if anchor is None:
        anchor = poset.elements[0]
    if intervals is None:
        intervals = brute_intervals(poset)
    index = {e: i for i, e in enumerate(poset.elements)}
    chain = {frozenset(poset.elements), frozenset([anchor])}
    candidates = sorted(intervals, key=lambda s: (len(s), sorted(index[e] for e in s)))
    grown = True
    while grown:
        grown = False
        for s in candidates:
            if s not in chain and all(s <= c or c <= s for c in chain):
                chain.add(s)
                grown = True
                break
    return tuple(sorted(chain, key=len, reverse=True))


def close(carrier, members, within):
    """Closure of the mask members inside the mask within (members must be
    a non-empty part of within): the smallest interval of the order induced
    on within that contains members.

    Every interval of within that holds C holds the points of within that
    split C (``interval._split``), so C grows by them until none is left,
    with a fixed to C's lowest point and each round splitting only by the
    points just added (the split's union distributes over the mask), and
    none once C is all of within.
    """
    a = (members & -members).bit_length() - 1
    closed = new = members
    while new and closed != within:
        new = _split(carrier, a, new) & within & ~closed
        closed |= new
    return closed


def greedy_chain_masks(carrier, anchor, within):
    """Masks, largest first, of the canonical chain of the order induced on
    the mask within, from within down to the point at index anchor, grown
    upwards one closure at a time: the least closure of a member c plus one
    point, by size and then by sorted index tuple, is the interval the
    greedy insertion puts next above c.  The library's former chain."""
    c = 1 << anchor
    masks = [c]
    while c != within:
        best = within
        for x in range(within.bit_length()):
            if (within & ~c) >> x & 1:
                m = close(carrier, c | 1 << x, within)
                # equal sizes: the lexicographically lesser index tuple holds
                # the lowest point where the two masks differ
                diff = m ^ best
                if m.bit_count() < best.bit_count() or (
                    m.bit_count() == best.bit_count() and m & diff & -diff
                ):
                    best = m
        c = best
        masks.append(c)
    return masks[::-1]


def closure_children(carrier, anchor, module, parts):
    """The children of the prime strong module ``module`` that avoid the
    point at index anchor, by one closure per part: the parts of P(module,
    anchor), in the order of ``parts``, whose closure with the anchor is
    the whole module."""
    point = 1 << anchor
    return [x for x in parts if close(carrier, x | point, module) == module]


def transpose(rows):
    """The rows of the converse relation: bit i of row j set iff bit j of
    row i is, one pair at a time."""
    n = len(rows)
    return [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]


def alternating_nesting(levels, innermost_first=True):
    """The series-parallel nesting x0, x1, ..., x<levels>: each odd x_k is
    above every earlier point and each even one beside them all.  Stored
    with x0 first, or with x<levels> first."""
    n = levels + 1
    odd = sum(1 << k for k in range(1, n, 2))
    above = [odd & -(2 << k) for k in range(n)]
    ids = [f"x{k}" for k in range(n)]
    if not innermost_first:
        ids.reverse()
        # point k moves to n - 1 - k: reverse each row's n bits
        above = [int(format(row, f"0{n}b")[::-1], 2) for row in reversed(above)]
    return Poset(ids, above)


def brute_maximal_blocks(poset, stand_in):
    """The maximal intervals with two or more points that avoid stand_in."""
    blocks = [
        iv for iv in brute_intervals(poset) if len(iv) >= 2 and stand_in not in iv
    ]
    return {iv for iv in blocks if not any(iv < other for other in blocks)}


def brute_parts(poset, avoid, intervals=None):
    """The maximal intervals that avoid the element avoid, singletons
    included.  ``intervals`` defaults to ``brute_intervals(poset)``."""
    if intervals is None:
        intervals = brute_intervals(poset)
    parts = [iv for iv in intervals if avoid not in iv]
    return {iv for iv in parts if not any(iv < other for other in parts)}


def chain_layers(poset, members):
    """Per layer of a chain but the last (members largest first): the order
    induced on the layer plus the first point of the next member, listed
    last, where it stands for the rest of the chain; and that point."""
    out = []
    for cur, rest in zip(members, members[1:]):
        w = min(rest, key=poset.elements.index)
        ids = [e for e in poset.elements if e in cur - rest] + [w]
        pairs = [(a, b) for a in ids for b in ids if poset.lt(a, b)]
        out.append((make_poset(ids, pairs), w))
    return out


def argument_blocks(args, j):
    """Element sets of a decomposition's layer-j arguments with two or more
    points: the blocks that layer's arity collapses."""
    return {frozenset(q.elements) for (i, _), q in args.items() if i == j and len(q) >= 2}


def _brute_tree_nodes(fset):
    """Node keys and ids of the tree that records a composition set, in
    address order, with the ``above_node`` test between two keys.

    Nodes are layer nodes ("i", position, layer) and leaves ("l", position).
    A node's address is one (layer, 1, slot) step per pair of its position
    below the root, then (layer, 0, "") for a layer node; nodes are stored
    in address order.  x is above the layer node (p, i) when x's position
    continues p at a layer at least i, or x is a later layer node of p.
    Ids render the absolute position as the serialization does.
    """
    root = fset.root
    keys = [("i", p, i) for p, seq in fset.sequences.items() for i in range(len(seq))]
    keys += [("l", p) for p in fset.leaves]

    def address(key):
        steps = tuple((j, 1, u) for j, u in key[1][len(root):])
        return steps + ((key[2], 0, ""),) if key[0] == "i" else steps

    def above_node(a, b):
        if a == b or a[0] == "l":
            return False
        _, p, i = a
        if b[0] == "i" and b[1] == p:
            return b[2] > i
        q = b[1]
        return len(q) > len(p) and q[: len(p)] == p and q[len(p)][0] >= i

    keys.sort(key=address)
    ids = [
        (f"{render_position(k[1])}/{k[2]}" if k[1] else str(k[2]))
        if k[0] == "i"
        else render_position(k[1])
        for k in keys
    ]
    return keys, ids, above_node


def brute_tree_rows(fset):
    """Node ids, ``above`` rows and label rows of the tree that records a
    composition set, from the pairwise definitions (``_brute_tree_nodes``).
    The layer node (p, i) labels a node x above it with the slot x's
    position takes at layer i, or with its distinguished slot when that
    layer is past i or x is on p.
    """
    keys, ids, above_node = _brute_tree_nodes(fset)
    above = [sum(1 << b for b, kb in enumerate(keys) if above_node(ka, kb)) for ka in keys]
    label_rows = []
    for ka in keys:
        if ka[0] == "l":
            label_rows.append(())
            continue
        _, p, i = ka
        seq = fset.sequences[p]
        arity, s = seq.arity(i), seq.distinguished(i)
        rows = [0] * len(arity)
        for b, kb in enumerate(keys):
            if above_node(ka, kb):
                on_p = kb[0] == "i" and kb[1] == p
                j, u = (i + 1, s) if on_p else kb[1][len(p)]
                rows[arity.index[s if j > i else u]] |= 1 << b
        label_rows.append(tuple(rows))
    return ids, above, label_rows


def brute_tree_types(fset, leaves, base):
    """What the tree that records a composition set keeps per node, from
    its node keys (``_brute_tree_nodes``): the layer nodes' keys in storage
    order (None for a leaf), and by node id the kind, a layer node's arity
    (``seq.arity``), and a leaf's colour (``base.colour``) and element."""
    keys, ids, _ = _brute_tree_nodes(fset)
    kinds, arities, leaf_colours, leaf_element = {}, {}, {}, {}
    for k, nid in zip(keys, ids):
        if k[0] == "i":
            kinds[nid] = "sum"
            arities[nid] = fset.sequences[k[1]].arity(k[2])
        else:
            kinds[nid] = "leaf"
            leaf_element[nid] = leaves[k[1]]
            leaf_colours[nid] = base.colour(leaves[k[1]])
    internal = [k if k[0] == "i" else None for k in keys]
    return internal, kinds, arities, leaf_colours, leaf_element


def brute_h_eta(seq):
    """Index poset of a composition sequence, plus slot ids -> (i, u), from
    the comparison of every pair of slot ids: slots u, v at layers i, j
    compare by the layer-i arity when i == j, by u below the layer-i
    distinguished slot when i < j, and by v above the layer-j distinguished
    slot when i > j."""
    ids = []
    slot_of = {}
    for i in range(len(seq)):
        for u in seq.slots(i):
            sid = f"{i}.{u}"
            ids.append(sid)
            slot_of[sid] = (i, u)
    pairs = []
    for sid1 in ids:
        i, u = slot_of[sid1]
        for sid2 in ids:
            j, v = slot_of[sid2]
            if sid1 == sid2:
                continue
            if i == j:
                if seq.arity(i).lt(u, v):
                    pairs.append((sid1, sid2))
            elif i < j:
                if seq.arity(i).lt(u, seq.distinguished(i)):
                    pairs.append((sid1, sid2))
            elif seq.arity(j).lt(seq.distinguished(j), v):
                pairs.append((sid1, sid2))
    return make_poset(ids, pairs), slot_of


def extract_recompose(tree, zeta):
    """Recompose a decomposition tree's base along an up-closed chain of
    internal nodes by evaluating one ``subtree_extract`` per slot.

    The chain's arities and the labels toward the chain (toward the first
    node above, for the top) make the sequence; the chain is not checked.
    """
    poset = tree.tree.poset
    zeta = sorted(set(zeta), key=poset.index.__getitem__)
    entries = []
    for idx, node in enumerate(zeta):
        if idx + 1 < len(zeta):
            s = tree.tree.label(node, zeta[idx + 1])
        else:
            above = [m for m in poset.elements if poset.lt(node, m)]
            s = tree.tree.label(node, above[0])
        entries.append((tree.tree.arities[node], s))
    seq = CompositionSequence(tuple(entries))
    args = {
        (idx, u): subtree_extract(tree, node, u).evaluate()
        for idx, node in enumerate(zeta)
        for u in seq.slots(idx)
    }
    return eval_f_eta(seq, args)


def backward_backtrack(allowed, rows, narrow=None):
    """First assignment of distinct targets to the sources, as a list of
    target indices, or None, checking backward: ``rows[i]`` lists
    ``(p, table)`` for earlier sources p, and source i's candidates are
    ``allowed[i]`` minus the used targets, ANDed with ``table[assign[p]]``
    per row, then ``narrow``."""
    n = len(allowed)
    if n == 0:
        return []
    if not all(allowed):
        return None
    assign = [0] * n
    cand = [0] * n
    cand[0] = allowed[0]
    used = 0
    i = 0
    while True:
        c = cand[i]
        if c:
            low = c & -c
            cand[i] = c ^ low
            assign[i] = low.bit_length() - 1
            used |= low
            i += 1
            if i == n:
                return assign
            c = allowed[i] & ~used
            for p, table in rows[i]:
                c &= table[assign[p]]
            if c and narrow is not None:
                c = narrow(i, assign, c)
            cand[i] = c
        else:
            i -= 1
            if i < 0:
                return None
            used ^= 1 << assign[i]


def backward_code_rows(x, y):
    """Per source i of x, the rows keeping its image in the same relation to
    each earlier source's image as i has to that source in x."""
    return [
        [
            (p, y.above if dn >> p & 1 else y.below if up >> p & 1 else y.beside)
            for p in range(i)
        ]
        for i, (dn, up) in enumerate(zip(x.below, x.above))
    ]


def brute_tree_rank(poset):
    """Height of a rooted tree, bottom-up: nodes with nothing above are 0,
    and every other node is one more than the most of any node above it."""
    order = sorted(poset.elements, key=lambda e: len(poset.up(e)))
    rank = {}
    for e in order:
        rank[e] = max((rank[f] + 1 for f in poset.up(e)), default=0)
    return rank[poset.minimal_elements()[0]]


def brute_scattered_rank(poset):
    """Scattered rank of a rooted tree from its definition: singletons are
    0, and a tree is one more than the least, over its root paths, of the
    greatest rank of a cone hanging off the path; the cones are memoised as
    sets of names."""
    parent = {}
    for e in poset.elements:
        below = poset.down(e)
        parent[e] = max(below, key=lambda f: len(poset.down(f)), default=None)

    @functools.lru_cache(maxsize=None)
    def rank(cone):
        nodes = set(cone)
        if len(nodes) <= 1:
            return 0
        best = None
        for t in cone:
            path = {n for n in nodes if poset.leq(n, t)}
            worst = 0
            for d in nodes - path:
                if parent[d] in path:
                    sub = frozenset(n for n in nodes if poset.leq(d, n))
                    worst = max(worst, rank(sub))
            if best is None or worst < best:
                best = worst
        return best + 1

    return rank(frozenset(poset.elements))


def brute_embed(x, y):
    """First embedding by scanning injections in lexicographic order."""
    if len(x) > len(y):
        return None
    for targets in itertools.permutations(y.elements, len(x.elements)):
        m = dict(zip(x.elements, targets))
        if all(
            x.lt(a, b) == y.lt(m[a], m[b])
            for a in x.elements
            for b in x.elements
        ):
            return m
    return None


def brute_coloured_embed(x, y, colour_ok=None):
    """First coloured embedding by scanning injections in lexicographic order.

    ``colour_ok(c, d)`` decides whether colour c may map to colour d; by
    default the shared palette's order, so colours may only increase.
    """
    if colour_ok is None:
        colour_ok = x.palette.leq
    if len(x) > len(y):
        return None
    for targets in itertools.permutations(y.elements, len(x.elements)):
        m = dict(zip(x.elements, targets))
        if all(
            colour_ok(x.colour(a), y.colour(m[a])) for a in x.elements
        ) and all(
            x.poset.lt(a, b) == y.poset.lt(m[a], m[b])
            for a in x.elements
            for b in x.elements
        ):
            return m
    return None


@functools.lru_cache(maxsize=None)
def brute_degree_counts(poset):
    """Per element a, the numbers of elements above, below and incomparable
    to a, counted by relation name."""
    els = poset.elements
    return tuple(
        tuple(sum(rel_name(poset, a, b) == r for b in els) for r in "<>|")
        for a in els
    )


def brute_allowed_masks(x, y, colour_ok=None):
    """Per source of x, the bitmask of targets of y that a search may try,
    built pair by pair: each of the target's three relation counts is at
    least the source's and, for coloured posets, ``colour_ok(c, d)`` holds
    for the source's colour c and the target's colour d (by default the
    shared palette's order)."""
    coloured = isinstance(x, ColouredPoset)
    if coloured and colour_ok is None:
        colour_ok = x.palette.leq
    xp, yp = (x.poset, y.poset) if coloured else (x, y)
    ycounts = brute_degree_counts(yp)
    masks = []
    for a, (up, dn, side) in zip(xp.elements, brute_degree_counts(xp)):
        mask = 0
        for j, (b, (yup, ydn, yside)) in enumerate(zip(yp.elements, ycounts)):
            if up <= yup and dn <= ydn and side <= yside and (
                not coloured or colour_ok(x.colour(a), y.colour(b))
            ):
                mask |= 1 << j
        masks.append(mask)
    return masks


def brute_is_embedding(x, y, emap):
    """Whether emap embeds the poset x in y, by the definition: it sends
    every element of x, and nothing else, to distinct elements of y, and
    each ordered pair keeps its relation name."""
    m = emap.as_dict()
    return (
        set(m) == set(x.elements)
        and len(set(m.values())) == len(m)
        and all(b in y.elements for b in m.values())
        and all(
            rel_name(x, a, b) == rel_name(y, m[a], m[b])
            for a in x.elements
            for b in x.elements
        )
    )


def _brute_meet(tree, a, b):
    """The greatest common lower bound of a and b, found by name."""
    def leq(c, d):
        return rel_name(tree.poset, c, d) in "<="

    common = [c for c in tree.nodes if leq(c, a) and leq(c, b)]
    (top,) = [c for c in common if all(leq(d, c) for d in common)]
    return top


@functools.lru_cache(maxsize=None)
def _brute_embeds(x, y):
    return brute_embed(x, y) is not None


def brute_is_st_embedding(tx, ty, emap):
    """Whether emap is a structured-tree embedding, by the definition: a
    shared ground palette, an embedding of the tree orders, colours that
    increase (leaves to leaves along the palette, sums to sums whose arity
    embeds the source's), meets sent to meets, and under each sum node v
    one map of labels, ``tree.label(v, x)`` to ``label(f(v), f(x))``, that
    keeps each pair's relation name in the arities."""
    s, t = getattr(tx, "tree", tx), getattr(ty, "tree", ty)
    if s.ground_palette != t.ground_palette:
        return False
    if not brute_is_embedding(s.poset, t.poset, emap):
        return False
    m = emap.as_dict()
    for a in s.nodes:
        kind = s.kinds[a]
        if kind != t.kinds[m[a]]:
            return False
        if kind == "leaf":
            if not s.ground_palette.leq(s.leaf_colours[a], t.leaf_colours[m[a]]):
                return False
        elif not _brute_embeds(s.arities[a], t.arities[m[a]]):
            return False
    for a in s.nodes:
        for b in s.nodes:
            if m[_brute_meet(s, a, b)] != _brute_meet(t, m[a], m[b]):
                return False
    for v in s.nodes:
        if s.kinds[v] != "sum":
            continue
        th = {}
        for x in s.nodes:
            if rel_name(s.poset, v, x) == "<":
                th.setdefault(s.label(v, x), set()).add(t.label(m[v], m[x]))
        if any(len(images) != 1 for images in th.values()):
            return False
        th = {la: images.pop() for la, images in th.items()}
        if not all(
            rel_name(s.arities[v], a, b) == rel_name(t.arities[m[v]], th[a], th[b])
            for a in th
            for b in th
        ):
            return False
    return True


def brute_st_embed(tx, ty):
    """First structured-tree embedding by scanning injections in
    lexicographic order through the definition oracle."""
    src = getattr(tx, "tree", tx).nodes
    for targets in itertools.permutations(getattr(ty, "tree", ty).nodes, len(src)):
        cand = EmbeddingMap(tuple(zip(src, targets)), "structured-tree")
        if brute_is_st_embedding(tx, ty, cand):
            return cand
    return None


def label_code(T, t, u, x):
    """The relation code of u's label to x's label, for nodes u and x of T
    above its sum node t (by index), read through ``T.label`` and the rows
    of t's arity."""
    v, arity = T.nodes[t], T.arities[T.nodes[t]]
    lu = arity.index[T.label(v, T.nodes[u])]
    lx = arity.index[T.label(v, T.nodes[x])]
    if lu == lx:
        return EQUAL
    if arity.above[lu] >> lx & 1:
        return LESS
    return GREATER if arity.below[lu] >> lx & 1 else INCOMPARABLE


def same_child_cone(T, t, u, x):
    """Whether nodes u and x of T lie in one child cone of t (by index):
    some node above t is at or below both, by T's order rows."""
    above, below = T.poset.above, T.poset.below
    return bool((below[u] | 1 << u) & (below[x] | 1 << x) & above[t])


def target_masks(T, t, u):
    """The 5-tuple of masks over the up-set of T's sum node t that a target
    keeps for node u above t (``StructuredTree._target_tables``), from its
    definition: at each relation code, the nodes x with ``label_code(T, t,
    u, x)`` that code; at the code after EQUAL, the nodes outside u's child
    cone of t."""
    masks = [0] * 5
    for x in _bits(T.poset.above[t]):
        masks[label_code(T, t, u, x)] |= 1 << x
        if not same_child_cone(T, t, u, x):
            masks[4] |= 1 << x
    return tuple(masks)


def full_label_narrow(S, T):
    """``narrow(i, assign, c)`` for the st_embed search of S into T, with
    every meet and label entry of the old set-up: one meet entry per
    earlier sibling, found by a scan of the earlier nodes, and, under each
    sum node p below i, one relation code (EQUAL included) against every
    earlier node that is the first above p with its label.  It reads T
    through ``T.label``, the arity rows and T's order rows alone, not
    through the tables a target keeps: f(i) keeps the nodes above f(p)
    whose label passes every code, and avoids the child cone of f(m) that
    holds f(q)."""
    spos, tabove = S.poset, T.poset.above
    code = functools.cache(lambda t, u, x: label_code(T, t, u, x))
    parent = [row.bit_length() - 1 for row in spos.below]
    meets = [[(q, m) for q in range(i) if parent[q] == m] for i, m in enumerate(parent)]
    labels = [[] for _ in parent]
    for p, rows in enumerate(S.label_rows):
        if not rows:
            continue
        arity = S.arities[spos.elements[p]]
        a_up, a_dn = arity.above, arity.below
        firsts = [((row & -row).bit_length() - 1, lq) for lq, row in enumerate(rows) if row]
        for li, row in enumerate(rows):
            bit = 1 << li
            for i in _bits(row):
                codes = [
                    (q, EQUAL if lq == li else LESS if a_up[lq] & bit
                     else GREATER if a_dn[lq] & bit else INCOMPARABLE)
                    for q, lq in firsts
                    if q < i
                ]
                if codes:
                    labels[i].append((p, codes))

    def narrow(i, assign, c):
        for q, m in meets[i]:
            c &= sum(1 << x for x in _bits(tabove[assign[m]])
                     if not same_child_cone(T, assign[m], assign[q], x))
        for p, earlier in labels[i]:
            t = assign[p]
            c &= sum(1 << x for x in _bits(tabove[t])
                     if all(code(t, assign[q], x) == k for q, k in earlier))
        return c

    return narrow


def brute_indecomposable(poset):
    n = len(poset)
    return all(len(iv) in (1, n) for iv in brute_intervals(poset))


def brute_indecomposable_mask(poset, mask):
    """True iff no subset of the mask with two or more points, short of the
    whole mask, is an interval of the order induced on the mask: every
    sub-mask is tested against each point of the mask outside it, on the
    poset's rows."""
    up, dn, inc = poset.above, poset.below, poset.beside
    points = [i for i in range(len(poset)) if mask >> i & 1]
    size = len(points)
    sub = mask
    while sub:
        sub = (sub - 1) & mask
        if 1 < sub.bit_count() < size and all(
            sub >> p & 1 or not (sub & ~up[p] and sub & ~dn[p] and sub & ~inc[p])
            for p in points
        ):
            return False
    return True


def pair_closure_indecomposable(poset, mask):
    """True iff the order induced on the non-empty mask is indecomposable,
    by the pair test: every pair inside the mask closes to all of it.

    A proper interval with two or more points contains a pair whose closure
    stays inside it, and a pair closing to all of the mask lies in no such
    interval.  This was the library's own test before
    ``interval.is_indecomposable`` read the root strong module; it shares
    only ``interval._split`` with it, through ``close``.
    """
    rest = mask
    while rest:
        a = rest & -rest
        rest ^= a
        others = rest
        while others:
            b = others & -others
            others ^= b
            if close(poset, a | b, mask) != mask:
                return False
    return True


def brute_indecomposable_masks(poset, max_size):
    """Masks of the subsets of 2..max_size points that induce an
    indecomposable order, by size and then by sorted index tuple."""
    masks = (
        sum(1 << i for i in idxs)
        for size in range(2, max_size + 1)
        for idxs in itertools.combinations(range(len(poset)), size)
    )
    return [mask for mask in masks if brute_indecomposable_mask(poset, mask)]


def assert_valid_strict_order(poset):
    els = poset.elements
    assert len(set(els)) == len(els)
    for a in els:
        assert not poset.lt(a, a)
        for b in els:
            assert not (poset.lt(a, b) and poset.lt(b, a))
            for c in els:
                if poset.lt(a, b) and poset.lt(b, c):
                    assert poset.lt(a, c)


# -- exhaustive catalogs -------------------------------------------------------

def _iso_key(n, up):
    """Canonical relation bitmask, minimized over profile-respecting perms."""
    dn = [0] * n
    for i in range(n):
        for j in range(n):
            if up[i] >> j & 1:
                dn[j] |= 1 << i
    prof = [(bin(up[i]).count("1"), bin(dn[i]).count("1")) for i in range(n)]
    for _ in range(2):
        prof = [
            (
                prof[i],
                tuple(sorted(prof[j] for j in range(n) if up[i] >> j & 1)),
                tuple(sorted(prof[j] for j in range(n) if dn[i] >> j & 1)),
            )
            for i in range(n)
        ]
    groups = {}
    for i in range(n):
        groups.setdefault(prof[i], []).append(i)
    blocks = [groups[k] for k in sorted(groups, key=repr)]
    pairs = [
        (i, j) for i in range(n) for j in range(n) if up[i] >> j & 1
    ]
    best = None
    for perm_parts in itertools.product(
        *[itertools.permutations(b) for b in blocks]
    ):
        perm = [0] * n
        slot = 0
        for part in perm_parts:
            for elem in part:
                perm[elem] = slot
                slot += 1
        key = 0
        for i, j in pairs:
            key |= 1 << (perm[i] * n + perm[j])
        if best is None or key < best:
            best = key
    return best


@functools.lru_cache(maxsize=None)
def _iso_class_rows(n):
    """One tuple of up-rows per isomorphism class of strict orders on
    range(n).

    Removing a maximal element from an order on n points leaves an order on
    n - 1 points in which the removed element's down-set is down-closed, so
    putting a new maximal element above each down-closed set of each class
    on n - 1 points reaches every class on n points.
    """
    if n == 0:
        return ((),)
    k = n - 1
    seen = {}
    for up in _iso_class_rows(k):
        dn = [sum(1 << i for i in range(k) if up[i] >> j & 1) for j in range(k)]
        for m in range(1 << k):
            if any(m >> j & 1 and dn[j] & ~m for j in range(k)):
                continue
            rows = tuple(row | (m >> i & 1) << k for i, row in enumerate(up)) + (0,)
            seen.setdefault(_iso_key(n, rows), rows)
    return tuple(seen.values())


def iso_class_generators(n):
    """(ids, pairs) for one strict order per isomorphism class on n elements;
    the pairs are the whole relation."""
    ids = tuple(f"e{i}" for i in range(n))
    return tuple(
        (
            ids,
            tuple(
                (ids[i], ids[j])
                for i in range(n)
                for j in range(n)
                if up[i] >> j & 1
            ),
        )
        for up in _iso_class_rows(n)
    )


def iso_classes(n):
    """Representative posets for every isomorphism class on n elements."""
    return [make_poset(ids, pairs) for ids, pairs in iso_class_generators(n)]


def catalog_upto(n):
    """Dict size -> list of iso-class representatives, sizes 1..n."""
    return {k: iso_classes(k) for k in range(1, n + 1)}


# -- random generators ---------------------------------------------------------

def random_poset(rng, n, p=0.35, prefix="e"):
    ids = [f"{prefix}{i}" for i in range(n)]
    pairs = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return make_poset(ids, pairs)


def shuffled_poset(rng, poset):
    """The same order with its elements stored in a shuffled order."""
    ids = list(poset.elements)
    rng.shuffle(ids)
    return make_poset(ids, poset.lt_pairs())


def random_prime_order(rng, n, p=0.4):
    """A random order on n >= 4 points that is indecomposable, by rejection
    on ``brute_indecomposable``."""
    while True:
        base = random_poset(rng, n, p, "b")
        if brute_indecomposable(base):
            return base


def substituted(rng, base, sizes, prefix="u"):
    """The order with a module of ``sizes[i]`` points in place of the i-th
    point of base, each module a random order (density 0.5), stored in a
    shuffled order: a point of one module is below a point of another iff
    their base points are in that order."""
    ids, home, pairs = [], [], []
    for i, size in enumerate(sizes):
        inner = random_poset(rng, size, 0.5, f"{prefix}{len(ids)}_")
        ids += inner.elements
        home += [i] * size
        pairs += inner.lt_pairs()
    for a, u in enumerate(ids):
        for b, v in enumerate(ids):
            if home[a] != home[b] and base.lt(base.elements[home[a]], base.elements[home[b]]):
                pairs.append((u, v))
    return shuffled_poset(rng, make_poset(ids, pairs))


def substitution_poset(rng, n):
    """A poset on n points (5 <= n <= 21) with a prime node whose children
    are not all single points: N, a fence or a random prime order of 4 to
    7 points, with modules of 2 or 3 points put in at one or more of its
    points (``substituted``)."""
    while True:
        k = rng.randint(max(4, -(-n // 3)), min(7, n - 1))
        kind = rng.randrange(3)
        if kind == 0:
            base = make_poset(["0", "1", "2", "3"], [("0", "2"), ("1", "2"), ("1", "3")])
            k = 4
        elif kind == 1:
            base = make_poset(
                [str(i) for i in range(k)],
                [(str(i), str(i + 1)) if i % 2 == 0 else (str(i + 1), str(i)) for i in range(k - 1)],
            )
        else:
            base = random_prime_order(rng, k)
        if k <= n <= 3 * k:
            break
    sizes = [1] * k
    for _ in range(n - k):
        sizes[rng.choice([i for i in range(k) if sizes[i] < 3])] += 1
    return substituted(rng, base, sizes)


def prime_node_posets(rng, count):
    """count shuffled random posets and count substitution posets
    (``substitution_poset``), each of 6 to 12 points."""
    out = []
    for k in range(count):
        n = 6 + k % 7
        out.append(shuffled_poset(rng, random_poset(rng, n, (0.15, 0.35, 0.6)[k % 3])))
        out.append(substitution_poset(rng, n))
    return out


def random_rooted_tree(rng, n, prefix="t"):
    """A random rooted tree on n nodes, each node after the first hung on
    an earlier one, stored in a shuffled order."""
    ids = [f"{prefix}{i}" for i in range(n)]
    pairs = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
    return shuffled_poset(rng, make_poset(ids, pairs))


PALETTES = [
    one_colour_palette(),
    QuasiOrder(["0", "1"], []),
    QuasiOrder(["0", "1"], [("0", "1")]),
    QuasiOrder(["0", "1", "2"], [("0", "1"), ("0", "2")]),
]


def random_coloured(rng, n, palette=None, p=0.35, prefix="e"):
    if palette is None:
        palette = PALETTES[rng.randrange(len(PALETTES))]
    poset = random_poset(rng, n, p, prefix)
    colouring = {
        e: palette.colours[rng.randrange(len(palette.colours))]
        for e in poset.elements
    }
    return ColouredPoset(poset, colouring, palette)


def uniform(poset):
    return ColouredPoset.uniform(poset)


def raw_tree_args(nodes, pairs, arity=None, labels=None):
    """The ``StructuredTree`` arguments of a structured tree over one ground
    colour, its poset stored in the order of nodes.  Nodes with something
    above are sums; by default their arity is a point and every label its
    slot."""
    poset = make_poset(nodes, pairs)
    sums = {v for v, _ in poset.lt_pairs()}
    point = make_poset(["x"], [])
    return (
        poset,
        {n: "sum" if n in sums else "leaf" for n in nodes},
        {n: arity[n] if arity else point for n in sums},
        {n: "0" for n in nodes if n not in sums},
        one_colour_palette(),
        labels if labels else {vw: "x" for vw in poset.lt_pairs()},
    )


def raw_tree(nodes, pairs, arity=None, labels=None):
    """The structured tree of ``raw_tree_args``."""
    return StructuredTree(*raw_tree_args(nodes, pairs, arity, labels))


SMALL_ARITIES = (
    make_poset(["x"], []),
    make_poset(["x", "y"], [("x", "y")]),
    make_poset(["x", "y"], []),
)


def random_labelled_tree(rng, sizes=(1, 6)):
    """Nodes (parents first), tree pairs, arities and labels of a random
    labelled tree on 1 to 6 nodes, or on as many as ``sizes`` bounds."""
    n = rng.randint(*sizes)
    parent = {k: rng.randrange(k) for k in range(1, n)}
    nodes = [f"n{k}" for k in range(n)]
    pairs = [(nodes[parent[k]], nodes[k]) for k in parent]
    arity = {v: rng.choice(SMALL_ARITIES) for v in nodes[:-1]}
    slot = {c: rng.choice(arity[nodes[parent[k]]].elements)
            for k, c in enumerate(nodes) if k}
    labels = {}
    for k in range(1, n):
        # k's label under every strict ancestor v is the slot of the
        # child of v on the path to k
        c = k
        while c:
            labels[(nodes[parent[c]], nodes[k])] = slot[nodes[c]]
            c = parent[c]
    return nodes, pairs, arity, labels


def random_raw_trees(rng, count):
    """(labels, tree) for count random labelled trees, each stored in both
    its own node order and a shuffled one."""
    out = []
    for _ in range(count):
        nodes, pairs, arity, labels = random_labelled_tree(rng)
        shuffled = nodes[:]
        rng.shuffle(shuffled)
        for order in (nodes, shuffled):
            out.append((labels, raw_tree(order, pairs, arity, labels)))
    return out


# ids made of separators, digits and the stand-in's letters, so that ids
# like "0.s", "s/1", "\\" and "_s" occur
SEPARATOR_ID_ALPHABET = "./\\_s01"


@st.composite
def separator_posets(draw, max_size=6):
    """Hypothesis strategy: posets whose ids are drawn from
    SEPARATOR_ID_ALPHABET, ordered by a random subset of the pairs that
    follow the id list."""
    ids = draw(
        st.lists(
            st.text(SEPARATOR_ID_ALPHABET, min_size=1, max_size=4),
            min_size=1,
            max_size=max_size,
            unique=True,
        )
    )
    pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_poset(ids, [ab for ab, kept in zip(pairs, keep) if kept])


# -- the CLI's former parser -----------------------------------------------------

@functools.lru_cache(maxsize=None)
def _argparse_parser():
    p = argparse.ArgumentParser(
        prog="poset-forge", description="finite poset decomposition toolkit"
    )
    sub = p.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("validate", help="parse files and check invariants")
    s.add_argument("files", nargs="+")

    s = sub.add_parser("decompose", help="maximal decomposition of a poset")
    s.add_argument("file")

    s = sub.add_parser("tree", help="decomposition tree dump")
    s.add_argument("file")

    s = sub.add_parser("embed", help="search an embedding between two posets")
    s.add_argument("source")
    s.add_argument("target")
    s.add_argument("--coloured", action="store_true")

    s = sub.add_parser("lift", help="tree embedding lifted to a poset embedding")
    s.add_argument("source")
    s.add_argument("target")

    s = sub.add_parser("classify", help="check indecomposable subsets")
    s.add_argument("file")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-indecomposable", type=int, default=None)
    group.add_argument("--allowed", nargs="+", default=None)
    s.add_argument("--bound", type=int, default=None)

    s = sub.add_parser("rank", help="rank of a tree poset")
    s.add_argument("file")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--scattered", action="store_true")
    group.add_argument("--tree", action="store_true")
    s.add_argument("--bound", type=int, default=None)

    s = sub.add_parser("quotient", help="collapse disjoint intervals")
    s.add_argument("file")
    s.add_argument(
        "--interval",
        action="append",
        required=True,
        metavar="a,b,...",
        help="comma-separated members; repeatable",
    )

    s = sub.add_parser("antichain", help="marked-zigzag antichain matrix")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--bound", type=int, default=None)

    s = sub.add_parser("matrix", help="embeddability matrix of a family")
    s.add_argument("files", nargs="+")
    s.add_argument("--bound", type=int, default=None)
    return p


def argparse_oracle(argv):
    """What the CLI's former argparse parser made of argv: its values as a
    dict, ``"help"`` when it printed help and exited 0, or None when it
    refused argv (exit 2)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_argparse_parser().parse_args(argv))
        except SystemExit as exc:
            return "help" if exc.code in (0, None) else None
