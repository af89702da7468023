"""Shared test machinery: independent brute-force oracles, exhaustive poset
catalogs, and seeded random generators.

The oracles here restate definitions directly (triple loops, permutation
scans) and never call the library code paths they are used to check.
"""

import itertools

from poset_forge import ColouredPoset, Poset, QuasiOrder, make_poset
from poset_forge.core import one_colour_palette


# -- direct-definition oracles ------------------------------------------------

def rel_name(poset, a, b):
    if a == b:
        return "="
    if poset.lt(a, b):
        return "<"
    if poset.lt(b, a):
        return ">"
    return "|"


def brute_ssr(poset, p, a, b):
    for want in ("<", ">", "|"):
        if (rel_name(poset, p, a) == want) != (rel_name(poset, p, b) == want):
            return False
    return True


def brute_intervals(poset):
    """Every non-empty subset passing the literal interval condition."""
    out = []
    els = poset.elements
    for r in range(1, len(els) + 1):
        for sub in itertools.combinations(els, r):
            inside = set(sub)
            ok = True
            for p in els:
                if p in inside:
                    continue
                for a, b in itertools.combinations(sub, 2):
                    if not brute_ssr(poset, p, a, b):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(frozenset(sub))
    return out


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


def brute_indecomposable(poset):
    n = len(poset)
    return all(len(iv) in (1, n) for iv in brute_intervals(poset))


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

def _labelled_orders(n):
    """All strict orders on range(n) as (dn, up) bitmask row tuples."""
    orders = [((), ())]
    for k in range(n):
        new = []
        for dn, up in orders:
            down_closed = [
                m
                for m in range(1 << k)
                if all(dn[d] & ~m == 0 for d in range(k) if m >> d & 1)
            ]
            up_closed = [
                m
                for m in range(1 << k)
                if all(up[u] & ~m == 0 for u in range(k) if m >> u & 1)
            ]
            for d_mask in down_closed:
                for u_mask in up_closed:
                    if d_mask & u_mask:
                        continue
                    ok = True
                    for d in range(k):
                        if d_mask >> d & 1 and u_mask & ~up[d]:
                            ok = False
                            break
                    if not ok:
                        continue
                    dn2 = list(dn)
                    up2 = list(up)
                    for d in range(k):
                        if d_mask >> d & 1:
                            up2[d] |= 1 << k
                    for u in range(k):
                        if u_mask >> u & 1:
                            dn2[u] |= 1 << k
                    dn2.append(d_mask)
                    up2.append(u_mask)
                    new.append((tuple(dn2), tuple(up2)))
        orders = new
    return orders


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


def iso_classes(n):
    """Representative posets for every isomorphism class on n elements."""
    seen = {}
    for dn, up in _labelled_orders(n):
        key = _iso_key(n, up)
        if key not in seen:
            seen[key] = up
    reps = []
    for up in seen.values():
        ids = [f"e{i}" for i in range(n)]
        pairs = [
            (ids[i], ids[j])
            for i in range(n)
            for j in range(n)
            if up[i] >> j & 1
        ]
        reps.append(make_poset(ids, pairs))
    return reps


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
