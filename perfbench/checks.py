"""The benchmark's own correctness checks.

These restate definitions with plain loops and never call the library's
search, interval or checking code, so a faster kernel cannot vouch for
itself.  Each check returns a list of error strings; empty means passed.
"""

import hashlib
import itertools


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def embedding_errors(x_elements, rel_x, y_elements, rel_y, mapping, colour_ok=None):
    """Re-check a witness pair by pair: injective, total, relation-exact.

    ``rel_x``/``rel_y`` give relation codes (``Poset.relation`` or
    ``corpus.relation``); ``colour_ok(a, b)`` adds the colour condition.
    """
    m = dict(mapping)
    if len(m) != len(mapping) or set(m) != set(x_elements):
        return ["witness is not a total map on the source"]
    if len(set(m.values())) != len(m):
        return ["witness is not injective"]
    targets = set(y_elements)
    if not set(m.values()) <= targets:
        return ["witness leaves the target"]
    for a in x_elements:
        if colour_ok is not None and not colour_ok(a, m[a]):
            return [f"colour of {a} not below colour of {m[a]}"]
        for b in x_elements:
            if rel_x(a, b) != rel_y(m[a], m[b]):
                return [f"relation of ({a}, {b}) not kept by the witness"]
    return []


def poset_embedding_errors(x, y, mapping):
    return embedding_errors(x.elements, x.relation, y.elements, y.relation, mapping)


def coloured_embedding_errors(x, y, mapping):
    def colour_ok(a, b):
        return x.palette.leq(x.colour(a), y.colour(b))

    return embedding_errors(
        x.elements, x.poset.relation, y.elements, y.poset.relation, mapping, colour_ok
    )


def coloured_isomorphism(x, y):
    """A colour-preserving order isomorphism x -> y by plain backtracking,
    or None.  Sources are placed most-constrained first."""
    if len(x) != len(y) or x.palette != y.palette:
        return None
    xs, ys = list(x.elements), list(y.elements)
    xr = [[x.poset.relation(a, b) for b in xs] for a in xs]
    yr = [[y.poset.relation(a, b) for b in ys] for a in ys]

    def profile(rows, i, colour):
        return (colour, tuple(sorted(rows[i])))

    yprof = [profile(yr, j, y.colour(ys[j])) for j in range(len(ys))]
    cands = [
        [j for j in range(len(ys)) if yprof[j] == profile(xr, i, x.colour(xs[i]))]
        for i in range(len(xs))
    ]
    order = sorted(range(len(xs)), key=lambda i: len(cands[i]))
    assign = {}
    used = set()

    def place(k):
        if k == len(order):
            return True
        i = order[k]
        for j in cands[i]:
            if j in used:
                continue
            if all(xr[p][i] == yr[q][j] for p, q in assign.items()):
                assign[i] = j
                used.add(j)
                if place(k + 1):
                    return True
                del assign[i]
                used.discard(j)
        return False

    if not place(0):
        return None
    return [(xs[i], ys[assign[i]]) for i in range(len(xs))]


def pair_closure(x, members, a, b):
    """Smallest interval of the induced order on ``members`` holding a, b:
    keep adding every outside point that splits the set."""
    inside = {a, b}
    changed = True
    while changed:
        changed = False
        for p in members:
            if p in inside:
                continue
            if len({x.relation(p, q) for q in inside}) > 1:
                inside.add(p)
                changed = True
    return inside


def is_indecomposable(x, members):
    """Every pair closes to the whole set, so no proper interval of two or
    more points exists."""
    members = list(members)
    whole = set(members)
    return all(
        pair_closure(x, members, a, b) == whole
        for a, b in itertools.combinations(members, 2)
    )


def has_n(x):
    """Brute-force search for an induced N: b<a, b<c, d<c, nothing else."""
    els = x.elements
    rel = x.relation
    for a, b, c, d in itertools.permutations(els, 4):
        if (
            rel(b, a) == 1
            and rel(b, c) == 1
            and rel(d, c) == 1
            and rel(a, c) == 0
            and rel(b, d) == 0
            and rel(a, d) == 0
        ):
            return True
    return False
