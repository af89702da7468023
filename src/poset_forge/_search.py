"""Backtracking kernel for relation-exact injections.

Both poset embedding and coloured embedding reduce to the same search: find
an injective map between index sets such that every ordered pair of sources
has exactly the same relation code as its image pair, subject to a per-source
``allowed`` target mask computed by the caller (colour constraints, degree
pruning).

Relation codes: 0 incomparable, 1 less-than, 2 greater-than, 3 equal.
Relation matrices are lists of rows of these codes; target sets are Python
ints used as bitsets, bit ``j`` standing for target ``j``.

The kernel precomputes, for every target ``t`` and code, the set of targets
``j`` with ``yrel[t][j] == code``.  The candidates for source ``i`` are its
allowed targets, minus the used ones, intersected with one such set per
already placed source.  Sources are filled in ascending order and candidates
are taken lowest bit first, so the witness returned is the lexicographically
first injection.
"""


def search_injection(xrel, yrel, allowed):
    """First relation-exact injection, as a list of target indices, or None.

    ``xrel``/``yrel`` are square relation-code matrices given as lists of
    rows; ``allowed`` holds one int bitmask of permitted targets per source.
    """
    n = len(xrel)
    if n == 0:
        return []
    if n > len(yrel):
        return None
    # a source with no admissible target at all can never be placed
    if not all(allowed):
        return None
    cols = []
    for row in yrel:
        by_code = [0, 0, 0, 0]
        for j, code in enumerate(row):
            by_code[code] |= 1 << j
        cols.append(by_code)
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
            for p in range(i):
                c &= cols[assign[p]][xrel[p][i]]
            cand[i] = c
        else:
            i -= 1
            if i < 0:
                return None
            used ^= 1 << assign[i]


def degree_mask(xrel, yrel):
    """Per source, the targets whose relation counts can accommodate it.

    Every element below/above/incomparable-to i must land below/above/
    incomparable-to its image, so matching counts are a sound prefilter that
    cannot remove any completable assignment.
    """
    def counts(rel):
        return [(row.count(1), row.count(2), row.count(0)) for row in rel]

    ycounts = counts(yrel)
    masks = []
    for xl, xg, xi in counts(xrel):
        mask = 0
        for j, (yl, yg, yi) in enumerate(ycounts):
            if xl <= yl and xg <= yg and xi <= yi:
                mask |= 1 << j
        masks.append(mask)
    return masks
