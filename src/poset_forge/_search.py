"""The one backtracking driver behind every injection search.

``backtrack`` fills sources ``0 .. n-1`` in ascending order with distinct
targets, bit ``j`` of an int standing for target ``j``.  The candidates for
source ``i`` are ``allowed[i]`` (colours, degree pruning) minus the used
targets, ANDed with ``table[assign[p]]`` for each ``(p, table)`` in
``rows[i]``.  Candidates are taken lowest bit first, so the witness is the
lexicographically first injection.

``code_rows`` makes an injection relation-exact: for ``p < i`` the table is
``y.above`` when p < i in x, ``y.below`` when p > i and ``y.beside`` when
they are incomparable, read off x's rows.  It serves ``search_injection``
(poset and coloured embedding) only, which is just that.
``dectree.st_embed`` passes one row per tree node instead, ``(parent,
y.above)``, and ``narrow(i, assign, c)``, which returns the part of the
candidate mask ``c`` that its meet and label conditions allow, since each
involves two earlier sources; together they give what the relation-code
rows would (``dectree._conditions``).  ``narrow`` reads only the images of
sources before i, so ``dectree.verify_st_embedding`` calls it on a complete
map too.
"""


def backtrack(allowed, rows, narrow=None):
    """First assignment of distinct targets to the sources, as a list of
    target indices, or None."""
    n = len(allowed)
    if n == 0:
        return []
    # a source with no admissible target at all can never be placed
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


def code_rows(x, y):
    """Per source i of x, the rows keeping its image in the same relation to
    each earlier source's image as i has to that source in x."""
    return [
        [
            (p, y.above if dn >> p & 1 else y.below if up >> p & 1 else y.beside)
            for p in range(i)
        ]
        for i, (dn, up) in enumerate(zip(x.below, x.above))
    ]


def search_injection(x, y, allowed):
    """First relation-exact injection of x into y, as a list of target
    indices, or None.

    ``allowed`` holds one int bitmask of permitted targets per source.
    """
    return backtrack(allowed, code_rows(x, y))


def degree_mask(x, y):
    """Per source, the targets whose relation counts can accommodate it.

    Every element above/below/incomparable-to i must land above/below/
    incomparable-to its image, so matching counts are a sound prefilter that
    cannot remove any completable assignment.  With y's cumulative masks
    (``Poset.degree_table``: bit j of ``up_ge[k]`` set iff target j has at
    least k elements above it), a source with counts (a, b, s) allows
    ``up_ge[a] & down_ge[b] & beside_ge[s]``, the targets whose three counts
    are each at least the source's.
    """
    if len(x) > len(y):
        # a source's counts sum to len(x) - 1 and a target's to len(y) - 1,
        # so one of the source's counts exceeds the target's: no target fits
        return [0] * len(x)
    _, up_ge, down_ge, beside_ge = y.degree_table()
    return [up_ge[a] & down_ge[b] & beside_ge[s] for a, b, s in x.degree_table()[0]]
