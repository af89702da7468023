"""Backtracking kernel for relation-exact injections.

Both poset embedding and coloured embedding reduce to the same search: find
an injective map between the elements of two posets such that every ordered
pair of sources has exactly the same relation code as its image pair,
subject to a per-source ``allowed`` target mask computed by the caller
(colour constraints, degree pruning).

Relation codes: 0 incomparable, 1 less-than, 2 greater-than, 3 equal.  The
kernel reads the posets' bitmask rows (``beside``, ``above``, ``below``),
bit ``j`` standing for element ``j``; target sets are Python ints of the
same kind.  For a source ``p`` placed on target ``t``, the targets ``j``
whose relation to ``t`` has a given code are row ``code`` of
``(y.beside[t], y.above[t], y.below[t])``.  The candidates for source ``i``
are its allowed targets, minus the used ones, intersected with one such row
per already placed source.  Sources are filled in ascending order and
candidates are taken lowest bit first, so the witness returned is the
lexicographically first injection.
"""


def search_injection(x, y, allowed):
    """First relation-exact injection of x into y, as a list of target
    indices, or None.

    ``allowed`` holds one int bitmask of permitted targets per source.
    """
    n = len(x)
    if n == 0:
        return []
    if n > len(y):
        return None
    # a source with no admissible target at all can never be placed
    if not all(allowed):
        return None
    by_code = list(zip(y.beside, y.above, y.below))
    # codes[i][p]: relation code of source p to source i, for p < i
    codes = [[x.code(p, i) for p in range(i)] for i in range(n)]
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
            for p, code in enumerate(codes[i]):
                c &= by_code[assign[p]][code]
            cand[i] = c
        else:
            i -= 1
            if i < 0:
                return None
            used ^= 1 << assign[i]


def degree_mask(x, y):
    """Per source, the targets whose relation counts can accommodate it.

    Every element above/below/incomparable-to i must land above/below/
    incomparable-to its image, so matching counts are a sound prefilter that
    cannot remove any completable assignment.
    """
    def counts(poset):
        return [
            (up.bit_count(), dn.bit_count(), side.bit_count())
            for up, dn, side in zip(poset.above, poset.below, poset.beside)
        ]

    ycounts = counts(y)
    masks = []
    for xa, xb, xs in counts(x):
        mask = 0
        for j, (ya, yb, ys) in enumerate(ycounts):
            if xa <= ya and xb <= yb and xs <= ys:
                mask |= 1 << j
        masks.append(mask)
    return masks
