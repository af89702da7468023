"""The one backtracking kernel behind every injection search, the one
builder of relation-exact rows, and the degree prefilter.

``backtrack(allowed, row, narrow=None)`` fills sources ``0 .. n-1`` in
ascending order with distinct targets, bit ``j`` of an int standing for
target ``j``.  It checks forward (Haralick and Elliott, Artificial
Intelligence 14, 1980): it keeps, per depth, a candidate mask for every
source, starting from ``allowed``.  Placing source i at target v ANDs the
mask of each later source j with ``table[v]`` for each ``(j, table)`` in
``row(i)``; if one of them empties, v is rejected there and then.  When a
source is reached, its candidates are its kept mask minus the used targets,
then ``narrow``.  Candidates are taken lowest bit first, so the witness is
the lexicographically first injection.

Forward checking cannot change that witness.  A reached source's kept mask
is ``allowed`` ANDed with the same tables a check against each placed
source would read, so it gets the same candidates in the same order; and a
rejected placement leaves some later source with no target that the placed
sources allow, so no injection extends it.  The search only skips prefixes
that have no completion.

The two hooks are the caller's.  ``row(i)`` lists ``(j, table)`` for later
sources j.  It is called at most once per source and search: for source 0
before the loop, and for a later source the first time it is reached with
a candidate left after ``narrow``.  A row is read only when its source is
placed, and a source is placed only from a non-empty candidate mask, so
every row is built before it is read.  A row must depend on its source
alone, so the moment it is built changes neither the kept masks nor the
candidates and their order, and so not the witness; a search that dies
early builds only the rows of the sources it reached.  ``narrow(i, assign,
c)``, when given, returns the part of the candidate mask ``c`` that source
i may take given the images ``assign[:i]`` of the earlier sources; it may
read nothing else of ``assign``, so it can be called on a complete map to
re-check it.  ``dectree.st_embed`` passes both: rows over the children its
source tree keeps and a ``narrow`` for its label and meet conditions.

``code_rows(x, y)`` is the one builder of relation-exact rows: for
``j > i`` the table is ``y.above`` when i < j in x, ``y.below`` when
i > j and ``y.beside`` when they are incomparable, read off x's rows.
These are strict rows, so each also drops v itself.  ``search_injection``
is ``backtrack`` on those rows with no ``narrow``: the first injection of x
into y that keeps every ordered pair's relation, inside ``allowed``.  Every
induced-suborder search, coloured or not, single or over a family, is
that call, and differs only in its ``allowed`` masks.

``degree_mask(x, y)`` is the sound prefilter of those masks: per source,
the targets whose above, below and incomparable counts are each at least
the source's.
"""


def backtrack(allowed, row, narrow=None):
    """First assignment of distinct targets to the sources, as a list of
    target indices, or None.

    ``row(i)`` lists ``(j, table)`` for later sources j: placing i at v
    keeps j's candidates inside ``table[v]``.  It is called at most once
    per source, when the search first reaches it with a candidate.
    """
    n = len(allowed)
    if n == 0:
        return []
    # a source with no admissible target at all can never be placed
    if not all(allowed):
        return None
    assign = [0] * n
    cand = [0] * n
    cand[0] = allowed[0]
    # kept[i]: every source's candidate mask once sources before i are placed
    kept = [None] * n
    kept[0] = list(allowed)
    rows = [None] * n
    rows[0] = row(0)
    used = 0
    i = 0
    while True:
        c = cand[i]
        if c:
            low = c & -c
            cand[i] = c ^ low
            v = low.bit_length() - 1
            masks = kept[i][:]
            for j, table in rows[i]:
                m = masks[j] & table[v]
                if not m:
                    break
                masks[j] = m
            else:
                assign[i] = v
                used |= low
                i += 1
                if i == n:
                    return assign
                kept[i] = masks
                c = masks[i] & ~used
                if c and narrow is not None:
                    c = narrow(i, assign, c)
                if c and rows[i] is None:
                    rows[i] = row(i)
                cand[i] = c
        else:
            i -= 1
            if i < 0:
                return None
            used ^= 1 << assign[i]


def code_rows(x, y):
    """The row builder of x into y: ``row(i)`` keeps each later source's
    image in the same relation to i's image as that source has to i in x."""
    n = len(x)
    above, below, beside = y.above, y.below, y.beside
    x_above, x_below = x.above, x.below

    def row(i):
        up, dn = x_above[i], x_below[i]
        return [
            (j, above if up >> j & 1 else below if dn >> j & 1 else beside)
            for j in range(i + 1, n)
        ]

    return row


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
