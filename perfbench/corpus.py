"""Seeded random orders, in plain Python.

Nothing here imports poset_forge, so the CLI workload can write its input
files without loading the library in the measuring process.  An order is a
list of element ids plus a set of strict pairs.
"""


def random_order(rng, n, density, prefix):
    """A random strict order on n points.

    A hidden random linear order orients each pair, which is kept with
    probability ``density``.  The element list keeps the ids' own order, so
    the canonical order is usually not a linear extension.
    """
    ids = [f"{prefix}{i}" for i in range(n)]
    hidden = ids[:]
    rng.shuffle(hidden)
    pairs = {
        (hidden[i], hidden[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    }
    return ids, closure(ids, pairs)


def closure(ids, pairs):
    """Transitive closure of a set of strict pairs."""
    up = {e: set() for e in ids}
    for a, b in pairs:
        up[a].add(b)
    for k in ids:
        for i in ids:
            if k in up[i]:
                up[i] |= up[k]
    return {(a, b) for a in ids for b in up[a]}


def planted(rng, ids, pairs, k, prefix):
    """A random k-element induced suborder under fresh, shuffled ids.

    Returns the suborder and the planted map from its ids to the source ids.
    """
    chosen = rng.sample(ids, k)
    names = {e: f"{prefix}{i}" for i, e in enumerate(chosen)}
    order = [names[e] for e in chosen]
    rng.shuffle(order)
    sub = {(names[a], names[b]) for a, b in pairs if a in names and b in names}
    return order, sub, {v: e for e, v in names.items()}


def with_twin(ids, pairs, v, twin):
    """Add ``twin``, related to every other point exactly as ``v`` is, and
    incomparable to ``v``; {v, twin} is then an interval."""
    extra = {(a, twin) for a, b in pairs if b == v}
    extra |= {(twin, b) for a, b in pairs if a == v}
    return ids + [twin], pairs | extra


def random_tree(rng, n, prefix):
    """A random rooted tree order: the root is the least element and every
    down-set is a chain."""
    ids = [f"{prefix}{i}" for i in range(n)]
    pairs = {(ids[rng.randrange(i)], ids[i]) for i in range(1, n)}
    return ids, closure(ids, pairs)


def relation(pairs, a, b):
    """Relation code as ``Poset.relation`` numbers it: 0 incomparable,
    1 less, 2 greater, 3 equal."""
    if a == b:
        return 3
    if (a, b) in pairs:
        return 1
    if (b, a) in pairs:
        return 2
    return 0


def poset_text(name, ids, pairs, colouring=None):
    lines = [f"poset {name}"]
    for e in ids:
        lines.append(f"elem {e}" if colouring is None else f"elem {e} colour={colouring[e]}")
    lines += [f"lt {a} {b}" for a, b in sorted(pairs)]
    lines.append("end")
    return "\n".join(lines) + "\n"
