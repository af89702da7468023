"""Finite posets, quasi-orders, colourings, canonical constructions and sums.

A :class:`Poset` is a strict partial order over named elements, stored in
transitively closed form as rows of Python int bitmasks, bit ``j`` standing
for element ``j``: ``above[i]`` holds the j with i < j, ``below[i]`` the j
with j < i and ``beside[i]`` the j incomparable to i.  Relation codes, covers,
shape predicates, every search and every induced suborder (``_induced_rows``)
read these rows.  Beyond them only two lazy caches are stored, each filled on
first use from the rows and colouring alone: :meth:`Poset.degree_table` (the
relation counts and the cumulative count masks behind the searches' degree
filter) and :meth:`ColouredPoset.colour_masks` (each element's palette index,
one element mask per palette colour and, per colour, the mask of the
elements whose colour is at or above it, the colour filter of every
coloured search).  A coloured search's allowed masks come from one routine,
``_allowed``, which joins a source half (each element's counts and colour
index) with a target half (the count masks and colour fit); a single search
builds both halves per call (``_coloured_allowed``), and the family
searcher behind the embeddability matrix (``_family_below``) builds every
member's halves once, up front, keeping nothing past the call.  Every
search here, single or family, then runs as ``_search.search_injection``,
on the rows of the one relation-exact row builder, ``_search.code_rows``.
The element tuple is the canonical enumeration: all tie-breaking anywhere
in the library (interval chain selection, quotient representatives, witness
search order) refers back to it.
Values are immutable after construction; every operation here is a pure
function.
"""

from functools import lru_cache

from . import _search
from .errors import (
    CycleError,
    DuplicateElement,
    EmptyPart,
    FrozenField,
    MissingPart,
    NotAChain,
    NotATree,
    NotInjective,
    OutOfRange,
    PaletteMismatch,
    UnknownElement,
    UnknownName,
)

INCOMPARABLE, LESS, GREATER, EQUAL = 0, 1, 2, 3


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _induced_rows(rows, index):
    """Each row read on the points of index, in that order: bit k of a result
    is bit ``index[k]`` of its row.  The bits are walked inline."""
    bit, points = {}, 0
    for k, j in enumerate(index):
        bit[j] = 1 << k
        points |= 1 << j
    out = []
    for row in rows:
        row &= points
        sub = 0
        while row:
            low = row & -row
            row ^= low
            sub |= bit[low.bit_length() - 1]
        out.append(sub)
    return tuple(out)


def _warshall(rows):
    """Transitive closure of a relation given as bitmask rows."""
    rows = list(rows)
    for k in range(len(rows)):
        bit, row_k = 1 << k, rows[k]
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    return rows


class _Record:
    """Base of the small value classes: the fields are the ``__slots__``,
    listed in constructor order, so one repr (and one pickle reduction for
    the frozen ones) serves them all."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields())
        )
        return f"{type(self).__name__}({fields})"


class _Frozen(_Record):
    """An immutable record: ``__init__`` sets each field once through
    ``object.__setattr__``; equal when of one class with equal fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenField(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenField(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()


class Poset:
    """Strict partial order; construct through :func:`make_poset` or friends.

    The constructor takes the element ids and their transitively closed
    ``above`` rows (bit j of ``above[i]`` set iff element i < element j) and
    derives the ``below`` and ``beside`` rows from them.
    """

    __slots__ = ("elements", "index", "above", "below", "beside", "_degrees")

    def __init__(self, elements, above):
        above = tuple(above)
        below = [0] * len(above)
        # the bits are walked inline: through the ``_bits`` generator the
        # transposes of the 6,810 posets of the seed-1 embed_search corpus
        # took 138 ms, not 80 ms (best of 15, 2 cores, CPython 3.11)
        for i, row in enumerate(above):
            bit = 1 << i
            while row:
                low = row & -row
                row ^= low
                below[low.bit_length() - 1] |= bit
        self._store(elements, above, below)

    @classmethod
    def _from_rows(cls, elements, above, below):
        """A poset from both row sets, with no transpose: ``below`` must be
        the transpose of ``above`` (bit i of ``below[j]`` set iff bit j of
        ``above[i]`` is).  Each caller proves that its rows are: the layer
        arities of ``composition._layers``, the prime quotients of
        ``classify._quotients``, and the tree of
        ``dectree.DecompositionTree``, whose rows come from the same
        ``dectree._layout`` pass that types its nodes."""
        poset = cls.__new__(cls)
        poset._store(elements, above, below)
        return poset

    def _store(self, elements, above, below):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.above = tuple(above)
        self.below = tuple(below)
        full = (1 << len(self.elements)) - 1
        self.beside = tuple(
            full & ~(up | dn | 1 << i)
            for i, (up, dn) in enumerate(zip(self.above, self.below))
        )
        self._degrees = None

    # -- basic queries ---------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self.index

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self.above == other.above
        )

    def __hash__(self):
        return hash((self.elements, self.above))

    def __repr__(self):
        pairs = ",".join(f"{a}<{b}" for a, b in self.cover_pairs())
        return f"Poset({','.join(self.elements)}|{pairs})"

    def _i(self, e):
        try:
            return self.index[e]
        except KeyError:
            raise UnknownElement(f"unknown element {e!r}") from None

    def _names(self, mask):
        return {self.elements[j] for j in _bits(mask)}

    def code(self, i, j):
        """Relation code between the elements at indices i and j."""
        if i == j:
            return EQUAL
        if self.above[i] >> j & 1:
            return LESS
        if self.below[i] >> j & 1:
            return GREATER
        return INCOMPARABLE

    def degree_table(self):
        """``(counts, up_ge, down_ge, beside_ge)``, built on first use and kept.

        ``counts[i]`` is element i's triple of (above, below, beside)
        counts.  Bit j of ``up_ge[k]`` is set iff element j has at least k
        elements above it, for k < len(self); likewise ``down_ge`` and
        ``beside_ge``.
        """
        table = self._degrees
        if table is None:
            n = len(self.elements)
            counts = [
                (up.bit_count(), dn.bit_count(), side.bit_count())
                for up, dn, side in zip(self.above, self.below, self.beside)
            ]
            ge = ([0] * n, [0] * n, [0] * n)
            for j, triple in enumerate(counts):
                for masks, k in zip(ge, triple):
                    masks[k] |= 1 << j
            for masks in ge:
                for k in range(n - 2, -1, -1):
                    masks[k] |= masks[k + 1]
            table = self._degrees = (counts, *ge)
        return table

    def lt(self, a, b):
        return bool(self.above[self._i(a)] >> self._i(b) & 1)

    def leq(self, a, b):
        ia, ib = self._i(a), self._i(b)
        return ia == ib or bool(self.above[ia] >> ib & 1)

    def incomparable(self, a, b):
        return bool(self.beside[self._i(a)] >> self._i(b) & 1)

    def relation(self, a, b):
        """Relation code between two elements (module-level constants)."""
        return self.code(self._i(a), self._i(b))

    def lt_pairs(self):
        """The full strict relation as a set of (a, b) pairs."""
        return {
            (a, self.elements[j])
            for a, row in zip(self.elements, self.above)
            for j in _bits(row)
        }

    def cover_pairs(self):
        """Covering pairs (a, b): a < b with nothing strictly between."""
        return [
            (a, self.elements[j])
            for a, row in zip(self.elements, self.above)
            for j in _bits(row)
            if not row & self.below[j]
        ]

    def down(self, a):
        """Elements strictly below a."""
        return self._names(self.below[self._i(a)])

    def up(self, a):
        """Elements strictly above a."""
        return self._names(self.above[self._i(a)])

    def minimal_elements(self):
        return [e for e, row in zip(self.elements, self.below) if not row]

    # -- derived posets --------------------------------------------------

    def restrict(self, members):
        """Induced subposet; keeps the carrier's canonical element order."""
        members = set(members)
        unknown = members - self.index.keys()
        if unknown:
            raise UnknownElement(f"unknown elements {sorted(unknown)}")
        keep = sorted(self.index[e] for e in members)
        above = _induced_rows([self.above[i] for i in keep], keep)
        return Poset([self.elements[i] for i in keep], above)

    def reversed(self):
        return Poset(self.elements, self.below)

    # -- shape predicates --------------------------------------------------

    def is_chain(self):
        return not any(self.beside)

    def _parents(self):
        """Each element's parent index (-1 for a minimal element), or None
        when some down-set is not a chain; one lookup per element.

        Proof: take a non-empty strict down-set B of d.  If B is a chain,
        its top q lies above every other member, and everything at or below
        q is below d, so B is q's reflexive down-set and q is d's parent.
        Conversely, if every non-empty strict down-set is some element's
        reflexive down-set, induction on size shows each one is a chain: q's
        own strict down-set is a smaller chain, all of it below q.  Distinct
        elements have distinct reflexive down-sets, so each key of ``top``
        names one element.
        """
        top = {row | 1 << i: i for i, row in enumerate(self.below)}
        try:
            return [top[row] if row else -1 for row in self.below]
        except KeyError:
            return None

    def is_tree(self):
        """Every down-set is a chain (the library's working notion of a tree)."""
        return self._parents() is not None

    def is_rooted_tree(self):
        parents = self._parents()
        return parents is not None and parents.count(-1) == 1


def make_poset(elements, pairs):
    """Build a poset from any generating set of strict pairs.

    The transitive closure is computed here; a cycle in the generators
    raises :class:`CycleError`.
    """
    elements = list(elements)
    index = {}
    for i, e in enumerate(elements):
        if e in index:
            raise DuplicateElement(f"duplicate element id {e!r}")
        index[e] = i
    rows = [0] * len(elements)
    for a, b in pairs:
        if a not in index:
            raise UnknownElement(f"unknown element {a!r} in pair")
        if b not in index:
            raise UnknownElement(f"unknown element {b!r} in pair")
        rows[index[a]] |= 1 << index[b]
    rows = _warshall(rows)
    for i, row in enumerate(rows):
        if row >> i & 1:
            raise CycleError(f"generators create a cycle through {elements[i]!r}")
    return Poset(elements, rows)


# -- canonical posets -----------------------------------------------------

_CANONICAL_NAMES = (
    "chain",
    "antichain",
    "N",
    "binary_tree_prefix",
    "reversed_binary_tree_prefix",
    "perp_prefix",
    "fence",
)


def _letters(n):
    out = []
    for i in range(n):
        name = ""
        j = i
        while True:
            name = chr(ord("a") + j % 26) + name
            j = j // 26 - 1
            if j < 0:
                break
        out.append(name)
    return out


def _binary_carrier(depth):
    # all 0/1 sequences of length < depth; "e" stands for the empty sequence
    if depth <= 0:
        return [], []
    words = [""]
    frontier = [""]
    for _ in range(depth - 1):
        frontier = [w + c for w in frontier for c in "01"]
        words += frontier
    words.sort(key=lambda w: (len(w), w))
    return ["e" if w == "" else w for w in words], words


@lru_cache(maxsize=32, typed=True)
def canonical(name, k):
    """One of the named stock posets, at size parameter k.

    Posets are immutable, so recent results are kept and shared.
    """
    if name not in _CANONICAL_NAMES:
        raise UnknownName(f"unknown canonical poset {name!r}")
    if k < 0:
        raise OutOfRange("k must be >= 0")
    if name == "chain":
        ids = _letters(k)
        return make_poset(ids, [(ids[i], ids[i + 1]) for i in range(k - 1)])
    if name == "antichain":
        return make_poset(_letters(k), [])
    if name == "N":
        return make_poset(["0", "1", "2", "3"], [("1", "0"), ("1", "2"), ("3", "2")])
    if name == "fence":
        ids = _letters(k + 2)
        pairs = []
        for i in range(k + 1):
            if i % 2 == 0:
                pairs.append((ids[i], ids[i + 1]))
            else:
                pairs.append((ids[i + 1], ids[i]))
        return make_poset(ids, pairs)
    ids, words = _binary_carrier(k)
    byword = dict(zip(words, ids))
    if name in ("binary_tree_prefix", "reversed_binary_tree_prefix"):
        pairs = [
            (byword[u], byword[w])
            for u in words
            for w in words
            if u != w and w.startswith(u)
        ]
        p = make_poset(ids, pairs)
        return p.reversed() if name == "reversed_binary_tree_prefix" else p
    # perp_prefix: s < t iff s = u0s', t = u1t'
    pairs = []
    for s in words:
        for t in words:
            common = 0
            while common < min(len(s), len(t)) and s[common] == t[common]:
                common += 1
            if common < len(s) and common < len(t) and s[common] == "0" and t[common] == "1":
                pairs.append((byword[s], byword[t]))
    return make_poset(ids, pairs)


# -- sums -----------------------------------------------------------------

# a \ or . inside an id component is backslash-escaped, so that composite
# ids joined by "." are distinct; other ids pass through unchanged
_ID_ESCAPES = str.maketrans({"\\": "\\\\", ".": "\\."})


def _id_part(e):
    return str(e).translate(_ID_ESCAPES)


def p_sum_with_sources(index, parts):
    """P-sum plus the map from composite ids back to (index, part) pairs.

    The composite id of part element a at index element p is ``p.a``, each
    component escaped by ``_id_part``.  The escapes make the composite ids
    of distinct pairs of component strings distinct: the first unescaped
    ``.`` ends p's part.  But a component is the ``str()`` of an id, and
    distinct ids can share one (1 and "1", say), so two pairs can still
    give one composite id; DuplicateElement names the first id repeated.
    """
    for p in index.elements:
        if p not in parts:
            raise MissingPart(f"no part for index element {p!r}")
        if len(parts[p]) == 0:
            raise EmptyPart(f"part at {p!r} is empty")
    ids = []
    sources = {}
    offset = {}
    block = {}
    for p in index.elements:
        offset[p] = len(ids)
        for a in parts[p].elements:
            composite = f"{_id_part(p)}.{_id_part(a)}"
            if composite in sources:
                raise DuplicateElement(f"composite id collision at {composite!r}")
            ids.append(composite)
            sources[composite] = (p, a)
        block[p] = (1 << len(ids)) - (1 << offset[p])
    above = []
    for p, index_row in zip(index.elements, index.above):
        over = 0
        for q in _bits(index_row):
            over |= block[index.elements[q]]
        above += [row << offset[p] | over for row in parts[p].above]
    return Poset(ids, above), sources


def p_sum(index, parts):
    """Substitute a poset into every point of the index poset."""
    return p_sum_with_sources(index, parts)[0]


def zeta_tree_sum(zeta, hangings):
    """Grow trees out of a chain: hangings at a chain element sit above it.

    ``hangings`` maps (chain element, branch index) to a finite tree.  The
    result keeps the chain's order, each hanging's own order, and puts every
    hanging above the reflexive down-set of its attachment point; distinct
    hangings stay incomparable.
    """
    if not zeta.is_chain():
        raise NotAChain("index of a tree sum must be a chain")
    for key, t in hangings.items():
        if key[0] not in zeta:
            raise UnknownElement(f"attachment point {key[0]!r} not in the chain")
        if not t.is_tree():
            raise NotATree(f"hanging at {key} is not a tree")
    ids = list(zeta.elements)
    taken = set(ids)
    above = list(zeta.above)
    for (i, gamma), t in sorted(hangings.items(), key=lambda kv: (zeta.index[kv[0][0]], kv[0][1])):
        start = len(ids)
        for a in t.elements:
            composite = f"{_id_part(i)}.{_id_part(gamma)}.{_id_part(a)}"
            if composite in taken:
                raise DuplicateElement(f"composite id collision at {composite!r}")
            ids.append(composite)
            taken.add(composite)
        # the hanging sits above the reflexive down-set of its attachment point
        block = ((1 << len(t)) - 1) << start
        at = zeta.index[i]
        for c in _bits(zeta.below[at] | 1 << at):
            above[c] |= block
        above += [row << start for row in t.above]
    return Poset(ids, above)


# -- quasi-orders and colourings -----------------------------------------

class QuasiOrder:
    """Reflexive transitive relation over colour ids; antisymmetry not required.

    Stored as reflexive, transitively closed bitmask rows: bit j of
    ``rows[i]`` is set iff colour i <= colour j.
    """

    def __init__(self, colours, pairs):
        self.colours = tuple(colours)
        if len(set(self.colours)) != len(self.colours):
            raise DuplicateElement("duplicate colour id")
        self.index = {c: i for i, c in enumerate(self.colours)}
        rows = [1 << i for i in range(len(self.colours))]
        for a, b in pairs:
            if a not in self.index or b not in self.index:
                raise UnknownElement(f"unknown colour in pair ({a!r}, {b!r})")
            rows[self.index[a]] |= 1 << self.index[b]
        self.rows = tuple(_warshall(rows))

    def leq(self, a, b):
        if a not in self.index:
            raise UnknownElement(f"unknown colour {a!r}")
        if b not in self.index:
            raise UnknownElement(f"unknown colour {b!r}")
        return bool(self.rows[self.index[a]] >> self.index[b] & 1)

    def le_pairs(self):
        return {
            (c, self.colours[j])
            for c, row in zip(self.colours, self.rows)
            for j in _bits(row)
        }

    def __eq__(self, other):
        return (
            isinstance(other, QuasiOrder)
            and self.colours == other.colours
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.colours, self.rows))

    def __len__(self):
        return len(self.colours)

    def __repr__(self):
        return f"QuasiOrder({','.join(self.colours)})"


def union_q(q0, q1):
    """Disjoint union; comparabilities only within one side.

    Colour ids are kept verbatim; a clash on the right side is renamed with
    an ``r.`` prefix, so a union with the empty quasi-order is the identity.
    """
    taken = set(q0.colours)
    rename = {}
    for c in q1.colours:
        name = c
        while name in taken:
            name = f"r.{name}"
        rename[c] = name
        taken.add(name)
    colours = list(q0.colours) + [rename[c] for c in q1.colours]
    pairs = [(a, b) for a, b in q0.le_pairs()]
    pairs += [(rename[a], rename[b]) for a, b in q1.le_pairs()]
    return QuasiOrder(colours, pairs)


# a \ or , inside a pair component is backslash-escaped, so that the
# first unescaped "," ends the left colour and distinct pairs get distinct ids
_PAIR_ESCAPES = str.maketrans({"\\": "\\\\", ",": "\\,"})


def _pair_id(a, b):
    return f"({str(a).translate(_PAIR_ESCAPES)},{str(b).translate(_PAIR_ESCAPES)})"


def product_q(q0, q1):
    """Pairs of colours ordered componentwise.

    The pair (a, b) is named ``(a,b)``, with any ``\\`` or ``,`` inside a
    or b backslash-escaped; colours without them keep the plain name."""
    names = {(a, b): _pair_id(a, b) for a in q0.colours for b in q1.colours}
    pairs = [
        (names[a0, b0], names[a1, b1])
        for a0, b0 in names
        for a1, b1 in names
        if q0.leq(a0, a1) and q1.leq(b0, b1)
    ]
    return QuasiOrder(list(names.values()), pairs)


ONE_COLOUR = "0"


def one_colour_palette():
    return QuasiOrder([ONE_COLOUR], [])


class ColouredPoset:
    """A poset with a total colouring into a quasi-order palette."""

    __slots__ = ("poset", "palette", "colouring", "_colour_masks")

    def __init__(self, poset, colouring, palette):
        self.poset = poset
        self.palette = palette
        self.colouring = dict(colouring)
        for e in poset.elements:
            if e not in self.colouring:
                raise UnknownElement(f"element {e!r} has no colour")
        for e, c in self.colouring.items():
            if e not in poset:
                raise UnknownElement(f"colouring mentions unknown element {e!r}")
            if c not in palette.index:
                raise UnknownElement(f"colour {c!r} not in palette")
        self._colour_masks = None

    @classmethod
    def uniform(cls, poset, colour=ONE_COLOUR, palette=None):
        palette = palette if palette is not None else one_colour_palette()
        return cls(poset, {e: colour for e in poset.elements}, palette)

    @property
    def elements(self):
        return self.poset.elements

    def colour(self, e):
        return self.colouring[e]

    def colour_masks(self):
        """``(index, masks, up)``, built on first use and kept: ``index[i]``
        is the palette index of element i's colour, bit i of ``masks[c]`` is
        set iff element i has palette colour c, and bit i of ``up[c]`` iff
        element i's colour is at or above c."""
        table = self._colour_masks
        if table is None:
            palette_index = self.palette.index
            index = [palette_index[self.colouring[e]] for e in self.poset.elements]
            masks = [0] * len(self.palette)
            for i, c in enumerate(index):
                masks[c] |= 1 << i
            up = []
            for row in self.palette.rows:
                mask = 0
                for d in _bits(row):
                    mask |= masks[d]
                up.append(mask)
            table = self._colour_masks = (index, masks, up)
        return table

    def restrict(self, members):
        sub = self.poset.restrict(members)
        return ColouredPoset(
            sub, {e: self.colouring[e] for e in sub.elements}, self.palette
        )

    def __len__(self):
        return len(self.poset)

    def __eq__(self, other):
        return (
            isinstance(other, ColouredPoset)
            and self.poset == other.poset
            and self.colouring == other.colouring
            and self.palette == other.palette
        )

    def __repr__(self):
        cols = ",".join(f"{e}:{self.colouring[e]}" for e in self.elements)
        return f"ColouredPoset({self.poset!r}|{cols})"


# -- embeddings -----------------------------------------------------------

class EmbeddingMap(_Frozen):
    """Injective element map witnessing an embedding; kind names the category."""

    __slots__ = ("mapping", "kind")

    def __init__(self, mapping, kind="poset"):
        mapping = tuple(mapping)
        sources = [a for a, _ in mapping]
        targets = [b for _, b in mapping]
        if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
            raise NotInjective("embedding maps are injective")
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "kind", kind)

    def as_dict(self):
        return dict(self.mapping)

    def __getitem__(self, key):
        return dict(self.mapping)[key]

    def __len__(self):
        return len(self.mapping)


def _as_embedding(x, y, assign, kind):
    """The map of a kernel assignment, or None when there is none."""
    if assign is None:
        return None
    pairs = tuple(
        (x.elements[i], y.elements[j]) for i, j in enumerate(assign)
    )
    return EmbeddingMap(pairs, kind)


def _embed_assign(x, y):
    """Target indices of the first induced-suborder embedding of x into y,
    or None: the one search behind ``embed``, ``is_isomorphic`` and
    ``classify.is_n_free``."""
    if len(x) > len(y):
        return None
    return _search.search_injection(x, y, _search.degree_mask(x, y))


def embed(x, y):
    """First induced-suborder embedding of x into y, or None.

    The condition is an iff on ordered pairs, so <, > and incomparability
    are all preserved exactly; the exhaustive search makes None a proof of
    non-embeddability.  Candidates are tried in canonical target order and
    the first witness found is returned.
    """
    return _as_embedding(x, y, _embed_assign(x, y), "poset")


def _source_part(x):
    """The source half of a coloured search's allowed masks: per element
    of x, its (above, below, beside) counts and its colour's palette index,
    as ``((a, b, s), c)``."""
    return list(zip(x.poset.degree_table()[0], x.colour_masks()[0]))


def _target_part(y, exact):
    """The target half: y's cumulative count masks ``up_ge``, ``down_ge``
    and ``beside_ge`` (``Poset.degree_table``), and the colour fit, per
    palette colour the mask of y's elements whose colour is at or above it,
    or equal to it when exact."""
    _, up_ge, down_ge, beside_ge = y.poset.degree_table()
    return up_ge, down_ge, beside_ge, y.colour_masks()[1 if exact else 2]


def _allowed(source, target):
    """Per source, the targets whose three relation counts are each at least
    the source's (the degree filter of ``_search.degree_mask``) and whose
    colour fits.  The source has no more elements than the target, so every
    count indexes the target's masks."""
    up_ge, down_ge, beside_ge, fit = target
    return [up_ge[a] & down_ge[b] & beside_ge[s] & fit[c] for (a, b, s), c in source]


def _coloured_allowed(x, y, exact):
    """Per source of x, the targets of y that pass the degree filter and
    whose colour is at or above the source's, or equal to it when exact:
    ``_allowed`` of x's source half and y's target half, both built for
    this one search.  ``_family_below`` joins the same halves, built once
    per member, through the same ``_allowed``.  A source larger than its
    target allows nothing: an element's three counts sum past every
    target's, so one of them exceeds the target's."""
    if len(x) > len(y):
        return [0] * len(x)
    return _allowed(_source_part(x), _target_part(y, exact))


def _family_below(members):
    """``below(i, j)``: whether members[i] has a colour-increasing embedding
    into members[j]; the members share a palette.  The search behind
    ``wqo.embeddability_matrix`` and ``wqo.bad_pair_search``.

    Each member's source half (``_source_part``) and target half
    (``_target_part``) are built once, up front, and live only as long as
    ``below``: nothing is kept on the members.  Each search is
    ``_search.search_injection`` on the allowed masks that
    ``_coloured_allowed`` would give, so it runs as ``coloured_embed``
    would, and ``below(i, j)`` is true iff that finds an embedding.  A
    source larger than its target is refused unsearched.  Every other pair
    reaches the kernel, even with an empty mask, which
    ``_search.backtrack`` refuses before building any row.
    """
    sizes = [len(m) for m in members]
    sources = [_source_part(m) for m in members]
    targets = [_target_part(m, False) for m in members]

    def below(i, j):
        if sizes[i] > sizes[j]:
            return False
        allowed = _allowed(sources[i], targets[j])
        return _search.search_injection(members[i].poset, members[j].poset, allowed) is not None

    return below


def coloured_embed(x, y):
    """Poset embedding that also increases colours, or None."""
    if x.palette != y.palette:
        raise PaletteMismatch("coloured embedding requires a shared palette")
    assign = _search.search_injection(x.poset, y.poset, _coloured_allowed(x, y, False))
    return _as_embedding(x.poset, y.poset, assign, "coloured")


def check_embedding(x, y, emap):
    """Re-check a witness on the rows: f maps x into y injectively and its
    image induces x, so i < j iff f(i) < f(j) for every ordered pair."""
    m = emap.as_dict()
    if set(m) != set(x.elements):
        return False
    f = [y.index.get(m[a]) for a in x.elements]
    if None in f or len(set(f)) != len(f):
        return False
    return _induced_rows([y.above[j] for j in f], f) == x.above


def check_coloured_embedding(x, y, emap):
    if x.palette != y.palette:
        return False
    if not check_embedding(x.poset, y.poset, emap):
        return False
    m = emap.as_dict()
    return all(x.palette.leq(x.colour(a), y.colour(m[a])) for a in x.elements)


def is_isomorphic(x, y):
    """Poset isomorphism: same size plus an embedding either way round."""
    return len(x) == len(y) and _embed_assign(x, y) is not None


def coloured_isomorphic(x, y):
    """Bijection preserving the order exactly and colours literally."""
    if len(x) != len(y) or x.palette != y.palette:
        return False
    allowed = _coloured_allowed(x, y, True)
    return _search.search_injection(x.poset, y.poset, allowed) is not None
