"""Decomposition trees as labelled structured trees, and their embeddings.

A decomposition tree records how a poset is built from singletons by
iterated sums: internal nodes are coloured by their sum arity, leaves by
ground colours, and each internal node labels everything above it with a
slot of its arity.  Structured-tree embeddings preserve order (iff), meets
and labels, and increase colours; arity colours compare by embeddability,
ground colours by the ground palette, and the two blocks never compare.
Lifting such an embedding to the underlying posets is the whole point.

A decomposition tree is a structured tree that keeps its composition set:
``DecompositionTree`` subclasses ``StructuredTree`` and stores the layout
that ``_layout`` proves to be a rooted tree, so the one rooted-tree check
is the public ``StructuredTree`` constructor's.  The same pass gives the
nodes' kinds, arities, leaf colours and leaf elements, which the tree keeps
as they are; the public constructor copies what its caller passes.
"""

from .composition import (
    _SLOT_ESCAPES,
    CompositionSequence,
    CompositionSet,
    _decompose,
    _value,
    eval_f_eta,
    eval_g,
    inline_poset,
    render_position,
)
from .core import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    EmbeddingMap,
    Poset,
    _bits,
    _induced_rows,
    check_coloured_embedding,
    check_embedding,
    embed,
)
from .errors import (
    BadLabel,
    EmptyPoset,
    Malformed,
    NotATree,
    NotUpClosedChain,
    PaletteMismatch,
    UnknownElement,
    VerificationFailure,
)
from . import _search, config


def _layout(fset, leaves, base):
    """The tree that records a composition set, laid out and typed in one
    depth-first pass: ``(ids, above, below, label_rows, keys, kinds,
    arities, leaf_colours, leaf_element)``.

    ``leaves`` maps each leaf position of ``fset`` to its element of the
    coloured poset ``base``.  The first four are lists, one entry per node
    in storage order: ids, ``above`` and ``below`` rows, and label rows (one
    mask per slot of a layer node's arity, in the arity's element order, and
    ``()`` for a leaf).  ``keys`` holds ("i", position, layer) for each
    layer node and ``None`` for each leaf; positions are the composition set's
    (layer, slot) pair tuples.  The four dicts are keyed by node id: kind
    "sum" or "leaf", a layer node's arity, and a leaf's colour and element
    of ``base``.  Ids are absolute, so a branch extract's nodes keep the
    cone's ids: a position's id is rendered once, from its parent's, and a
    layer node's id is that id and the layer index (the index alone at the
    root position).  Each sequence is read through its ``entries``.

    A position's nodes come in order: layer node 0, then its branches in
    slot-name order, then layer node 1 and its branches, and so on, so every
    node follows its ancestors.  A layer node is below the rest of its
    position's index range: its slot u labels the branch at (layer, u), and
    its distinguished slot labels the later layers.

    The rows form a rooted tree stored in a linear extension, so the tree
    needs no rooted-tree check:

    - a layer node's ``above`` row is the index range from the next node to
      the end of its position's range, and a leaf's row is empty; every
      row holds later nodes only;
    - depth-first ranges either nest or are disjoint, and a range that
      holds a node holds that node's range, so the rows are transitively
      closed and every down-set is a chain;
    - node 0's range covers every other node, so node 0 is the only
      minimal node.

    A node's ``below`` row is the mask of the layer nodes whose ranges hold
    it, so it is the transpose of the ``above`` rows, as
    ``Poset._from_rows`` needs.  The range of layer node i of position p
    holds p's later layer nodes and the branches of p at layers i and
    later, and meets no other node.  So a node of position p, or of a
    branch of p at layer i, lies in the ranges of the layer nodes that hold
    p, and in those of p's layer nodes before it, or of p's layer nodes up
    to i; the walk hands that mask down.  Positions are laid out by
    generators on an explicit stack, each paused while a branch is laid
    out, so that no depth of nesting reaches the recursion limit.

    Labels are constant on each child cone of a layer node, and distinct
    between its children; ``_conditions`` relies on both.  Layer node i of
    position p has as children the root of each of its branches and, before
    the last layer, layer node i + 1: every other node of its range lies in
    one of their ranges.  The row of a branch's slot is that branch's range,
    which is its root's cone (the root is laid out first); the row of the
    distinguished slot of a layer before the last is the range from layer
    node i + 1 to the end of p's range, which is that node's cone.  So each
    slot's row is one child's cone, and no two children share a slot.  A
    branch extract is laid out by this same pass, so it has both properties
    too.
    """
    sequences = fset.sequences
    colour = base.colouring
    ids, above, below, label_rows, keys = [], [], [], [], []
    kinds, arities, leaf_colours, leaf_element = {}, {}, {}, {}

    def leaf(q, name, ancestors):
        ids.append(name)
        above.append(0)
        below.append(ancestors)
        label_rows.append(())
        keys.append(None)
        kinds[name] = "leaf"
        e = leaf_element[name] = leaves[q]
        leaf_colours[name] = colour[e]

    def visit(p, name, ancestors):
        # yields each branch that is a sequence, to be laid out in full
        # before this position resumes
        entries = sequences[p].entries
        last = len(entries) - 1
        layers = []
        for i, (arity, s) in enumerate(entries):
            node = len(ids)
            nid = f"{name}/{i}" if p else str(i)
            ids.append(nid)
            above.append(0)
            below.append(ancestors)
            label_rows.append(())
            keys.append(("i", p, i))
            kinds[nid] = "sum"
            arities[nid] = arity
            ancestors |= 1 << node
            index = arity.index
            rows = [0] * len(index)
            for u in sorted(index):
                if u == s and i < last:
                    continue
                start = len(ids)
                q = p + ((i, u),)
                step = f"{i}.{u.translate(_SLOT_ESCAPES)}"  # one step of render_position
                q_name = f"{name}/{step}" if p else step
                if q in sequences:
                    yield q, q_name, ancestors
                else:
                    leaf(q, q_name, ancestors)
                rows[index[u]] = (1 << len(ids)) - (1 << start)
            layers.append((node, rows, index[s], len(ids)))
        end = (1 << len(ids)) - 1
        for node, rows, s, later in layers:
            above[node] = end & -(2 << node)
            rows[s] |= end & -(1 << later)
            label_rows[node] = tuple(rows)

    root, name = fset.root, render_position(fset.root)
    stack = []
    if root in sequences:
        stack.append(visit(root, name, 0))
    else:
        leaf(root, name, 0)
    while stack:
        branch = next(stack[-1], None)
        if branch is None:
            stack.pop()
        else:
            stack.append(visit(*branch))
    return ids, above, below, label_rows, keys, kinds, arities, leaf_colours, leaf_element


class StructuredTree:
    """A finite rooted tree with arity-labelled cones and coloured nodes,
    stored in a linear extension of the tree order.

    Every node has kind "sum", with an arity, or "leaf", with a colour of
    the ground palette, and kinds, arities and colours name nodes of that
    kind only (Malformed or UnknownElement otherwise).  The constructor takes
    the labels as a dict (v, x) -> slot of v's arity, one for every pair
    v < x (BadLabel otherwise), and keeps them as rows: ``label_rows[i]``
    holds, for the sum node at index i, one mask per slot of its arity (in
    the arity's element order) of the nodes above it that carry that
    label; it is empty for leaves.  This constructor is the one rooted-tree
    check (NotATree, after every other check); a decomposition tree is a
    structured tree that keeps its composition set, and stores the rows and
    dicts of its layout (``_layout``), a rooted tree by construction.  The
    tree keeps the dicts given to ``_fill``, so this constructor passes it
    copies of the caller's.  What an embedding into the tree reads of it
    beyond its poset (colour classes and fits, label indices) is kept on
    first use (``_target_tables``), and so is what an embedding of the tree
    into another reads of it (node classes, children and relation codes:
    ``_source_tables``).
    """

    __slots__ = (
        "poset",
        "kinds",
        "arities",
        "leaf_colours",
        "ground_palette",
        "label_rows",
        "_target",
        "_source",
    )

    def __init__(self, poset, kinds, arities, leaf_colours, ground_palette, labels):
        # sort by the last position on the root path, ties by the path: every
        # node follows its ancestors (their paths are subsets of its own), and
        # a linear extension keeps its order
        down = [row | 1 << i for i, row in enumerate(poset.below)]
        order = sorted(range(len(down)), key=lambda i: (down[i].bit_length(), down[i]))
        if order != list(range(len(down))):
            above = _induced_rows([poset.above[i] for i in order], order)
            poset = Poset([poset.elements[i] for i in order], above)
        rows = []
        for v in poset.elements:
            kind = kinds.get(v)
            if kind == "sum":
                if v not in arities:
                    raise Malformed(f"sum node {v!r} has no arity")
                rows.append([0] * len(arities[v]))
                continue
            if kind is None:
                raise Malformed(f"node {v!r} has no kind")
            if kind != "leaf":
                raise Malformed(f"node {v!r} has kind {kind!r}, not 'sum' or 'leaf'")
            if v not in leaf_colours:
                raise UnknownElement(f"leaf {v!r} has no colour")
            if leaf_colours[v] not in ground_palette.index:
                raise UnknownElement(f"colour {leaf_colours[v]!r} not in palette")
            rows.append([])
        pairs = poset.lt_pairs()
        for (v, x), slot in labels.items():
            if (v, x) not in pairs or kinds[v] != "sum" or slot not in arities[v]:
                raise BadLabel(f"cannot label ({v!r}, {x!r}) with {slot!r}")
            rows[poset.index[v]][arities[v].index[slot]] |= 1 << poset.index[x]
        for v in kinds:
            if v not in poset:
                raise UnknownElement(f"kind for unknown node {v!r}")
        for v in arities:
            if v not in poset:
                raise UnknownElement(f"arity for unknown node {v!r}")
            if kinds[v] != "sum":
                raise Malformed(f"leaf {v!r} has an arity")
        for v in leaf_colours:
            if v not in poset:
                raise UnknownElement(f"colour for unknown node {v!r}")
            if kinds[v] != "leaf":
                raise Malformed(f"sum node {v!r} has a leaf colour")
        # the rows must split each up-set: the label entries rely on it
        for i, node_rows in enumerate(rows):
            if sum(node_rows) != poset.above[i]:
                raise BadLabel(f"a node above {poset.elements[i]!r} has no label")
        if not poset.is_rooted_tree():
            raise NotATree("structured trees are rooted trees")
        self._fill(
            poset,
            dict(kinds),
            dict(arities),
            dict(leaf_colours),
            ground_palette,
            tuple(map(tuple, rows)),
        )

    def _fill(self, poset, kinds, arities, leaf_colours, ground_palette, label_rows):
        # the poset must be a rooted tree, stored as the constructor sorts
        # it, and label_rows a tuple of tuples; the tree keeps the dicts it
        # is given, so a caller hands over dicts no one else holds
        self.poset = poset
        self.kinds = kinds
        self.arities = arities
        self.leaf_colours = leaf_colours
        self.ground_palette = ground_palette
        self.label_rows = label_rows
        self._target = None
        self._source = None

    def _target_tables(self):
        """``(classes, fit, labels)``, what a structured-tree embedding into
        this tree reads of it beyond its poset, built on first use and kept.

        ``classes`` maps each node class (``_colour_key``) to one node of
        the class and the mask of all of them; ``fit`` maps a source class
        to the mask of nodes whose colour it may take, and is filled in as
        sources ask (``_fits``).  ``labels[t]``, for a sum node t, is
        ``(lab, rows, labelled)``: the label index of each node above t, the
        rows of t's arity by relation code (``single``, one bit per label,
        for EQUAL), and the nodes above t per label.
        """
        tables = self._target
        if tables is None:
            poset = self.poset
            classes = {}
            for j, b in enumerate(poset.elements):
                key = _colour_key(self, b)
                rep, mask = classes.get(key, (b, 0))
                classes[key] = (rep, mask | 1 << j)
            labels = {}
            for t, labelled in enumerate(self.label_rows):
                if not labelled:
                    continue
                arity = self.arities[poset.elements[t]]
                lab = {u: lb for lb, row in enumerate(labelled) for u in _bits(row)}
                single = tuple(1 << lb for lb in range(len(arity)))
                labels[t] = (lab, (arity.beside, arity.above, arity.below, single), labelled)
            tables = self._target = (classes, {}, labels)
        return tables

    def _source_tables(self):
        """``(classes, colour, children, codes)``, what a structured-tree
        embedding of this tree into another reads of it beyond its poset,
        built on first use and kept.

        ``classes`` lists each node class (``_colour_key``) once, with one
        node of the class, and ``colour[i]`` is the place of node i's class
        in it.  ``children[m]`` lists m's children in storage order: a
        node's parent is the last node of its down-set, as the tree is
        stored in a linear extension.  ``codes`` are the relation codes
        between first nodes, ``_label_entries(self, False)``; the EQUAL
        codes and meet entries that a pair with a raw tree also reads are
        built per call (``_conditions``).  The tables are tuples, and a
        node with nothing to list shares the empty tuple.
        """
        tables = self._source
        if tables is None:
            elements = self.poset.elements
            classes, colour, place = [], [], {}
            for a in elements:
                key = _colour_key(self, a)
                c = place.get(key)
                if c is None:
                    c = place[key] = len(classes)
                    classes.append((key, a))
                colour.append(c)
            children = [[] for _ in elements]
            for i, row in enumerate(self.poset.below):
                if row:
                    children[row.bit_length() - 1].append(i)
            children = tuple(map(tuple, children))
            codes = tuple(map(tuple, _label_entries(self, False)))
            tables = self._source = (tuple(classes), tuple(colour), children, codes)
        return tables

    @property
    def nodes(self):
        return self.poset.elements

    def label(self, v, x):
        """The slot of v's arity that labels x, for v < x."""
        j = self.poset.index[x]
        rows = self.label_rows[self.poset.index[v]]
        for slot, row in zip(self.arities[v].elements, rows):
            if row >> j & 1:
                return slot
        raise KeyError((v, x))

    def label_range(self, v):
        """All label values above v; equals v's arity for sum nodes."""
        return self.arities[v]

    def meet_index(self, i, j):
        """Index of the meet of the nodes at indices i and j.

        In a tree the reflexive down-sets of two nodes intersect in the
        reflexive down-set of their meet, and the meet is its last node in
        storage order.
        """
        below = self.poset.below
        return ((below[i] | 1 << i) & (below[j] | 1 << j)).bit_length() - 1

    def meet(self, a, b):
        i = self.poset.index[a]
        j = self.poset.index[b]
        return self.poset.elements[self.meet_index(i, j)]

    def internal_nodes(self):
        return [n for n in self.nodes if self.kinds[n] == "sum"]

    def leaf_nodes(self):
        return [n for n in self.nodes if self.kinds[n] == "leaf"]

    def colour_text(self, n):
        if self.kinds[n] == "sum":
            return "sum" + inline_poset(self.arities[n])
        return self.leaf_colours[n]


def structured_tree_text(tree):
    """Bit-stable dump: one node per line with colour, parent and the label
    it carries under each ancestor's cone."""
    poset = tree.poset
    lines = []
    for n, row in zip(poset.elements, poset.below):
        below = [poset.elements[j] for j in _bits(row)]
        parent = below[-1] if below else "-"
        if below:
            labels = ",".join(f"{v}:{tree.label(v, n)}" for v in below)
        else:
            labels = "-"
        lines.append(
            f"node {n} colour={tree.colour_text(n)} parent={parent} labels={labels}"
        )
    return "\n".join(lines) + "\n"


class DecompositionTree(StructuredTree):
    """A structured tree that keeps the composition set that generated it.

    Everything it stores comes from one pass, ``_layout``: the rows, a
    rooted tree by construction, so they are stored without the public
    constructor's checks, and the kinds, arities, leaf colours and leaf
    elements, kept as the pass built them.  ``leaves`` maps each leaf
    position of ``fset`` to its element of ``base``, the coloured poset the
    root tree was built from; a leaf takes that element's colour, and its
    argument is the one-point restriction of ``base`` to it, rebuilt when
    asked (``leaf_args``).  The keys of the internal nodes (``None`` for a
    leaf) are kept from the same pass, in the tree's storage order, and
    ``key_of`` maps node ids back to node keys.
    """

    __slots__ = ("fset", "base", "leaves", "leaf_element", "_keys")

    def __init__(self, fset, leaves, base):
        self.fset = fset
        self.base = base
        self.leaves = leaves
        (
            ids, above, below, label_rows, self._keys, kinds, arities, leaf_colours,
            self.leaf_element,
        ) = _layout(fset, leaves, base)
        poset = Poset._from_rows(ids, above, below)
        self._fill(poset, kinds, arities, leaf_colours, base.palette, tuple(label_rows))

    @property
    def tree(self):
        """The tree itself, for callers that read ``t.tree`` (the benchmark
        workloads and many tests)."""
        return self

    def evaluate(self):
        """Rebuild the poset this tree describes, by bottom-up summation."""
        return eval_g(self.fset, self.leaf_args)

    def ground(self):
        """The described poset as an induced part of the base poset: the
        base itself when every element of it is a leaf."""
        if len(self.leaf_element) == len(self.base):
            return self.base
        return self.base.restrict(set(self.leaf_element.values()))

    @property
    def leaf_args(self):
        """Leaf position -> the base restricted to that leaf's element,
        rebuilt on each call."""
        return {p: self.base.restrict([e]) for p, e in self.leaves.items()}

    @property
    def key_of(self):
        """Node id -> node key, read off the kept keys and ``leaves``."""
        at = {e: ("l", p) for p, e in self.leaves.items()}
        return {n: k or at[self.leaf_element[n]] for n, k in zip(self.nodes, self._keys)}

    def _internal(self, node_id):
        """(position, layer) of an internal node; BadLabel for any other id."""
        k = self.poset.index.get(node_id)
        if k is None:
            raise BadLabel(f"unknown node {node_id!r}")
        if self._keys[k] is None:
            raise BadLabel(f"{node_id} is a leaf")
        return self._keys[k][1:]

    def sequence_at(self, node_id):
        """The composition sequence and layer of an internal node."""
        p, i = self._internal(node_id)
        return self.fset.sequences[p], i


def decomposition_tree(x):
    """Decompose x down to singletons and package the recording tree.

    The tree has exactly one leaf per element of x, coloured by that
    element's colour.
    """
    if len(x) == 0:
        raise EmptyPoset("cannot build a tree for an empty poset")
    return DecompositionTree(*_decompose(x), x)


def _cone(seq, p, i, u):
    """The cone above layer i of position p labelled u, as (position, start
    layer) for ``_value``: the tail after layer i for the distinguished slot
    of a layer before the last, the branch at (i, u) for any other slot."""
    if u == seq.distinguished(i) and i < len(seq) - 1:
        return p, i + 1
    return p + ((i, u),), 0


def subtree_extract(tree, node_id, value):
    """The decomposition tree of the cone above ``node_id`` labelled ``value``.

    For a non-distinguished slot this is the branch hanging at that slot;
    for the distinguished slot of a non-final layer it is the whole tail of
    the layer's sequence, with layer indices shifted down.
    """
    p, i = tree._internal(node_id)
    seq = tree.fset.sequences[p]
    if value not in seq.arity(i):
        raise BadLabel(f"{value!r} is not a slot of the arity at {node_id}")
    n = len(p)
    root, start = _cone(seq, p, i, value)

    def move(q):
        # q's address in the cone (never empty), or None: a branch keeps its
        # positions, a tail shifts the layers from start down to 0
        if q[:n] == p and len(q) > n:
            j, v = q[n]
            if not start:
                return q if (j, v) == (i, value) else None
            return p + ((j - start, v),) + q[n + 1:] if j >= start else None

    sequences = {r: s for q, s in tree.fset.sequences.items() if (r := move(q))}
    leaves = {r: e for q, e in tree.leaves.items() if (r := move(q))}
    if start:
        sequences[p] = seq.tail(i)
    return DecompositionTree(CompositionSet(root, sequences, leaves), leaves, tree.base)


def recompose_along_chain(tree, zeta):
    """Rebuild the base poset from any up-closed chain of internal nodes.

    The chain's node colours give the arities, the labels toward the chain
    give the distinguished slots, and the cones of the other slots give the
    arguments, read off the composition set (``_cone``): no tree is built,
    and each leaf is restricted once per call.
    """
    zeta = list(zeta)
    if not zeta:
        raise NotUpClosedChain("empty chain")
    poset = tree.poset
    for n in zeta:
        if n not in poset:
            raise NotUpClosedChain(f"unknown node {n!r}")
        if tree.kinds[n] != "sum":
            raise NotUpClosedChain(f"{n!r} is a leaf")
    zeta = sorted(set(zeta), key=poset.index.__getitem__)
    top = zeta[-1]
    for a in zeta:
        if not poset.leq(a, top):
            raise NotUpClosedChain("nodes are not pairwise comparable")
    expected = {n for n in tree.internal_nodes() if poset.leq(n, top)}
    if set(zeta) != expected:
        raise NotUpClosedChain("chain is not closed toward the root")

    places = [tree._internal(node) for node in zeta]
    entries = []
    for (p, i), node, nxt in zip(places, zeta, zeta[1:] + [None]):
        at = tree.fset.sequences[p]
        s = at.distinguished(i) if nxt is None else tree.label(node, nxt)
        entries.append((at.arity(i), s))
    seq = CompositionSequence(entries)
    leaf_args = tree.leaf_args
    args = {
        (idx, u): _value(tree.fset, leaf_args, *_cone(tree.fset.sequences[p], p, i, u))
        for idx, (p, i) in enumerate(places)
        for u in seq.slots(idx)
    }
    return eval_f_eta(seq, args)


# -- structured-tree embedding ----------------------------------------------

def _colour_key(tree, node):
    """A node's colour class: ("leaf", its colour) or ("sum", its arity's
    rows).  Colour comparisons read nothing else: embeddability depends on
    the rows alone, not on the element names."""
    if tree.kinds[node] == "leaf":
        return ("leaf", tree.leaf_colours[node])
    return ("sum", tree.arities[node].above)


def _colour_leq(s_tree, t_tree, a, b):
    (ka, ca), (kb, cb) = _colour_key(s_tree, a), _colour_key(t_tree, b)
    if ka != kb:
        return False
    if ka == "leaf":
        return s_tree.ground_palette.leq(ca, cb)
    return embed(s_tree.arities[a], t_tree.arities[b]) is not None


def _fits(S, T, classes, colour):
    """Per node of S, the mask of T's nodes whose colours it may take.

    A colour comparison reads only the two nodes' classes (``_colour_key``)
    and the shared palette.  S keeps its classes, one node of each, and each
    node's class (``_source_tables``); T keeps one mask per source class it
    has met (``_target_tables``), made by one comparison with one node of
    each of its own classes, and T's class masks are disjoint, so the
    passing ones add up.  Per pair, each of S's classes is looked up once in
    T's masks, and each node reads its class's mask.
    """
    tclasses, fit = T._target_tables()[:2]
    masks = []
    for key, a in classes:
        mask = fit.get(key)
        if mask is None:
            mask = fit[key] = sum(
                nodes for b, nodes in tclasses.values() if _colour_leq(S, T, a, b)
            )
        masks.append(mask)
    return [masks[c] for c in colour]


def _label_entries(S, every_label):
    """Per node of S, the relation codes that ``_conditions`` narrows with,
    read off S's label rows.

    Under a sum node p, a node above p whose label no earlier node above p
    carries is a first node (the lowest bit of its label's row).  A first
    node i after the first one gets the entry ``(p, ((q, code), ...))``,
    one code per earlier first node q: the relation code of q's label
    towards i's label in p's arity.  So p gives
    firsts(p) * (firsts(p) - 1) / 2 codes, each tuple built once.  With
    ``every_label``, each other node i above p gets ``(p, ((q0, EQUAL),))``,
    where q0 is the first node with i's label, one tuple per label; so p
    gives |up(p)| - firsts(p) EQUAL codes more.  Each node's entries are a
    list; the tree keeps them as tuples (``_source_tables``).
    """
    elements = S.poset.elements
    codes = [[] for _ in elements]
    for p, rows in enumerate(S.label_rows):
        if not rows:
            continue
        arity = S.arities[elements[p]]
        a_up, a_dn = arity.above, arity.below
        firsts = sorted([((row & -row).bit_length() - 1, li) for li, row in enumerate(rows) if row])
        for k in range(1, len(firsts)):
            i, li = firsts[k]
            bit = 1 << li
            codes[i].append((p, tuple([
                (q, LESS if a_up[lq] & bit else GREATER if a_dn[lq] & bit else INCOMPARABLE)
                for q, lq in firsts[:k]
            ])))
        if every_label:
            for q0, li in firsts:
                same = ((q0, EQUAL),)
                for i in _bits(rows[li] & rows[li] - 1):
                    codes[i].append((p, same))
    return codes


def _meet_entries(children):
    """Per node, its meet entries ``(q, m)``, one per earlier sibling q,
    where m is their parent, read off the children tuples
    ``children[m]``."""
    meets = [()] * len(children)
    for m, kids in enumerate(children):
        for k, i in enumerate(kids):
            meets[i] = tuple([(q, m) for q in kids[:k]])
    return tuple(meets)


def _conditions(S, T):
    """``(allowed, row, narrow)`` for embedding S into T with
    ``_search.backtrack``: the colour masks (``_fits``), the row builder
    ``row(m)``, which lists the order rows node m pushes to its children,
    and ``narrow(i, f, c)``, the part of node i's candidate mask c that its
    relation codes and meet entries allow, given the images f of the
    earlier nodes.

    What depends on one tree alone is kept on that tree, built the first
    time a search asks for it.  T keeps its class masks, the colour mask of
    each source class it has met, and its label indices
    (``StructuredTree._target_tables``).  S keeps its node classes, its
    children tuples, and its relation codes between first nodes
    (``StructuredTree._source_tables``), all that a pair of decomposition
    trees reads.  Per pair, this call reads S's classes' masks off T's
    (``_fits``) and makes the row builder and ``narrow``, which join S's
    entries to T's rows and label indices; the backtracking search builds
    each row when it first reaches its node.  Besides the order rows there
    are two kinds of entry:

    - Order: each node pushes one row to each of its children, so
      ``row(m)`` holds ``(child, T.poset.above)`` per child of m: once m
      is placed, f(child) is kept above f(m).  A leaf pushes none.
    - Relation codes (``_label_entries``): under a sum node p below i, the
      label of f(i) under f(p) must stand to that of each earlier f(q)
      above f(p) as i's label stands to q's.  An earlier q that carries
      the label of an earlier first node q' (the first node above p with
      that label) took the label of f(q') when it was placed, so it asks
      of i what q' does, and only the earlier first nodes need checking.
      A first node i gets one code against each of them.  Any other node
      i gets one EQUAL code against q0, the first node with its label: the
      EQUAL row of f(p)'s arity has one bit per label, so f(i) takes the
      label of f(q0).  That implies the other codes: every first node
      q < q0 was checked against q0 when q0 was placed, and every first
      node q with q0 < q < i was checked against q0 when q itself was
      placed.  So once f(i) has the label of f(q0), it stands to each f(q)
      as q0's label, which is i's, stands to q's.
    - Meets (``_meet_entries``): node i has one entry per earlier sibling
      q, an earlier node with i's parent m: f(i) avoids the child cone of
      f(m) that holds f(q), read off T's order rows.

    When S and T are both decomposition trees, each has its labels
    constant on each child cone and distinct between siblings
    (``_layout``), and the order rows and the codes between first nodes
    imply the EQUAL codes and the meet entries, so neither is built:

    - EQUAL codes.  A code ``(p, ((q0, EQUAL),))`` names i's ancestor q0,
      the child of p towards i, since the cone of that child holds exactly
      the nodes above p with its label and the child comes first.  The
      order rows force f(i) >= f(q0), so f(i) lies in f(q0)'s child cone
      of f(p), and takes its label.
    - Meet entries.  Siblings are first nodes, each the first of its own
      label's cone, so every sibling pair has a code under their parent m.
      A code between distinct labels is never EQUAL, and the arity's rows
      are strict, so it gives f(i) a label under f(m) other than f(q)'s:
      the two images lie in distinct child cones of f(m).

    A pair with a raw structured tree, whose sibling cones may share a
    label, reads both, and this call builds them: all of S's relation codes
    (``_label_entries(S, True)``) and its meet entries.

    The parent rows and sibling entries give the whole of order-exactness
    and meet preservation, once every earlier node has passed its own:

    1. Chaining parent rows gives f(p) < f(i) whenever p < i.
    2. Take p and i incomparable, with meet m, and let a and a' be the
       children of m towards p and towards i.  They are distinct siblings,
       so the later of them has an entry against the earlier (or a code
       that implies it), and f(a) and f(a') lie in distinct child cones of
       f(m).  As f(p) >= f(a) and f(i) >= f(a'), f(p) and f(i) lie in those
       two cones: they are incomparable, and their meet is f(m).

    An earlier node is never above i, so 1 and 2 cover every earlier p:
    each relation-code row, meet entry and label code left out follows from
    the kept ones, each candidate mask is the one the full conditions give,
    and the search meets its witnesses in the same order.  The proofs
    assume only that each earlier node passed its own rows and entries, so
    they hold for any complete map that keeps the order, not just for the
    search's prefixes (``verify_st_embedding``).
    """
    classes, colour, children, codes = S._source_tables()
    raw = not (isinstance(S, DecompositionTree) and isinstance(T, DecompositionTree))
    if raw:
        codes = _label_entries(S, True)
    allowed = _fits(S, T, classes, colour)
    ttables = T._target_tables()[2]
    tabove = T.poset.above

    def row(m):
        return [(c, tabove) for c in children[m]]

    def narrow_codes(i, assign, c):
        for p, earlier in codes[i]:
            lab, rows, labelled = ttables[assign[p]]
            ok = -1  # the label values i may take under assign[p]
            for q, code in earlier:
                ok &= rows[code][lab[assign[q]]]
            mask = 0
            while ok:
                low = ok & -ok
                mask |= labelled[low.bit_length() - 1]
                ok ^= low
            c &= mask
        return c

    if not raw:
        return allowed, row, narrow_codes
    meets = _meet_entries(children)
    tbelow = T.poset.below

    def narrow(i, assign, c):
        for q, m in meets[i]:
            # i avoids the cone of the child of assign[m] towards assign[q],
            # the lowest bit of the path, as T is stored in a linear extension
            t = assign[q]
            child = (tbelow[t] | 1 << t) & tabove[assign[m]]
            k = (child & -child).bit_length() - 1
            c &= ~(tabove[k] | 1 << k)
        return narrow_codes(i, assign, c)

    return allowed, row, narrow


def st_embed(S, T):
    """First structured-tree embedding, or None.

    Preserves order exactly, preserves meets, induces an arity embedding on
    every node's labels, and increases colours (arity colours compare by
    arity embeddability, leaf colours by the ground palette, and the two
    kinds never compare).  Each condition becomes a target mask for the
    shared driver ``_search.backtrack``, all made by ``_conditions``: the
    allowed masks (colours), the row builder, whose row for a node holds
    one entry per child keeping the child's image above its own (order),
    and ``narrow`` (relation codes and meets, which involve two
    earlier nodes; between decomposition trees the codes between first
    nodes alone).  Nodes are placed in storage order, which StructuredTree
    keeps a linear extension, so ancestors and meets are placed first.  The
    witness is the lexicographically first embedding.
    """
    if S.ground_palette != T.ground_palette:
        raise PaletteMismatch("structured trees must share the ground palette")
    if len(S.poset) > len(T.poset):
        return None
    assign = _search.backtrack(*_conditions(S, T))
    if assign is None:
        return None
    pairs = zip(S.poset.elements, (T.poset.elements[j] for j in assign))
    return EmbeddingMap(pairs, "structured-tree")


def verify_st_embedding(S, T, emap):
    """Full check of every structured-tree embedding condition, by node
    index: the order first (``check_embedding`` on the tree posets, which
    covers the order rows of ``_conditions``), then each node's colour mask
    and its label and meet entries (``_conditions``), which read the images
    of earlier nodes.  The order is checked first, so the entries that
    ``_conditions`` leaves out between decomposition trees are implied here
    as they are in the search.  It reads the tables the search reads, kept
    on S and T, so only the per-pair part of ``_conditions`` is made again
    for a map that ``st_embed`` found."""
    if S.ground_palette != T.ground_palette:
        return False
    if not check_embedding(S.poset, T.poset, emap):
        return False
    m = emap.as_dict()
    f = [T.poset.index[m[a]] for a in S.poset.elements]
    allowed, _, narrow = _conditions(S, T)
    return all(allowed[i] >> j & 1 and narrow(i, f, 1 << j) for i, j in enumerate(f))


def lift_embedding(source_tree, target_tree, emap):
    """Turn a tree embedding between decomposition trees (Malformed for
    other trees) into a coloured-poset embedding.

    The input map is verified first (VerificationFailure if it is not a
    structured-tree embedding).  Leaves map to leaves: the colour masks of
    the verification admit only nodes of a node's own kind (leaf colours
    never compare with arity colours, ``_colour_leq``).  So sending each
    ground element to the ground element at its leaf's image is well
    defined, and injective since the map is.

    The result is re-verified before being returned.  For trees built by
    ``decomposition_tree`` that check cannot fail.  Such a tree describes
    its base (``evaluate`` rebuilds it): two ground elements compare as the
    labels of their leaves' branches compare in the arity of the leaves'
    meet.  The map keeps meets and induces an arity embedding on every
    node's labels, so the images of two ground elements compare at the
    image of their meet exactly as they do; and leaf colours increase.  But
    ``DecompositionTree(fset, leaves, base)`` does not check that ``fset``
    describes ``base``, so a tree built over a base that ``fset`` does not
    describe reaches the check, which then raises.
    """
    if not all(isinstance(t, DecompositionTree) for t in (source_tree, target_tree)):
        raise Malformed("lift_embedding needs decomposition trees")
    if not verify_st_embedding(source_tree, target_tree, emap):
        raise VerificationFailure("input map is not a structured-tree embedding")
    m = emap.as_dict()
    pairs = [
        (element, target_tree.leaf_element[m[leaf]])
        for leaf, element in source_tree.leaf_element.items()
    ]
    pairs.sort(key=lambda ab: source_tree.base.poset.index[ab[0]])
    lifted = EmbeddingMap(pairs, "coloured")
    if not check_coloured_embedding(
        source_tree.ground(), target_tree.ground(), lifted
    ):
        raise VerificationFailure("lifted map failed coloured-embedding check")
    return lifted


# -- ranks --------------------------------------------------------------------

def tree_rank(tree):
    """Height-style rank of a rooted tree, a structured tree or a
    decomposition tree: leaves are 0, a node is one above its children.

    The height of a rooted tree is its greatest depth, and a node's depth is
    the size of its down-set, which is a chain.
    """
    poset = tree.poset if isinstance(tree, StructuredTree) else tree
    # a structured tree is a rooted tree: its constructor checks it, and
    # ``_layout`` proves it
    if poset is tree and not poset.is_rooted_tree():
        raise NotATree("rank is defined for rooted trees")
    return max(row.bit_count() for row in poset.below)


def scattered_rank(tree, bound=None):
    """Least number of nested chain-of-trees layerings that build the tree.

    A tree is rank <= r+1 when some root path exists whose off-path cones
    all have rank <= r; singletons are rank 0.  One pass over the nodes,
    deepest first, reads each node's children once: a leaf has rank 0, and
    a node v with children has rank

        1 + min over children c of max(max(rank[c] - 1, 0), c's siblings' ranks).

    Proof: a root path of v's cone that stops at v leaves every child's
    cone hanging off it.  Continuing into a child c instead swaps c's cone,
    of rank rank[c], for c's own best continuation, whose highest hanging
    cone has rank rank[c] - 1 by c's own definition, or none when c is a
    leaf.  c's siblings hang off the path either way, so a best path never
    stops early.  The minimum is reached at a child of the highest rank
    (any other child leaves that one hanging), so rank[v] is one more than
    the larger of the highest child rank less one, the second highest (0
    for an only child), and 0.
    """
    poset = tree.poset if isinstance(tree, StructuredTree) else tree
    config.check_size(len(poset), config.SCATTERED_RANK_BOUND, bound, "tree", "nodes")
    # ``Poset.is_rooted_tree`` on the parent map that also gives the children
    parents = poset._parents()
    if poset is tree and (parents is None or parents.count(-1) != 1):
        raise NotATree("scattered rank is defined for rooted trees")

    depth = [row.bit_count() for row in poset.below]
    children = [0] * len(poset)
    for d, p in enumerate(parents):
        if p >= 0:
            children[p] |= 1 << d
    rank = [0] * len(poset)
    for v in sorted(range(len(poset)), key=depth.__getitem__, reverse=True):
        if children[v]:
            top, *rest = sorted((rank[c] for c in _bits(children[v])), reverse=True)
            rank[v] = 1 + max(top - 1, *rest[:1], 0)
    return rank[depth.index(0)]
