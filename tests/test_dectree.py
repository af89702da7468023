import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings

import helpers
from poset_forge import (
    ColouredPoset,
    Poset,
    canonical,
    decomposition_tree,
    is_indecomposable,
    lift_embedding,
    make_poset,
    recompose_along_chain,
    scattered_rank,
    st_embed,
    structured_tree_text,
    subtree_extract,
    tree_rank,
    verify_st_embedding,
    zeta_tree_sum,
)
from poset_forge.core import (
    EQUAL,
    EmbeddingMap,
    _bits,
    check_coloured_embedding,
    check_embedding,
    coloured_isomorphic,
    is_isomorphic,
    one_colour_palette,
)
from poset_forge import _search, composition, core, dectree, interval
from poset_forge.composition import CompositionSet
from poset_forge.dectree import DecompositionTree, StructuredTree, _layout
from poset_forge.textio import poset_text
from poset_forge.errors import (
    BadLabel,
    Malformed,
    NoLabel,
    NotATree,
    NotUpClosedChain,
    PaletteMismatch,
    TooLarge,
    UnknownElement,
    VerificationFailure,
)


def uniform(name, k):
    return ColouredPoset.uniform(canonical(name, k))


def up_chains(tree):
    """All up-closed chains of internal nodes: one per internal node."""
    poset = tree.tree.poset
    out = []
    for t in tree.tree.internal_nodes():
        out.append([m for m in tree.tree.internal_nodes() if poset.leq(m, t)])
    return out


class TestDecompositionTree:
    def test_singleton(self):
        t = decomposition_tree(uniform("chain", 1))
        assert len(t.tree.poset) == 1
        node = t.tree.nodes[0]
        assert t.tree.kinds[node] == "leaf"
        assert t.tree.leaf_colours[node] == "0"

    def test_n_shape(self):
        t = decomposition_tree(uniform("N", 0))
        assert len(t.tree.poset) == 6
        internals = t.tree.internal_nodes()
        assert internals == ["0", "1"]
        assert t.tree.poset.lt("0", "1")
        assert is_isomorphic(t.tree.arities["0"], canonical("N", 0))
        assert len(t.tree.arities["1"]) == 1
        above_root = t.tree.poset.up("0")
        leaves = set(t.tree.leaf_nodes())
        assert len(leaves) == 4
        # three leaves branch off the first layer with distinct labels
        first_layer_leaves = [x for x in leaves if t.tree.poset.down(x) == {"0"}]
        assert len(first_layer_leaves) == 3
        labels = {t.tree.label("0", x) for x in first_layer_leaves}
        assert len(labels) == 3

    def test_ch3_shape(self):
        t = decomposition_tree(uniform("chain", 3))
        internals = t.tree.internal_nodes()
        assert len(internals) == 3
        sizes = [len(t.tree.arities[v]) for v in internals]
        assert sizes == [2, 2, 1]

    def test_leaf_bijection(self):
        rng = random.Random(59)
        for _ in range(25):
            x = helpers.random_coloured(rng, rng.randrange(1, 8))
            t = decomposition_tree(x)
            assert len(t.leaf_element) == len(x)
            assert set(t.leaf_element.values()) == set(x.elements)
            got = Counter(
                t.tree.leaf_colours[leaf] for leaf in t.tree.leaf_nodes()
            )
            want = Counter(x.colour(e) for e in x.elements)
            assert got == want

    def test_node_order_is_linear_extension(self):
        # the embedding search assigns nodes in storage order and assumes
        # meets and ancestors are already placed
        rng = random.Random(101)
        for _ in range(15):
            x = helpers.random_coloured(rng, rng.randrange(1, 8))
            t = decomposition_tree(x)
            poset = t.tree.poset
            for a in poset.elements:
                for b in poset.elements:
                    if poset.lt(a, b):
                        assert poset.index[a] < poset.index[b]

    def test_evaluate_matches_ground(self):
        rng = random.Random(61)
        for _ in range(15):
            x = helpers.random_coloured(rng, rng.randrange(1, 8))
            t = decomposition_tree(x)
            assert t.ground() == x
            assert coloured_isomorphic(t.evaluate(), x)

    def test_ground_of_a_full_tree_is_its_base(self, catalog5, monkeypatch):
        # every element is a leaf, so nothing is rebuilt
        def restrict(*args):
            raise AssertionError("the base was restricted")

        trees = [
            decomposition_tree(ColouredPoset.uniform(p))
            for reps in catalog5.values()
            for p in reps
        ]
        monkeypatch.setattr(ColouredPoset, "restrict", restrict)
        for t in trees:
            assert t.ground() == t.base
            assert t.ground() is t.base

    def test_ground_of_an_extract_is_the_induced_part(self):
        rng = random.Random(71)
        cases = 0
        for _ in range(10):
            x = helpers.random_coloured(rng, rng.randrange(2, 9))
            for _, sub in _extracts(decomposition_tree(x)):
                g = sub.ground()
                names = set(sub.leaf_element.values())
                assert g.elements == tuple(e for e in x.elements if e in names)
                for a in g.elements:
                    assert g.colour(a) == x.colour(a)
                    for b in g.elements:
                        assert g.poset.lt(a, b) == x.poset.lt(a, b)
                cases += len(names) < len(x)
        assert cases

    def test_internal_label_ranges_indecomposable(self):
        rng = random.Random(67)
        for _ in range(20):
            x = helpers.random_coloured(rng, rng.randrange(1, 8))
            t = decomposition_tree(x)
            for v in t.tree.internal_nodes():
                assert is_indecomposable(t.tree.label_range(v))

    def test_internal_label_ranges_indecomposable_exhaustive(self, catalog6):
        for n, reps in catalog6.items():
            for p in reps:
                t = decomposition_tree(ColouredPoset.uniform(p))
                for v in t.tree.internal_nodes():
                    assert is_indecomposable(t.tree.label_range(v)), p


class TestMeet:
    def test_matches_greatest_common_lower_bound(self, catalog5):
        rng = random.Random(53)
        xs = [ColouredPoset.uniform(p) for reps in catalog5.values() for p in reps]
        xs += [helpers.random_coloured(rng, rng.randint(2, 8)) for _ in range(30)]
        for x in xs:
            tree = decomposition_tree(x).tree
            poset = tree.poset
            nodes = poset.elements
            for a in nodes:
                for b in nodes:
                    lower = [c for c in nodes if poset.leq(c, a) and poset.leq(c, b)]
                    greatest = [g for g in lower if all(poset.leq(c, g) for c in lower)]
                    assert [tree.meet(a, b)] == greatest

    def test_meet_index_on_raw_trees(self):
        for _, tree in helpers.random_raw_trees(random.Random(139), 40):
            poset = tree.poset
            nodes = poset.elements
            for i, a in enumerate(nodes):
                for j, b in enumerate(nodes):
                    lower = [c for c in nodes if poset.leq(c, a) and poset.leq(c, b)]
                    greatest = [g for g in lower if all(poset.leq(c, g) for c in lower)]
                    assert [nodes[tree.meet_index(i, j)]] == greatest


class TestSubtreeExtract:
    def test_branch_of_n_is_leaf(self):
        t = decomposition_tree(uniform("N", 0))
        sub = subtree_extract(t, "0", "1")
        assert len(sub.tree.poset) == 1
        assert sub.ground().elements == ("1",)

    def test_tail_of_ch3_is_two_chain(self):
        t = decomposition_tree(uniform("chain", 3))
        seq, layer = t.sequence_at("0")
        sub = subtree_extract(t, "0", seq.distinguished(layer))
        assert is_isomorphic(sub.ground().poset, canonical("chain", 2))
        assert coloured_isomorphic(sub.evaluate(), sub.ground())

    def test_last_layer_slot_is_leaf(self):
        t = decomposition_tree(uniform("chain", 3))
        last = t.tree.internal_nodes()[-1]
        seq, layer = t.sequence_at(last)
        (only,) = seq.slots(layer)
        sub = subtree_extract(t, last, only)
        assert len(sub.tree.poset) == 1

    def test_extracted_tree_is_the_cone(self):
        # node set of a branch extraction equals the labelled cone in the
        # big tree, node ids included
        rng = random.Random(71)
        for _ in range(10):
            x = helpers.random_coloured(rng, rng.randrange(2, 7))
            t = decomposition_tree(x)
            for v in t.tree.internal_nodes():
                seq, layer = t.sequence_at(v)
                s = seq.distinguished(layer)
                for u in seq.arity(layer).elements:
                    cone = {
                        m
                        for m in t.tree.poset.up(v)
                        if t.tree.label(v, m) == u
                    }
                    sub = subtree_extract(t, v, u)
                    if u != s or layer == len(seq) - 1:
                        assert set(sub.tree.nodes) == cone
                    else:
                        assert len(sub.tree.poset) == len(cone)
                    ground = {
                        t.leaf_element[m]
                        for m in cone
                        if m in t.leaf_element
                    }
                    assert set(sub.leaf_element.values()) == ground

    def test_every_node_id_resolves(self, catalog5):
        # key_of reads the node keys kept from the tree's one layout; every
        # id it holds resolves
        for reps in catalog5.values():
            for p in reps:
                t = decomposition_tree(ColouredPoset.uniform(p))
                key_of = t.key_of
                assert set(key_of) == set(t.tree.nodes)
                for v in t.tree.nodes:
                    if t.tree.kinds[v] == "leaf":
                        assert key_of[v][0] == "l"
                        with pytest.raises(BadLabel):
                            t.sequence_at(v)
                        continue
                    seq, layer = t.sequence_at(v)
                    assert key_of[v][0] == "i" and seq.arity(layer) == t.tree.arities[v]
                    for u in seq.arity(layer).elements:
                        cone = [m for m in t.tree.poset.up(v) if t.tree.label(v, m) == u]
                        assert len(subtree_extract(t, v, u).tree.nodes) == len(cone)

    def test_bad_label(self):
        t = decomposition_tree(uniform("chain", 3))
        with pytest.raises(BadLabel):
            subtree_extract(t, "0", "zzz")
        leaf = t.tree.leaf_nodes()[0]
        with pytest.raises(BadLabel):
            subtree_extract(t, leaf, "a")


class TestRecompose:
    def test_root_chain_gives_back_x(self):
        x = uniform("chain", 3)
        t = decomposition_tree(x)
        full = t.tree.internal_nodes()
        assert coloured_isomorphic(recompose_along_chain(t, full), x)

    def test_single_root_node(self):
        x = uniform("chain", 3)
        t = decomposition_tree(x)
        assert coloured_isomorphic(recompose_along_chain(t, ["0"]), x)

    def test_n_full_chain(self):
        x = uniform("N", 0)
        t = decomposition_tree(x)
        assert coloured_isomorphic(
            recompose_along_chain(t, t.tree.internal_nodes()), x
        )

    def test_every_up_chain_random(self):
        rng = random.Random(73)
        for _ in range(10):
            x = helpers.random_coloured(rng, rng.randrange(2, 7))
            t = decomposition_tree(x)
            for zeta in up_chains(t):
                assert coloured_isomorphic(recompose_along_chain(t, zeta), x)

    def test_matches_extract_recompose(self, catalog5):
        # the cones read off the composition set give the same text as one
        # evaluated extract per slot, on every up-closed chain
        rng = random.Random(181)
        xs = [ColouredPoset.uniform(p) for reps in catalog5.values() for p in reps]
        for _ in range(30):
            x = helpers.random_coloured(rng, rng.randint(2, 12), p=rng.choice((0.15, 0.35)), prefix="a.")
            xs.append(ColouredPoset(helpers.shuffled_poset(rng, x.poset), x.colouring, x.palette))
        for x in xs:
            t = decomposition_tree(x)
            for zeta in up_chains(t):
                got = recompose_along_chain(t, zeta)
                want = helpers.extract_recompose(t, zeta)
                assert poset_text("r", got.poset, got.colouring) == poset_text("r", want.poset, want.colouring)
                assert got.colouring == want.colouring and got.palette == want.palette

    def test_not_up_closed(self):
        t = decomposition_tree(uniform("chain", 3))
        with pytest.raises(NotUpClosedChain):
            recompose_along_chain(t, ["1"])  # misses the root
        with pytest.raises(NotUpClosedChain):
            recompose_along_chain(t, [])
        with pytest.raises(NotUpClosedChain):
            recompose_along_chain(t, [t.tree.leaf_nodes()[0]])


class TestLabelRows:
    def test_label_reads_the_given_dict(self):
        for labels, tree in helpers.random_raw_trees(random.Random(131), 60):
            for v in tree.nodes:
                for x in tree.nodes:
                    if (v, x) in labels:
                        assert tree.label(v, x) == labels[(v, x)]
                    else:
                        with pytest.raises(KeyError):
                            tree.label(v, x)

    def test_label_raises_one_error_naming_the_pair(self):
        # a leaf, an unknown id on either side, and a sum node with a node
        # that is not above it: one NoLabel, a BadLabel and a KeyError
        t = decomposition_tree(uniform("N", 0))
        root, leaf = t.nodes[0], t.leaf_nodes()[0]
        assert root in t.internal_nodes()
        for v, x in [(leaf, root), (leaf, leaf), ("?", leaf), (root, "?"), (root, root)]:
            with pytest.raises(NoLabel) as caught:
                t.label(v, x)
            assert isinstance(caught.value, BadLabel) and isinstance(caught.value, KeyError)
            assert caught.value.args == ((v, x),)
        assert t.label(root, leaf) in t.arities[root]

    def test_rows_split_each_up_set(self):
        # one row per slot of the arity; together they partition the nodes
        # above, and leaves have none
        for _, tree in helpers.random_raw_trees(random.Random(137), 40):
            for i, v in enumerate(tree.nodes):
                rows = tree.label_rows[i]
                if tree.kinds[v] == "leaf":
                    assert rows == ()
                    continue
                assert len(rows) == len(tree.arities[v])
                assert sum(rows) == tree.poset.above[i]
                assert sum(bin(row).count("1") for row in rows) == len(tree.poset.up(v))

    def test_public_constructor_copies_its_dicts(self):
        # ``_fill`` keeps the dicts it is given, so the public constructor
        # hands it copies: a caller's later edits do not reach the tree
        for _, tree in helpers.random_raw_trees(random.Random(191), 20):
            args = _rebuilt_args(tree)
            built = StructuredTree(*args)
            kept = (dict(built.kinds), dict(built.arities), dict(built.leaf_colours), built.label_rows)
            _, kinds, arities, leaf_colours, _, labels = args
            for d in (kinds, arities, leaf_colours, labels):
                for key in list(d):
                    d[key] = "changed"
                d["extra"] = "changed"
            assert (built.kinds, built.arities, built.leaf_colours, built.label_rows) == kept
            assert built.kinds is not kinds and built.arities is not arities
            assert built.leaf_colours is not leaf_colours
            assert structured_tree_text(built) == structured_tree_text(tree)


class TestConstructorRejectsMalformedLabels:
    # r < a and r < b, with a point arity at r unless given
    NODES = ["r", "a", "b"]
    PAIRS = [("r", "a"), ("r", "b")]

    def _build(self, labels, kinds=None, arities=None, colours=None):
        poset = make_poset(self.NODES, self.PAIRS)
        point = make_poset(["x"], [])
        return StructuredTree(
            poset,
            kinds or {"r": "sum", "a": "leaf", "b": "leaf"},
            {"r": point} if arities is None else arities,
            colours or {"a": "0", "b": "0"},
            one_colour_palette(),
            labels,
        )

    def test_well_formed(self):
        t = self._build({("r", "a"): "x", ("r", "b"): "x"})
        assert t.label_rows == ((0b110,), (), ())

    def test_missing_label(self):
        # built before, and then st_embed(t, t) found a witness while
        # structured_tree_text(t) raised KeyError
        with pytest.raises(BadLabel):
            self._build({("r", "a"): "x"})

    def test_slot_outside_the_arity(self):
        with pytest.raises(BadLabel):
            self._build({("r", "a"): "x", ("r", "b"): "y"})

    def test_pair_not_below(self):
        for bad in (("a", "r"), ("a", "b"), ("r", "r"), ("r", "z")):
            with pytest.raises(BadLabel):
                self._build({("r", "a"): "x", ("r", "b"): "x", bad: "x"})

    def test_label_on_a_leaf(self):
        kinds = {"r": "sum", "a": "leaf", "b": "leaf"}
        nodes, pairs = self.NODES + ["c"], self.PAIRS + [("a", "c")]
        poset = make_poset(nodes, pairs)
        point = make_poset(["x"], [])
        with pytest.raises(BadLabel):
            StructuredTree(
                poset,
                {**kinds, "c": "leaf"},
                {"r": point, "a": point},
                {"a": "0", "b": "0", "c": "0"},
                one_colour_palette(),
                {("r", "a"): "x", ("r", "b"): "x", ("r", "c"): "x", ("a", "c"): "x"},
            )

    def test_sum_node_without_arity(self):
        with pytest.raises(Malformed):
            self._build({("r", "a"): "x", ("r", "b"): "x"}, arities={})

    def test_node_without_kind(self):
        with pytest.raises(Malformed, match="no kind"):
            self._build({("r", "a"): "x", ("r", "b"): "x"}, kinds={"r": "sum", "a": "leaf"})

    def test_unknown_kind(self):
        for kind in ("Leaf", "node", None):
            with pytest.raises(Malformed):
                self._build({("r", "a"): "x", ("r", "b"): "x"}, kinds={"r": "sum", "a": "leaf", "b": kind})

    def test_leaf_without_colour(self):
        with pytest.raises(UnknownElement, match="no colour"):
            self._build({("r", "a"): "x", ("r", "b"): "x"}, colours={"a": "0"})

    def test_colour_outside_the_palette(self):
        with pytest.raises(UnknownElement, match="not in palette"):
            self._build({("r", "a"): "x", ("r", "b"): "x"}, colours={"a": "0", "b": "1"})

    def test_kind_for_an_unknown_node(self):
        with pytest.raises(UnknownElement, match="kind for unknown node 'zz'"):
            self._build(
                {("r", "a"): "x", ("r", "b"): "x"},
                kinds={"r": "sum", "a": "leaf", "b": "leaf", "zz": "sum"},
            )

    def test_arity_on_a_leaf(self):
        point = make_poset(["x"], [])
        with pytest.raises(Malformed, match="leaf 'a' has an arity"):
            self._build({("r", "a"): "x", ("r", "b"): "x"}, arities={"r": point, "a": point})

    def test_arity_for_an_unknown_node(self):
        point = make_poset(["x"], [])
        with pytest.raises(UnknownElement, match="arity for unknown node 'zz'"):
            self._build({("r", "a"): "x", ("r", "b"): "x"}, arities={"r": point, "zz": point})

    def test_colour_for_an_unknown_node(self):
        with pytest.raises(UnknownElement, match="colour for unknown node 'q'"):
            self._build(
                {("r", "a"): "x", ("r", "b"): "x"}, colours={"a": "0", "b": "0", "q": "9"}
            )

    def test_colour_on_a_sum_node(self):
        with pytest.raises(Malformed, match="sum node 'r' has a leaf colour"):
            self._build(
                {("r", "a"): "x", ("r", "b"): "x"}, colours={"a": "0", "b": "0", "r": "0"}
            )

    # the constructor is the one rooted-tree check, made after every other
    @staticmethod
    def _forest(kinds):
        # two leaves, incomparable
        return StructuredTree(
            make_poset(["a", "b"], []), kinds, {}, {"a": "0", "b": "0"}, one_colour_palette(), {}
        )

    def test_forest(self):
        with pytest.raises(NotATree):
            self._forest({"a": "leaf", "b": "leaf"})

    def test_leaf_with_two_parents(self):
        # r < a, b < c, every label in place: only the tree condition fails
        point = make_poset(["x"], [])
        nodes = ["r", "a", "b", "c"]
        pairs = [("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")]
        with pytest.raises(NotATree):
            StructuredTree(
                make_poset(nodes, pairs),
                {"r": "sum", "a": "sum", "b": "sum", "c": "leaf"},
                {"r": point, "a": point, "b": point},
                {"c": "0"},
                one_colour_palette(),
                {(v, x): "x" for v, x in pairs + [("r", "c")]},
            )

    def test_empty(self):
        with pytest.raises(NotATree):
            StructuredTree(make_poset([], []), {}, {}, {}, one_colour_palette(), {})

    def test_forest_without_a_kind(self):
        with pytest.raises(Malformed, match="no kind"):
            self._forest({"a": "leaf"})


def _two_colour_shuffled(rng, n):
    x = helpers.random_coloured(rng, n, helpers.PALETTES[1], rng.choice((0.15, 0.35)))
    return ColouredPoset(helpers.shuffled_poset(rng, x.poset), x.colouring, x.palette)


def _extracts(t):
    """Every subtree extract of t, with True for a tail (the distinguished
    slot of a layer before the last) and False for a branch."""
    for v in t.tree.internal_nodes():
        seq, layer = t.sequence_at(v)
        for u in seq.arity(layer).elements:
            tail = u == seq.distinguished(layer) and layer < len(seq) - 1
            yield tail, subtree_extract(t, v, u)


def _rebuilt_args(tree):
    """The public constructor's arguments for tree's nodes, colours and
    labels, in fresh dicts."""
    labels = {(v, x): tree.label(v, x) for v in tree.internal_nodes() for x in tree.poset.up(v)}
    return (
        tree.poset,
        dict(tree.kinds),
        dict(tree.arities),
        dict(tree.leaf_colours),
        tree.ground_palette,
        labels,
    )


def _rebuilt(tree):
    """A raw structured tree with tree's nodes, colours and labels, built
    through the public constructor."""
    return StructuredTree(*_rebuilt_args(tree))


def _assert_layout_matches_brute(t):
    # a decomposition tree is stored without a rooted-tree check: the
    # layout must be one by construction
    assert isinstance(t, StructuredTree) and t.tree is t
    assert t.poset.is_rooted_tree()
    ids, above, label_rows = helpers.brute_tree_rows(t.fset)
    (
        got_ids, got_above, got_below, got_label_rows, keys, kinds, arities, leaf_colours,
        leaf_element,
    ) = _layout(t.fset, t.leaves, t.base)
    assert (got_ids, got_above, got_label_rows) == (ids, above, label_rows)
    # the ancestor masks handed down are the transpose of the ranges
    assert got_below == helpers.transpose(above)
    assert t.nodes == tuple(ids)
    assert t.poset.above == tuple(above)
    assert t.poset.below == tuple(got_below)
    assert t.label_rows == tuple(label_rows)
    # the same pass types the nodes, as the pairwise definitions do, and
    # the tree stores what it returns
    types = helpers.brute_tree_types(t.fset, t.leaves, t.base)
    assert (keys, kinds, arities, leaf_colours, leaf_element) == types
    assert (t._keys, t.kinds, t.arities, t.leaf_colours, t.leaf_element) == types
    # the public constructor, fed the labels read off the tree, agrees
    rebuilt = _rebuilt(t)
    assert rebuilt.poset == t.poset and rebuilt.label_rows == t.label_rows
    assert (rebuilt.kinds, rebuilt.arities, rebuilt.leaf_colours) == types[1:4]


class TestLayout:
    def test_matches_brute_on_catalog6(self, catalog6):
        for reps in catalog6.values():
            for p in reps:
                _assert_layout_matches_brute(decomposition_tree(ColouredPoset.uniform(p)))

    def test_matches_brute_random_two_colour(self):
        rng = random.Random(139)
        for _ in range(200):
            _assert_layout_matches_brute(decomposition_tree(_two_colour_shuffled(rng, rng.randint(1, 16))))

    def test_matches_brute_on_extracts(self, catalog5):
        # branch extracts keep their root position; tail extracts shift the
        # layers of theirs
        rng = random.Random(149)
        xs = [ColouredPoset.uniform(p) for reps in catalog5.values() for p in reps]
        xs += [_two_colour_shuffled(rng, rng.randint(2, 12)) for _ in range(30)]
        cases = Counter()
        for x in xs:
            for tail, sub in _extracts(decomposition_tree(x)):
                cases[tail] += 1
                _assert_layout_matches_brute(sub)
        assert cases[True] and cases[False]


def _assert_rows_match_public(x, monkeypatch):
    # the walk builds every arity and the tree through ``Poset._from_rows``
    # and its composition set through ``CompositionSet._grown``: no public
    # ``Poset`` constructor and no ``_validate`` runs.  What they build is
    # what the public constructors would: the rows of ``Poset(ids,
    # above)``, and a set that passes the check it skipped
    init, validate = Poset.__init__, CompositionSet._validate

    def refused(*args):
        raise AssertionError("the walk transposed rows or validated its set")

    monkeypatch.setattr(Poset, "__init__", refused)
    monkeypatch.setattr(CompositionSet, "_validate", refused)
    t = decomposition_tree(x)
    monkeypatch.setattr(Poset, "__init__", init)
    monkeypatch.setattr(CompositionSet, "_validate", validate)
    t.fset._validate()
    posets = [t.poset] + [arity for seq in t.fset.sequences.values() for arity, _ in seq.entries]
    for p in posets:
        public = Poset(p.elements, p.above)
        assert (p.below, p.beside) == (public.below, public.beside)
        assert list(p.below) == helpers.transpose(p.above)


class TestUncheckedPaths:
    def test_catalog6(self, catalog6, monkeypatch):
        for reps in catalog6.values():
            for p in reps:
                _assert_rows_match_public(ColouredPoset.uniform(p), monkeypatch)

    def test_random_shuffled(self, monkeypatch):
        rng = random.Random(167)
        for _ in range(150):
            _assert_rows_match_public(_two_colour_shuffled(rng, rng.randint(1, 16)), monkeypatch)


class TestDeepNesting:
    # an alternating series-parallel nesting has one strong module per
    # level: stored with the innermost point first, the chain has a member
    # per level; stored with it last, the walk has a position per level
    def test_chain_per_level_is_not_cubic(self, monkeypatch):
        # 301 elements; the former greedy chain, one closure per outside
        # point per member, took 4.7 s (2 cores, CPython 3.11)
        x = ColouredPoset.uniform(helpers.alternating_nesting(300))
        monkeypatch.setenv("POSET_FORGE_BOUND", "301")
        start = time.perf_counter()
        t = decomposition_tree(x)
        elapsed = time.perf_counter() - start
        seq = t.fset.sequences[()]
        assert len(seq) == 301 and all(len(arity) == 2 for arity, _ in seq.entries[:-1])
        assert len(t.leaf_nodes()) == 301
        assert elapsed < 1.5

    def test_position_per_level_needs_no_recursion(self, monkeypatch):
        # 1,200 levels, more than the interpreter's recursion limit, which
        # a walk with one call per level would hit
        x = ColouredPoset.uniform(helpers.alternating_nesting(1200, innermost_first=False))
        monkeypatch.setenv("POSET_FORGE_BOUND", "1201")
        start = time.perf_counter()
        t = decomposition_tree(x)
        elapsed = time.perf_counter() - start
        assert len(t.fset.sequences) == 1200
        assert max(map(len, t.fset.sequences)) == 1199
        assert len(t.leaf_nodes()) == 1201
        assert elapsed < 10


def _assert_positions_match_brute(x, t):
    """Every position of t's composition set against the brute-force
    chain, blocks and indecomposability of the points under it."""
    elem = {q: v.elements[0] for q, v in t.leaf_args.items()}
    for p, seq in t.fset.sequences.items():
        under = {q[len(p):]: e for q, e in elem.items() if q[: len(p)] == p}
        sub = x.poset.restrict(under.values())
        members = helpers.brute_interval_chain(sub)
        assert members == tuple(
            frozenset(e for q, e in under.items() if q[0][0] >= j) for j in range(len(seq))
        )
        for j, (b_prime, stand_in) in enumerate(helpers.chain_layers(sub, members)):
            got = {}
            for q, e in under.items():
                if q[0][0] == j:
                    got.setdefault(q[0], set()).add(e)
            want = helpers.brute_maximal_blocks(b_prime, stand_in)
            assert {frozenset(b) for b in got.values() if len(b) >= 2} == want
        for arity, _ in seq.entries:
            assert helpers.brute_indecomposable(arity)


class TestNoRebuild:
    def test_one_carrier_for_the_whole_decomposition(self, catalog5, monkeypatch):
        # the walk reads the input's rows and the leaves are its elements:
        # no chain object, no quotient and no restricted poset
        def rebuilt(*args, **kwargs):
            raise AssertionError("the decomposition rebuilt a chain or a quotient")

        monkeypatch.setattr(interval, "quotient", rebuilt)
        monkeypatch.setattr(interval, "maximal_interval_chain", rebuilt)
        monkeypatch.setattr(interval.IntervalChain, "__init__", rebuilt)
        for name in ("quotient", "maximal_interval_chain"):
            assert not hasattr(composition, name)
        for name in ("_addr", "_node_le", "_node_keys", "_layer_arity"):
            assert not hasattr(dectree, name) and not hasattr(composition, name)
        restrict = ColouredPoset.restrict
        calls = []

        def counted(self, members):
            calls.append(members)
            return restrict(self, members)

        rng = random.Random(151)
        xs = [ColouredPoset.uniform(p) for reps in catalog5.values() for p in reps]
        xs += [_two_colour_shuffled(rng, rng.randint(12, 16)) for _ in range(6)]
        for x in xs:
            monkeypatch.setattr(ColouredPoset, "restrict", counted)
            calls.clear()
            t = decomposition_tree(x)
            monkeypatch.setattr(ColouredPoset, "restrict", restrict)
            assert not calls
            assert len(t.tree.leaf_nodes()) == len(x)
            _assert_positions_match_brute(x, t)
            _assert_layout_matches_brute(t)
            assert coloured_isomorphic(t.evaluate(), x)

    def test_extracts_do_not_rebuild_leaf_arguments(self, catalog5, monkeypatch):
        # an extract filters or remaps its parent's leaf elements
        def rebuilt(self):
            raise AssertionError("an extract rebuilt the leaf arguments")

        rng = random.Random(157)
        xs = [ColouredPoset.uniform(p) for reps in catalog5.values() for p in reps]
        xs += [_two_colour_shuffled(rng, rng.randint(8, 14)) for _ in range(6)]
        trees = [decomposition_tree(x) for x in xs]
        monkeypatch.setattr(DecompositionTree, "leaf_args", property(rebuilt))
        cases = Counter()
        for t in trees:
            for tail, sub in _extracts(t):
                cases[tail] += 1
                assert set(sub.leaf_element.values()) <= set(t.leaf_element.values())
        assert cases[True] and cases[False]

    def test_one_layout_per_tree(self, monkeypatch):
        # building a tree lays it out once, and its node lookups read the
        # kept keys; each extract lays out once; recomposing builds no tree,
        # no composition set and no layout.  A decomposition builds its set
        # through the unchecked constructor, an extract through the public
        # one: both count as one set
        rng = random.Random(163)
        xs = [_two_colour_shuffled(rng, rng.randint(8, 14)) for _ in range(4)]
        xs.append(uniform("chain", 4))
        layout, init, set_init = dectree._layout, DecompositionTree.__init__, CompositionSet.__init__
        grown = CompositionSet._grown.__func__
        calls = Counter()

        def counted_layout(*args):
            calls["layouts"] += 1
            return layout(*args)

        def counted_init(self, *args):
            calls["trees"] += 1
            init(self, *args)

        def counted_set_init(self, *args):
            calls["sets"] += 1
            set_init(self, *args)

        def counted_grown(cls, *args):
            calls["sets"] += 1
            return grown(cls, *args)

        monkeypatch.setattr(dectree, "_layout", counted_layout)
        monkeypatch.setattr(DecompositionTree, "__init__", counted_init)
        monkeypatch.setattr(CompositionSet, "__init__", counted_set_init)
        monkeypatch.setattr(CompositionSet, "_grown", classmethod(counted_grown))
        for x in xs:
            calls.clear()
            t = decomposition_tree(x)
            assert t.key_of and t.sequence_at("0")
            assert calls == {"trees": 1, "layouts": 1, "sets": 1}
            for v in t.tree.internal_nodes():
                seq, layer = t.sequence_at(v)
                for u in seq.arity(layer).elements:
                    calls.clear()
                    sub = subtree_extract(t, v, u)
                    assert len(sub.key_of) == len(sub.tree.nodes)
                    assert calls == {"trees": 1, "layouts": 1, "sets": 1}
            for zeta in up_chains(t):
                calls.clear()
                assert coloured_isomorphic(recompose_along_chain(t, zeta), x)
                assert not calls


class TestStEmbed:
    def test_identity(self):
        t = decomposition_tree(uniform("N", 0))
        phi = st_embed(t, t)
        assert phi.as_dict() == {n: n for n in t.tree.nodes}
        assert verify_st_embedding(t, t, phi)

    def test_ch2_into_ch3(self):
        phi = st_embed(
            decomposition_tree(uniform("chain", 2)),
            decomposition_tree(uniform("chain", 3)),
        )
        assert phi is not None

    def test_accepts_raw_structured_trees(self):
        tx = decomposition_tree(uniform("chain", 2))
        ty = decomposition_tree(uniform("chain", 3))
        phi = st_embed(tx.tree, ty.tree)
        assert phi is not None and verify_st_embedding(tx.tree, ty.tree, phi)

    def test_n_into_ch3_absent(self):
        phi = st_embed(
            decomposition_tree(uniform("N", 0)),
            decomposition_tree(uniform("chain", 3)),
        )
        assert phi is None

    def test_palette_mismatch(self):
        from poset_forge import QuasiOrder

        x = uniform("chain", 2)
        y = ColouredPoset(
            canonical("chain", 2),
            {"a": "q", "b": "q"},
            QuasiOrder(["q"], []),
        )
        with pytest.raises(PaletteMismatch):
            st_embed(decomposition_tree(x), decomposition_tree(y))

    def test_witnesses_verify(self):
        rng = random.Random(79)
        hits = 0
        for _ in range(40):
            x = helpers.random_coloured(rng, rng.randrange(1, 6), palette=helpers.PALETTES[0])
            y = helpers.random_coloured(rng, rng.randrange(1, 7), palette=helpers.PALETTES[0])
            tx, ty = decomposition_tree(x), decomposition_tree(y)
            phi = st_embed(tx, ty)
            if phi is not None:
                hits += 1
                assert verify_st_embedding(tx, ty, phi)
        assert hits > 0

    def test_meets_bind_on_raw_trees(self):
        # a raw structured tree may give two branches the same label; then
        # only the meet condition keeps two incomparable nodes from landing
        # in one branch
        s = helpers.raw_tree(["r", "a", "b"], [("r", "a"), ("r", "b")])
        t = helpers.raw_tree(["R", "C", "c1", "c2"], [("R", "C"), ("C", "c1"), ("C", "c2")])
        phi = st_embed(s, t)
        assert phi.as_dict() == {"r": "C", "a": "c1", "b": "c2"}
        assert verify_st_embedding(s, t, phi)
        # the first candidate for r only fails on meets
        at_root = EmbeddingMap((("r", "R"), ("a", "c1"), ("b", "c2")))
        assert not verify_st_embedding(s, t, at_root)

    def test_raw_trees_out_of_order(self):
        # nodes given before their ancestors are re-stored in a linear
        # extension, so the search still places ancestors and meets first
        s = helpers.raw_tree(["a", "b", "r"], [("r", "a"), ("r", "b")])
        t = helpers.raw_tree(["c1", "R", "c2", "C"], [("R", "C"), ("C", "c1"), ("C", "c2")])
        assert s.nodes == ("r", "a", "b")
        assert t.nodes == ("R", "C", "c1", "c2")
        phi = st_embed(s, t)
        assert phi.as_dict() == {"r": "C", "a": "c1", "b": "c2"}
        assert phi == helpers.brute_st_embed(s, t)

    def test_raw_trees_random_order(self):
        # random labelled trees given in a shuffled node order: the witness
        # is the scan's first, and existence does not depend on the order
        rng = random.Random(97)

        def random_pair():
            return [tree for _, tree in helpers.random_raw_trees(rng, 1)]

        checked = found = 0
        for _ in range(60):
            s, s_shuffled = random_pair()
            t, t_shuffled = random_pair()
            if len(s.nodes) > 4:
                continue
            checked += 1
            for tree in (s_shuffled, t_shuffled):
                below = tree.poset.below
                assert all(not row >> i for i, row in enumerate(below))
            phi = st_embed(s_shuffled, t_shuffled)
            assert phi == helpers.brute_st_embed(s_shuffled, t_shuffled)
            assert (phi is None) == (st_embed(s, t) is None)
            found += phi is not None
        assert 0 < found < checked

    def test_reorder_builds_no_closure(self, monkeypatch):
        # the first 60 shuffled trees that test_raw_trees_random_order draws
        # are re-stored by reading their closed rows in a linear extension;
        # the expected poset is built first by name pairs, through the
        # closure
        rng = random.Random(97)
        cases = []
        for _ in range(60):
            nodes, pairs, arity, labels = helpers.random_labelled_tree(rng)
            rng.shuffle(nodes)
            args = helpers.raw_tree_args(nodes, pairs, arity, labels)
            poset = args[0]
            # sorted by the root path's mask: every node after its ancestors
            path = {v: sum(1 << poset.index[u] for u in poset.down(v) | {v}) for v in nodes}
            order = sorted(nodes, key=path.get)
            cases.append((args, make_poset(order, poset.lt_pairs())))

        def boom(rows):
            raise AssertionError("a closure was computed")

        monkeypatch.setattr(core, "_warshall", boom)
        moved = 0
        for args, want in cases:
            assert StructuredTree(*args).poset == want
            moved += want.elements != args[0].elements
        assert moved > 20

    def test_matches_injection_scan(self, catalog5):
        # dual route: the search's first witness vs the first injection in
        # lexicographic order that the definition checker accepts
        posets = [p for k in (1, 2, 3) for p in catalog5[k]]
        trees = [decomposition_tree(ColouredPoset.uniform(p)) for p in posets]
        for tx in trees:
            for ty in trees:
                assert st_embed(tx, ty) == helpers.brute_st_embed(tx, ty)

    def test_matches_injection_scan_random(self):
        # coloured pairs over every test palette, targets of at most 8 nodes
        rng = random.Random(89)
        checked = found = 0
        while checked < 130:
            palette = helpers.PALETTES[checked % len(helpers.PALETTES)]
            y = helpers.random_coloured(rng, rng.randint(1, 5), palette=palette)
            ty = decomposition_tree(y)
            if len(ty.tree.nodes) > 8:
                continue
            x = helpers.random_coloured(rng, rng.randint(1, 4), palette=palette)
            tx = decomposition_tree(x)
            want = helpers.brute_st_embed(tx, ty)
            assert st_embed(tx, ty) == want
            checked += 1
            found += want is not None
        assert 0 < found < checked

    @given(helpers.separator_posets())
    @example(
        # layer 1 under slot "_" and the leaf at slot "_/1" were both
        # rendered "0._/1"
        make_poset(
            ["1.s", "_/1", "_", "0._", "s"],
            [("1.s", "0._"), ("_/1", "_"), ("_/1", "0._"), ("_", "s")],
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_separator_ids_identity(self, poset):
        t = decomposition_tree(ColouredPoset.uniform(poset))
        nodes = t.tree.nodes
        assert len(set(nodes)) == len(nodes)
        lifted = lift_embedding(t, t, st_embed(t, t))
        assert lifted.as_dict() == {e: e for e in poset.elements}


def _captured(monkeypatch, pairs, part=0):
    """Per pair, what st_embed hands to the search: its allowed masks (part
    0) or its order row builder (part 1)."""
    seen = []
    backtrack = _search.backtrack

    def capture(allowed, row, narrow=None):
        # only st_embed narrows; the arity comparisons search without
        if narrow is not None:
            seen.append((list(allowed), row)[part])
        return backtrack(allowed, row, narrow)

    monkeypatch.setattr(_search, "backtrack", capture)
    for s, t in pairs:
        before = len(seen)
        st_embed(s, t)
        if len(seen) == before:  # more source nodes than targets: no search
            assert len(s.nodes) > len(t.nodes)
            seen.append(None)
    return seen


def _pair_masks(s, t):
    """The allowed masks as one colour comparison per node pair."""
    S, T = s.tree, t.tree
    if len(S.nodes) > len(T.nodes):
        return None
    return [
        sum(1 << j for j, b in enumerate(T.nodes) if dectree._colour_leq(S, T, a, b))
        for a in S.nodes
    ]


class TestColourClasses:
    def test_class_masks_match_pair_masks_catalog(self, catalog5, monkeypatch):
        trees = [
            decomposition_tree(ColouredPoset.uniform(p))
            for k in (1, 2, 3, 4)
            for p in catalog5[k]
        ]
        pairs = [(s, t) for s in trees for t in trees]
        seen = _captured(monkeypatch, pairs)
        assert seen == [_pair_masks(s, t) for s, t in pairs]

    def test_class_masks_match_pair_masks_random(self, monkeypatch):
        # every test palette; sources and targets have arities of one shape
        # under different element names (their ids differ in prefix)
        rng = random.Random(131)
        pairs = []
        for k in range(160):
            palette = helpers.PALETTES[k % len(helpers.PALETTES)]
            y = helpers.random_coloured(rng, rng.randint(3, 9), palette, p=0.35)
            x = helpers.random_coloured(rng, rng.randint(2, 6), palette, p=0.35, prefix="s")
            pairs.append((decomposition_tree(x), decomposition_tree(y)))
        seen = _captured(monkeypatch, pairs)
        shared = 0
        for (s, t), allowed in zip(pairs, seen):
            assert allowed == _pair_masks(s, t)
            arities = [s.tree.arities[v] for v in s.tree.internal_nodes()]
            arities += [t.tree.arities[v] for v in t.tree.internal_nodes()]
            shared += any(
                a.above == b.above and a.elements != b.elements
                for a, b in itertools.combinations(arities, 2)
            )
        assert shared > 50

    def test_one_comparison_per_class_pair(self, monkeypatch):
        # colours are compared once per (source class, target class) pair
        rng = random.Random(137)
        leq = dectree._colour_leq
        calls = Counter()

        def counted(S, T, a, b):
            calls[dectree._colour_key(S, a), dectree._colour_key(T, b)] += 1
            return leq(S, T, a, b)

        monkeypatch.setattr(dectree, "_colour_leq", counted)
        for k in range(40):
            palette = helpers.PALETTES[k % len(helpers.PALETTES)]
            y = helpers.random_coloured(rng, 9, palette)
            x = y.restrict(rng.sample(y.elements, 5))
            calls.clear()
            st_embed(decomposition_tree(x), decomposition_tree(y))
            assert set(calls.values()) == {1}


class TestOrderRows:
    def test_one_parent_row_per_node(self, catalog5, monkeypatch):
        # st_embed keeps the order by one row per node, pushed by its parent:
        # once m is placed, each child's image is kept above m's; it builds
        # no relation-code rows
        trees = [
            decomposition_tree(ColouredPoset.uniform(p))
            for k in (1, 2, 3, 4)
            for p in catalog5[k]
        ]
        raw = [tree for _, tree in helpers.random_raw_trees(random.Random(181), 20)]
        pairs = [(s, t) for s in trees for t in trees]
        pairs += [(s, t) for s in raw for t in raw]
        # a first pass keeps every colour fit on its target, so that the
        # arity comparisons (which do build relation-code rows) are not rerun
        for s, t in pairs:
            st_embed(s, t)

        def boom(*args):
            raise AssertionError("st_embed built relation-code rows")

        monkeypatch.setattr(_search, "code_rows", boom)
        seen = _captured(monkeypatch, pairs, 1)
        searched = 0
        for (s, t), row in zip(pairs, seen):
            if row is None:
                continue
            searched += 1
            below = s.poset.below
            # the children of m are the nodes j whose strict down-set is m's
            # reflexive one; a leaf has none
            want = [
                tuple((j, t.poset.above) for j in range(len(below)) if below[j] == below[m] | 1 << m)
                for m in range(len(below))
            ]
            rows = [tuple(row(m)) for m in range(len(below))]
            assert rows == want
            assert all(table is t.poset.above for entries in rows for _, table in entries)
        assert searched > 1000


def _entries(tree):
    """(label entries, meet entries) of a source tree, as pairs of a later
    node and an earlier node it is checked against: all of them, and those
    left when, under a sum node, a node whose label an earlier node carries
    is checked against the first such node only, and any other node against
    the first node of each earlier label value; or when one entry stands
    for each child cone of a meet."""
    S = getattr(tree, "tree", tree)
    below, beside = S.poset.below, S.poset.beside
    labels = kept_labels = meets = kept_meets = 0
    for rows in S.label_rows:
        up = sorted((q, lb) for lb, row in enumerate(rows) for q in _bits(row))
        for k, (_, lb) in enumerate(up):
            earlier = {lq for _, lq in up[:k]}
            labels += k
            kept_labels += 1 if lb in earlier else len(earlier)
    for i in range(len(S.nodes)):
        for p in _bits(beside[i] & (1 << i) - 1):
            # kept: p is a child of the meet, its parent being below i
            meets += 1
            kept_meets += below[i] >> below[p].bit_length() - 1 & 1
    return labels, kept_labels, meets, kept_meets


def _shared_entry_trees():
    """14 sources and 14 targets: raw trees of 5 and 6 nodes, kept only when
    earlier nodes share a label under some sum node and a child cone under
    some meet, so both rules drop entries; sources have 5 nodes, targets 5
    or 6."""
    rng = random.Random(167)
    sources, targets = [], []
    while len(sources) < 14 or len(targets) < 14:
        nodes, pairs, arity, labels = helpers.random_labelled_tree(rng, (5, 6))
        tree = helpers.raw_tree(nodes, pairs, arity, labels)
        all_labels, kept_labels, all_meets, kept_meets = _entries(tree)
        if kept_labels == all_labels or kept_meets == all_meets:
            continue
        pool = sources if len(nodes) == 5 and len(sources) < 14 else targets
        if len(pool) < 14:
            pool.append(tree)
    return sources, targets


class TestEntryDedup:
    def test_matches_injection_scan_on_shared_labels_and_cones(self):
        sources, targets = _shared_entry_trees()
        found = 0
        for s in sources:
            for t in targets:
                phi = st_embed(s, t)
                assert phi == helpers.brute_st_embed(s, t)
                found += phi is not None
        assert 0 < found < len(sources) * len(targets)


def _label_entry_trees(catalog5):
    """Decomposition trees of catalog5, and 80 raw trees, in which distinct
    child cones of a sum node can share a label."""
    trees = [
        decomposition_tree(ColouredPoset.uniform(p)) for k in range(1, 6) for p in catalog5[k]
    ]
    raw = [tree for _, tree in helpers.random_raw_trees(random.Random(191), 40)]
    return trees, raw


def _same_label_nodes(S):
    """The nodes to which the old set-up (``helpers.full_label_narrow``)
    gives an EQUAL code: under some sum node, an earlier node carries their
    label, so they are not first in its row."""
    return {i for rows in S.label_rows for row in rows for i in _bits(row & row - 1)}


def _assert_narrow_matches_full_labels(pairs):
    """Over each pair's st_embed search, ``_conditions``' narrow returns the
    mask of ``helpers.full_label_narrow`` at every node the search reaches,
    and a search narrowed by the oracle alone reaches as many nodes and
    finds the same witness.  Returns the nodes reached, in all and with a
    same-label entry in the old set-up."""
    reached = same = 0
    for s, t in pairs:
        if len(s.nodes) > len(t.nodes):
            continue
        allowed, row, narrow = dectree._conditions(s, t)
        oracle = helpers.full_label_narrow(s, t)
        sames = _same_label_nodes(s)
        calls = Counter()

        def checked(i, assign, c):
            calls["new"] += 1
            calls["same"] += i in sames
            got = narrow(i, assign, c)
            assert got == oracle(i, assign, c)
            return got

        def counted(i, assign, c):
            calls["oracle"] += 1
            return oracle(i, assign, c)

        assert _search.backtrack(allowed, row, checked) == _search.backtrack(allowed, row, counted)
        assert calls["new"] == calls["oracle"]
        reached += calls["new"]
        same += calls["same"]
    return reached, same


class TestLabelEntries:
    """A node above a sum node p whose label an earlier node carries keeps
    one EQUAL code, against the first node with that label, unless both
    trees are decomposition trees; a first node keeps one code per earlier
    first node."""

    def test_narrow_matches_full_labels_on_decomposition_trees(self, catalog5):
        # sources of up to 4 elements into every tree of catalog5
        trees, _ = _label_entry_trees(catalog5)
        pairs = [(s, t) for s in trees if len(s.base) < 5 for t in trees]
        reached, same = _assert_narrow_matches_full_labels(pairs)
        assert reached > 5000 and same > 1000

    def test_narrow_matches_full_labels_on_raw_trees(self, catalog5):
        _, raw = _label_entry_trees(catalog5)
        reached, same = _assert_narrow_matches_full_labels([(s, t) for s in raw for t in raw])
        assert reached > 2000 and same > 500

    def test_entry_counts(self, catalog5):
        trees, raw = _label_entry_trees(catalog5)
        shared = 0
        for S in trees + raw:
            entries = dectree._label_entries(S, True)
            sames = [[(p, c[0][0]) for p, c in e if c[0][1] == EQUAL] for e in entries]
            codes = [[(p, c) for p, c in e if c[0][1] != EQUAL] for e in entries]
            # an EQUAL code stands alone, and without every_label none is built
            assert all(
                len(c) == 1 for e in entries for _, c in e if any(code == EQUAL for _, code in c)
            )
            assert codes == dectree._label_entries(S, False)
            want_sames = want_codes = 0
            for p, rows in enumerate(S.label_rows):
                firsts = sum(1 for row in rows if row)
                want_sames += S.poset.above[p].bit_count() - firsts
                want_codes += firsts * (firsts - 1) // 2
            assert sum(map(len, sames)) == want_sames
            assert sum(len(c) for entries in codes for _, c in entries) == want_codes
            for i, entries in enumerate(sames):
                for p, q in entries:
                    # q is the first node above p with i's label
                    v, x = S.nodes[p], S.nodes[i]
                    assert q < i and S.label(v, S.nodes[q]) == S.label(v, x)
                    assert all(S.label(v, S.nodes[r]) != S.label(v, x)
                               for r in _bits(S.poset.above[p] & (1 << q) - 1))
            shared += want_sames > 0
        assert shared > 100


def _children(S, m):
    """The children of node m of S, by index."""
    below = S.poset.below
    return [c for c in _bits(S.poset.above[m]) if below[c] == below[m] | 1 << m]


def _siblings_share_a_label(S):
    """Whether two children of some sum node of S carry one label."""
    for m, rows in enumerate(S.label_rows):
        labels = [next(lb for lb, row in enumerate(rows) if row >> c & 1) for c in _children(S, m)]
        if len(set(labels)) < len(labels):
            return True
    return False


class TestImpliedEntries:
    """Between decomposition trees, labels are constant on each child cone
    and distinct between siblings, so the order rows and the codes between
    first nodes imply the EQUAL codes and the meet entries, and
    ``_conditions`` builds neither."""

    def test_child_cones_are_the_label_rows(self, catalog6):
        # each slot's row is one child's cone, and each child's cone is one
        # slot's row: over catalog6, random two-colour posets and every
        # extract of these
        rng = random.Random(211)
        xs = [ColouredPoset.uniform(p) for ps in catalog6.values() for p in ps]
        xs += [_two_colour_shuffled(rng, rng.randint(2, 12)) for _ in range(60)]
        checked = 0
        for x in xs:
            t = decomposition_tree(x)
            for S in [t] + [e for _, e in _extracts(t)]:
                above = S.poset.above
                for m, rows in enumerate(S.label_rows):
                    cones = [above[c] | 1 << c for c in _children(S, m)]
                    assert sorted(rows) == sorted(cones)
                    checked += len(cones)
        assert checked > 10000

    def test_decomposition_pairs_build_neither(self, catalog5, monkeypatch):
        # a tree's codes between first nodes are built once, when it is first
        # a source (``_source_tables``); a pair with a raw tree builds the
        # EQUAL codes and meet entries on each call, and keeps none of them
        built, builds = Counter(), Counter()
        build_meets, build_codes = dectree._meet_entries, dectree._label_entries

        def meets(children):
            # one entry per node with earlier siblings, one code per pair
            entries = build_meets(children)
            builds["meets"] += 1
            built["meets"] += sum(len(c) for e in entries for _, c in e)
            return entries

        def codes(S, every_label):
            entries = build_codes(S, every_label)
            builds[S, every_label] += 1
            built["equal"] += sum(code == EQUAL for e in entries for _, c in e for _, code in c)
            return entries

        monkeypatch.setattr(dectree, "_meet_entries", meets)
        monkeypatch.setattr(dectree, "_label_entries", codes)
        trees, raw = _label_entry_trees(catalog5)
        found = 0
        for s in trees[:8]:  # the trees of up to 3 elements
            for t in trees:
                built.clear()
                phi = st_embed(s, t)
                assert built["meets"] == built["equal"] == 0
                # raw copies read every entry, and find the same witness
                assert phi == st_embed(_rebuilt(s), _rebuilt(t))
                found += phi is not None
            # one build of s's codes, without EQUAL codes, over all its pairs
            assert (builds[s, False], builds[s, True]) == (1, 0)
        assert found > 100
        # raw trees whose siblings share a label read both kinds: one meet
        # entry per pair of siblings, one EQUAL code per node above a sum
        # node that is not first with its label
        shared = [S for S in raw if _siblings_share_a_label(S)]
        assert len(shared) > 10
        for S in shared:
            kept = S._source_tables()
            siblings = sum(len(_children(S, m)) * (len(_children(S, m)) - 1) // 2
                           for m in range(len(S.nodes)))
            sames = sum(S.poset.above[p].bit_count() - sum(1 for row in rows if row)
                        for p, rows in enumerate(S.label_rows))
            assert siblings > 0 and sames > 0
            # each call builds them again, and the kept table stays as it was
            for _ in range(2):
                built.clear()
                builds.clear()
                dectree._conditions(S, S)
                assert built == Counter(meets=siblings, equal=sames)
                assert builds == Counter({"meets": 1, (S, True): 1})
                assert S._source is kept


def _cone_swaps(S):
    """Permutations of a decomposition tree's node indices that swap the
    cones of two siblings of the same shape: order automorphisms of the
    tree, which may move labels and colours.  Each cone is an index range,
    as the tree is laid out depth first."""
    above = S.poset.above
    out = []
    for m in range(len(above)):
        for a, b in itertools.combinations(_children(S, m), 2):
            size = above[a].bit_count() + 1
            if above[b].bit_count() + 1 == size and all(
                above[a + k] >> a == above[b + k] >> b for k in range(size)
            ):
                perm = list(range(len(above)))
                for k in range(size):
                    perm[a + k], perm[b + k] = b + k, a + k
                out.append(perm)
    return out


class TestVerifyDecompositionPairs:
    def test_swapped_siblings_and_cones_match_the_oracle(self, catalog5):
        # maps that keep the order, so that only the label and meet
        # conditions decide: each witness with two sibling images swapped,
        # with two same-shape cones of the source or the target swapped
        trees = [
            decomposition_tree(ColouredPoset.uniform(p)) for k in range(1, 6) for p in catalog5[k]
        ]
        rng = random.Random(223)
        for _ in range(12):
            y = _two_colour_shuffled(rng, 7)
            trees.append(decomposition_tree(y))
            trees.append(decomposition_tree(y.restrict(rng.sample(y.elements, 4))))
        verdicts = Counter()
        for s in trees:
            if len(s.base) > 4:
                continue
            for t in trees:
                if s.base.palette != t.base.palette or len(s.base) > len(t.base):
                    continue
                phi = st_embed(s, t)
                if phi is None:
                    continue
                f = [t.poset.index[b] for _, b in phi.mapping]
                maps = [[g[j] for j in f] for g in _cone_swaps(t)]
                maps += [[f[g[i]] for i in range(len(f))] for g in _cone_swaps(s)]
                for m in range(len(f)):
                    for a, b in itertools.combinations(_children(s, m), 2):
                        g = f[:]
                        g[a], g[b] = f[b], f[a]
                        maps.append(g)
                for g in maps:
                    emap = EmbeddingMap(
                        tuple(zip(s.nodes, (t.nodes[j] for j in g))), "structured-tree"
                    )
                    if not helpers.brute_is_embedding(s.poset, t.poset, emap):
                        continue
                    want = helpers.brute_is_st_embedding(s, t, emap)
                    assert verify_st_embedding(s, t, emap) == want
                    verdicts[want] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_rejects_every_leaf_sent_to_a_sum_node(self, catalog5):
        # for each leaf of the source and sum node of the target, the first
        # order embedding that sends the one to the other: verification must
        # reject it (its colour masks admit only nodes of a leaf's kind), so
        # ``lift_embedding`` never meets a leaf whose image is not a leaf
        trees = [
            decomposition_tree(ColouredPoset.uniform(p)) for k in range(1, 6) for p in catalog5[k]
        ]
        rejected = 0
        for s in trees[:8]:  # the trees of up to 3 elements
            for t in trees:
                if len(s.nodes) > len(t.nodes):
                    continue
                every = (1 << len(t.nodes)) - 1
                rows = _search.code_rows(s.poset, t.poset)
                for leaf in s.leaf_nodes():
                    for node in t.internal_nodes():
                        allowed = [every] * len(s.nodes)
                        allowed[s.poset.index[leaf]] = 1 << t.poset.index[node]
                        g = _search.backtrack(allowed, rows)
                        if g is None:
                            continue
                        emap = EmbeddingMap(
                            tuple(zip(s.nodes, (t.nodes[j] for j in g))), "structured-tree"
                        )
                        assert helpers.brute_is_embedding(s.poset, t.poset, emap)
                        assert not verify_st_embedding(s, t, emap)
                        rejected += 1
        assert rejected > 2000


class TestTargetTables:
    """A target tree keeps what st_embed reads of it; every later source
    must get the witness it gets against a fresh copy of the target."""

    def test_kept_masks_match_the_definition(self, catalog5):
        # per sum node t, one 5-tuple per node above t, equal to
        # helpers.target_masks; the nodes of one label in one child cone
        # share it, so a decomposition tree keeps one per child of t
        trees, raw = _label_entry_trees(catalog5)
        raw += [tree for _, tree in helpers.random_raw_trees(random.Random(227), 25)]
        shared = 0
        for T in trees + raw:
            masks, above = T._target_tables()[2], T.poset.above
            assert set(masks) == {t for t, rows in enumerate(T.label_rows) if rows}
            for t, at in masks.items():
                assert set(at) == set(_bits(above[t]))
                groups = {}
                for u, entry in at.items():
                    assert entry == helpers.target_masks(T, t, u)
                    # the label's row and the child cone
                    key = entry[EQUAL], above[t] & ~entry[dectree.AVOID]
                    assert groups.setdefault(key, entry) is entry
                tuples = len({id(entry) for entry in at.values()})
                assert tuples == len(groups)
                if isinstance(T, DecompositionTree):
                    assert tuples == len(_children(T, t))
                shared += tuples < len(at)
        assert shared > 100

    def _assert_kept_tables_hold(self, target, sources, other):
        # used as a source first: it keeps no target tables
        st_embed(target, other)
        assert target._target is None
        tables = None
        found = 0
        for s in sources:
            phi = st_embed(s, target)
            tables = tables or target._target
            assert phi == st_embed(s, _rebuilt(target))
            if phi is not None:
                found += 1
                assert verify_st_embedding(s, target, phi)
        assert target._target is tables is not None
        return found

    def test_reused_targets(self, catalog5, monkeypatch):
        leq = dectree._colour_leq
        calls = Counter()

        def counted(S, T, a, b):
            calls[T, dectree._colour_key(S, a), dectree._colour_key(T, b)] += 1
            return leq(S, T, a, b)

        monkeypatch.setattr(dectree, "_colour_leq", counted)
        found = 0
        # decomposition trees of catalog5, each 5-element class against
        # every tree of up to 3 elements
        small = [
            decomposition_tree(ColouredPoset.uniform(p)) for k in (1, 2, 3) for p in catalog5[k]
        ]
        for p in catalog5[5][::6]:
            found += self._assert_kept_tables_hold(
                decomposition_tree(ColouredPoset.uniform(p)), small, small[-1]
            )
        # random coloured pairs over every test palette: sources include
        # restrictions of the target's base, so that some embed
        rng = random.Random(173)
        for palette in helpers.PALETTES:
            for _ in range(3):
                y = helpers.random_coloured(rng, 7, palette)
                xs = [y.restrict(rng.sample(y.elements, rng.randint(2, 5))) for _ in range(6)]
                xs += [
                    helpers.random_coloured(rng, rng.randint(2, 5), palette, prefix="s")
                    for _ in range(6)
                ]
                found += self._assert_kept_tables_hold(
                    decomposition_tree(y),
                    [decomposition_tree(x) for x in xs],
                    decomposition_tree(helpers.random_coloured(rng, 8, palette)),
                )
        # raw structured trees
        raw = [tree for _, tree in helpers.random_raw_trees(random.Random(179), 30)]
        for target in raw[:8]:
            found += self._assert_kept_tables_hold(target, raw, raw[-1])
        assert found > 50
        # at most one colour comparison per (source class, target class)
        # over each target's lifetime
        assert set(calls.values()) == {1}


def _fresh(tree):
    """A copy of tree that keeps no table yet: a decomposition tree laid out
    again from its composition set, a raw tree through the public
    constructor."""
    if isinstance(tree, DecompositionTree):
        return DecompositionTree(tree.fset, tree.leaves, tree.base)
    return _rebuilt(tree)


def _fanout_pairs(rng, targets):
    """Pairs shaped like the benchmark's ``fanout`` ones: per target, a
    12-14-element poset at density 0.2 or 0.35, three sources of 6, 7 and 8
    elements planted in it (shuffled induced suborders), then the target
    into itself; all decomposition trees."""
    pairs = []
    for k in range(targets):
        y = ColouredPoset.uniform(helpers.random_poset(rng, 12 + k % 3, (0.2, 0.35)[k % 2], "t"))
        target = decomposition_tree(y)
        for size in (6, 7, 8):
            x = helpers.shuffled_poset(rng, y.poset.restrict(rng.sample(y.elements, size)))
            pairs.append((decomposition_tree(ColouredPoset.uniform(x)), target))
        pairs.append((target, target))
    return pairs


class TestSourceTables:
    """A source tree keeps what st_embed reads of it; every later search,
    verification and lift must give what fresh copies of the two trees give,
    whatever the trees were used for before."""

    @staticmethod
    def _assert_like_fresh(s, t, verdicts=None):
        """st_embed, verify_st_embedding on the witness and on the maps with
        the images of two siblings swapped, and lift_embedding, each against
        fresh copies of s and t; returns the witness, and counts the verdicts
        on the maps that keep the order in ``verdicts``."""
        phi = st_embed(s, t)
        assert phi == st_embed(_fresh(s), _fresh(t))
        if phi is None:
            return None
        f = [t.poset.index[b] for _, b in phi.mapping]
        maps = [f]
        for m in range(len(f)):
            for a, b in itertools.combinations(_children(s, m), 2):
                g = f[:]
                g[a], g[b] = f[b], f[a]
                maps.append(g)
        for g in maps:
            emap = EmbeddingMap(tuple(zip(s.nodes, (t.nodes[j] for j in g))), "structured-tree")
            verdict = verify_st_embedding(s, t, emap)
            assert verdict == verify_st_embedding(_fresh(s), _fresh(t), emap)
            if verdicts is not None and check_embedding(s.poset, t.poset, emap):
                verdicts[verdict] += 1
        if isinstance(s, DecompositionTree) and isinstance(t, DecompositionTree):
            assert lift_embedding(s, t, phi) == lift_embedding(_fresh(s), _fresh(t), phi)
        return phi

    def _assert_pairs(self, pairs):
        """The witnesses found over pairs, and the verdicts on the maps that
        keep the order; both verdicts must occur."""
        found, verdicts = 0, Counter()
        for s, t in pairs:
            if len(s.nodes) <= len(t.nodes):
                found += self._assert_like_fresh(s, t, verdicts) is not None
        assert verdicts[True] and verdicts[False]
        return found

    def test_catalog5_decomposition_trees(self, catalog5):
        # sources of up to 4 elements into every tree of catalog5, each tree
        # a target before or after it is a source
        trees = [
            decomposition_tree(ColouredPoset.uniform(p)) for k in range(1, 6) for p in catalog5[k]
        ]
        found = self._assert_pairs([(s, t) for s in trees if len(s.base) < 5 for t in trees])
        assert found > 300
        assert all(s._source is not None for s in trees if len(s.base) < 5)

    def test_raw_trees(self):
        raw = [tree for _, tree in helpers.random_raw_trees(random.Random(227), 25)]
        found = self._assert_pairs([(s, t) for s in raw for t in raw])
        assert found > 100

    def test_planted_pairs(self):
        pairs = _fanout_pairs(random.Random(229), 6)
        # twice over: the second pass reads every kept table
        found = self._assert_pairs(pairs)
        assert self._assert_pairs(pairs) == found > 6

    def test_target_then_source_and_back(self, catalog5):
        small = [decomposition_tree(ColouredPoset.uniform(p)) for p in catalog5[2]]
        for x, t in _fanout_pairs(random.Random(233), 2)[::4]:
            # a target first: it keeps its target tables only, then adds its
            # source tables and keeps the target ones
            for s in small + [x]:
                self._assert_like_fresh(s, t)
            assert t._source is None and t._target is not None
            kept = t._target
            assert self._assert_like_fresh(t, t) is not None
            self._assert_like_fresh(t, _fresh(t))
            assert t._target is kept and t._source is not None
            # a source first: the other way round
            s = _fresh(t)
            assert self._assert_like_fresh(s, t) is not None
            assert s._target is None and s._source is not None
            kept = s._source
            for r in small + [s]:
                self._assert_like_fresh(r, s)
            assert s._source is kept and s._target is not None

    def test_one_tree_in_decomposition_and_raw_pairs(self, catalog5):
        # a decomposition tree narrows without EQUAL codes and meet entries
        # against a decomposition tree, and with them, built per call,
        # against a raw tree: it keeps one source table, the codes between
        # first nodes, built when first asked for, in either order
        trees = [decomposition_tree(ColouredPoset.uniform(p)) for k in (2, 3) for p in catalog5[k]]
        large = [decomposition_tree(ColouredPoset.uniform(p)) for p in catalog5[4]]
        raw = [tree for _, tree in helpers.random_raw_trees(random.Random(239), 15)]
        raw += [_rebuilt(t) for t in large[::2]]
        partners = {False: large, True: raw}
        for k, s in enumerate(trees):
            kept = []
            for every_label in (False, True) if k % 2 else (True, False):
                for t in partners[every_label]:
                    self._assert_like_fresh(s, t)
                kept.append(s._source)
            # then the target of raw sources, and once more their source
            for t in raw[::4]:
                self._assert_like_fresh(t, s)
                self._assert_like_fresh(s, t)
            assert kept[0] is kept[1] is s._source_tables() is s._source
            assert kept[0][3] == tuple(map(tuple, dectree._label_entries(s, False)))
        for r in raw:
            if r._source is not None:
                assert r._source[3] == tuple(map(tuple, dectree._label_entries(r, False)))


def _assert_verify_matches_oracle(s, t):
    """verify_st_embedding against the definition oracle on every injection
    of s's nodes into t's; returns the oracle's verdicts."""
    verdicts = []
    src = getattr(s, "tree", s).nodes
    for targets in itertools.permutations(getattr(t, "tree", t).nodes, len(src)):
        emap = EmbeddingMap(tuple(zip(src, targets)), "structured-tree")
        want = helpers.brute_is_st_embedding(s, t, emap)
        assert verify_st_embedding(s, t, emap) == want
        verdicts.append(want)
    return verdicts


class TestVerifyAgainstOracle:
    def test_decomposition_trees_up_to_3_elements(self, catalog5):
        xs = [ColouredPoset.uniform(p) for k in (1, 2, 3) for p in catalog5[k]]
        # and a two-colour chain, so that leaf colours decide some maps
        for colours in ({"a": "0", "b": "1"}, {"a": "1", "b": "0"}):
            xs.append(ColouredPoset(canonical("chain", 2), colours, helpers.PALETTES[2]))
        trees = [decomposition_tree(x) for x in xs]
        verdicts = Counter()
        for s in trees:
            for t in trees:
                if s.base.palette == t.base.palette:
                    verdicts.update(_assert_verify_matches_oracle(s, t))
        assert verdicts[True] > 10 and verdicts[False] > 1000

    def test_raw_trees_up_to_4_nodes(self):
        raw = helpers.random_raw_trees(random.Random(149), 40)
        trees = [tree for _, tree in raw if len(tree.nodes) <= 4]
        verdicts = Counter()
        for s in trees:
            for t in trees:
                verdicts.update(_assert_verify_matches_oracle(s, t))
        assert verdicts[True] > 10 and verdicts[False] > 1000

    def test_complete_maps_on_shared_labels_and_cones(self):
        # the kept entries decide complete maps too, not just search prefixes:
        # every map of 5-node sources into 6-node targets, on a part of the
        # pool where some maps embed and labels alone reject a few maps that
        # keep the order, colours and meets
        sources, targets = _shared_entry_trees()
        verdicts = Counter()
        for s in sources[5:9]:
            for t in targets[5:9]:
                verdicts.update(_assert_verify_matches_oracle(s, t))
        assert verdicts[True] > 0 and verdicts[False] > 10000

    def _only(self, s, t, mapping):
        # the map embeds the tree orders and keeps colours; the named
        # condition alone must reject it
        emap = EmbeddingMap(tuple(mapping.items()), "structured-tree")
        assert helpers.brute_is_embedding(s.poset, t.poset, emap)
        assert all(s.kinds[a] == t.kinds[b] for a, b in mapping.items())
        assert not helpers.brute_is_st_embedding(s, t, emap)
        assert not verify_st_embedding(s, t, emap)

    def test_map_breaking_only_the_meets(self):
        s = helpers.raw_tree(["r", "a", "b"], [("r", "a"), ("r", "b")])
        t = helpers.raw_tree(["R", "C", "c1", "c2"], [("R", "C"), ("C", "c1"), ("C", "c2")])
        self._only(s, t, {"r": "R", "a": "c1", "b": "c2"})
        fine = EmbeddingMap((("r", "C"), ("a", "c1"), ("b", "c2")))
        assert verify_st_embedding(s, t, fine)

    def test_maps_breaking_only_the_labels(self):
        chain, antichain = helpers.SMALL_ARITIES[1], helpers.SMALL_ARITIES[2]
        s = helpers.raw_tree(
            ["r", "a", "b"], [("r", "a"), ("r", "b")], {"r": chain},
            {("r", "a"): "x", ("r", "b"): "y"},
        )
        t = helpers.raw_tree(
            ["R", "c1", "c2"], [("R", "c1"), ("R", "c2")], {"R": chain},
            {("R", "c1"): "y", ("R", "c2"): "x"},
        )
        # x < y under r, but their images y > x under R
        self._only(s, t, {"r": "R", "a": "c1", "b": "c2"})
        fine = EmbeddingMap((("r", "R"), ("a", "c2"), ("b", "c1")))
        assert verify_st_embedding(s, t, fine)
        # one label under r, two under R: the labels map is not a function
        u = helpers.raw_tree(
            ["R", "c1", "c2"], [("R", "c1"), ("R", "c2")], {"R": antichain},
            {("R", "c1"): "x", ("R", "c2"): "y"},
        )
        point = helpers.raw_tree(["r", "a", "b"], [("r", "a"), ("r", "b")])
        self._only(point, u, {"r": "R", "a": "c1", "b": "c2"})


class TestNoNameLookups:
    def test_verify_and_lift_read_rows(self, catalog5, monkeypatch):
        # with the name-based relation, meet and label and the meet by index
        # disabled, verify and lift still agree with the oracles (computed
        # beforehand)
        trees = {
            k: [decomposition_tree(ColouredPoset.uniform(p)) for p in ps]
            for k, ps in catalog5.items()
        }
        sources = trees[1] + trees[2] + trees[3]
        targets = [t for ts in trees.values() for t in ts]
        cases = []
        for s in sources:
            for t in targets:
                phi = st_embed(s, t)
                if phi is None:
                    continue
                # the witness, and the witness with its first two images swapped
                maps = [phi]
                if len(phi) > 1:
                    (a, b), (c, d), *rest = phi.mapping
                    maps.append(EmbeddingMap(((a, d), (c, b), *rest), phi.kind))
                for emap in maps:
                    cases.append((s, t, emap, helpers.brute_is_st_embedding(s, t, emap)))

        def boom(*args):
            raise AssertionError("a name-based lookup was called")

        monkeypatch.setattr(Poset, "relation", boom)
        monkeypatch.setattr(StructuredTree, "meet", boom)
        monkeypatch.setattr(StructuredTree, "meet_index", boom)
        monkeypatch.setattr(StructuredTree, "label", boom)
        verdicts = Counter()
        for s, t, emap, want in cases:
            assert verify_st_embedding(s, t, emap) == want
            verdicts[want] += 1
            if not want:
                with pytest.raises(VerificationFailure):
                    lift_embedding(s, t, emap)
                continue
            lifted = lift_embedding(s, t, emap)
            x, y = s.base, t.base
            assert helpers.brute_is_embedding(x.poset, y.poset, lifted)
            assert all(x.palette.leq(x.colour(e), y.colour(f)) for e, f in lifted.mapping)
        assert verdicts[True] > 100 and verdicts[False] > 100


class TestLift:
    def test_identity_lift(self):
        x = uniform("N", 0)
        t = decomposition_tree(x)
        lifted = lift_embedding(t, t, st_embed(t, t))
        assert lifted.as_dict() == {e: e for e in x.elements}

    def test_ch2_into_ch3_lift(self):
        x, y = uniform("chain", 2), uniform("chain", 3)
        tx, ty = decomposition_tree(x), decomposition_tree(y)
        lifted = lift_embedding(tx, ty, st_embed(tx, ty))
        assert check_coloured_embedding(x, y, lifted)

    def test_n_inside_bigger_poset(self):
        pairs = [("1", "0"), ("1", "2"), ("3", "2")]
        pairs += [(e, "t") for e in "0123"]
        y = ColouredPoset.uniform(make_poset(["0", "1", "2", "3", "t"], pairs))
        x = uniform("N", 0)
        tx, ty = decomposition_tree(x), decomposition_tree(y)
        phi = st_embed(tx, ty)
        if phi is not None:
            lifted = lift_embedding(tx, ty, phi)
            assert check_coloured_embedding(x, y, lifted)

    def test_bogus_map_rejected(self):
        x, y = uniform("chain", 2), uniform("chain", 3)
        tx, ty = decomposition_tree(x), decomposition_tree(y)
        # injective but reversed: breaks the order condition
        bogus = EmbeddingMap(
            tuple(zip(tx.tree.nodes, reversed(ty.tree.nodes[: len(tx.tree.nodes)]))),
            "structured-tree",
        )
        with pytest.raises(VerificationFailure):
            lift_embedding(tx, ty, bogus)

    def test_recheck_catches_a_foreign_base(self):
        # the constructor does not check that fset describes base: the
        # 2-chain's tree over the 2-antichain passes the tree checks, and
        # the lifted identity fails only the final re-check
        x = uniform("chain", 2)
        t = decomposition_tree(x)
        foreign = DecompositionTree(
            t.fset, t.leaves, ColouredPoset.uniform(make_poset(x.elements, []))
        )
        phi = st_embed(foreign, t)
        assert verify_st_embedding(foreign, t, phi)
        with pytest.raises(VerificationFailure, match="lifted map failed"):
            lift_embedding(foreign, t, phi)

    def test_raw_trees_rejected(self):
        # a raw structured tree has no ground elements to lift to
        tx, ty = decomposition_tree(uniform("chain", 2)), decomposition_tree(uniform("chain", 3))
        rx, ry = _rebuilt(tx), _rebuilt(ty)
        phi = st_embed(rx, ry)
        assert verify_st_embedding(rx, ry, phi)
        for s, t in ((rx, ry), (tx, ry), (rx, ty)):
            with pytest.raises(Malformed, match="decomposition trees"):
                lift_embedding(s, t, phi)

    def test_non_injective_map_unrepresentable(self):
        with pytest.raises(ValueError):
            EmbeddingMap((("a", "x"), ("b", "x")))


class TestTreeRank:
    def test_singleton(self):
        assert tree_rank(canonical("chain", 1)) == 0

    def test_two_chain(self):
        assert tree_rank(canonical("chain", 2)) == 1

    def test_binary_height3(self):
        assert tree_rank(canonical("binary_tree_prefix", 3)) == 2

    def test_not_a_tree(self):
        with pytest.raises(NotATree):
            tree_rank(canonical("N", 0))
        with pytest.raises(NotATree):
            tree_rank(canonical("antichain", 2))

    def test_one_rooted_tree_check_per_tree(self, monkeypatch):
        # a decomposition tree is a rooted tree by construction, and the
        # ranks do not check a structured tree; a raw poset is checked by
        # the rank itself
        calls = [0]
        check = Poset.is_rooted_tree

        def counted(poset):
            calls[0] += 1
            return check(poset)

        monkeypatch.setattr(Poset, "is_rooted_tree", counted)
        rng = random.Random(139)
        for _ in range(20):
            x = helpers.random_coloured(rng, rng.randint(1, 10))
            calls[0] = 0
            tree = decomposition_tree(x)
            want = helpers.brute_tree_rank(tree.tree.poset)
            assert tree_rank(tree) == tree_rank(tree.tree) == want
            scattered_rank(tree, bound=len(tree.tree.nodes))
            assert calls[0] == 0
            tree_rank(tree.tree.poset)
            assert calls[0] == 1


class TestScatteredRank:
    def test_singleton(self):
        assert scattered_rank(canonical("chain", 1)) == 0

    def test_chains_are_rank_one(self):
        for k in (2, 3, 6):
            assert scattered_rank(canonical("chain", k)) == 1

    def test_binary_heights(self):
        assert scattered_rank(canonical("binary_tree_prefix", 2)) == 1
        assert scattered_rank(canonical("binary_tree_prefix", 3)) == 2

    def test_bound(self):
        with pytest.raises(TooLarge):
            scattered_rank(canonical("chain", 5), bound=4)

    def test_not_a_tree(self):
        with pytest.raises(NotATree):
            scattered_rank(canonical("N", 0))
        with pytest.raises(NotATree):
            scattered_rank(canonical("antichain", 2))
        # the size bound is read before the tree check
        with pytest.raises(TooLarge):
            scattered_rank(canonical("antichain", 5), bound=4)

    def test_accepts_structured_tree(self):
        t = decomposition_tree(uniform("chain", 3))
        assert scattered_rank(t.tree) >= 1

    def test_matches_bottom_up_construction(self):
        # level-0 pieces are points; each level hangs the previous level's
        # trees on a fresh chain, which steps the rank by exactly one
        level = {0: canonical("chain", 1)}
        for lv in (1, 2, 3):
            prev = level[lv - 1]
            chain = canonical("chain", 2)
            level[lv] = zeta_tree_sum(
                chain, {("a", 0): prev, ("a", 1): prev, ("b", 0): prev}
            )
        for lv in (1, 2, 3):
            assert scattered_rank(level[lv], bound=60) == lv

    def test_closed_forms_at_size(self):
        # sizes no oracle reaches: a chain and a caterpillar (a spine with
        # one leaf per spine node) are rank 1, the binary tree of depth 7 is
        # rank 6, and level 5 of the bottom-up construction is rank 5
        spine = [f"s{k}" for k in range(100)]
        caterpillar = make_poset(
            spine + [f"l{k}" for k in range(100)],
            list(zip(spine, spine[1:])) + [(f"s{k}", f"l{k}") for k in range(100)],
        )
        level = canonical("chain", 1)
        for _ in range(5):
            level = zeta_tree_sum(
                canonical("chain", 2), {("a", 0): level, ("a", 1): level, ("b", 0): level}
            )
        for tree, size, rank in (
            (canonical("chain", 200), 200, 1),
            (caterpillar, 200, 1),
            (canonical("binary_tree_prefix", 7), 127, 6),
            (level, 485, 5),
        ):
            assert len(tree) == size
            assert scattered_rank(tree, bound=size) == rank

    @pytest.mark.parametrize("shape", ["chain", "caterpillar"])
    def test_default_bound_from_rows(self, shape):
        # 4,096 nodes, the default bound, built straight from their rows
        n = 4096
        above = [(1 << n) - (1 << k + 1) for k in range(n)]  # a chain
        if shape == "caterpillar":
            # the even nodes form the spine, and each odd node is a leaf
            # just above the even node before it
            above = [0 if k % 2 else row for k, row in enumerate(above)]
        ids = [f"v{k}" for k in range(n)]
        tree = Poset(ids, above)
        assert tree.is_rooted_tree()
        assert scattered_rank(tree) == 1
        # cutting the rows of the lower half at n/2 leaves two roots, 0 and n/2
        cut = (1 << n // 2) - 1
        forest = Poset(ids, [row & cut for row in above[: n // 2]] + above[n // 2 :])
        assert forest.is_tree() and not forest.is_rooted_tree()
        with pytest.raises(NotATree):
            scattered_rank(forest)


def _rooted_trees(catalog):
    return [p for reps in catalog.values() for p in reps if p.is_rooted_tree()]


class TestRanksAgainstOracles:
    def _check(self, poset):
        assert tree_rank(poset) == helpers.brute_tree_rank(poset)
        assert scattered_rank(poset, bound=len(poset)) == helpers.brute_scattered_rank(poset)

    def test_rooted_trees_of_catalog6(self, catalog6):
        trees = _rooted_trees(catalog6)
        assert len(trees) == 37
        for p in trees:
            self._check(p)

    def test_rooted_trees_of_catalog7(self, catalog7):
        trees = _rooted_trees({7: catalog7})
        assert len(trees) == 48
        for p in trees:
            self._check(p)

    def test_random_shuffled_rooted_trees(self):
        rng = random.Random(173)
        for k in range(300):
            self._check(helpers.random_rooted_tree(rng, 1 + k % 15))

    def test_decomposition_trees(self):
        rng = random.Random(179)
        for k in range(60):
            x = helpers.random_coloured(rng, 1 + k % 10, p=(0.15, 0.35, 0.6)[k % 3])
            t = decomposition_tree(x)
            self._check(t.tree.poset)
            # the ranks take the decomposition tree itself, as st_embed does
            n = len(t.tree.poset)
            assert tree_rank(t) == tree_rank(t.tree)
            assert scattered_rank(t, bound=n) == scattered_rank(t.tree, bound=n)


class TestDump:
    def test_golden_ch3(self):
        t = decomposition_tree(uniform("chain", 3))
        assert structured_tree_text(t.tree) == (
            "node 0 colour=sum{c,_s:_s<c} parent=- labels=-\n"
            "node 0.c colour=0 parent=0 labels=0:c\n"
            "node 1 colour=sum{b,_s:_s<b} parent=0 labels=0:_s\n"
            "node 1.b colour=0 parent=1 labels=0:_s,1:b\n"
            "node 2 colour=sum{a:} parent=1 labels=0:_s,1:_s\n"
            "node 2.a colour=0 parent=2 labels=0:_s,1:_s,2:a\n"
        )

    def test_bit_stable(self):
        rng = random.Random(83)
        x = helpers.random_coloured(rng, 6)
        a = structured_tree_text(decomposition_tree(x).tree)
        b = structured_tree_text(decomposition_tree(x).tree)
        assert a == b
