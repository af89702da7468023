import random

import pytest

import helpers
from poset_forge import (
    CompositionSequence,
    CompositionSet,
    canonical,
    coloured_embed,
    composition_set_text,
    decomposition_function,
    eval_f_eta,
    eval_g,
    h_eta,
    is_indecomposable,
    make_poset,
    maximal_decomposition,
    split_assoc_check,
)
from poset_forge import composition, interval
from poset_forge.composition import eval_f_eta_with_sources, inline_poset
from poset_forge.interval import _mask_to_set, _parts, _split
from poset_forge.core import ColouredPoset, coloured_isomorphic, embed, is_isomorphic
from poset_forge.errors import (
    BadIndex,
    EmptyPoset,
    Malformed,
    MissingArgument,
    MissingLeaf,
    PaletteMismatch,
)


def singletons_for(seq):
    out = {}
    for i, u in seq.positions():
        out[(i, u)] = ColouredPoset.uniform(make_poset([u], []))
    return out


def ch2_top():
    # 2-chain with the top slot distinguished
    return (canonical("chain", 2), "b")


class TestSequenceValidation:
    def test_empty_rejected(self):
        with pytest.raises(Malformed):
            CompositionSequence(())

    def test_empty_arity_rejected(self):
        with pytest.raises(Malformed):
            CompositionSequence(((make_poset([], []), "a"),))

    def test_bad_distinguished(self):
        with pytest.raises(Malformed):
            CompositionSequence(((canonical("chain", 2), "z"),))

    def test_slots(self):
        seq = CompositionSequence((ch2_top(), ch2_top()))
        assert seq.slots(0) == ("a",)
        assert seq.slots(1) == ("a", "b")


class TestHEta:
    def test_single_entry_is_the_arity(self):
        n = canonical("N", 0)
        H = h_eta(CompositionSequence(((n, "3"),)))
        assert is_isomorphic(H, n)

    def test_two_chains_make_ch3(self):
        H = h_eta(CompositionSequence((ch2_top(), ch2_top())))
        assert is_isomorphic(H, canonical("chain", 3))

    def test_double_n_by_rule_application(self):
        n = canonical("N", 0)
        seq = CompositionSequence(((n, "3"), (n, "3")))
        H = h_eta(seq)
        assert len(H) == 7
        slots = [(0, u) for u in "012"] + [(1, u) for u in "0123"]
        for i, u in slots:
            for j, v in slots:
                if (i, u) == (j, v):
                    continue
                if i == j:
                    expected = n.lt(u, v)
                elif i < j:
                    expected = n.lt(u, "3")
                else:
                    expected = n.lt("3", v)
                assert H.lt(f"{i}.{u}", f"{j}.{v}") == expected

    @staticmethod
    def _assert_matches_brute(seq):
        got, got_slots = composition.h_eta_with_slots(seq)
        want, want_slots = helpers.brute_h_eta(seq)
        assert got.elements == want.elements and got_slots == want_slots
        assert got.above == want.above

    def test_matches_brute_on_catalog6_decompositions(self, catalog6):
        # every anchor of every poset up to 6 elements
        for reps in catalog6.values():
            for p in reps:
                x = ColouredPoset.uniform(p)
                for anchor in p.elements:
                    self._assert_matches_brute(maximal_decomposition(x, anchor)[0])

    def test_matches_brute_with_separator_slot_names(self):
        # slot names holding ".", "/" and "\\" make slot ids like "1.a/b"
        rng = random.Random(191)
        alphabet = helpers.SEPARATOR_ID_ALPHABET
        for _ in range(300):
            entries = []
            for _ in range(rng.randint(1, 4)):
                ids = set()
                for _ in range(rng.randint(1, 4)):
                    ids.add("".join(rng.choices(alphabet, k=rng.randint(1, 3))))
                ids = sorted(ids)
                pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:] if rng.random() < 0.5]
                arity = helpers.shuffled_poset(rng, make_poset(ids, pairs))
                entries.append((arity, rng.choice(arity.elements)))
            self._assert_matches_brute(CompositionSequence(tuple(entries)))


class TestEvalFEta:
    def test_ch3_from_singletons(self):
        seq = CompositionSequence((ch2_top(), ch2_top()))
        value = eval_f_eta(seq, singletons_for(seq))
        assert is_isomorphic(value.poset, canonical("chain", 3))

    def test_antichain_of_chains(self):
        seq = CompositionSequence(((canonical("antichain", 2), "a"),))
        ch2 = ColouredPoset.uniform(canonical("chain", 2))
        value = eval_f_eta(seq, {(0, "a"): ch2, (0, "b"): ch2})
        two_chains = make_poset(
            ["p", "q", "r", "s"], [("p", "q"), ("r", "s")]
        )
        assert is_isomorphic(value.poset, two_chains)

    def test_n_from_singletons(self):
        seq = CompositionSequence(((canonical("N", 0), "3"),))
        value = eval_f_eta(seq, singletons_for(seq))
        assert is_isomorphic(value.poset, canonical("N", 0))

    def test_missing_argument(self):
        seq = CompositionSequence((ch2_top(),))
        with pytest.raises(MissingArgument):
            eval_f_eta(seq, {})

    def test_palette_mismatch(self):
        from poset_forge import QuasiOrder

        seq = CompositionSequence(((canonical("antichain", 2), "a"),))
        one = ColouredPoset.uniform(make_poset(["x"], []))
        other = ColouredPoset(
            make_poset(["y"], []), {"y": "q"}, QuasiOrder(["q"], [])
        )
        with pytest.raises(PaletteMismatch):
            eval_f_eta(seq, {(0, "a"): one, (0, "b"): other})

    def test_extensivity(self):
        # every argument embeds into the evaluated sum
        rng = random.Random(29)
        for _ in range(30):
            length = rng.randrange(1, 4)
            entries = []
            for _ in range(length):
                arity = helpers.random_poset(rng, rng.randrange(1, 4), prefix="p")
                entries.append((arity, arity.elements[rng.randrange(len(arity))]))
            seq = CompositionSequence(tuple(entries))
            args = {
                (i, u): ColouredPoset.uniform(
                    helpers.random_poset(rng, rng.randrange(1, 4), prefix="q")
                )
                for i, u in seq.positions()
            }
            value = eval_f_eta(seq, args)
            for q in args.values():
                assert coloured_embed(q, value) is not None


class TestSplitAssoc:
    def test_degenerate(self):
        seq = CompositionSequence(((canonical("N", 0), "3"),))
        assert split_assoc_check(seq, singletons_for(seq), 0)

    def test_three_chains_middle(self):
        seq = CompositionSequence((ch2_top(), ch2_top(), ch2_top()))
        assert split_assoc_check(seq, singletons_for(seq), 1)

    def test_n_then_antichain(self):
        seq = CompositionSequence(
            ((canonical("N", 0), "3"), (canonical("antichain", 2), "a"))
        )
        assert split_assoc_check(seq, singletons_for(seq), 0)

    def test_bad_index(self):
        seq = CompositionSequence((ch2_top(),))
        with pytest.raises(BadIndex):
            split_assoc_check(seq, singletons_for(seq), 5)


class TestMaximalDecomposition:
    def test_ch3(self):
        x = ColouredPoset.uniform(canonical("chain", 3))
        seq, args, chain = maximal_decomposition(x)
        assert list(chain) == [
            frozenset({"a", "b", "c"}),
            frozenset({"a", "b"}),
            frozenset({"a"}),
        ]
        sizes = [len(arity) for arity, _ in seq.entries]
        assert sizes == [2, 2, 1]
        # non-final layers are 2-chains with the stand-in at the bottom
        for arity, s in seq.entries[:-1]:
            other = next(e for e in arity.elements if e != s)
            assert arity.lt(s, other)
        assert coloured_isomorphic(eval_f_eta(seq, args), x)

    def test_n(self):
        x = ColouredPoset.uniform(canonical("N", 0))
        seq, args, chain = maximal_decomposition(x)
        assert list(chain) == [frozenset("0123"), frozenset("0")]
        assert is_isomorphic(seq.arity(0), canonical("N", 0))
        assert len(seq.arity(1)) == 1
        assert all(len(q) == 1 for q in args.values())
        assert coloured_isomorphic(eval_f_eta(seq, args), x)

    def test_singleton(self):
        x = ColouredPoset.uniform(canonical("chain", 1))
        seq, args, chain = maximal_decomposition(x)
        assert len(seq) == 1 and len(seq.arity(0)) == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyPoset):
            maximal_decomposition(ColouredPoset.uniform(make_poset([], [])))

    def test_stand_in_avoids_a_kept_name(self):
        # layer 0 keeps the point "_s", so its stand-in for {a} is "__s"
        x = ColouredPoset.uniform(make_poset(["a", "_s"], [("a", "_s")]))
        seq, args, chain = maximal_decomposition(x)
        assert list(chain) == [frozenset({"a", "_s"}), frozenset({"a"})]
        arity, stand_in = seq.entries[0]
        assert stand_in == "__s"
        assert arity.elements == ("_s", "__s") and arity.lt("__s", "_s")
        assert seq.entries[1][0].elements == ("a",)
        assert {key: q.elements for key, q in args.items()} == {
            (0, "_s"): ("_s",),
            (1, "a"): ("a",),
        }
        assert coloured_isomorphic(eval_f_eta(seq, args), x)

    def test_arities_indecomposable_random(self):
        rng = random.Random(31)
        for _ in range(25):
            x = helpers.random_coloured(rng, rng.randrange(1, 8))
            seq, args, chain = maximal_decomposition(x)
            for arity, _ in seq.entries:
                assert is_indecomposable(arity)

    def test_tail_identity_random(self):
        # evaluating the sequence from layer j onward rebuilds chain member j
        rng = random.Random(37)
        for _ in range(20):
            x = helpers.random_coloured(rng, rng.randrange(2, 8))
            seq, args, chain = maximal_decomposition(x)
            for j, tail_set in enumerate(chain.members):
                tail = CompositionSequence(seq.entries[j:])
                tail_args = {
                    (i - j, u): args[(i, u)]
                    for (i, u) in seq.positions()
                    if i >= j
                }
                value, origin = eval_f_eta_with_sources(tail, tail_args)
                ground = {orig for _, orig in origin.values()}
                assert ground == tail_set
                induced = x.restrict(tail_set)
                for e in value.elements:
                    _, orig = origin[e]
                    assert value.colour(e) == induced.colour(orig)
                    for f in value.elements:
                        _, orig2 = origin[f]
                        assert value.poset.lt(e, f) == induced.poset.lt(orig, orig2)


def _assert_blocks_match_brute(x, anchor=None):
    # the parts of P(x, anchor) cut down to each layer, and the arguments
    # built from them, are the layer's maximal intervals that avoid the
    # stand-in
    seq, args, chain = maximal_decomposition(x, anchor)
    p = x.poset
    full = (1 << len(p)) - 1
    parts = _parts(p, p.index[anchor or p.elements[0]], full)
    layers = helpers.chain_layers(p, chain.members)
    for j, (b_prime, stand_in) in enumerate(layers):
        want = helpers.brute_maximal_blocks(b_prime, stand_in)
        layer = chain.members[j] - chain.members[j + 1]
        blocks = {_mask_to_set(p, m) & layer for m in parts}
        assert {b for b in blocks if len(b) >= 2} == want
        assert helpers.argument_blocks(args, j) == want


def _layer_calls(x, monkeypatch):
    # every (within, sequence, argument masks, chain masks) that
    # ``_decompose`` builds, one per internal position
    calls = []
    layers = composition._layers

    def recorded(carrier, within, anchor):
        out = layers(carrier, within, anchor)
        calls.append((within, *out))
        return out

    with monkeypatch.context() as m:
        m.setattr(composition, "_layers", recorded)
        fset, _ = composition._decompose(x)
    assert len(calls) == len(fset.sequences)
    return calls


def _assert_layers_hold(p, within, seq, args, chain):
    # what ``_layers`` no longer checks at run time: its arities are
    # indecomposable and are the order induced on the slots' points and the
    # stand-in's, each next member has no splitter in the current one, and
    # the slots' argument masks partition each layer
    assert chain[0] == within
    assert set(args) == set(seq.positions())
    for j, (arity, s) in enumerate(seq.entries):
        assert is_indecomposable(arity)
        cur = chain[j]
        rest = chain[j + 1] if j + 1 < len(chain) else 0
        point = {u: u for u in arity.elements}
        if rest:
            first = (rest & -rest).bit_length() - 1
            assert not _split(p, first, rest) & cur & ~rest
            point[s] = p.elements[first]
        for a in arity.elements:
            for b in arity.elements:
                assert arity.lt(a, b) == p.lt(point[a], point[b])
        union = 0
        for (i, _), m in args.items():
            if i == j:
                assert m and not m & union
                union |= m
        assert union == cur & ~rest


def _assert_layers_by_construction(x, monkeypatch):
    for call in _layer_calls(x, monkeypatch):
        _assert_layers_hold(x.poset, *call)


class TestLayersByConstruction:
    # ``_layers`` reads its arities, stand-ins and arguments off the
    # strong-module walk and checks none of them; its docstring proves
    # they hold, and these tests assert it at every position
    def test_catalog6(self, catalog6, monkeypatch):
        for reps in catalog6.values():
            for p in reps:
                _assert_layers_by_construction(ColouredPoset.uniform(p), monkeypatch)

    def test_random_shuffled(self, monkeypatch):
        rng = random.Random(131)
        for _ in range(200):
            n = rng.randint(8, 13)
            p = helpers.random_poset(rng, n, rng.choice((0.15, 0.35, 0.6)))
            x = ColouredPoset.uniform(helpers.shuffled_poset(rng, p))
            _assert_layers_by_construction(x, monkeypatch)
            # and along a chain down to any anchor, not only the lowest point
            full = (1 << n) - 1
            v = rng.randrange(n)
            _assert_layers_hold(x.poset, full, *composition._layers(x.poset, full, v))

    @pytest.mark.parametrize("innermost_first", [True, False])
    def test_alternating_nesting(self, innermost_first, monkeypatch):
        p = helpers.alternating_nesting(15, innermost_first)
        _assert_layers_by_construction(ColouredPoset.uniform(p), monkeypatch)


class TestStrongModulesOpenedOnce:
    # the decomposition needs no separate modular-decomposition tree: over
    # all its positions, the walk splits each strong module of two or more
    # points once, and no other mask
    @staticmethod
    def _assert_opened_once(p, monkeypatch):
        opened = []
        components = interval._components

        def counted(carrier, within, comparable):
            if comparable:
                opened.append(within)
            return components(carrier, within, comparable)

        with monkeypatch.context() as m:
            m.setattr(interval, "_components", counted)
            decomposition_function(ColouredPoset.uniform(p))
        strong = [s for s in helpers.brute_strong_modules(p) if len(s) >= 2]
        assert sorted(sorted(_mask_to_set(p, m)) for m in opened) == sorted(map(sorted, strong))

    def test_catalog6(self, catalog6, monkeypatch):
        for reps in catalog6.values():
            for p in reps:
                self._assert_opened_once(p, monkeypatch)

    def test_random_shuffled(self, monkeypatch):
        rng = random.Random(137)
        for _ in range(60):
            p = helpers.random_poset(rng, rng.randint(7, 10), rng.choice((0.15, 0.35, 0.6)))
            self._assert_opened_once(helpers.shuffled_poset(rng, p), monkeypatch)


class TestLayerBlocks:
    def test_matches_brute_on_catalog6_layers(self, catalog6):
        for reps in catalog6.values():
            for p in reps:
                _assert_blocks_match_brute(ColouredPoset.uniform(p))

    def test_matches_brute_random_shuffled(self):
        rng = random.Random(127)
        for _ in range(200):
            n = rng.randint(8, 13)
            p = helpers.random_poset(rng, n, rng.choice((0.15, 0.35)))
            x = ColouredPoset.uniform(helpers.shuffled_poset(rng, p))
            _assert_blocks_match_brute(x, rng.choice(x.elements))


class TestDecompositionFunction:
    def test_singleton(self):
        x = ColouredPoset.uniform(canonical("chain", 1))
        fset, leafs = decomposition_function(x)
        assert not fset.sequences
        assert fset.leaves == frozenset({()})
        assert eval_g(fset, leafs) == x

    def test_ch2_shape(self):
        x = ColouredPoset.uniform(canonical("chain", 2))
        fset, leafs = decomposition_function(x)
        assert set(fset.sequences) == {()}
        seq = fset.sequences[()]
        assert [len(a) for a, _ in seq.entries] == [2, 1]
        assert len(fset.leaves) == 2

    def test_n_under_a_top_point(self):
        pairs = [("1", "0"), ("1", "2"), ("3", "2")]
        pairs += [(e, "t") for e in "0123"]
        x = ColouredPoset.uniform(make_poset(["0", "1", "2", "3", "t"], pairs))
        fset, leafs = decomposition_function(x)
        assert coloured_isomorphic(eval_g(fset, leafs), x)

    def test_round_trip_random(self):
        rng = random.Random(41)
        for _ in range(30):
            x = helpers.random_coloured(rng, rng.randrange(1, 8))
            fset, leafs = decomposition_function(x)
            assert coloured_isomorphic(eval_g(fset, leafs), x)

    def test_leaves_are_singletons(self):
        rng = random.Random(43)
        x = helpers.random_coloured(rng, 7)
        fset, leafs = decomposition_function(x)
        assert all(len(v) == 1 for v in leafs.values())
        assert len(leafs) == len(x)


class TestEvalG:
    def test_empty_set_returns_leaf(self):
        x = ColouredPoset.uniform(make_poset(["v"], []))
        fset = CompositionSet((), {}, {()})
        assert eval_g(fset, {(): x}) == x

    def test_missing_leaf(self):
        fset = CompositionSet((), {}, {()})
        with pytest.raises(MissingLeaf):
            eval_g(fset, {})


class TestCompositionSetValidation:
    # SEQ has the slots (0, a) and (0, b); a valid set holds them as leaves
    # under the root, or under a nested root
    SEQ = CompositionSequence(((canonical("chain", 2), "b"),))
    A, B = ((0, "a"),), ((0, "b"),)

    def test_valid_sets(self):
        CompositionSet((), {(): self.SEQ}, {self.A, self.B})
        CompositionSet(self.A, {self.A: self.SEQ}, {self.A + self.A, self.A + self.B})
        nested = {(): self.SEQ, self.A: self.SEQ}
        CompositionSet((), nested, {self.A + self.A, self.A + self.B, self.B})

    @pytest.mark.parametrize(
        "root, sequences, leaves",
        [
            # a position both internal and a leaf
            ((), {(): SEQ}, {(), A, B}),
            # the root missing
            ((), {}, {A}),
            ((), {A: SEQ}, {A + A, A + B}),
            # a position outside the root
            (A, {A: SEQ}, {A + A, A + B, B}),
            # a position with no internal parent
            ((), {(): SEQ}, {A, B, A + A}),
            # children that do not match the sequence's slots
            ((), {(): SEQ}, {A}),
            ((), {(): SEQ}, {A, B, ((0, "c"),)}),
            ((), {(): SEQ}, {A, ((1, "b"),)}),
            # a leaf root beside sequences
            ((), {A: SEQ}, {(), A + A, A + B}),
            # an empty set whose leaves are not exactly the root
            ((), {}, set()),
            ((), {}, {(), A}),
        ],
    )
    def test_rejected(self, root, sequences, leaves):
        with pytest.raises(Malformed):
            CompositionSet(root, sequences, leaves)


class TestObstructionsAvoidHEta:
    def test_depth3_prefixes_never_embed(self):
        # arities too small to contain them, and the index poset never
        # assembles one across layers
        rng = random.Random(47)
        stock = [
            canonical("chain", 1),
            canonical("chain", 2),
            canonical("antichain", 2),
            canonical("N", 0),
        ]
        obstructions = [
            canonical("binary_tree_prefix", 3),
            canonical("reversed_binary_tree_prefix", 3),
            canonical("perp_prefix", 3),
        ]
        for _ in range(25):
            length = rng.randrange(1, 5)
            entries = []
            for _ in range(length):
                arity = stock[rng.randrange(len(stock))]
                entries.append(
                    (arity, arity.elements[rng.randrange(len(arity))])
                )
            H = h_eta(CompositionSequence(tuple(entries)))
            for y in obstructions:
                assert embed(y, H) is None


class TestSerialization:
    def test_golden_ch2(self):
        x = ColouredPoset.uniform(canonical("chain", 2))
        fset, leafs = decomposition_function(x)
        assert composition_set_text(fset, leafs) == (
            "e: [{b,_s:_s<b}/_s] [{a:}/a]\n"
            "  0.b: leaf b colour=0\n"
            "  1.a: leaf a colour=0\n"
        )

    def test_golden_n(self):
        x = ColouredPoset.uniform(canonical("N", 0))
        fset, leafs = decomposition_function(x)
        assert composition_set_text(fset, leafs) == (
            "e: [{1,2,3,_s:1<2,1<_s,3<2}/_s] [{0:}/0]\n"
            "  0.1: leaf 1 colour=0\n"
            "  0.2: leaf 2 colour=0\n"
            "  0.3: leaf 3 colour=0\n"
            "  1.0: leaf 0 colour=0\n"
        )

    def test_bit_stable(self):
        rng = random.Random(53)
        x = helpers.random_coloured(rng, 6)
        fset, leafs = decomposition_function(x)
        text = composition_set_text(fset, leafs)
        fset2, leafs2 = decomposition_function(x)
        assert composition_set_text(fset2, leafs2) == text

    def test_deep_nesting_serializes(self):
        # 1,200 levels, nested at the last slot: more than the interpreter's
        # recursion limit, which a walk with one call per level would hit
        seq = TestCompositionSetValidation.SEQ
        A, B = TestCompositionSetValidation.A, TestCompositionSetValidation.B
        depth = 1200
        fset = CompositionSet(
            (),
            {B * k: seq for k in range(depth)},
            {B * k + A for k in range(depth)} | {B * depth},
        )
        lines = composition_set_text(fset).splitlines()
        assert len(lines) == 2 * depth + 1
        assert lines[0] == f"e: [{inline_poset(seq.entries[0][0])}/b]"
        assert lines[1] == "  0.a: leaf"
        assert lines[-1] == "  " * depth + "/".join(["0.b"] * depth) + ": leaf"

    def test_extracted_subtree_serializes(self):
        from poset_forge import decomposition_tree, subtree_extract

        t = decomposition_tree(ColouredPoset.uniform(canonical("chain", 3)))
        seq, layer = t.sequence_at("0")
        sub = subtree_extract(t, "0", seq.distinguished(layer))
        text = composition_set_text(sub.fset, sub.leaf_args)
        assert text.startswith("e: ")
        assert text == composition_set_text(sub.fset, sub.leaf_args)
