import itertools
import random

import pytest

import helpers
import test_pinned
from poset_forge import (
    ClassSpec,
    ColouredPoset,
    canonical,
    class_check,
    decomposition_tree,
    indecomposable_subsets,
    is_indecomposable,
    is_n_free,
    make_poset,
    maximal_decomposition,
    maximal_interval_chain,
    pathological_prefix_check,
)
from poset_forge import classify, composition, interval
from poset_forge.classify import PrefixReport
from poset_forge.core import Poset, check_embedding, coloured_isomorphic, embed
from poset_forge.errors import OutOfRange, TooLarge


STOCK = lambda: (canonical("chain", 1), canonical("chain", 2), canonical("antichain", 2))


def _named(p, masks):
    return [frozenset(p.elements[i] for i in range(len(p)) if m >> i & 1) for m in masks]


class TestIndecomposableSubsets:
    def test_ch3(self):
        got = indecomposable_subsets(canonical("chain", 3), 3)
        assert got == [
            frozenset({"a", "b"}),
            frozenset({"a", "c"}),
            frozenset({"b", "c"}),
        ]

    def test_n(self):
        n = canonical("N", 0)
        got = set(indecomposable_subsets(n, 4))
        pairs = {
            frozenset(p) for p in itertools.combinations(n.elements, 2)
        }
        assert got == pairs | {frozenset(n.elements)}

    def test_antichain3(self):
        got = indecomposable_subsets(canonical("antichain", 3), 3)
        assert all(len(s) == 2 for s in got) and len(got) == 3

    def test_no_three_element_subset_ever(self, catalog5):
        for n, reps in catalog5.items():
            for p in reps:
                assert all(
                    len(s) != 3 for s in indecomposable_subsets(p, len(p))
                )

    def test_matches_brute(self, catalog6):
        # the whole list, in order, for every size cap
        for n, reps in catalog6.items():
            for p in reps:
                want = _named(p, helpers.brute_indecomposable_masks(p, n))
                for cap in range(2, n + 1):
                    got = indecomposable_subsets(p, cap)
                    assert got == [s for s in want if len(s) <= cap]

    def test_rows_oracle_matches_definition(self, catalog5):
        for p in catalog5[4] + catalog5[5]:
            want = {
                frozenset(sub)
                for r in range(2, len(p) + 1)
                for sub in itertools.combinations(p.elements, r)
                if helpers.brute_indecomposable(p.restrict(sub))
            }
            got = _named(p, helpers.brute_indecomposable_masks(p, len(p)))
            assert set(got) == want

    @pytest.mark.parametrize("density", [0.15, 0.35])
    def test_matches_brute_random(self, density):
        rng = random.Random(int(density * 100))
        for k in range(20):
            p = helpers.random_poset(rng, 8 + k % 4, density)
            want = _named(p, helpers.brute_indecomposable_masks(p, len(p)))
            assert indecomposable_subsets(p, len(p)) == want

    def test_matches_brute_size7(self, catalog7):
        for p in catalog7:
            want = _named(p, helpers.brute_indecomposable_masks(p, 7))
            for cap in (2, 4, 7):
                got = indecomposable_subsets(p, cap)
                assert got == [s for s in want if len(s) <= cap]

    @pytest.mark.parametrize("density", [0.15, 0.35, 0.6])
    def test_matches_closure_test_large(self, density):
        # past one block of marks (n > 10), against the per-subset closure
        # test, which shares nothing with the ascending pass
        rng = random.Random(int(density * 1000))
        for n in (12, 14, 16):
            p = helpers.random_poset(rng, n, density)
            want = [
                m
                for m in range(1, 1 << n)
                if m.bit_count() >= 2 and helpers.pair_closure_indecomposable(p, m)
            ]
            assert classify._indecomposable_masks(p, n) == want
            cap = n // 2
            assert classify._indecomposable_masks(p, cap) == [
                m for m in want if m.bit_count() <= cap
            ]

    def test_bounds(self):
        with pytest.raises(ValueError):
            indecomposable_subsets(canonical("chain", 2), 5)
        with pytest.raises(TooLarge):
            indecomposable_subsets(canonical("antichain", 5), 2, bound=4)


class TestIsNFree:
    def test_n_itself(self):
        assert not is_n_free(canonical("N", 0))

    def test_chain(self):
        assert is_n_free(canonical("chain", 5))

    def test_fence2_is_an_n(self):
        assert not is_n_free(canonical("fence", 2))


class TestClassCheck:
    def test_ch3_within_size2(self):
        report = class_check(canonical("chain", 3), ClassSpec(max_size=2))
        assert report.passed

    def test_n_against_stock(self):
        report = class_check(canonical("N", 0), ClassSpec(allowed=STOCK()))
        assert not report.passed
        assert report.violations == [frozenset("0123")]

    def test_n_within_size4(self):
        assert class_check(canonical("N", 0), ClassSpec(max_size=4)).passed

    def test_singleton_must_be_listed(self):
        spec = ClassSpec(allowed=(canonical("chain", 2),))
        report = class_check(canonical("chain", 2), spec)
        assert not report.passed
        assert frozenset({"a"}) in report.violations

    def test_report_text(self):
        report = class_check(canonical("N", 0), ClassSpec(allowed=STOCK()))
        assert report.text() == "violation 0,1,2,3\nverdict fail\n"
        ok = class_check(canonical("chain", 3), ClassSpec(max_size=2))
        assert ok.text() == "verdict pass\n"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ClassSpec()
        with pytest.raises(ValueError):
            ClassSpec(allowed=STOCK(), max_size=2)
        with pytest.raises(ValueError):
            ClassSpec(max_size=0)

    def test_allowed_lists_match_brute(self, catalog5):
        # lists that skip sizes: a subset of a size no listed poset has is
        # a violation, as the isomorphism test would say
        rng = random.Random(101)
        pool = [p for reps in catalog5.values() for p in reps]
        for _ in range(40):
            listed = tuple(rng.sample(pool, rng.randrange(1, 6)))
            spec = ClassSpec(allowed=listed)
            p = helpers.random_poset(rng, rng.randrange(1, 8), rng.choice([0.2, 0.5]))
            masks = helpers.brute_indecomposable_masks(p, len(p))
            singles = [1 << i for i in range(len(p))]
            want = [
                s
                for s in _named(p, singles + masks)
                if not any(
                    len(q) == len(s) and helpers.brute_embed(q, p.restrict(s))
                    for q in listed
                )
            ]
            assert class_check(p, spec).violations == want

    def test_coloured_allowed_lists(self, catalog5):
        # an allowed member may be a coloured poset, read as its poset, as
        # class_check reads x: coloured and plain lists give equal reports
        rng = random.Random(103)
        pool = [p for reps in catalog5.values() for p in reps]
        for _ in range(20):
            listed = rng.sample(pool, rng.randrange(1, 6))
            p = helpers.random_poset(rng, rng.randrange(1, 8), rng.choice([0.2, 0.5]))
            coloured = ClassSpec(allowed=[ColouredPoset.uniform(q) for q in listed])
            assert coloured == ClassSpec(allowed=listed)
            want = class_check(p, ClassSpec(allowed=listed)).violations
            assert class_check(p, coloured).violations == want
            assert class_check(ColouredPoset.uniform(p), coloured).violations == want

    def test_monotone_in_size_cap(self):
        rng = random.Random(89)
        for _ in range(20):
            p = helpers.random_poset(rng, rng.randrange(1, 7))
            for n in range(1, len(p)):
                if class_check(p, ClassSpec(max_size=n)).passed:
                    assert class_check(p, ClassSpec(max_size=n + 1)).passed

    def test_hereditary(self):
        rng = random.Random(97)
        for _ in range(15):
            p = helpers.random_poset(rng, rng.randrange(2, 7))
            spec = ClassSpec(max_size=2)
            if class_check(p, spec).passed:
                members = list(p.elements)
                for r in range(1, len(members)):
                    for sub in itertools.combinations(members, r):
                        assert class_check(p.restrict(sub), spec).passed


def _assert_matches_oracle(p, call=lambda f, *args: f(*args)):
    """indecomposable_subsets and class_check on p, each run through
    call, under every size cap and under the stock list plus N, against
    the rows oracle; returns the oracle's subsets."""
    want = _named(p, helpers.brute_indecomposable_masks(p, len(p)))
    for cap in range(1, len(p) + 1):
        assert call(indecomposable_subsets, p, cap) == [s for s in want if len(s) <= cap]
        capped = call(class_check, p, ClassSpec(max_size=cap))
        assert capped.violations == [s for s in want if len(s) > cap]
    n_poset = canonical("N", 0)
    listed = call(class_check, p, ClassSpec(allowed=STOCK() + (n_poset,)))
    assert listed.violations == [
        s
        for s in want
        if len(s) > 2
        and not (len(s) == 4 and helpers.brute_embed(n_poset, p.restrict(s)))
    ]
    return want


class TestNoIntervalScan:
    def test_closure_test_alone(self, catalog5):
        # the per-subset interval scan is gone, and every indecomposability
        # answer agrees with the rows oracle
        assert not hasattr(interval, "_interval_masks")
        assert not hasattr(classify, "_interval_masks")
        for n, reps in catalog5.items():
            for p in reps:
                want = _assert_matches_oracle(p)
                assert is_indecomposable(p) == (n == 1 or frozenset(p.elements) in want)

    def test_one_split_per_prime_node(self, catalog5, monkeypatch):
        # indecomposable subsets are read off the prime nodes' quotients,
        # with no interval scan and no closure: class_check and
        # indecomposable_subsets each split one P(M, v) per prime strong
        # module, and none per subset, and still agree with the rows oracle
        assert not hasattr(interval, "_interval_masks")
        assert not hasattr(interval, "_close")
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return parts(*args)

        parts = interval._parts
        monkeypatch.setattr(interval, "_parts", counted)
        assert not hasattr(classify, "_parts")
        checks = primes = 0

        def one_each(f, p, arg):
            nonlocal checks
            calls[0] = 0
            got = f(p, arg)
            # a cap of 2 keeps only the pairs, and opens no module
            assert calls[0] == (0 if f is indecomposable_subsets and arg < 3 else nodes)
            checks += 1
            return got

        for reps in catalog5.values():
            for p in reps:
                nodes = len(helpers.brute_prime_modules(p))
                primes += nodes
                _assert_matches_oracle(p, one_each)
        assert primes > 10 and checks > 500

    def test_decomposition_path_alone(self, catalog6):
        # the chain, the layer arities and the tree come from the
        # strong-module walk, with no interval scan, and agree with the
        # brute-force oracles
        assert not hasattr(interval, "_interval_masks")
        assert not hasattr(composition, "enumerate_intervals")
        for reps in catalog6.values():
            for p in reps:
                x = ColouredPoset.uniform(p)
                chain = maximal_interval_chain(p)
                assert chain.members == helpers.brute_interval_chain(p)
                seq, args, _ = maximal_decomposition(x)
                layers = helpers.chain_layers(p, chain.members)
                for j, (b_prime, stand_in) in enumerate(layers):
                    want = helpers.brute_maximal_blocks(b_prime, stand_in)
                    assert helpers.argument_blocks(args, j) == want
                tree = decomposition_tree(x)
                if len(p) > 1:  # a single point is a leaf, with no sequence
                    assert tree.fset.sequences[()] == seq
                assert sorted(tree.leaf_element.values()) == sorted(p.elements)
                for v in tree.tree.internal_nodes():
                    assert helpers.brute_indecomposable(tree.tree.arities[v])
                assert coloured_isomorphic(tree.evaluate(), x)


def _oracle_violations(p, spec):
    """The masks class_check should name, in canonical order: from the
    whole-poset pass ``_indecomposable_masks`` and brute isomorphism."""
    masks = classify._indecomposable_masks(p, len(p))
    if spec.max_size is not None:
        bad = [m for m in masks if m.bit_count() > spec.max_size]
    else:
        singles = [1 << i for i in range(len(p))]
        bad = [
            m
            for m, s in zip(singles + masks, _named(p, singles + masks))
            if not any(len(q) == len(s) and helpers.brute_embed(q, helpers.induced(p, s)) for q in spec.allowed)
        ]
    return interval._canonical_sets(p, bad)


class TestPrimeQuotients:
    # the pairs, plus every prime node's indecomposable quotient subsets of
    # 3 or more points lifted to their transversals, are the whole-poset
    # pass's subsets; inputs with multi-point children lift to many
    @pytest.fixture(scope="class")
    def drawn(self):
        return helpers.prime_node_posets(random.Random(227), 40)

    def test_lifted_masks_match_whole_poset_pass(self, catalog6, drawn):
        # ``_subsets`` at every cap, from below and from above, and under a
        # refusal, reassembles the whole-poset pass's subsets as a multiset:
        # no subset is lifted twice
        multi = 0
        even = lambda quotient, m: m.bit_count() % 2 == 0
        for p in [p for reps in catalog6.values() for p in reps] + drawn:
            n = len(p)
            whole = classify._indecomposable_masks(p, n)
            for children, quotient in classify._quotients(p):
                # the order on the children's lowest points, with both row
                # sets, as ``Poset._from_rows`` needs
                assert children == sorted(children, key=lambda c: c & -c)
                assert quotient.above == helpers.induced(p, quotient.elements).above
                assert list(quotient.below) == helpers.transpose(quotient.above)
                assert [p.index[e] for e in quotient.elements] == [(c & -c).bit_length() - 1 for c in children]
                multi -= sum(m.bit_count() > 2 for m in classify._indecomposable_masks(quotient, n))
            for cap in range(n + 1):
                assert sorted(classify._subsets(p, 2, cap)) == classify._indecomposable_masks(p, cap)
                over = sorted(classify._subsets(p, cap + 1, n))
                assert over == [m for m in whole if m.bit_count() > cap]
            refused = sorted(classify._subsets(p, 3, n, even))
            assert refused == [m for m in whole if m.bit_count() > 2 and even(p, m)]
            multi += len(classify._subsets(p, 3, n))
        assert multi > 1000

    def test_class_check_matches_oracle(self, catalog6, drawn, monkeypatch):
        # the drawn posets under every size cap and the pinned corpus's two
        # lists, and catalog6 under every size cap (TestPairVerdicts checks
        # it under lists), against the whole-poset pass and brute
        # isomorphism; each listed poset is searched at most once per
        # induced shape in a call
        iso = classify.is_isomorphic
        calls = []

        def counted(sub, q):
            calls.append((id(q), sub.above))
            return iso(sub, q)

        monkeypatch.setattr(classify, "is_isomorphic", counted)
        failed = 0
        for p in drawn:
            for spec in test_pinned.class_specs(len(p)):
                calls.clear()
                got = class_check(p, spec).violations
                assert len(calls) == len(set(calls))
                assert got == _oracle_violations(p, spec)
                failed += len(got)
        for p in (p for reps in catalog6.values() for p in reps):
            for cap in range(1, len(p) + 1):
                spec = ClassSpec(max_size=cap)
                assert class_check(p, spec).violations == _oracle_violations(p, spec)
        assert failed > 10000


class TestPairVerdicts:
    def test_lists_without_a_pair_shape_match_brute(self, catalog6, monkeypatch):
        # a pair is judged by whether its points compare, against the list's
        # 2-chain and 2-antichain, decided once per call: lists that lack
        # one or both shapes, or hold them under other names, against the
        # rows oracle and brute isomorphism over catalog6
        point, n_poset = canonical("chain", 1), canonical("N", 0)
        chain = make_poset(["q", "p"], [("p", "q")])
        antichain = make_poset(["v", "u"], [])
        lists = [
            (point, antichain, n_poset),
            (point, chain, n_poset),
            (point, n_poset, canonical("chain", 3)),
            (antichain, chain),
        ]
        induced = classify._induced_rows
        sizes = []

        def counted(rows, index):
            sizes.append(len(index))
            return induced(rows, index)

        monkeypatch.setattr(classify, "_induced_rows", counted)
        pairs = 0
        for reps in catalog6.values():
            for p in reps:
                masks = [1 << i for i in range(len(p))] + helpers.brute_indecomposable_masks(p, len(p))
                subsets = _named(p, masks)
                shapes = [p.restrict(s) for s in subsets]
                pairs += len(p) * (len(p) - 1) // 2
                for listed in lists:
                    want = [
                        s
                        for s, shape in zip(subsets, shapes)
                        if not any(len(q) == len(s) and helpers.brute_embed(q, shape) for q in listed)
                    ]
                    assert class_check(p, ClassSpec(allowed=listed)).violations == want
        # no pair's rows are read
        assert 2 not in sizes and pairs > 2000


class TestNoRestrict:
    def test_one_search_per_induced_shape(self, catalog5, monkeypatch):
        # class_check builds no subposet by name, and searches each listed
        # poset at most once per distinct tuple of induced rows in a call
        rng = random.Random(149)
        posets = list(catalog5[5])
        for k in range(40):
            p = helpers.random_poset(rng, 6 + k % 4, (0.2, 0.4, 0.6)[k % 3])
            posets.append(helpers.shuffled_poset(rng, p))
        n_poset = canonical("N", 0)
        spec = ClassSpec(allowed=STOCK() + (n_poset,))
        wants = [_assert_matches_oracle(p) for p in posets]

        def boom(*args):
            raise AssertionError("restrict was called")

        calls = []

        def counted(sub, q):
            calls.append((id(q), sub.above))
            return iso(sub, q)

        iso = classify.is_isomorphic
        monkeypatch.setattr(Poset, "restrict", boom)
        monkeypatch.setattr(ColouredPoset, "restrict", boom)
        monkeypatch.setattr(classify, "is_isomorphic", counted)
        searched = listed_size = 0
        for p, want in zip(posets, wants):
            calls.clear()
            report = class_check(p, spec)
            assert report.violations == [
                s
                for s in want
                if len(s) > 2
                and not (len(s) == 4 and helpers.brute_embed(n_poset, helpers.induced(p, s)))
            ]
            assert len(calls) == len(set(calls))
            searched += len({rows for _, rows in calls})
            listed_size += sum(len(s) in (2, 4) for s in want)
        # shapes repeat: fewer searches than subsets of a listed size
        assert 0 < searched < listed_size / 2


class TestPathologicalPrefix:
    def test_chain_has_none(self):
        report = pathological_prefix_check(canonical("chain", 10), 2)
        assert report.found() == []

    def test_tree_prefix_embeds_itself(self):
        report = pathological_prefix_check(canonical("binary_tree_prefix", 3), 3)
        assert "binary_tree_prefix" in report.found()
        assert check_embedding(
            canonical("binary_tree_prefix", 3),
            canonical("binary_tree_prefix", 3),
            report.tree,
        )

    def test_perp_prefix(self):
        report = pathological_prefix_check(canonical("perp_prefix", 3), 3)
        assert "perp_prefix" in report.found()
        assert "binary_tree_prefix" not in report.found()

    def test_report_text_stable(self):
        a = pathological_prefix_check(canonical("perp_prefix", 3), 2).text()
        b = pathological_prefix_check(canonical("perp_prefix", 3), 2).text()
        assert a == b and a.startswith("prefix_depth 2\n")

    def test_prefix_larger_than_poset_is_not_built(self, monkeypatch):
        # a prefix of 2**depth - 1 points never embeds in a smaller poset,
        # so it is reported absent without being built; below that size the
        # report is the three embeds' own
        fence = canonical("fence", 14)
        stock = [canonical(*a) for a in (("chain", 10), ("N", 0), ("perp_prefix", 3), ("fence", 5))]
        names = ("binary_tree_prefix", "reversed_binary_tree_prefix", "perp_prefix")
        for p in stock + [fence]:
            for depth in range(6):
                want = PrefixReport(depth, *(embed(canonical(name, depth), p) for name in names))
                assert pathological_prefix_check(p, depth).text() == want.text()
        built = []
        make = classify.canonical

        def spy(name, k):
            built.append(name)
            return make(name, k)

        monkeypatch.setattr(classify, "canonical", spy)
        for depth in (5, 40):
            report = pathological_prefix_check(fence, depth)
            assert report.text() == f"prefix_depth {depth}\n" + "".join(f"{n} absent\n" for n in names)
        assert built == []
        with pytest.raises(OutOfRange):
            pathological_prefix_check(fence, -1)
