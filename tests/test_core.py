import itertools
import operator
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from poset_forge import (
    ColouredPoset,
    QuasiOrder,
    canonical,
    check_coloured_embedding,
    check_embedding,
    coloured_embed,
    coloured_isomorphic,
    decomposition_tree,
    embed,
    is_isomorphic,
    make_poset,
    p_sum,
    product_q,
    union_q,
    zeta_tree_sum,
)
from poset_forge import _search, core, dectree
from poset_forge.wqo import bad_pair_search, embeddability_matrix, fence_antichain
from poset_forge.core import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    EmbeddingMap,
    Poset,
    _coloured_allowed,
    _induced_rows,
    p_sum_with_sources,
)
from poset_forge.errors import (
    CycleError,
    DuplicateElement,
    EmptyPart,
    MissingPart,
    NotAChain,
    NotATree,
    PaletteMismatch,
    UnknownElement,
    UnknownName,
)


class TestMakePoset:
    def test_singleton(self):
        p = make_poset(["a"], [])
        assert p.elements == ("a",)
        assert not p.lt_pairs()

    def test_n_poset(self):
        p = make_poset(["0", "1", "2", "3"], [("1", "0"), ("1", "2"), ("3", "2")])
        assert p.lt_pairs() == {("1", "0"), ("1", "2"), ("3", "2")}
        assert p == canonical("N", 0)

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            make_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateElement):
            make_poset(["a", "a"], [])

    def test_duplicate_named_at_first_repeat(self):
        # "a" repeats before "b" does
        with pytest.raises(DuplicateElement, match=r"^duplicate element id 'a'$"):
            make_poset(["a", "b", "a", "b"], [])
        with pytest.raises(DuplicateElement, match=r"^duplicate element id 'b'$"):
            make_poset(["a", "b", "c", "b", "a"], [])

    def test_unknown_pair_member(self):
        with pytest.raises(UnknownElement):
            make_poset(["a"], [("a", "b")])

    def test_closure_is_computed(self):
        p = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.lt("a", "c")

    def test_empty_poset_representable(self):
        assert len(make_poset([], [])) == 0


def _oracle_cases(catalog5):
    """(poset, ids, generated strict order) over catalog5 and seeded random
    posets of 8-16 elements whose generators follow a shuffled order."""
    for k, reps in catalog5.items():
        for (ids, pairs), poset in zip(helpers.iso_class_generators(k), reps):
            yield poset, ids, helpers.brute_lt(ids, pairs)
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(8, 16)
        ids = [f"v{i}" for i in range(n)]
        order = rng.sample(ids, n)
        density = rng.choice([0.05, 0.15, 0.3])
        pairs = [
            (order[i], order[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        yield make_poset(ids, pairs), ids, helpers.brute_lt(ids, pairs)
    yield from _tree_cases()


def _tree_cases():
    """Seeded random rooted trees and forests of 1-40 nodes, each grown
    along one shuffled order and stored in another, then each again with
    one extra pair that gives a non-root node a second, incomparable lower
    cover."""
    rng = random.Random(41)
    for k in range(48):
        n = rng.randint(1, 40)
        ids = [f"t{i}" for i in range(n)]
        grown = rng.sample(ids, n)
        roots = 1 if k % 2 else rng.randint(2, max(2, n))
        pairs = [(rng.choice(grown[:d]), grown[d]) for d in range(min(roots, n), n)]
        stored = rng.sample(ids, n)
        lt = helpers.brute_lt(ids, pairs)
        yield make_poset(stored, pairs), stored, lt
        # a second lower cover a of b, incomparable to b and to b's parent p
        strays = [
            (a, b)
            for p, b in pairs
            for a in ids
            if not {(a, p), (p, a), (a, b), (b, a)} & lt
        ]
        if strays:
            extra = pairs + [rng.choice(strays)]
            yield make_poset(stored, extra), stored, helpers.brute_lt(ids, extra)


class TestRowQueriesAgainstOracle:
    """Every query on the row storage against the DFS-generated order."""

    def test_pair_queries(self, catalog5):
        for poset, ids, lt in _oracle_cases(catalog5):
            assert poset.elements == tuple(ids)
            assert poset.lt_pairs() == lt
            for a in ids:
                for b in ids:
                    if a == b:
                        code = EQUAL
                    elif (a, b) in lt:
                        code = LESS
                    elif (b, a) in lt:
                        code = GREATER
                    else:
                        code = INCOMPARABLE
                    assert poset.relation(a, b) == code
                    assert poset.lt(a, b) == (code == LESS)
                    assert poset.leq(a, b) == (code in (LESS, EQUAL))
                    assert poset.incomparable(a, b) == (code == INCOMPARABLE)

    def test_element_queries(self, catalog5):
        for poset, ids, lt in _oracle_cases(catalog5):
            for a in ids:
                assert poset.up(a) == {b for b in ids if (a, b) in lt}
                assert poset.down(a) == {b for b in ids if (b, a) in lt}
            covers = [
                (a, b)
                for a in ids
                for b in ids
                if (a, b) in lt
                and not any((a, c) in lt and (c, b) in lt for c in ids)
            ]
            assert poset.cover_pairs() == covers
            assert poset.minimal_elements() == [
                b for b in ids if not any((a, b) in lt for a in ids)
            ]

    def test_shape_predicates(self, catalog5):
        seen = set()  # (tree, root count capped at 2) above 5 elements
        for poset, ids, lt in _oracle_cases(catalog5):
            def comparable(a, b):
                return a == b or (a, b) in lt or (b, a) in lt

            assert poset.is_chain() == all(comparable(a, b) for a in ids for b in ids)
            tree = all(
                comparable(b, c)
                for a in ids
                for b in ids
                for c in ids
                if (b, a) in lt and (c, a) in lt
            )
            roots = [b for b in ids if not any((a, b) in lt for a in ids)]
            assert poset.is_tree() == tree
            assert poset.is_rooted_tree() == (tree and len(roots) == 1)
            if len(ids) > 5:
                seen.add((tree, min(len(roots), 2)))
        # rooted trees, forests of two or more roots, and one-root non-trees
        assert {(True, 1), (True, 2), (False, 1)} <= seen

    def test_derived_posets(self, catalog5):
        rng = random.Random(31)
        for poset, ids, lt in _oracle_cases(catalog5):
            rev = poset.reversed()
            assert rev.elements == poset.elements
            assert rev.lt_pairs() == {(b, a) for a, b in lt}
            keep = {e for e in ids if rng.random() < 0.6}
            sub = poset.restrict(keep)
            assert sub.elements == tuple(e for e in ids if e in keep)
            assert sub.lt_pairs() == {(a, b) for a, b in lt if a in keep and b in keep}

    def test_equality_and_hash(self, catalog5):
        rng = random.Random(37)
        for poset, ids, lt in _oracle_cases(catalog5):
            copies = [
                make_poset(ids, rng.sample(sorted(lt), len(lt))),
                poset.reversed().reversed(),
                poset.restrict(ids),
            ]
            for copy in copies:
                assert copy == poset and hash(copy) == hash(poset)
            relabelled = rng.sample(ids, len(ids))
            if relabelled != list(ids):
                assert make_poset(relabelled, lt) != poset


class TestCanonical:
    def test_chain(self):
        p = canonical("chain", 3)
        assert p.elements == ("a", "b", "c")
        assert p.lt("a", "b") and p.lt("b", "c") and p.lt("a", "c")

    def test_antichain(self):
        p = canonical("antichain", 3)
        assert not p.lt_pairs()

    def test_perp_prefix_2(self):
        # rule applied by hand to the three sequences of length < 2:
        # only <0> < <1>
        p = canonical("perp_prefix", 2)
        assert set(p.elements) == {"e", "0", "1"}
        assert p.lt_pairs() == {("0", "1")}

    def test_perp_prefix_rule_exhaustive(self):
        # independent re-derivation of the comparability rule at depth 3
        p = canonical("perp_prefix", 3)
        words = {"e": "", "0": "0", "1": "1", "00": "00", "01": "01", "10": "10", "11": "11"}
        expected = set()
        for a, s in words.items():
            for b, t in words.items():
                for cut in range(min(len(s), len(t)) + 1):
                    if (
                        s[:cut] == t[:cut]
                        and len(s) > cut
                        and len(t) > cut
                        and s[cut] == "0"
                        and t[cut] == "1"
                    ):
                        expected.add((a, b))
        assert p.lt_pairs() == expected

    def test_binary_tree_prefix_2(self):
        p = canonical("binary_tree_prefix", 2)
        assert p.lt_pairs() == {("e", "0"), ("e", "1")}
        assert p.incomparable("0", "1")

    def test_reversed_binary_tree_prefix(self):
        p = canonical("reversed_binary_tree_prefix", 2)
        assert p.lt_pairs() == {("0", "e"), ("1", "e")}

    def test_fence(self):
        p = canonical("fence", 2)
        assert p.elements == ("a", "b", "c", "d")
        assert p.lt_pairs() == {("a", "b"), ("c", "b"), ("c", "d")}

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            canonical("pentagon", 5)

    def test_results_are_shared(self):
        assert canonical("N", 0) is canonical("N", 0)
        assert canonical("chain", 3) != canonical("chain", 4)
        with pytest.raises(ValueError):
            canonical("chain", -1)


def _escape(part):
    return "".join("\\" + c if c in ".\\" else c for c in part)


def _join(*parts):
    return ".".join(_escape(str(p)) for p in parts)


def _split(composite):
    """Components of a composite id: "." separates, "\\" quotes the next
    character."""
    parts, cur, chars = [], [], iter(composite)
    for c in chars:
        if c == "\\":
            cur.append(next(chars))
        elif c == ".":
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    return parts + ["".join(cur)]


class TestPSum:
    def test_two_below_one(self):
        index = canonical("chain", 2)  # a < b
        parts = {"a": canonical("antichain", 2), "b": canonical("chain", 1)}
        total = p_sum(index, parts)
        assert len(total) == 3
        assert total.incomparable("a.a", "a.b")
        assert total.lt("a.a", "b.a") and total.lt("a.b", "b.a")

    def test_identity_sum(self):
        n = canonical("N", 0)
        total = p_sum(canonical("chain", 1), {"a": n})
        assert is_isomorphic(total, n)

    def test_antichain_of_chains_matches_definition(self):
        index = canonical("antichain", 2)
        parts = {"a": canonical("chain", 2), "b": canonical("chain", 2)}
        total = p_sum(index, parts)
        # exhaustive check of the two sum clauses
        for e in total.elements:
            for f in total.elements:
                if e == f:
                    continue
                p, x = e.split(".")
                q, y = f.split(".")
                expected = (p == q and parts[p].lt(x, y)) or index.lt(p, q)
                assert total.lt(e, f) == expected

    def test_missing_part(self):
        with pytest.raises(MissingPart):
            p_sum(canonical("chain", 2), {"a": canonical("chain", 1)})

    def test_composite_ids_with_dots_are_distinct(self):
        # joined unescaped, both composites would read "a.b.c"
        index = make_poset(["a", "a.b"], [])
        parts = {
            "a": make_poset(["b.c"], []),
            "a.b": make_poset(["c"], []),
        }
        total = p_sum(index, parts)
        assert total.elements == ("a.b\\.c", "a\\.b.c")
        assert total.incomparable("a.b\\.c", "a\\.b.c")

    def test_composite_ids_plain_unchanged(self):
        total, sources = p_sum_with_sources(
            make_poset(["x/1", "_s"], [("x/1", "_s")]),
            {"x/1": make_poset(["0", "a_b"], []), "_s": canonical("chain", 1)},
        )
        assert total.elements == ("x/1.0", "x/1.a_b", "_s.a")
        assert sources["x/1.a_b"] == ("x/1", "a_b")

    @settings(max_examples=200, deadline=None)
    @given(helpers.separator_posets(max_size=4), st.data())
    def test_separator_ids_round_trip(self, index, data):
        parts = {
            p: data.draw(helpers.separator_posets(max_size=3))
            for p in index.elements
        }
        total, sources = p_sum_with_sources(index, parts)
        assert total.elements == tuple(
            _join(p, a) for p in index.elements for a in parts[p].elements
        )
        for e in total.elements:
            p, x = sources[e]
            assert _split(e) == [p, x]
            for f in total.elements:
                q, y = sources[f]
                expected = (p == q and parts[p].lt(x, y)) or index.lt(p, q)
                assert total.lt(e, f) == expected

    def test_empty_part(self):
        with pytest.raises(EmptyPart):
            p_sum(canonical("chain", 1), {"a": make_poset([], [])})

    def test_singleton_parts_give_back_index(self, catalog5):
        one = canonical("chain", 1)
        for n, reps in catalog5.items():
            for poset in reps:
                total = p_sum(poset, {e: one for e in poset.elements})
                assert is_isomorphic(total, poset)

    def test_matches_definition_random(self):
        rng = random.Random(41)
        for _ in range(30):
            index = helpers.random_poset(rng, rng.randrange(1, 5), rng.random(), "i")
            parts = {
                p: helpers.random_poset(rng, rng.randrange(1, 4), rng.random(), "a")
                for p in index.elements
            }
            total = p_sum(index, parts)
            assert total.elements == tuple(
                f"{p}.{a}" for p in index.elements for a in parts[p].elements
            )
            for e in total.elements:
                p, x = e.split(".")
                for f in total.elements:
                    q, y = f.split(".")
                    expected = (p == q and parts[p].lt(x, y)) or index.lt(p, q)
                    assert total.lt(e, f) == expected


class TestZetaTreeSum:
    def test_single_point_two_hangings(self):
        z = zeta_tree_sum(
            canonical("chain", 1),
            {("a", 0): canonical("chain", 1), ("a", 1): canonical("chain", 1)},
        )
        assert len(z) == 3
        assert z.lt("a", "a.0.a") and z.lt("a", "a.1.a")
        assert z.incomparable("a.0.a", "a.1.a")

    def test_no_hangings(self):
        z = zeta_tree_sum(canonical("chain", 2), {})
        assert z == canonical("chain", 2)

    def test_hanging_at_bottom(self):
        z = zeta_tree_sum(canonical("chain", 2), {("a", 0): canonical("chain", 1)})
        assert z.lt("a", "b") and z.lt("a", "a.0.a")
        assert z.incomparable("b", "a.0.a")

    def test_raw_chain_id_collision_detected(self):
        # a chain id may still spell a composite id: "a", branch 0, "b"
        zeta = make_poset(["a", "a.0.b"], [("a", "a.0.b")])
        with pytest.raises(DuplicateElement):
            zeta_tree_sum(zeta, {("a", 0): make_poset(["b"], [])})

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.text(helpers.SEPARATOR_ID_ALPHABET, min_size=1, max_size=4),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        st.data(),
    )
    def test_separator_ids_round_trip(self, chain_ids, data):
        zeta = make_poset(chain_ids, list(zip(chain_ids, chain_ids[1:])))
        keys = data.draw(
            st.lists(
                st.tuples(st.sampled_from(chain_ids), st.integers(0, 1)),
                max_size=3,
                unique=True,
            )
        )
        hangings = {
            key: data.draw(
                helpers.separator_posets(max_size=3).filter(lambda t: t.is_tree())
            )
            for key in keys
        }
        origins = sorted(
            (i, str(g), a) for (i, g), t in hangings.items() for a in t.elements
        )
        if set(chain_ids) & {_join(*o) for o in origins}:
            with pytest.raises(DuplicateElement):
                zeta_tree_sum(zeta, hangings)
            return
        z = zeta_tree_sum(zeta, hangings)
        assert len(set(z.elements)) == len(z) == len(chain_ids) + len(origins)
        assert z.elements[: len(chain_ids)] == tuple(chain_ids)
        hung = z.elements[len(chain_ids):]
        assert sorted(tuple(_split(e)) for e in hung) == origins

    def test_matches_definition_random(self):
        rng = random.Random(43)
        for _ in range(30):
            zeta = canonical("chain", rng.randrange(1, 4))
            hangings = {
                (rng.choice(zeta.elements), g): canonical(
                    "binary_tree_prefix", rng.randrange(1, 4)
                )
                for g in range(rng.randrange(0, 4))
            }
            z = zeta_tree_sum(zeta, hangings)
            chain = set(zeta.elements)

            def origin(e):
                if e in chain:
                    return None
                i, g, a = e.split(".")
                return (i, int(g)), a

            for e in z.elements:
                for f in z.elements:
                    oe, of = origin(e), origin(f)
                    if oe is None and of is None:
                        expected = zeta.lt(e, f)
                    elif oe is None:
                        expected = zeta.leq(e, of[0][0])
                    elif of is None:
                        expected = False
                    else:
                        expected = oe[0] == of[0] and hangings[oe[0]].lt(oe[1], of[1])
                    assert z.lt(e, f) == expected

    def test_not_a_chain(self):
        with pytest.raises(NotAChain):
            zeta_tree_sum(canonical("antichain", 2), {})

    def test_not_a_tree(self):
        bowtie = make_poset(
            ["a", "b", "t"], [("a", "t"), ("b", "t")]
        )  # t has two incomparable predecessors
        with pytest.raises(NotATree):
            zeta_tree_sum(canonical("chain", 1), {("a", 0): bowtie})


class TestEmbed:
    def test_ch2_into_n(self):
        witness = embed(canonical("chain", 2), canonical("N", 0))
        assert witness is not None
        assert check_embedding(canonical("chain", 2), canonical("N", 0), witness)

    def test_self_identity(self):
        n = canonical("N", 0)
        witness = embed(n, n)
        assert witness.as_dict() == {e: e for e in n.elements}

    def test_tree_into_chain_absent(self):
        assert embed(canonical("binary_tree_prefix", 2), canonical("chain", 8)) is None

    def test_matches_permutation_scan(self, catalog5):
        posets = [p for n in (1, 2, 3) for p in catalog5[n]]
        for x in posets:
            for y in posets:
                witness = embed(x, y)
                oracle = helpers.brute_embed(x, y)
                assert (witness is None) == (oracle is None)
                if witness is not None:
                    assert witness.as_dict() == oracle

    def test_matches_permutation_scan_random(self):
        rng = random.Random(7)
        cases = [
            (
                helpers.random_poset(rng, rng.randrange(1, 5), prefix="x"),
                helpers.random_poset(rng, rng.randrange(1, 6), prefix="y"),
            )
            for _ in range(60)
        ]
        rng = random.Random(19)
        cases += [
            (
                helpers.random_poset(rng, rng.randrange(1, 6), prefix="x"),
                helpers.random_poset(rng, rng.randrange(1, 8), prefix="y"),
            )
            for _ in range(30)
        ]
        for x, y in cases:
            witness = embed(x, y)
            oracle = helpers.brute_embed(x, y)
            assert (witness is None) == (oracle is None)
            if witness is not None:
                assert witness.as_dict() == oracle

    def test_identity_on_catalog(self, catalog5):
        for n, reps in catalog5.items():
            for poset in reps:
                witness = embed(poset, poset)
                assert witness.as_dict() == {e: e for e in poset.elements}

    def test_identity_on_random_size8(self):
        rng = random.Random(11)
        for _ in range(25):
            p = helpers.random_poset(rng, 8)
            witness = embed(p, p)
            assert witness.as_dict() == {e: e for e in p.elements}
            assert check_embedding(p, p, witness)

    def test_transitive_as_relation(self):
        rng = random.Random(13)
        for _ in range(40):
            x = helpers.random_poset(rng, rng.randrange(1, 5), prefix="x")
            y = helpers.random_poset(rng, rng.randrange(1, 7), prefix="y")
            z = helpers.random_poset(rng, rng.randrange(1, 8), prefix="z")
            if embed(x, y) is not None and embed(y, z) is not None:
                assert embed(x, z) is not None

    def test_witnesses_verify(self):
        rng = random.Random(17)
        for _ in range(50):
            x = helpers.random_poset(rng, rng.randrange(1, 6), prefix="x")
            y = helpers.random_poset(rng, rng.randrange(1, 8), prefix="y")
            witness = embed(x, y)
            if witness is not None:
                assert check_embedding(x, y, witness)


class TestInducedRows:
    """``_induced_rows`` and ``Poset.restrict`` against ``helpers.induced``,
    the order induced on a list of names, built from name pairs."""

    @staticmethod
    def _assert_matches(p, index):
        want = helpers.induced(p, [p.elements[i] for i in index])
        assert _induced_rows([p.above[i] for i in index], index) == want.above

    def test_every_subset_of_catalog5(self, catalog5):
        for posets in catalog5.values():
            for p in posets:
                n = len(p)
                for mask in range(1 << n):
                    index = [i for i in range(n) if mask >> i & 1]
                    self._assert_matches(p, index)
                    names = {p.elements[i] for i in index}
                    want = helpers.induced(p, [e for e in p.elements if e in names])
                    assert p.restrict(names) == want

    def test_random_subsets_and_permutations(self):
        rng = random.Random(53)
        for _ in range(200):
            n = rng.randint(1, 16)
            p = helpers.shuffled_poset(rng, helpers.random_poset(rng, n, rng.random()))
            index = rng.sample(range(n), rng.randint(0, n))
            self._assert_matches(p, index)
            self._assert_matches(p, sorted(index))
            # restrict keeps the carrier's order, whatever order it is given
            want = helpers.induced(p, [p.elements[i] for i in sorted(index)])
            assert p.restrict([p.elements[i] for i in index]) == want

    def test_ascending_list_with_one_lower_index_appended(self):
        # the shape of a layer arity: its kept points, ascending, then the
        # stand-in, which lies below some of them
        rng = random.Random(59)
        checked = 0
        while checked < 200:
            n = rng.randint(3, 16)
            p = helpers.random_poset(rng, n, rng.choice([0.2, 0.4, 0.6]))
            kept = sorted(rng.sample(range(n), rng.randint(2, n - 1)))
            lower = [j for j in range(kept[-1]) if j not in kept]
            if not lower:
                continue
            self._assert_matches(p, kept + [rng.choice(lower)])
            checked += 1

    def test_rows_read_on_points_not_their_own(self):
        # every row of the poset read on a subset, as the index poset reads
        # an arity's rows on its slots
        rng = random.Random(61)
        for _ in range(100):
            n = rng.randint(1, 12)
            p = helpers.random_poset(rng, n, rng.random())
            index = rng.sample(range(n), rng.randint(0, n))
            want = tuple(
                sum(1 << k for k, j in enumerate(index) if p.lt(a, p.elements[j]))
                for a in p.elements
            )
            assert _induced_rows(p.above, index) == want

    def test_restrict_is_linear_in_its_points(self):
        # 4,000 of 4,096 incomparable points: reading each row by a scan of
        # the whole index, as class_check once did, took about a second
        ids = [f"v{i}" for i in range(4096)]
        p = Poset(ids, [0] * 4096)
        names = ids[:2000] + ids[2096:]
        start = time.perf_counter()
        sub = p.restrict(names)
        elapsed = time.perf_counter() - start
        assert sub.elements == tuple(names)
        assert sub.above == (0,) * 4000
        assert elapsed < 0.25


class TestCheckEmbeddingOracle:
    """``check_embedding`` reads the rows; the oracle restates the iff
    condition pair by pair, by relation name."""

    def test_every_injection_between_catalog4_posets(self, catalog5):
        posets = [p for k in (1, 2, 3, 4) for p in catalog5[k]]
        verdicts = set()
        for x in posets:
            for y in posets:
                for targets in itertools.permutations(y.elements, len(x)):
                    emap = EmbeddingMap(tuple(zip(x.elements, targets)))
                    want = helpers.brute_is_embedding(x, y, emap)
                    assert check_embedding(x, y, emap) == want
                    verdicts.add(want)
        assert verdicts == {True, False}

    def test_foreign_and_missing_elements(self, catalog5):
        posets = [p for k in (1, 2, 3, 4) for p in catalog5[k]]
        checked = 0
        for x in posets:
            for y in posets:
                witness = embed(x, y)
                if witness is None:
                    continue
                pairs = witness.mapping
                bad = [
                    pairs[:-1] + ((pairs[-1][0], "zz"),),  # a foreign target
                    pairs[:-1],  # a missing source
                ]
                unused = [b for b in y.elements if b not in witness.as_dict().values()]
                if unused:
                    bad.append(pairs + (("zz", unused[0]),))  # a foreign source
                for mapping in bad:
                    emap = EmbeddingMap(mapping)
                    assert not helpers.brute_is_embedding(x, y, emap)
                    assert not check_embedding(x, y, emap)
                checked += 1
        assert checked > 100


# colours 0 and 1 each at or below the other: a quasi-order, not an order
CYCLIC_PALETTE = QuasiOrder(["0", "1"], [("0", "1"), ("1", "0")])
ALL_PALETTES = helpers.PALETTES + [CYCLIC_PALETTE]


class TestSearchMasks:
    """The allowed lists built from the cached tables equal the pairwise
    construction, so every search tries the same targets in the same order."""

    def test_degree_masks_on_catalog(self, catalog6):
        posets = [p for reps in catalog6.values() for p in reps]
        for x in posets:
            for y in posets:
                assert _search.degree_mask(x, y) == helpers.brute_allowed_masks(x, y)

    def test_derived_posets_build_their_own_tables(self, catalog6):
        for reps in catalog6.values():
            for p in reps:
                _search.degree_mask(p, p)  # fill p's table first
                for q in (
                    p.reversed(),
                    p.restrict(p.elements[1:]),
                    p.restrict(p.elements[::2]),
                ):
                    for x, y in ((q, p), (p, q), (q, q)):
                        want = helpers.brute_allowed_masks(x, y)
                        assert _search.degree_mask(x, y) == want

    def test_colour_masks_random(self):
        rng = random.Random(41)
        for _ in range(200):
            pal = rng.choice(ALL_PALETTES)
            x = helpers.random_coloured(rng, rng.randrange(0, 7), pal, prefix="x")
            y = helpers.random_coloured(rng, rng.randrange(0, 8), pal, prefix="y")
            assert _coloured_allowed(x, y, False) == helpers.brute_allowed_masks(x, y)
            assert _coloured_allowed(x, y, True) == helpers.brute_allowed_masks(
                x, y, colour_ok=operator.eq
            )
            # up[c]: the elements whose colour is at or above c, pair by pair
            up = [
                sum(1 << i for i, e in enumerate(y.elements) if pal.leq(c, y.colour(e)))
                for c in pal.colours
            ]
            assert y.colour_masks()[2] == up
            # x's colour table is filled now; its restriction builds its own
            sub = x.restrict(x.elements[::2])
            want = helpers.brute_allowed_masks(sub, y)
            assert _coloured_allowed(sub, y, False) == want


class TestColouredEmbed:
    def test_singleton_same_colour(self):
        pal = QuasiOrder(["q"], [])
        x = ColouredPoset(canonical("chain", 1), {"a": "q"}, pal)
        witness = coloured_embed(x, x)
        assert witness.as_dict() == {"a": "a"}

    def test_fence_colouring_absent(self):
        pal = QuasiOrder(["0", "1"], [])
        f1 = canonical("fence", 1)
        f2 = canonical("fence", 2)
        x = ColouredPoset(f1, {"a": "1", "b": "0", "c": "1"}, pal)
        y = ColouredPoset(f2, {"a": "1", "b": "0", "c": "0", "d": "1"}, pal)
        assert coloured_embed(x, y) is None

    def test_colour_increase_allowed(self):
        pal = QuasiOrder(["0", "1"], [("0", "1")])
        x = ColouredPoset(canonical("chain", 1), {"a": "0"}, pal)
        y = ColouredPoset(canonical("chain", 1), {"a": "1"}, pal)
        assert coloured_embed(x, y) is not None
        assert coloured_embed(y, x) is None

    def test_fence_members_found_into_themselves(self):
        # the matrix takes its diagonal from reflexivity; the search still
        # finds each member in itself, and the identity, being the
        # lexicographically least injection, is the first witness
        for m in fence_antichain(10).members:
            witness = coloured_embed(m, m)
            assert witness.mapping == tuple((e, e) for e in m.elements)

    def test_palette_mismatch(self):
        x = ColouredPoset.uniform(canonical("chain", 1))
        y = ColouredPoset(
            canonical("chain", 1), {"a": "q"}, QuasiOrder(["q"], [])
        )
        with pytest.raises(PaletteMismatch):
            coloured_embed(x, y)

    def test_matches_coloured_permutation_scan(self):
        for pal in ALL_PALETTES:
            rng = random.Random(23)
            found = 0
            for _ in range(80):
                x = helpers.random_coloured(rng, rng.randrange(1, 6), pal, prefix="x")
                y = helpers.random_coloured(rng, rng.randrange(1, 8), pal, prefix="y")
                witness = coloured_embed(x, y)
                oracle = helpers.brute_coloured_embed(x, y)
                assert (witness is None) == (oracle is None)
                if witness is not None:
                    found += 1
                    assert witness.mapping == tuple(oracle.items())
            assert 0 < found < 80

    def test_isomorphic_matches_permutation_scan(self):
        for pal in ALL_PALETTES:
            rng = random.Random(29)
            outcomes = []
            for _ in range(60):
                x = helpers.random_coloured(rng, rng.randrange(1, 7), pal, prefix="x")
                # a relabelled copy, then maybe one element recoloured or one
                # pair added
                ids = list(x.elements)
                rng.shuffle(ids)
                rename = {a: f"y{k}" for k, a in enumerate(ids)}
                pairs = [(rename[a], rename[b]) for a, b in x.poset.lt_pairs()]
                colouring = {rename[a]: x.colour(a) for a in x.elements}
                change = rng.randrange(3)
                if change == 1:
                    colouring[rename[ids[0]]] = rng.choice(pal.colours)
                elif change == 2 and len(ids) > 1 and x.poset.incomparable(*ids[:2]):
                    pairs.append((rename[ids[0]], rename[ids[1]]))
                names = [rename[a] for a in ids]
                y = ColouredPoset(make_poset(names, pairs), colouring, pal)
                oracle = len(x) == len(y) and helpers.brute_coloured_embed(
                    x, y, colour_ok=operator.eq
                ) is not None
                assert coloured_isomorphic(x, y) == oracle
                outcomes.append(oracle)
            assert True in outcomes and False in outcomes

    def test_one_colour_agrees_with_embed(self, catalog5):
        posets = [p for n in (1, 2, 3, 4) for p in catalog5[n]]
        for x in posets:
            for y in posets:
                cw = coloured_embed(
                    ColouredPoset.uniform(x), ColouredPoset.uniform(y)
                )
                w = embed(x, y)
                assert (cw is None) == (w is None)

    def test_one_colour_agrees_with_embed_random6(self):
        rng = random.Random(23)
        for _ in range(40):
            x = helpers.random_poset(rng, rng.randrange(1, 7), prefix="x")
            y = helpers.random_poset(rng, rng.randrange(1, 7), prefix="y")
            cw = coloured_embed(ColouredPoset.uniform(x), ColouredPoset.uniform(y))
            assert (cw is None) == (embed(x, y) is None)
            if cw is not None:
                assert check_coloured_embedding(
                    ColouredPoset.uniform(x), ColouredPoset.uniform(y), cw
                )


def _counted(narrow=None):
    """A narrow that passes ``narrow``'s mask (or the mask itself) through,
    and the list whose length counts the search nodes that called it."""
    nodes = []

    def count(i, assign, c):
        nodes.append(i)
        return c if narrow is None else narrow(i, assign, c)

    return count, nodes


def _forward_against_backward(cases):
    """Per case ``(allowed, rows, backward rows, narrow)``: the forward
    search returns the backward oracle's assignment and reaches no more
    nodes.  Returns the two node totals."""
    forward_total = backward_total = 0
    for allowed, rows, backward_rows, narrow in cases:
        count, forward = _counted(narrow)
        got = _search.backtrack(allowed, rows, count)
        count, backward = _counted(narrow)
        assert got == helpers.backward_backtrack(allowed, backward_rows, count)
        assert len(forward) <= len(backward)
        forward_total += len(forward)
        backward_total += len(backward)
    return forward_total, backward_total


def _code_cases(searches):
    """Per ``(allowed, x, y)``, a case with the forward and the backward
    relation-code rows of x into y."""
    for allowed, x, y in searches:
        yield allowed, _search.code_rows(x, y), helpers.backward_code_rows(x, y), None


def _planted_and_random(rng, count):
    """count pairs of 8-12 elements into 14-20, every other one planted (a
    shuffled induced suborder of the target, so always found)."""
    for k in range(count):
        n, density = rng.randint(14, 20), rng.choice((0.25, 0.35, 0.45))
        y = helpers.random_poset(rng, n, density, "y")
        n, density = rng.randint(8, 12), rng.choice((0.25, 0.35))
        if k % 2:
            x = helpers.random_poset(rng, n, density, "x")
        else:
            x = helpers.shuffled_poset(rng, y.restrict(rng.sample(y.elements, n)))
        yield x, y


class TestForwardChecking:
    """The forward-checking kernel against the former backward one: the
    same first witness on every pair, never more search nodes, and fewer in
    total."""

    def test_catalog5_pairs(self, catalog5):
        posets = [p for reps in catalog5.values() for p in reps]
        pairs = [(x, y) for x in posets for y in posets]
        cases = _code_cases((_search.degree_mask(x, y), x, y) for x, y in pairs)
        forward, backward = _forward_against_backward(cases)
        assert forward < backward

    def test_planted_and_random_pairs(self):
        # sizes the brute scans cannot reach
        pairs = list(_planted_and_random(random.Random(193), 300))
        cases = _code_cases((_search.degree_mask(x, y), x, y) for x, y in pairs)
        forward, backward = _forward_against_backward(cases)
        assert forward < backward

    def test_coloured_pairs_every_palette(self):
        rng = random.Random(197)
        pairs = []
        for k in range(240):
            palette = helpers.PALETTES[k % len(helpers.PALETTES)]
            y = helpers.random_coloured(rng, rng.randint(10, 14), palette, prefix="y")
            if k % 2:
                x = helpers.random_coloured(rng, rng.randint(5, 8), palette, prefix="x")
            else:
                x = y.restrict(rng.sample(y.elements, rng.randint(5, 8)))
            pairs.append((x, y))
        cases = _code_cases(
            (_coloured_allowed(x, y, strict), x.poset, y.poset)
            for strict in (False, True)
            for x, y in pairs
        )
        forward, backward = _forward_against_backward(cases)
        assert forward < backward

    def test_tree_conditions_against_parent_rows(self, catalog5):
        trees = [
            decomposition_tree(ColouredPoset.uniform(p))
            for reps in catalog5.values()
            for p in reps
        ]
        trees += [tree for _, tree in helpers.random_raw_trees(random.Random(199), 30)]

        def cases():
            for s in trees:
                # the former order rows: one per node, against its parent
                parent = [row.bit_length() - 1 for row in s.poset.below]
                for t in trees:
                    if len(s.poset) > len(t.poset):
                        continue
                    allowed, order, narrow = dectree._conditions(s, t)
                    above = t.poset.above
                    backward_rows = [((m, above),) if m >= 0 else () for m in parent]
                    yield allowed, order, backward_rows, narrow

        forward, backward = _forward_against_backward(cases())
        assert forward < backward


def _counted_rows(row):
    """A row builder that passes ``row``'s rows through, and the list of the
    sources it was called for, in call order."""
    built = []

    def counted(i):
        built.append(i)
        return row(i)

    return counted, built


class TestRowBuilder:
    """The kernel builds a source's row at most once per search: source 0's
    before the loop, a later one's the first time it is reached with a
    candidate, and no other."""

    @staticmethod
    def _check(pairs):
        for x, y in pairs:
            allowed = _search.degree_mask(x, y)
            first = {0} if allowed and all(allowed) else set()
            # code rows are strict and a placement that empties a mask is
            # rejected, so every reached source has a candidate; dropping
            # each reached source's lowest candidate leaves some with none
            for drop in (False, True):
                row, built = _counted_rows(_search.code_rows(x, y))
                kept = []

                def narrow(i, assign, c):
                    if drop:
                        c &= c - 1
                    if c:
                        kept.append(i)
                    return c

                _search.backtrack(allowed, row, narrow)
                assert len(built) == len(set(built))
                assert set(built) == first | set(kept)

    def test_catalog5_pairs(self, catalog5):
        posets = [p for reps in catalog5.values() for p in reps]
        self._check((x, y) for x in posets for y in posets)

    def test_planted_and_random_pairs(self):
        # the same seeded pairs as TestForwardChecking
        self._check(_planted_and_random(random.Random(193), 300))

    @staticmethod
    def _counted_code_rows(monkeypatch):
        """Wrap ``_search.code_rows``, the one builder of the rows of
        every relation-exact search, and return the list of (source size,
        sources built) per search."""
        code_rows = _search.code_rows
        searches = []

        def counted_code_rows(x, y):
            row, built = _counted_rows(code_rows(x, y))
            searches.append((len(x), built))
            return row

        monkeypatch.setattr(_search, "code_rows", counted_code_rows)
        return searches

    def test_fence_matrix_builds_fewer_rows_than_sources(self, monkeypatch):
        searches = self._counted_code_rows(monkeypatch)
        fam = fence_antichain(10)
        matrix = embeddability_matrix(fam)
        # an antichain: each member embeds only into itself
        assert matrix == [[a == b for b in range(10)] for a in range(10)]
        # one search per off-diagonal pair with the source no larger than
        # the target; the diagonal is true by reflexivity, unsearched
        assert len(searches) == 45
        for _, built in searches:
            assert len(built) == len(set(built))
        sources = sum(n for n, _ in searches)
        assert sources == 300
        # fewer rows even than the sources of the searches that build any,
        # so that not all of a reached search's rows are built up front
        rows = sum(len(built) for _, built in searches)
        assert rows == 120
        assert rows < sum(n for n, built in searches if built)

    def test_fence_bad_pair_search_builds_through_code_rows(self, monkeypatch):
        searches = self._counted_code_rows(monkeypatch)
        fam = fence_antichain(10)
        # the members grow, so the first pair is searched, and it is bad
        assert bad_pair_search(fam) == (0, 1)
        # one search, through code_rows; a source of it has no allowed
        # target, so the kernel refuses it before building any row
        assert searches == [(4, [])]


class TestConstructorsProduceStrictOrders:
    def test_sums_and_evaluations(self):
        rng = random.Random(271)
        from poset_forge.composition import CompositionSequence, h_eta

        for _ in range(20):
            index = helpers.random_poset(rng, rng.randrange(1, 5), prefix="i")
            parts = {
                e: helpers.random_poset(rng, rng.randrange(1, 4), prefix=f"p{k}")
                for k, e in enumerate(index.elements)
            }
            helpers.assert_valid_strict_order(p_sum(index, parts))
        for _ in range(20):
            k = rng.randrange(1, 4)
            zeta = canonical("chain", k)
            hangings = {}
            for e in zeta.elements:
                for g in range(rng.randrange(0, 3)):
                    hangings[(e, g)] = canonical(
                        "binary_tree_prefix", rng.randrange(1, 3)
                    )
            helpers.assert_valid_strict_order(zeta_tree_sum(zeta, hangings))
        for _ in range(20):
            entries = []
            for _ in range(rng.randrange(1, 4)):
                arity = helpers.random_poset(rng, rng.randrange(1, 4), prefix="a")
                entries.append((arity, arity.elements[rng.randrange(len(arity))]))
            helpers.assert_valid_strict_order(
                h_eta(CompositionSequence(tuple(entries)))
            )

    def test_canonicals(self):
        for name, k in [
            ("chain", 4),
            ("antichain", 4),
            ("N", 0),
            ("fence", 4),
            ("binary_tree_prefix", 4),
            ("reversed_binary_tree_prefix", 3),
            ("perp_prefix", 4),
        ]:
            helpers.assert_valid_strict_order(canonical(name, k))


def _small_quasi(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    colours = [f"c{i}" for i in range(n)]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(colours), st.sampled_from(colours)),
            max_size=4,
        )
    )
    return QuasiOrder(colours, pairs)


small_quasi = st.composite(_small_quasi)()


class TestQuasiOps:
    def test_union_singletons(self):
        q = union_q(QuasiOrder(["p"], []), QuasiOrder(["q"], []))
        assert set(q.colours) == {"p", "q"}
        assert not q.leq("p", "q") and not q.leq("q", "p")

    def test_product_of_two_chains(self):
        two = QuasiOrder(["0", "1"], [("0", "1")])
        prod = product_q(two, two)
        assert len(prod) == 4
        assert prod.leq("(0,0)", "(1,1)")
        assert not prod.leq("(1,0)", "(0,1)")
        assert not prod.leq("(0,1)", "(1,0)")

    def test_product_names_commas_apart(self):
        # ("a,b", "c") and ("a", "b,c") both read (a,b,c) unescaped
        prod = product_q(QuasiOrder(["a,b", "a"], []), QuasiOrder(["c", "b,c"], []))
        assert prod.colours == ("(a\\,b,c)", "(a\\,b,b\\,c)", "(a,c)", "(a,b\\,c)")
        assert prod.leq("(a\\,b,c)", "(a\\,b,c)")
        assert not prod.leq("(a\\,b,c)", "(a,b\\,c)")
        # a backslash is escaped too: with commas alone escaped, ("x\\",
        # "y,z") and ("x,y\\", "z") would both read (x\\,y\\,z)
        prod = product_q(QuasiOrder(["x\\", "x,y\\"], []), QuasiOrder(["y,z", "z"], []))
        assert len(set(prod.colours)) == 4

    def test_union_with_empty(self):
        q = QuasiOrder(["x", "y"], [("x", "y")])
        assert union_q(q, QuasiOrder([], [])) == q

    @given(small_quasi, small_quasi)
    @settings(max_examples=60, deadline=None)
    def test_union_keeps_sides_and_separates(self, q0, q1):
        u = union_q(q0, q1)
        assert len(u) == len(q0) + len(q1)
        left = u.colours[: len(q0)]
        right = u.colours[len(q0):]
        for a, b in itertools.product(left, left):
            assert u.leq(a, b) == q0.leq(a, b)
        for a, b in itertools.product(left, right):
            assert not u.leq(a, b) and not u.leq(b, a)

    @given(small_quasi, small_quasi)
    @settings(max_examples=60, deadline=None)
    def test_product_is_componentwise(self, q0, q1):
        prod = product_q(q0, q1)
        for a0, b0 in itertools.product(q0.colours, q1.colours):
            for a1, b1 in itertools.product(q0.colours, q1.colours):
                assert prod.leq(f"({a0},{b0})", f"({a1},{b1})") == (
                    q0.leq(a0, a1) and q1.leq(b0, b1)
                )

    @given(small_quasi)
    @settings(max_examples=40, deadline=None)
    def test_closure_properties(self, q):
        for a in q.colours:
            assert q.leq(a, a)
        for a in q.colours:
            for b in q.colours:
                for c in q.colours:
                    if q.leq(a, b) and q.leq(b, c):
                        assert q.leq(a, c)
