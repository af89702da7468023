import itertools
import random

import pytest

import helpers
from poset_forge import (
    canonical,
    enumerate_intervals,
    is_indecomposable,
    is_interval,
    make_poset,
    maximal_interval_chain,
    quotient,
    ssr,
)
from poset_forge.composition import maximal_decomposition
from poset_forge import interval
from poset_forge.core import ColouredPoset, _bits, p_sum_with_sources
from poset_forge.interval import _mask_to_set, _parts, _spine, _split
from poset_forge.errors import (
    EmptyPoset,
    EmptySet,
    NotAnInterval,
    Overlap,
    TooLarge,
    UnknownElement,
)


class TestSSR:
    def test_in_n(self):
        n = canonical("N", 0)
        assert ssr("1", "0", "2", n)  # 1 below both
        assert not ssr("3", "0", "2", n)  # 3 incomparable to 0, below 2

    def test_antichain_triples(self):
        ac = canonical("antichain", 3)
        for p, a, b in itertools.permutations(ac.elements, 3):
            assert ssr(p, a, b, ac)

    def test_distinctness_required(self):
        with pytest.raises(ValueError):
            ssr("a", "a", "b", canonical("chain", 2))

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            ssr("z", "a", "b", canonical("chain", 3))

    def test_agrees_with_brute(self):
        rng = random.Random(3)
        for _ in range(20):
            p = helpers.random_poset(rng, 5)
            for t in itertools.permutations(p.elements, 3):
                assert ssr(*t, p) == helpers.brute_ssr(p, *t)


class TestIsInterval:
    def test_chain_prefix(self):
        ch3 = canonical("chain", 3)
        assert is_interval(ch3, {"a", "b"})
        assert not is_interval(ch3, {"a", "c"})

    def test_n_bottom_pair(self):
        assert not is_interval(canonical("N", 0), {"0", "2"})

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            is_interval(canonical("chain", 2), set())

    def test_unknown_rejected(self):
        with pytest.raises(UnknownElement, match=r"unknown elements \['z'\]"):
            is_interval(canonical("chain", 2), {"a", "z"})

    def test_matches_brute_on_every_subset_catalog6(self, catalog6):
        for reps in catalog6.values():
            for p in reps:
                intervals = set(helpers.brute_intervals(p))
                for r in range(1, len(p) + 1):
                    for sub in itertools.combinations(p.elements, r):
                        assert is_interval(p, sub) == (frozenset(sub) in intervals)


class TestEnumerateIntervals:
    def test_chain3(self):
        got = set(enumerate_intervals(canonical("chain", 3)))
        assert got == {
            frozenset(s)
            for s in ({"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "c"}, {"a", "b", "c"})
        }

    def test_n_only_trivial(self):
        n = canonical("N", 0)
        got = set(enumerate_intervals(n))
        assert got == {frozenset([e]) for e in n.elements} | {frozenset(n.elements)}

    def test_antichain2(self):
        got = set(enumerate_intervals(canonical("antichain", 2)))
        assert got == {frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})}

    def test_matches_brute_on_catalog(self, catalog5):
        # as lists in canonical order, so a mask listed twice shows; the
        # random and substitution posets have wide parallel and linear nodes
        rng = random.Random(233)
        posets = [make_poset([], []), make_poset(["a"], [])]
        posets += [p for reps in catalog5.values() for p in reps]
        for _ in range(40):
            p = helpers.random_poset(rng, rng.randint(7, 10), rng.choice((0.1, 0.3, 0.6)))
            posets.append(helpers.shuffled_poset(rng, p))
            posets.append(helpers.substitution_poset(rng, rng.randint(5, 10)))
        for p in posets:
            assert enumerate_intervals(p) == helpers.brute_intervals(p)
        assert enumerate_intervals(make_poset([], [])) == []

    def test_size_bound(self):
        with pytest.raises(TooLarge):
            enumerate_intervals(canonical("antichain", 17))
        assert enumerate_intervals(canonical("antichain", 3), bound=3)
        with pytest.raises(TooLarge):
            enumerate_intervals(canonical("antichain", 4), bound=3)

    def test_canonical_order_is_size_then_index_tuple(self):
        # random mask sets of 1-16 points, in random order, against the
        # (size, ascending index tuple) key written out
        rng = random.Random(229)
        for _ in range(3000):
            n = rng.randint(1, 16)
            carrier = canonical("antichain", n)
            masks = rng.sample(range(1, 1 << n), min(rng.randint(1, 40), (1 << n) - 1))
            want = sorted(masks, key=lambda m: (m.bit_count(), tuple(_bits(m))))
            got = interval._canonical_sets(carrier, masks)
            assert got == [_mask_to_set(carrier, m) for m in want]


class TestIndecomposable:
    def test_examples(self):
        assert is_indecomposable(canonical("N", 0))
        assert not is_indecomposable(canonical("chain", 3))
        assert is_indecomposable(canonical("chain", 2))

    def test_empty_rejected(self):
        with pytest.raises(EmptyPoset):
            is_indecomposable(make_poset([], []))

    def test_agrees_with_brute(self, catalog6):
        # and on random prime orders, and on substitution posets, whose root
        # is prime with a child of two or more points
        rng = random.Random(239)
        posets = [p for reps in catalog6.values() for p in reps]
        for _ in range(60):
            posets.append(helpers.shuffled_poset(rng, helpers.random_prime_order(rng, rng.randint(4, 9))))
            posets.append(helpers.substitution_poset(rng, rng.randint(5, 10)))
        seen = [0, 0]
        for p in posets:
            want = helpers.brute_indecomposable(p)
            assert is_indecomposable(p) == want
            seen[want] += 1
        assert min(seen) > 60

    def test_agrees_with_rows_oracle_size7(self, catalog7):
        # and with the n(n - 1)/2 pair closures of the former test
        full = (1 << 7) - 1
        for p in catalog7:
            want = helpers.brute_indecomposable_mask(p, full)
            assert is_indecomposable(p) == want
            assert helpers.pair_closure_indecomposable(p, full) == want

    def test_agrees_with_pair_closures_random_arities(self):
        # the layer arities of random decompositions, all indecomposable,
        # and random posets, mostly not
        rng = random.Random(139)
        seen = [0, 0]
        for _ in range(150):
            x = helpers.random_coloured(rng, rng.randint(2, 14), p=rng.choice((0.1, 0.3, 0.6)))
            seq, _, _ = maximal_decomposition(x, rng.choice(x.elements))
            posets = [arity for arity, _ in seq.entries]
            posets.append(helpers.shuffled_poset(rng, helpers.random_poset(rng, rng.randint(1, 9))))
            for p in posets:
                want = helpers.pair_closure_indecomposable(p, (1 << len(p)) - 1)
                assert is_indecomposable(p) == want
                seen[want] += 1
        assert all(seen)


def _smallest_interval_holding(intervals, members):
    out = None
    for iv in intervals:
        if members <= iv and (out is None or len(iv) < len(out)):
            out = iv
    return out


class TestSplit:
    def test_matches_brute_every_mask_and_point_catalog5(self, catalog5):
        # the exact set of outside points that relate differently to two
        # points of the mask, from every point of it
        for reps in catalog5.values():
            for p in reps:
                full = (1 << len(p)) - 1
                for mask in range(1, full + 1):
                    members = _mask_to_set(p, mask)
                    want = {
                        q
                        for q in p.elements
                        if q not in members
                        and len({helpers.rel_name(p, q, x) for x in members}) > 1
                    }
                    for a in members:
                        got = _split(p, p.index[a], mask) & ~mask
                        assert _mask_to_set(p, got) == want


class TestClose:
    def test_matches_brute_on_every_subset_catalog5(self, catalog5):
        # intervals that meet are closed under intersection, so the
        # closure is the one smallest interval holding the subset
        for reps in catalog5.values():
            for p in reps:
                intervals = helpers.brute_intervals(p)
                full = (1 << len(p)) - 1
                for mask in range(1, full + 1):
                    members = _mask_to_set(p, mask)
                    want = _smallest_interval_holding(intervals, members)
                    assert _mask_to_set(p, helpers.close(p, mask, full)) == want

    def test_inside_a_mask_random(self):
        rng = random.Random(149)
        for _ in range(100):
            p = helpers.random_poset(rng, rng.randint(2, 12), rng.choice((0.15, 0.35)))
            within = rng.randrange(1, 1 << len(p))
            sub = p.restrict(_mask_to_set(p, within))
            members = rng.randrange(1, 1 << len(sub))
            names = _mask_to_set(sub, members)
            mask = sum(1 << p.index[e] for e in names)
            want = _smallest_interval_holding(helpers.brute_intervals(sub), names)
            assert _mask_to_set(p, helpers.close(p, mask, within)) == want


def _assert_parts_match_brute(p, within, anchor, intervals=None):
    sub = p.restrict(_mask_to_set(p, within))
    got = _parts(p, p.index[anchor], within)
    assert sum(m.bit_count() for m in got) == within.bit_count() - 1
    want = helpers.brute_parts(sub, anchor, intervals)
    assert {_mask_to_set(p, m) for m in got} == want


class TestParts:
    # P(M, v): the maximal intervals of M that avoid v, which partition
    # M minus v
    def test_examples(self):
        full = 0b111
        antichain = canonical("antichain", 3)
        assert sorted(_parts(antichain, 0, full)) == [0b110]
        chain = canonical("chain", 3)  # a < b < c
        assert sorted(_parts(chain, 0, full)) == [0b110]
        assert sorted(_parts(chain, 1, full)) == [0b001, 0b100]
        assert _parts(chain, 2, 0b100) == []

    def test_matches_brute_every_anchor_catalog6(self, catalog6):
        for reps in catalog6.values():
            for p in reps:
                intervals = helpers.brute_intervals(p)
                full = (1 << len(p)) - 1
                for anchor in p.elements:
                    _assert_parts_match_brute(p, full, anchor, intervals)

    def test_matches_brute_random_shuffled(self):
        rng = random.Random(151)
        for _ in range(200):
            n = rng.randint(8, 13)
            p = helpers.shuffled_poset(rng, helpers.random_poset(rng, n, rng.choice((0.15, 0.35))))
            intervals = helpers.brute_intervals(p)
            full = (1 << n) - 1
            for anchor in p.elements:
                _assert_parts_match_brute(p, full, anchor, intervals)
            # inside a mask: the order induced on it, not on p
            anchor = rng.choice(p.elements)
            within = rng.randrange(1 << n) | 1 << p.index[anchor]
            _assert_parts_match_brute(p, within, anchor)


class TestQuotient:
    def test_chain_collapse(self):
        q, rep = quotient(canonical("chain", 3), [{"a", "b"}])
        assert q == canonical("chain", 3).restrict({"a", "c"})
        assert rep == {"a": "a", "b": "a", "c": "c"}

    def test_empty_family(self):
        n = canonical("N", 0)
        q, rep = quotient(n, [])
        assert q == n and rep == {e: e for e in n.elements}

    def test_fence_pair_not_interval(self):
        with pytest.raises(NotAnInterval):
            quotient(canonical("fence", 2), [{"a", "b"}])

    def test_overlap(self):
        with pytest.raises(Overlap):
            quotient(canonical("chain", 3), [{"a", "b"}, {"b", "c"}])


def _assert_spine_matches_greedy(p, anchor, within, spine=False):
    # the walk down the strong modules gives the library's former greedy
    # chain, the children of each step partition its layer, and the last
    # member, the anchor alone, adds none
    got = _spine(p, anchor, within)
    masks = [m for m, _ in got]
    assert masks == helpers.greedy_chain_masks(p, anchor, within)
    assert got[-1] == (1 << anchor, [])
    for (m, children), rest in zip(got, masks[1:]):
        layer = 0
        for c in children:
            assert c and not c & layer
            layer |= c
        assert layer == m & ~rest
    return got if spine else masks


class TestMaximalIntervalChain:
    def test_chain3_anchor_a(self):
        chain = maximal_interval_chain(canonical("chain", 3), "a")
        assert list(chain) == [
            frozenset({"a", "b", "c"}),
            frozenset({"a", "b"}),
            frozenset({"a"}),
        ]

    def test_n_anchor_0(self):
        chain = maximal_interval_chain(canonical("N", 0), "0")
        assert list(chain) == [frozenset("0123"), frozenset("0")]

    def test_singleton(self):
        chain = maximal_interval_chain(canonical("chain", 1))
        assert list(chain) == [frozenset({"a"})]

    def test_default_anchor_is_first(self):
        ch = canonical("chain", 3)
        assert maximal_interval_chain(ch).members == maximal_interval_chain(ch, "a").members

    def test_unknown_anchor(self):
        with pytest.raises(UnknownElement):
            maximal_interval_chain(canonical("chain", 2), "z")

    def test_maximality(self, catalog5):
        # every interval is already in the chain or incomparable to a member
        for n, reps in catalog5.items():
            for p in reps:
                chain = set(maximal_interval_chain(p).members)
                for iv in enumerate_intervals(p):
                    if iv in chain:
                        continue
                    assert any(not (iv <= c or c <= iv) for c in chain)

    def test_matches_brute_chain_size7_every_anchor(self, catalog7):
        for p in catalog7:
            intervals = helpers.brute_intervals(p)
            for anchor in p.elements:
                want = helpers.brute_interval_chain(p, anchor, intervals)
                assert maximal_interval_chain(p, anchor).members == want
                masks = _assert_spine_matches_greedy(p, p.index[anchor], (1 << len(p)) - 1)
                assert tuple(_mask_to_set(p, m) for m in masks) == want

    def test_matches_brute_chain_random_shuffled(self):
        rng = random.Random(113)
        for _ in range(200):
            n = rng.randint(8, 13)
            p = helpers.shuffled_poset(rng, helpers.random_poset(rng, n, rng.choice((0.15, 0.35))))
            anchor = rng.choice(p.elements)
            want = helpers.brute_interval_chain(p, anchor)
            assert maximal_interval_chain(p, anchor).members == want

    def test_matches_greedy_chain_random_shuffled_every_anchor(self):
        # and inside each strong module the walk passes, as the
        # decomposition reads it for a block
        rng = random.Random(173)
        for _ in range(300):
            n = rng.randint(8, 16)
            p = helpers.shuffled_poset(rng, helpers.random_poset(rng, n, rng.choice((0.15, 0.35))))
            full = (1 << n) - 1
            for anchor in range(n):
                for _, children in _assert_spine_matches_greedy(p, anchor, full, spine=True):
                    for block in children:
                        if block & block - 1:
                            low = (block & -block).bit_length() - 1
                            _assert_spine_matches_greedy(p, low, block)

    def test_bound(self, monkeypatch):
        with pytest.raises(TooLarge):
            maximal_interval_chain(canonical("antichain", 17))
        assert maximal_interval_chain(canonical("antichain", 4), bound=4)
        with pytest.raises(TooLarge):
            maximal_interval_chain(canonical("antichain", 4), bound=3)
        monkeypatch.setenv("POSET_FORGE_BOUND", "3")
        with pytest.raises(TooLarge):
            maximal_interval_chain(canonical("antichain", 4))


class TestChainLemmas:
    def test_union_intersection_of_chains(self, catalog5):
        # brute force over all nested chains drawn from the interval family
        for n, reps in catalog5.items():
            for p in reps:
                intervals = enumerate_intervals(p)
                for a, b in itertools.combinations(intervals, 2):
                    if a < b or b < a:
                        assert is_interval(p, a | b)
                        assert is_interval(p, a & b)

    def test_overlapping_union_is_interval(self, catalog5):
        for n, reps in catalog5.items():
            for p in reps:
                intervals = enumerate_intervals(p)
                for a, b in itertools.combinations(intervals, 2):
                    if a & b:
                        assert is_interval(p, a | b)


class TestIntervalClassification:
    def test_exhaustive_to_size6(self, catalog6):
        # Every interval that meets all layers between its lowest and
        # highest is a tail of the chain, or a full layer range plus an
        # interval of the boundary layer.  Intervals may skip a layer
        # outright (two antichain layers stacked over a third allow it);
        # those are exempt, and exactly those.
        for n, reps in catalog6.items():
            for p in reps:
                seq, args, chain = maximal_decomposition(ColouredPoset.uniform(p))
                tails = list(chain.members)  # tails[j] = union of layers >= j
                m = len(tails)
                layers = [
                    tails[j] - (tails[j + 1] if j + 1 < m else frozenset())
                    for j in range(m)
                ]
                layer_ivs = []
                for layer in layers:
                    sub = p.restrict(layer)
                    layer_ivs.append(set(enumerate_intervals(sub)) | {frozenset()})
                for iv in enumerate_intervals(p):
                    if iv in set(tails):
                        continue
                    met = [j for j in range(m) if iv & layers[j]]
                    if any(
                        not (iv & layers[j]) for j in range(met[0], met[-1] + 1)
                    ):
                        continue
                    found = False
                    for j0 in range(m):
                        for j1 in range(j0, m):
                            base = tails[j0] - tails[j1]
                            if any(iv == base | x for x in layer_ivs[j1]):
                                found = True
                                break
                        if found:
                            break
                    assert found, (p, sorted(iv))


def _prime_children(p, anchor, monkeypatch):
    """Walk ``_spine`` from the whole of p down to anchor, and check at each
    prime node that the children it records are the closure-built ones
    (``helpers.closure_children``), in the same order of the parts, and
    that the first part is the first of them.  Returns, per prime node,
    the parts as ``_spine`` saw them."""
    assert not hasattr(interval, "_close")
    parts = interval._parts
    nodes = []

    def recorded(carrier, v, module):
        got = parts(carrier, v, module)
        nodes.append((module, got))
        return got

    monkeypatch.setattr(interval, "_parts", recorded)
    spine = dict(_spine(p, anchor, (1 << len(p)) - 1))
    monkeypatch.setattr(interval, "_parts", parts)
    for module, got in nodes:
        want = helpers.closure_children(p, anchor, module, got)
        assert spine[module] == want
        assert want[0] == got[0]
    return [got for _, got in nodes]


def _substituted_primes():
    """N and fences with a poset of 2 to 4 points substituted at one slot,
    and the anchors inside that slot's module, so the anchor's child of
    the prime root has parts of its own."""
    subs = [p for n in (2, 3, 4) for p in helpers.iso_classes(n)]
    for index in (canonical("N", 0), canonical("fence", 2), canonical("fence", 3)):
        point = make_poset(["a"], [])
        for slot in index.elements:
            for sub in subs:
                parts = {e: sub if e == slot else point for e in index.elements}
                x, sources = p_sum_with_sources(index, parts)
                yield x, [x.index[e] for e, (s, _) in sources.items() if s == slot]


class TestPrimeChildren:
    # the children of a prime node read off its first part and one backward
    # pass equal the children of the former one-closure-per-part filter, at
    # every prime node on the walk, in every anchor's walk
    def _inputs(self, catalog6):
        for reps in catalog6.values():
            for p in reps:
                yield p, range(len(p))
        rng = random.Random(197)
        for _ in range(200):
            n = rng.randint(6, 13)
            p = helpers.shuffled_poset(rng, helpers.random_poset(rng, n, rng.choice((0.15, 0.35))))
            yield p, range(n)
        yield from _substituted_primes()

    def test_parts_in_their_own_order(self, catalog6, monkeypatch):
        nodes = []
        for p, anchors in self._inputs(catalog6):
            for anchor in anchors:
                nodes += _prime_children(p, anchor, monkeypatch)
        assert len(nodes) > 1000

    def test_first_part_is_a_child(self, catalog6):
        # proved in ``_prime_children``'s docstring: at every prime strong
        # module and every anchor inside it, the first part of P(M, anchor)
        # is a child of M that avoids the anchor; bigger counts the anchors
        # whose own child has more points than the anchor
        cases = bigger = 0
        for p, _ in self._inputs(catalog6):
            for module, children in helpers.brute_prime_children(p).items():
                mask = sum(1 << p.index[e] for e in module)
                for anchor in _bits(mask):
                    first = _mask_to_set(p, _parts(p, anchor, mask)[0])
                    assert first in children and p.elements[anchor] not in first
                    cases += 1
                    own = next(c for c in children if p.elements[anchor] in c)
                    bigger += len(own) > 1
        assert cases > 4000 and bigger > 1500


class TestNode:
    # each strong module's kind and children, read off the rows, against the
    # maximal strong modules inside it, at every anchor; the shuffled copies
    # store a linear node's children out of order
    def test_match_brute_strong_modules(self, catalog6):
        rng = random.Random(241)
        kinds = set()
        for reps in catalog6.values():
            for p in reps + [helpers.shuffled_poset(rng, p) for p in reps]:
                strong = helpers.brute_strong_modules(p)
                prime = helpers.brute_prime_children(p)
                for s in strong:
                    if len(s) < 2:
                        continue
                    inner = [t for t in strong if t < s]
                    want = {t for t in inner if not any(t < u for u in inner)}
                    module = sum(1 << p.index[e] for e in s)
                    for anchor in _bits(module):
                        kind, children = interval._node(p, anchor, module)
                        kinds.add(kind)
                        got = [_mask_to_set(p, c) for c in children]
                        assert len(got) == len(want) and set(got) == want
                        assert (kind == "prime") == (s in prime)
                        lows = [min(c, key=p.index.__getitem__) for c in got]
                        pairs = list(zip(lows, lows[1:]))
                        if kind == "parallel":
                            assert not any(p.lt(a, b) or p.lt(b, a) for a, b in pairs)
                        elif kind == "linear":
                            assert all(p.lt(a, b) for a, b in pairs)  # bottom first
                        else:
                            assert children[0] >> anchor & 1
        assert kinds == {"parallel", "linear", "prime"}


class TestPrimeNodes:
    # one walk over every strong module: each prime node once, with its
    # children, the maximal strong modules inside it, sorted by lowest point
    def test_match_brute_prime_modules(self, catalog6):
        rng = random.Random(211)
        posets = [p for reps in catalog6.values() for p in reps]
        posets += helpers.prime_node_posets(rng, 70)
        multi = 0
        for p in posets:
            nodes = interval._prime_nodes(p)
            want = helpers.brute_prime_children(p)
            got = {}
            for children in nodes:
                assert children == sorted(children, key=lambda c: c & -c)
                got[_mask_to_set(p, sum(children))] = {_mask_to_set(p, c) for c in children}
            assert len(got) == len(nodes) and got == want
            multi += sum(c & c - 1 != 0 for children in nodes for c in children)
        assert multi > 200
