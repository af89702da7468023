import random

import pytest

import helpers
from poset_forge import (
    ColouredPoset,
    Family,
    bad_pair_search,
    canonical,
    core,
    embeddability_matrix,
    fence_antichain,
    is_indecomposable,
    wqo,
)
from poset_forge.core import Poset, QuasiOrder
from poset_forge.errors import PaletteMismatch, PosetForgeError, TooLarge
from poset_forge.wqo import matrix_text


def chain_family(sizes):
    members = tuple(
        ColouredPoset.uniform(canonical("chain", k)) for k in sizes
    )
    return Family(members, tuple(f"C{k}" for k in sizes))


def counted_below(monkeypatch):
    """Record each (x, y) that wqo searches, in call order: every call of
    the per-pair entry ``below(i, j)`` of ``core._family_below``."""
    calls = []
    family_below = wqo._family_below

    def counted(members):
        below = family_below(members)

        def counted_pair(i, j):
            calls.append((members[i], members[j]))
            return below(i, j)

        return counted_pair

    monkeypatch.setattr(wqo, "_family_below", counted)
    return calls


class TestFenceAntichain:
    def test_members_are_marked_zigzags(self):
        fam = fence_antichain(3)
        assert fam.names == ("Z1", "Z2", "Z3")
        for k, member in enumerate(fam.members, start=1):
            assert len(member) == k + 3
            marked = [e for e in member.elements if member.colour(e) == "1"]
            assert marked == [member.elements[0], member.elements[-1]]
        assert fam.members[0].palette == QuasiOrder(["0", "1"], [])

    def test_smallest_member_is_the_four_point_zigzag(self):
        fam = fence_antichain(1)
        zig = fam.members[0]
        assert zig.poset == canonical("fence", 2)
        assert [zig.colour(e) for e in zig.elements] == ["1", "0", "0", "1"]

    def test_all_members_indecomposable(self):
        for member in fence_antichain(5).members:
            assert is_indecomposable(member.poset)

    def test_identity_matrix_small(self):
        fam = fence_antichain(4)
        matrix = embeddability_matrix(fam)
        assert matrix == [
            [i == j for j in range(4)] for i in range(4)
        ]

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            fence_antichain(0)


class TestMatrix:
    def test_chains_upper_triangular(self):
        matrix = embeddability_matrix(chain_family([1, 2, 3]))
        assert matrix == [
            [True, True, True],
            [False, True, True],
            [False, False, True],
        ]

    def test_incomparable_pair(self):
        members = (
            ColouredPoset.uniform(canonical("antichain", 2)),
            ColouredPoset.uniform(canonical("chain", 2)),
        )
        fam = Family(members, ("A2", "C2"))
        assert embeddability_matrix(fam) == [[True, False], [False, True]]

    def test_family_bound(self):
        fam = chain_family(range(1, 6))
        with pytest.raises(TooLarge):
            embeddability_matrix(fam, bound=4)

    def test_family_validation(self):
        other = ColouredPoset(
            canonical("chain", 1), {"a": "q"}, QuasiOrder(["q"], [])
        )
        with pytest.raises(ValueError):
            Family(
                (ColouredPoset.uniform(canonical("chain", 1)), other),
                ("a", "b"),
            )

    def test_family_palette_mismatch_is_typed(self):
        # the condition that coloured_embed, st_embed and eval_f_eta reject as
        # PaletteMismatch is one typed error here too
        other = ColouredPoset(
            canonical("chain", 1), {"a": "q"}, QuasiOrder(["q"], [])
        )
        with pytest.raises(PaletteMismatch) as caught:
            Family((ColouredPoset.uniform(canonical("chain", 1)), other), ("a", "b"))
        assert isinstance(caught.value, PosetForgeError)
        assert isinstance(caught.value, ValueError)

    def test_random_families_match_brute(self):
        # one comparable pair, so colour-increasing differs from colour-equal
        pal = QuasiOrder(["0", "1", "2"], [("0", "1")])
        rng = random.Random(59)
        for _ in range(25):
            members = tuple(
                helpers.random_coloured(rng, rng.randrange(1, 8), pal, prefix=f"m{k}")
                for k in range(rng.randrange(3, 7))
            )
            fam = Family(members, tuple(f"M{k}" for k in range(len(members))))
            want = [
                [helpers.brute_coloured_embed(a, b) is not None for b in members]
                for a in members
            ]
            assert embeddability_matrix(fam) == want

    def test_shared_set_up_matches_brute(self):
        # each member's set-up serves all its searches: repeated members,
        # equal copies, sources larger than their targets, and palettes
        # that are quasi-orders (0 and 1 each at or below the other)
        palettes = (
            QuasiOrder(["0", "1", "2"], [("0", "1"), ("1", "0"), ("1", "2")]),
            QuasiOrder(["0", "1", "2"], [("0", "1")]),
        )
        rng = random.Random(61)
        larger = empty = 0
        for k in range(24):
            pal = palettes[k % 2]
            base = [
                helpers.random_coloured(rng, rng.randint(1, 7), pal, prefix=f"m{t}")
                for t in range(rng.randint(2, 4))
            ]
            members = list(base)
            for x in rng.sample(base, 2 if len(base) > 2 else 1):
                copy = ColouredPoset(
                    Poset(x.elements, x.poset.above), x.colouring, x.palette
                )
                members += [x, copy]
            rng.shuffle(members)
            fam = Family(members, tuple(f"M{t}" for t in range(len(members))))
            want = [
                [helpers.brute_coloured_embed(a, b) is not None for b in members]
                for a in members
            ]
            assert embeddability_matrix(fam) == want
            bad = next(
                (
                    (i, j)
                    for i in range(len(members))
                    for j in range(i + 1, len(members))
                    if not want[i][j]
                ),
                None,
            )
            assert bad_pair_search(fam) == bad
            for a in members:
                for b in members:
                    if len(a) > len(b):
                        larger += 1
                    elif not all(core._coloured_allowed(a, b, False)):
                        empty += 1
        # both refusals before the search loop were exercised
        assert larger and empty

    def test_repeated_members_searched_off_diagonal(self, monkeypatch):
        x = helpers.random_coloured(
            random.Random(7), 6, QuasiOrder(["0", "1"], [("0", "1")]), prefix="x"
        )
        copy = ColouredPoset(Poset(x.elements, x.poset.above), x.colouring, x.palette)
        assert copy == x and copy is not x
        calls = counted_below(monkeypatch)
        for second in (x, copy):
            calls.clear()
            fam = Family((x, second), ("a", "b"))
            assert embeddability_matrix(fam) == [[True, True], [True, True]]
            # both off-diagonal entries found by search, the diagonal by none
            assert calls == [(x, second), (second, x)]

    def test_text_stable_and_machine_readable(self):
        fam = chain_family([1, 2])
        text = matrix_text(fam, embeddability_matrix(fam))
        assert text == matrix_text(fam, embeddability_matrix(fam))
        assert "matrix 2x2" in text
        assert "row C1 11" in text
        assert "row C2 01" in text


class TestBadPair:
    def test_good_sequence(self):
        assert bad_pair_search(chain_family([1, 2, 3])) is None

    def test_descending_chains(self):
        assert bad_pair_search(chain_family([3, 2])) == (0, 1)

    def test_fence_family(self):
        assert bad_pair_search(fence_antichain(3)) == (0, 1)

    def test_stops_at_first_bad_pair(self, monkeypatch):
        calls = counted_below(monkeypatch)
        fam = chain_family([3, 2, 1])
        assert bad_pair_search(fam) == (0, 1)
        assert calls == [(fam.members[0], fam.members[1])]

    def test_family_bound_checked_first(self, monkeypatch):
        def refused(members):
            raise AssertionError("set up a search past the family bound")

        monkeypatch.setattr(wqo, "_family_below", refused)
        with pytest.raises(TooLarge):
            bad_pair_search(chain_family(range(5, 0, -1)), bound=4)

    def test_agrees_with_matrix(self):
        for fam in (chain_family([2, 1, 3]), fence_antichain(3)):
            matrix = embeddability_matrix(fam)
            bad = bad_pair_search(fam)
            expected = None
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    if not matrix[i][j]:
                        expected = (i, j)
                        break
                if expected:
                    break
            assert bad == expected
