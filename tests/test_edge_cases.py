"""Error and edge-case branches of the public API, one typed error or one
result per test: empty inputs, unknown names, mismatched palettes,
malformed records, and the CLI's exit code 2 with one ``error:`` line."""

import io

import pytest

from poset_forge import (
    ColouredPoset,
    EmbeddingMap,
    QuasiOrder,
    canonical,
    check_coloured_embedding,
    coloured_isomorphic,
    decomposition_function,
    decomposition_tree,
    embed,
    make_poset,
    maximal_decomposition,
    maximal_interval_chain,
    p_sum,
    pathological_prefix_check,
    recompose_along_chain,
    subtree_extract,
    verify_st_embedding,
    zeta_tree_sum,
)
from poset_forge.classify import PrefixReport
from poset_forge.cli import main, run
from poset_forge.errors import (
    BadLabel,
    DuplicateElement,
    EmptyPoset,
    NotUpClosedChain,
    ParseError,
    UnknownElement,
)
from poset_forge.textio import parse_records

EMPTY = make_poset([], [])
TWO_COLOURS = QuasiOrder(["0", "1"], [("0", "1")])


def _recoloured(x):
    """x with every element coloured "0" of the two-colour palette."""
    return ColouredPoset(x.poset, {e: "0" for e in x.poset.elements}, TWO_COLOURS)


def _identity(x):
    return EmbeddingMap(tuple((e, e) for e in x.elements), "coloured")


class TestEmptyPoset:
    def test_embeds_everywhere_by_the_empty_map(self):
        assert embed(EMPTY, canonical("chain", 2)).mapping == ()
        assert embed(EMPTY, EMPTY).mapping == ()

    def test_decomposition_tree(self):
        with pytest.raises(EmptyPoset):
            decomposition_tree(ColouredPoset.uniform(EMPTY))

    def test_decomposition_function(self):
        with pytest.raises(EmptyPoset):
            decomposition_function(ColouredPoset.uniform(EMPTY))

    def test_maximal_interval_chain(self):
        with pytest.raises(EmptyPoset):
            maximal_interval_chain(EMPTY)

    def test_binary_tree_prefix_of_depth_0(self):
        assert len(canonical("binary_tree_prefix", 0)) == 0


class TestUnknownNames:
    def test_maximal_decomposition_anchor(self):
        with pytest.raises(UnknownElement):
            maximal_decomposition(ColouredPoset.uniform(canonical("N", 0)), anchor="zz")

    def test_subtree_extract_node(self):
        t = decomposition_tree(ColouredPoset.uniform(canonical("N", 0)))
        with pytest.raises(BadLabel):
            subtree_extract(t, "zz", "a")

    def test_recompose_along_chain_node(self):
        t = decomposition_tree(ColouredPoset.uniform(canonical("N", 0)))
        with pytest.raises(NotUpClosedChain):
            recompose_along_chain(t, ["0", "zz"])

    def test_restrict(self):
        with pytest.raises(UnknownElement):
            canonical("chain", 2).restrict(["a", "zz"])

    def test_zeta_tree_sum_attachment_point(self):
        with pytest.raises(UnknownElement):
            zeta_tree_sum(canonical("chain", 2), {("zz", 0): canonical("chain", 1)})

    def test_recompose_along_incomparable_nodes(self):
        # two chains side by side: the sum nodes 0.c/1 and 2 lie in distinct
        # cones of the root
        x = make_poset(list("abcd"), [("a", "b"), ("c", "d")])
        t = decomposition_tree(ColouredPoset.uniform(x))
        assert not t.poset.leq("0.c/1", "2") and not t.poset.leq("2", "0.c/1")
        with pytest.raises(NotUpClosedChain, match="pairwise comparable"):
            recompose_along_chain(t, ["0.c/1", "2"])


def test_p_sum_composite_id_collision():
    # distinct index ids with one str() give one composite id per part element
    a = make_poset(["a"], [])
    with pytest.raises(DuplicateElement, match=r"composite id collision at '1\.a'"):
        p_sum(make_poset([1, "1"], []), {1: a, "1": a})


class TestPaletteMismatch:
    def test_verify_st_embedding(self):
        x = ColouredPoset.uniform(canonical("chain", 2))
        s, t = decomposition_tree(x), decomposition_tree(_recoloured(x))
        emap = EmbeddingMap(tuple(zip(s.nodes, t.nodes)), "structured-tree")
        assert verify_st_embedding(s, s, emap)
        assert not verify_st_embedding(s, t, emap)

    def test_check_coloured_embedding(self):
        x = ColouredPoset.uniform(canonical("chain", 2))
        assert check_coloured_embedding(x, x, _identity(x))
        assert not check_coloured_embedding(x, _recoloured(x), _identity(x))

    def test_check_coloured_embedding_order(self):
        # one palette, but the map reverses the chain
        x = ColouredPoset.uniform(canonical("chain", 2))
        a, b = x.elements
        assert not check_coloured_embedding(x, x, EmbeddingMap(((a, b), (b, a)), "coloured"))

    def test_coloured_isomorphic(self):
        x = ColouredPoset.uniform(canonical("chain", 2))
        assert coloured_isomorphic(x, x)
        assert not coloured_isomorphic(x, _recoloured(x))
        assert not coloured_isomorphic(x, ColouredPoset.uniform(canonical("chain", 3)))


class TestConstructors:
    def test_quasi_order_duplicate_colour(self):
        with pytest.raises(DuplicateElement):
            QuasiOrder(["0", "0"], [])

    def test_quasi_order_unknown_colour_in_pair(self):
        with pytest.raises(UnknownElement):
            QuasiOrder(["0"], [("0", "1")])

    @pytest.mark.parametrize("pair", [("2", "0"), ("0", "2")])
    def test_quasi_order_leq_unknown_colour(self, pair):
        with pytest.raises(UnknownElement):
            TWO_COLOURS.leq(*pair)

    def test_coloured_poset_uncoloured_element(self):
        with pytest.raises(UnknownElement, match="no colour"):
            ColouredPoset(canonical("chain", 2), {"a": "0"}, TWO_COLOURS)

    def test_coloured_poset_unknown_element(self):
        with pytest.raises(UnknownElement, match="unknown element"):
            ColouredPoset(canonical("chain", 1), {"a": "0", "z": "0"}, TWO_COLOURS)

    def test_coloured_poset_colour_outside_palette(self):
        with pytest.raises(UnknownElement, match="not in palette"):
            ColouredPoset(canonical("chain", 1), {"a": "2"}, TWO_COLOURS)


class TestValueDunders:
    def test_quasi_order(self):
        again = QuasiOrder(["0", "1"], [("0", "1")])
        assert again == TWO_COLOURS and hash(again) == hash(TWO_COLOURS)
        assert repr(TWO_COLOURS) == "QuasiOrder(0,1)"

    def test_coloured_poset_repr(self):
        x = ColouredPoset.uniform(canonical("chain", 2))
        assert repr(x) == "ColouredPoset(Poset(a,b|a<b)|a:0,b:0)"

    def test_composition_set_equality(self):
        n = ColouredPoset.uniform(canonical("N", 0))
        fset = decomposition_function(n)[0]
        assert fset == decomposition_function(n)[0]
        assert fset != decomposition_function(ColouredPoset.uniform(canonical("chain", 2)))[0]
        assert fset != fset.root


class TestPrefixReport:
    def test_absent_witnesses(self):
        report = pathological_prefix_check(canonical("chain", 3), 2)
        assert report.found() == []
        assert report.text() == (
            "prefix_depth 2\n"
            "binary_tree_prefix absent\n"
            "reversed_binary_tree_prefix absent\n"
            "perp_prefix absent\n"
        )

    def test_one_witness(self):
        w = EmbeddingMap((("a", "x"),), "poset")
        report = PrefixReport(1, perp=w)
        assert report.found() == ["perp_prefix"]
        assert report.text().splitlines()[1:] == [
            "binary_tree_prefix absent",
            "reversed_binary_tree_prefix absent",
            "perp_prefix embeds a->x",
        ]


@pytest.mark.parametrize(
    "text",
    [
        "poset p\nelem a b c\nend\n",
        "poset p\nelem a shade=1\nend\n",
        "quasi q\nelem 0 colour=1\nend\n",
        "poset p\nelem\nend\n",
    ],
    ids=["three-tokens", "not-a-colour", "colour-in-quasi", "no-id"],
)
def test_malformed_elem_line(text):
    with pytest.raises(ParseError, match="malformed 'elem' line"):
        parse_records(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("le 0 1\n", "'le' takes two ids"),
        ("poset p\nelem a\nle a a\nend\n", "'le' takes two ids"),
        ("end\n", "'end' outside a record"),
    ],
)
def test_line_outside_its_record(text, message):
    with pytest.raises(ParseError, match=message):
        parse_records(text)


def _invoke(argv):
    out = io.StringIO()
    return run(argv, out), out.getvalue()


def test_cli_validate_quasi_record(tmp_path):
    path = tmp_path / "q.poset"
    path.write_text("quasi q\nelem 0\nelem 1\nle 0 1\nend\n", encoding="utf-8")
    assert _invoke(["validate", str(path)]) == (0, "ok quasi q colours=2\n")


@pytest.mark.parametrize(
    "verb, text",
    [
        ("validate", "poset p\nelem a b c\nend\n"),
        ("decompose", "poset p\nend\n"),
        ("tree", "poset p\nend\n"),
        ("decompose", "quasi q\nelem 0\nend\n"),
        ("lift", "poset p\nend\n"),
    ],
    ids=["malformed-elem", "empty-decompose", "empty-tree", "no-poset", "empty-lift"],
)
def test_cli_input_errors_exit_2_with_one_error_line(tmp_path, verb, text):
    path = tmp_path / "in.poset"
    path.write_text(text, encoding="utf-8")
    argv = [verb, str(path)] + ([str(path)] if verb == "lift" else [])
    code, out = _invoke(argv)
    assert code == 2
    assert out.startswith("error: ") and out.count("\n") == 1


def test_cli_main_exits_with_the_run_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "in.poset"
    path.write_text("poset p\nend\n", encoding="utf-8")
    monkeypatch.setattr("sys.argv", ["poset-forge", "decompose", str(path)])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 2
    assert capsys.readouterr().out.startswith("error: ")
