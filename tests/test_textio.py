import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from poset_forge import QuasiOrder, canonical
from poset_forge.errors import ParseError
from poset_forge.textio import (
    PosetRecord,
    QuasiRecord,
    load_coloured_poset,
    parse_records,
    poset_text,
    quasi_text,
)

SAMPLE = """\
# a comment
poset n
elem 0
elem 1
elem 2
elem 3
lt 1 0
lt 1 2
lt 3 2
end

quasi two
elem 0
elem 1
le 0 1
end
"""


def test_parse_both_records():
    records = parse_records(SAMPLE)
    assert len(records) == 2
    assert isinstance(records[0], PosetRecord)
    assert records[0].poset == canonical("N", 0)
    assert isinstance(records[1], QuasiRecord)
    assert records[1].quasi.leq("0", "1")


def test_roundtrip_poset():
    p = canonical("fence", 2)
    text = poset_text("f", p)
    records = parse_records(text)
    assert records[0].poset == p


@given(helpers.separator_posets())
@settings(max_examples=100, deadline=None)
def test_roundtrip_separator_ids(poset):
    colouring = {e: e for e in poset.elements}
    name, cp = load_coloured_poset(poset_text("p", poset, colouring))
    assert name == "p"
    assert cp.poset == poset
    assert cp.colouring == colouring


def test_roundtrip_quasi():
    q = QuasiOrder(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert parse_records(quasi_text("q", q))[0].quasi == q


def test_colours_and_palette_resolution():
    text = "poset p\nelem x colour=1\nelem y colour=0\nlt x y\nend\n"
    name, cp = load_coloured_poset(text)
    assert name == "p"
    assert cp.colour("x") == "1"
    # no quasi record: colours form a discrete palette
    assert not cp.palette.leq("0", "1")


def test_palette_from_quasi_record():
    text = (
        "poset p\nelem x colour=0\nend\n"
        "quasi q\nelem 0\nelem 1\nle 0 1\nend\n"
    )
    _, cp = load_coloured_poset(text)
    assert cp.palette.leq("0", "1")


def test_colourless_poset_gets_one_colour():
    _, cp = load_coloured_poset("poset p\nelem x\nend\n")
    assert cp.colour("x") == "0"


@pytest.mark.parametrize(
    "text",
    [
        "elem x\n",
        "poset p\nelem x\n",  # unterminated
        "poset p\nlt x y\nend\n",  # unknown ids
        "poset p\nelem x\nelem x\nend\n",  # duplicate
        "poset p\nelem a\nelem b\nlt a b\nlt b a\nend\n",  # cycle
        "poset p extra words\n",
        "quasi q\nlt a b\nend\n",  # lt inside quasi
        "wibble\n",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_records(text)


def test_no_poset_record():
    with pytest.raises(ParseError):
        load_coloured_poset("quasi q\nelem 0\nend\n")


EMPTY_PALETTE = "poset p\nelem x\nend\nquasi z\nend\n"


@pytest.mark.parametrize(
    "text",
    [
        EMPTY_PALETTE,  # a colourless element needs a colour from the palette
        "poset p\nelem x colour=1\nend\nquasi q\nelem 0\nend\n",  # colour not in palette
    ],
    ids=["empty-palette", "colour-outside-palette"],
)
def test_load_errors(text):
    with pytest.raises(ParseError):
        load_coloured_poset(text)


def test_empty_poset_loads_with_empty_palette():
    name, cp = load_coloured_poset("poset p\nend\nquasi z\nend\n")
    assert name == "p" and len(cp) == 0 and len(cp.palette) == 0


def test_partial_colouring_rejected():
    with pytest.raises(ParseError):
        load_coloured_poset("poset p\nelem x colour=0\nelem y\nend\n")


@given(st.text(alphabet=st.characters(max_codepoint=0x2FF), max_size=200))
@settings(max_examples=150, deadline=None)
def test_parser_fuzz_raises_only_parse_errors(text):
    try:
        parse_records(text)
    except ParseError:
        pass
