"""Line-oriented text format for posets and quasi-orders.

A file holds one record per section::

    poset <name>
    elem <id>
    elem <id> colour=<cid>
    lt <id> <id>
    end

    quasi <name>
    elem <cid>
    le <cid> <cid>
    end

``lt`` lines may be any generating set of the strict order; reflexive
``le`` pairs are implicit.  ``#`` begins a comment line.  UTF-8 throughout.
"""

from .core import _Record, ColouredPoset, QuasiOrder, make_poset, one_colour_palette
from .errors import ParseError, PosetForgeError


class PosetRecord(_Record):
    __slots__ = ("name", "poset", "colouring")

    def __init__(self, name, poset, colouring):
        self.name = name
        self.poset = poset
        self.colouring = colouring  # None when no elem carried a colour


class QuasiRecord(_Record):
    __slots__ = ("name", "quasi")

    def __init__(self, name, quasi):
        self.name = name
        self.quasi = quasi


def parse_records(text):
    """All records in a document, in file order."""
    records = []
    mode = None  # None | "poset" | "quasi"
    name = None
    elems = []
    colours = {}
    pairs = []

    def fail(lineno, msg):
        raise ParseError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        verb = tokens[0]
        if verb in ("poset", "quasi"):
            if mode is not None:
                fail(lineno, f"'{verb}' inside an open {mode} record")
            if len(tokens) != 2:
                fail(lineno, f"'{verb}' takes exactly one name")
            mode, name = verb, tokens[1]
            elems, colours, pairs = [], {}, []
        elif verb == "elem":
            if mode is None:
                fail(lineno, "'elem' outside a record")
            if len(tokens) == 2:
                elems.append(tokens[1])
            elif len(tokens) == 3 and mode == "poset" and tokens[2].startswith("colour="):
                elems.append(tokens[1])
                colours[tokens[1]] = tokens[2][len("colour="):]
            else:
                fail(lineno, "malformed 'elem' line")
        elif verb == "lt":
            if mode != "poset" or len(tokens) != 3:
                fail(lineno, "'lt' takes two ids inside a poset record")
            pairs.append((tokens[1], tokens[2]))
        elif verb == "le":
            if mode != "quasi" or len(tokens) != 3:
                fail(lineno, "'le' takes two ids inside a quasi record")
            pairs.append((tokens[1], tokens[2]))
        elif verb == "end":
            if mode is None:
                fail(lineno, "'end' outside a record")
            try:
                if mode == "poset":
                    records.append(
                        PosetRecord(name, make_poset(elems, pairs), colours or None)
                    )
                else:
                    records.append(QuasiRecord(name, QuasiOrder(elems, pairs)))
            except PosetForgeError as exc:
                fail(lineno, f"invalid {mode} record {name!r}: {exc}")
            mode = None
        else:
            fail(lineno, f"unknown directive {verb!r}")
    if mode is not None:
        raise ParseError(f"unterminated {mode} record {name!r}")
    return records


def load_coloured_poset(text):
    """First poset record as a ColouredPoset, with its palette resolved.

    The palette is the document's first quasi record when present.  Without
    one, colours that do appear form a discrete palette (distinct colours
    incomparable); a colourless poset gets the one-colour palette.
    """
    records = parse_records(text)
    posets = [r for r in records if isinstance(r, PosetRecord)]
    quasis = [r for r in records if isinstance(r, QuasiRecord)]
    if not posets:
        raise ParseError("no poset record in document")
    rec = posets[0]
    if quasis:
        palette = quasis[0].quasi
    elif rec.colouring:
        palette = QuasiOrder(sorted(set(rec.colouring.values())), [])
    else:
        palette = one_colour_palette()
    if rec.colouring:
        missing = [e for e in rec.poset.elements if e not in rec.colouring]
        if missing:
            raise ParseError(f"elements without colour: {missing}")
        colouring = rec.colouring
    elif rec.poset.elements and not palette.colours:
        raise ParseError("colourless poset needs a colour, but the palette is empty")
    else:
        colouring = {e: palette.colours[0] for e in rec.poset.elements}
    try:
        return rec.name, ColouredPoset(rec.poset, colouring, palette)
    except PosetForgeError as exc:
        raise ParseError(str(exc)) from exc


def poset_text(name, poset, colouring=None):
    """Serialize a poset record; lt lines carry the covering pairs."""
    lines = [f"poset {name}"]
    for e in poset.elements:
        if colouring is not None:
            lines.append(f"elem {e} colour={colouring[e]}")
        else:
            lines.append(f"elem {e}")
    for a, b in poset.cover_pairs():
        lines.append(f"lt {a} {b}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def quasi_text(name, quasi):
    lines = [f"quasi {name}"]
    for c in quasi.colours:
        lines.append(f"elem {c}")
    for a, b in sorted(
        quasi.le_pairs(), key=lambda p: (quasi.index[p[0]], quasi.index[p[1]])
    ):
        if a != b:
            lines.append(f"le {a} {b}")
    lines.append("end")
    return "\n".join(lines) + "\n"
