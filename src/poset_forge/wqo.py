"""Finite quasi-order experiments: coloured families, embeddability
matrices, and the coloured-fence antichain.

The flagship construction is :func:`fence_antichain`: two-coloured zigzags
whose endpoints are marked, pairwise non-embeddable, and all
indecomposable.  The antichain check is exhaustive, never probabilistic.
"""

from . import config
from .core import _family_below, _Frozen, ColouredPoset, QuasiOrder, canonical
from .errors import PaletteMismatch
from .interval import is_indecomposable


class Family(_Frozen):
    """An ordered list of coloured posets over one shared palette."""

    __slots__ = ("members", "names")

    def __init__(self, members, names):
        members, names = tuple(members), tuple(names)
        if not members:
            raise ValueError("a family is non-empty")
        palette = members[0].palette
        for m in members:
            if m.palette != palette:
                raise PaletteMismatch("family members must share one palette")
        if len(names) != len(members):
            raise ValueError("one name per member")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "names", names)

    def __len__(self):
        return len(self.members)


MARK = "1"
PLAIN = "0"


def fence_palette():
    return QuasiOrder([PLAIN, MARK], [])


def fence_antichain(n_max):
    """The n_max smallest indecomposable marked zigzags.

    Member k (k = 1..n_max) is the zigzag on k+3 points with its two
    extremal points coloured 1 and the interior coloured 0, over the
    two-colour discrete palette.  The three-point zigzag is left out: its
    two extremal points form an interval, so it is decomposable and sits in
    no class of indecomposables (every three-point poset is decomposable).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    palette = fence_palette()
    members = []
    names = []
    for k in range(1, n_max + 1):
        zig = canonical("fence", k + 1)
        ends = {zig.elements[0], zig.elements[-1]}
        colouring = {e: MARK if e in ends else PLAIN for e in zig.elements}
        members.append(ColouredPoset(zig, colouring, palette))
        names.append(f"Z{k}")
    return Family(members, names)


def _check_family_size(n, bound=None):
    """Refuse a family of n members over the matrix bound."""
    config.check_size(n, config.MATRIX_FAMILY_BOUND, bound, "family", "members")


def embeddability_matrix(fam, bound=None):
    """Boolean matrix of coloured embeddability within a family.

    Entry (i, i) is true by reflexivity: the identity map preserves the
    order exactly, and a palette quasi-order is reflexive, so it keeps
    colours too.  Every other entry is an exhaustive search.  A family has
    one shared palette, so no pair checks it again.  The searches share
    each member's set-up (``core._family_below``).
    """
    _check_family_size(len(fam), bound)
    below = _family_below(fam.members)
    n = len(fam)
    return [[i == j or below(i, j) for j in range(n)] for i in range(n)]


def _first_bad_pair(n, below):
    """Lexicographically least (i, j), i < j < n, with below(i, j) false;
    None when there is none.  The pairs are asked in that order, and the
    first false answer ends the walk."""
    bad = ((i, j) for i in range(n) for j in range(i + 1, n) if not below(i, j))
    return next(bad, None)


def bad_pair_search(fam, bound=None):
    """Lexicographically least (i, j), i < j, with member i not below
    member j; None when the sequence is good.  Each pair is searched only
    when it is reached (``_first_bad_pair``)."""
    _check_family_size(len(fam), bound)
    return _first_bad_pair(len(fam), _family_below(fam.members))


def family_indecomposable(fam):
    """Per-member indecomposability (used by the antichain reproduction)."""
    return [is_indecomposable(m.poset) for m in fam.members]


def matrix_text(fam, matrix):
    """0/1 grid with row and column names, plus a machine-readable stanza."""
    width = max(len(n) for n in fam.names)
    lines = [" " * (width + 1) + " ".join(fam.names)]
    for name, row in zip(fam.names, matrix):
        cells = " ".join(
            ("1" if v else "0").rjust(len(n)) for v, n in zip(row, fam.names)
        )
        lines.append(f"{name.ljust(width)} {cells}")
    lines.append(f"matrix {len(fam)}x{len(fam)}")
    lines.append("names " + " ".join(fam.names))
    for name, row in zip(fam.names, matrix):
        lines.append(f"row {name} " + "".join("1" if v else "0" for v in row))
    lines.append("end")
    return "\n".join(lines) + "\n"
