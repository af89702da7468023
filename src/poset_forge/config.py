"""Size bounds.

Exhaustive searches refuse inputs over a size cap rather than grind
unannounced.  The environment variable ``POSET_FORGE_BOUND`` overrides the
global cap for all of them; explicit arguments win over both.
"""

import os

from .errors import BadBound, TooLarge

INTERVAL_ENUM_BOUND = 16
SCATTERED_RANK_BOUND = 4096
MATRIX_FAMILY_BOUND = 10

_ENV_BOUND = "POSET_FORGE_BOUND"


def check_size(size, default, override, what, unit):
    """Raise TooLarge, as "<what> has <size> > <bound> <unit>", when size
    exceeds the override, else the environment's bound, else the default;
    BadBound when the environment's bound is not an integer."""
    if override is None:
        value = os.environ.get(_ENV_BOUND)
        try:
            override = default if value is None else int(value)
        except ValueError:
            raise BadBound(f"{_ENV_BOUND} must be an integer, not {value!r}") from None
    limit = int(override)
    if size > limit:
        raise TooLarge(f"{what} has {size} > {limit} {unit}")
