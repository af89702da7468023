"""Size bounds.

Exhaustive searches refuse inputs over a size cap rather than grind
unannounced.  The environment variable ``POSET_FORGE_BOUND`` overrides the
global cap for all of them; explicit arguments win over both.
"""

import os

INTERVAL_ENUM_BOUND = 16
SCATTERED_RANK_BOUND = 15
MATRIX_FAMILY_BOUND = 10

_ENV_BOUND = "POSET_FORGE_BOUND"


def effective_bound(default, override=None):
    """Resolve a size bound: explicit override, then env, then default."""
    if override is not None:
        return int(override)
    env = os.environ.get(_ENV_BOUND)
    if env is not None:
        return int(env)
    return default
