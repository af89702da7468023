"""Size bounds: one check serves every exhaustive search, with the same
message wording for each of them."""

import pytest

from poset_forge import (
    canonical,
    embeddability_matrix,
    enumerate_intervals,
    fence_antichain,
    indecomposable_subsets,
    maximal_interval_chain,
    pathological_prefix_check,
    scattered_rank,
)
from poset_forge.errors import TooLarge

CH3 = canonical("chain", 3)

CASES = [
    (lambda b: enumerate_intervals(CH3, bound=b), "carrier has 3 > {} elements"),
    (lambda b: maximal_interval_chain(CH3, bound=b), "carrier has 3 > {} elements"),
    (lambda b: indecomposable_subsets(CH3, 2, bound=b), "poset has 3 > {} elements"),
    (lambda b: pathological_prefix_check(CH3, 1, bound=b), "poset has 3 > {} elements"),
    (lambda b: scattered_rank(CH3, bound=b), "tree has 3 > {} nodes"),
    (
        lambda b: embeddability_matrix(fence_antichain(3), bound=b),
        "family has 3 > {} members",
    ),
]


@pytest.mark.parametrize("call, message", CASES)
def test_messages_and_precedence(call, message, monkeypatch):
    with pytest.raises(TooLarge) as info:
        call(2)
    assert str(info.value) == message.format(2)
    call(3)
    monkeypatch.setenv("POSET_FORGE_BOUND", "1")
    with pytest.raises(TooLarge) as info:
        call(None)
    assert str(info.value) == message.format(1)
    call(3)  # an explicit bound wins over the environment
