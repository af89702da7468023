"""Size bounds: one check serves every exhaustive search, with the same
message wording for each of them."""

import io

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
from poset_forge.cli import run
from poset_forge.errors import BadBound, PosetForgeError, TooLarge

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


@pytest.mark.parametrize("value", ["abc", "", "2.5"])
def test_malformed_env_bound(value, monkeypatch, tmp_path):
    # a bound from the environment that is not an integer is a typed error
    # naming the variable and its value, and the CLI exits 2 on it
    monkeypatch.setenv("POSET_FORGE_BOUND", value)
    with pytest.raises(BadBound) as info:
        enumerate_intervals(CH3)
    assert isinstance(info.value, PosetForgeError) and isinstance(info.value, ValueError)
    assert str(info.value) == f"POSET_FORGE_BOUND must be an integer, not {value!r}"
    enumerate_intervals(CH3, bound=3)  # an explicit bound never reads it
    path = tmp_path / "ch3.poset"
    path.write_text("poset c\nelem a\nelem b\nlt a b\nend\n", encoding="utf-8")
    out = io.StringIO()
    assert run(["decompose", str(path)], out) == 2
    assert out.getvalue() == f"error: {info.value}\n"
