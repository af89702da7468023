"""One error taxonomy: every error the library raises is a class of
``poset_forge.errors``, and the classes that stand for a built-in error
also subclass it, so an ``except ValueError`` (or ``KeyError``) around a
call still holds."""

import ast
from pathlib import Path

import pytest

import poset_forge
from poset_forge import (
    ColouredPoset,
    canonical,
    cli,
    decomposition_tree,
    errors,
    fence_antichain,
    indecomposable_subsets,
    ssr,
)
from poset_forge.classify import ClassSpec
from poset_forge.core import EmbeddingMap
from poset_forge.wqo import Family

SOURCES = sorted(Path(poset_forge.__file__).parent.glob("*.py"))


def _raised(path):
    """``(name, line)`` for each ``raise Name(...)`` in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            if isinstance(node.exc.func, ast.Name):
                yield node.exc.func.id, node.lineno


def test_every_raise_names_a_class_of_errors():
    typed = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.PosetForgeError)
    }
    raised = [(path.name, line, name) for path in SOURCES for name, line in _raised(path)]
    assert len(raised) > 50
    assert [site for site in raised if site[2] not in typed] == []


def _n_tree():
    return decomposition_tree(ColouredPoset.uniform(canonical("N", 0)))


SITES = [
    (lambda: Family([], []), errors.EmptyFamily, ValueError),
    (lambda: Family([ColouredPoset.uniform(canonical("chain", 1))], []),
     errors.NameCountMismatch, ValueError),
    (lambda: fence_antichain(0), errors.OutOfRange, ValueError),
    (lambda: ClassSpec(), errors.SpecConflict, ValueError),
    (lambda: ClassSpec(allowed=[], max_size=2), errors.SpecConflict, ValueError),
    (lambda: ClassSpec(max_size=0), errors.OutOfRange, ValueError),
    (lambda: indecomposable_subsets(canonical("chain", 2), 3), errors.OutOfRange, ValueError),
    (lambda: canonical("chain", -1), errors.OutOfRange, ValueError),
    (lambda: EmbeddingMap([("a", "x"), ("b", "x")]), errors.NotInjective, ValueError),
    (lambda: ssr("a", "a", "b", canonical("chain", 2)), errors.NotDistinct, ValueError),
    (lambda: _n_tree().label("?", "?"), errors.NoLabel, KeyError),
    (lambda: setattr(EmbeddingMap([]), "kind", "poset"), errors.FrozenField, AttributeError),
    (lambda: delattr(EmbeddingMap([]), "kind"), errors.FrozenField, AttributeError),
]


@pytest.mark.parametrize("call, typed, builtin", SITES)
def test_each_site_raises_its_class(call, typed, builtin):
    with pytest.raises(typed) as caught:
        call()
    assert isinstance(caught.value, errors.PosetForgeError)
    assert isinstance(caught.value, builtin)


def test_bound_without_scattered_raises_bad_option():
    # the CLI turns it into exit code 2 and its message (test_cli)
    args = cli._parse(["rank", "unread.poset", "--tree", "--bound", "1"])
    with pytest.raises(errors.BadOption):
        cli._cmd_rank(args, None)
