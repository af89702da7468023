"""Byte-identity pin: the decomposition outputs of a fixed corpus hash to a
recorded digest, so a change to how they are computed cannot change them.

The corpus is 200 seeded coloured posets of 1 to 16 elements, stored in a
shuffled order; per poset the digest takes the decomposition tree's dump,
the composition set's dump with its leaf arguments, and the exit code and
output of the CLI verb ``decompose``.
"""

import argparse
import hashlib
import io
import random

import helpers
from poset_forge import (
    ColouredPoset,
    composition_set_text,
    decomposition_function,
    decomposition_tree,
    structured_tree_text,
)
from poset_forge.cli import _cmd_decompose
from poset_forge.textio import poset_text, quasi_text

PINNED = "fb45c15b7997e47b7e781a9b12ba6a37b659b1f001f10644e6e9812190fdb8f7"


def corpus():
    rng = random.Random(163)
    for k in range(200):
        x = helpers.random_coloured(rng, 1 + k % 16, p=(0.15, 0.35, 0.6)[k % 3])
        yield ColouredPoset(helpers.shuffled_poset(rng, x.poset), x.colouring, x.palette)


def digest(path):
    h = hashlib.sha256()
    for x in corpus():
        tree = decomposition_tree(x)
        fset, leaf_args = decomposition_function(x)
        path.write_text(
            poset_text("x", x.poset, x.colouring) + quasi_text("q", x.palette),
            encoding="utf-8",
        )
        out = io.StringIO()
        # the verb itself: building the argument parser would cost more
        # than the decompositions
        code = _cmd_decompose(argparse.Namespace(file=str(path)), out)
        for text in (
            structured_tree_text(tree.tree),
            composition_set_text(fset, leaf_args),
            f"exit {code}\n",
            out.getvalue(),
        ):
            h.update(text.encode())
    return h.hexdigest()


def test_outputs_match_the_pinned_digest(tmp_path):
    assert digest(tmp_path / "x.poset") == PINNED
