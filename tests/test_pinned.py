"""Byte-identity pins: the decomposition outputs of fixed corpora hash to
recorded digests, so a change to how they are computed cannot change them.

The first corpus is 200 seeded coloured posets of 1 to 16 elements, stored
in a shuffled order; per poset the digest takes the decomposition tree's
dump, the composition set's dump with its leaf arguments, and the exit code
and output of the CLI verb ``decompose``.  The second is 60 such posets of
2 to 12 elements; per poset it takes every branch and tail extract (its
tree dump, composition set dump and leaf elements), the poset recomposed
along the root sequence's chain, and the tree rank and scattered rank of
the tree and of every extract.  The third is 60 seeded posets of 5 to 10
elements, each class-checked under every size cap and under two allowed
lists, together with 60 seeded structured-tree embedding searches and the
lift of every witness found.  The fourth is 40 seeded substitution posets
of 8 to 12 elements (``helpers.substitution_poset``), whose prime nodes
have children of two or three points: each is class-checked under the same
specs, and its indecomposable subsets are listed under every size cap.
"""

import argparse
import hashlib
import io
import random

import helpers
from poset_forge import composition, interval
from poset_forge import (
    ClassSpec,
    ColouredPoset,
    canonical,
    class_check,
    composition_set_text,
    indecomposable_subsets,
    decomposition_function,
    decomposition_tree,
    lift_embedding,
    make_poset,
    recompose_along_chain,
    scattered_rank,
    st_embed,
    structured_tree_text,
    subtree_extract,
    tree_rank,
)
from poset_forge.cli import _cmd_decompose
from poset_forge.textio import poset_text, quasi_text

PINNED = "fb45c15b7997e47b7e781a9b12ba6a37b659b1f001f10644e6e9812190fdb8f7"
EXTRACTS_PINNED = "de0d641c815e03adabe7e34e5aa7b2121d30e46437dcf934680ba3d3d407bfe8"
CLASS_EMBED_PINNED = "4be28be296977325a79d234868ebfd41e47bf169a8f6cc6930d38f1dacfb27af"
SUM_CLASS_PINNED = "0b6195779f96119cddd79a1786d121ac28e6d2ba836880aefecdf14e77ac333e"


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


def test_digest_splits_prime_nodes(tmp_path, monkeypatch):
    # the pinned digest comes out of splits of P(M, v), made where the walk
    # reads a prime node's children; the decomposition checks no arity
    # (each is indecomposable by construction), so the pair-closure test is
    # never called, and the library has no closure left
    def pair_test(*args):
        raise AssertionError("the pair-closure test was called")

    calls = [0]

    def counted(*args):
        calls[0] += 1
        return parts(*args)

    parts = interval._parts
    monkeypatch.setattr(helpers, "pair_closure_indecomposable", pair_test)
    monkeypatch.setattr(interval, "_parts", counted)
    assert not hasattr(interval, "_close")
    assert not hasattr(interval, "_indecomposable_mask")
    assert not hasattr(composition, "_maximal_blocks")
    assert not hasattr(composition, "is_indecomposable")
    assert digest(tmp_path / "x.poset") == PINNED
    assert calls[0]


def test_one_split_per_prime_node(catalog6, monkeypatch):
    # at each prime strong module the first part of P(M, anchor) is a
    # child that avoids the anchor (proved in ``_prime_children``), so the
    # decomposition makes no closure, and splits one P(M, anchor) per
    # prime node and none anywhere else
    assert not hasattr(interval, "_close")
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return parts(*args)

    parts = interval._parts
    monkeypatch.setattr(interval, "_parts", counted)
    rng = random.Random(199)
    posets = [p for reps in catalog6.values() for p in reps]
    posets += [
        helpers.shuffled_poset(rng, helpers.random_poset(rng, rng.randint(7, 11), rng.choice((0.15, 0.35, 0.6))))
        for _ in range(60)
    ]
    primes = 0
    for p in posets:
        calls[0] = 0
        decomposition_function(ColouredPoset.uniform(p))
        want = len(helpers.brute_prime_modules(p))
        assert calls[0] == want
        primes += want
    assert primes > 100


def extract_corpus():
    rng = random.Random(167)
    for k in range(60):
        x = helpers.random_coloured(rng, 2 + k % 11, p=(0.15, 0.35, 0.6)[k % 3])
        yield ColouredPoset(helpers.shuffled_poset(rng, x.poset), x.colouring, x.palette)


def ranks_text(tree):
    n = len(tree.tree.poset)
    return f"rank {tree_rank(tree.tree)} scattered {scattered_rank(tree.tree, bound=n)}\n"


def extracts_digest():
    h = hashlib.sha256()
    for x in extract_corpus():
        t = decomposition_tree(x)
        texts = [ranks_text(t)]
        for v in t.tree.internal_nodes():
            seq, layer = t.sequence_at(v)
            for u in seq.arity(layer).elements:
                sub = subtree_extract(t, v, u)
                leaves = sorted(sub.leaf_element.items())
                texts += [
                    f"extract {v} {u}\n",
                    structured_tree_text(sub.tree),
                    composition_set_text(sub.fset, sub.leaf_args),
                    "".join(f"{n} {e}\n" for n, e in leaves),
                    ranks_text(sub),
                ]
        chain = [str(i) for i in range(len(t.fset.sequences[()]))]
        y = recompose_along_chain(t, chain)
        texts.append(poset_text("r", y.poset, y.colouring))
        for text in texts:
            h.update(text.encode())
    return h.hexdigest()


def test_extracts_match_the_pinned_digest():
    assert extracts_digest() == EXTRACTS_PINNED


def renamed(poset):
    """The same order under new names, stored in reverse order."""
    name = {e: f"r{e}" for e in poset.elements}
    pairs = [(name[a], name[b]) for a, b in poset.lt_pairs()]
    return make_poset([name[e] for e in reversed(poset.elements)], pairs)


def class_specs(n):
    # no singleton on the first list, so every point is a violation too; the
    # second is the stock list plus N under other names
    first = (canonical("chain", 2), canonical("antichain", 2), canonical("N", 0),
             canonical("fence", 3))
    stock = (canonical("chain", 1), canonical("chain", 2), canonical("antichain", 2),
             canonical("N", 0))
    caps = [ClassSpec(max_size=cap) for cap in range(1, n + 1)]
    return caps + [ClassSpec(allowed=first), ClassSpec(allowed=tuple(map(renamed, stock)))]


def mapping_text(emap):
    if emap is None:
        return "none\n"
    return " ".join(f"{a}->{b}" for a, b in emap.mapping) + "\n"


def class_embed_digest():
    h = hashlib.sha256()
    rng = random.Random(173)
    for k in range(60):
        p = helpers.random_poset(rng, 5 + k % 6, p=(0.2, 0.4, 0.6)[k % 3])
        p = helpers.shuffled_poset(rng, p)
        for spec in class_specs(len(p)):
            h.update(class_check(p, spec).text().encode())
    for k in range(60):
        palette = helpers.PALETTES[k % len(helpers.PALETTES)]
        y = helpers.random_coloured(rng, 6 + k % 5, palette, p=(0.2, 0.4)[k % 2])
        if k % 3 == 2:
            x = helpers.random_coloured(rng, 3 + k % 3, palette, p=0.3, prefix="s")
        else:
            x = y.restrict(rng.sample(y.elements, 3 + k % 4))
        tx, ty = decomposition_tree(x), decomposition_tree(y)
        for s, t in ((tx, ty), (ty, ty)) if k % 4 == 0 else ((tx, ty),):
            phi = st_embed(s, t)
            h.update(mapping_text(phi).encode())
            if phi is not None:
                h.update(mapping_text(lift_embedding(s, t, phi)).encode())
    return h.hexdigest()


def test_class_checks_and_tree_embeddings_match_the_pinned_digest():
    assert class_embed_digest() == CLASS_EMBED_PINNED


def sum_class_digest():
    h = hashlib.sha256()
    rng = random.Random(179)
    for k in range(40):
        p = helpers.substitution_poset(rng, 8 + k % 5)
        for spec in class_specs(len(p)):
            h.update(class_check(p, spec).text().encode())
        for cap in range(2, len(p) + 1):
            for s in indecomposable_subsets(p, cap):
                h.update((",".join(sorted(s, key=p.index.__getitem__)) + "\n").encode())
            h.update(b"end\n")
    return h.hexdigest()


def test_substitution_class_checks_match_the_pinned_digest():
    assert sum_class_digest() == SUM_CLASS_PINNED
