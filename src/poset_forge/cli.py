"""Command-line front end.

Exit codes: 0 success, 1 negative result (absent embedding, failed class
check, broken antichain), 2 input error.  All output is plain text with a
stable field order; identical inputs give byte-identical output.
"""

import argparse
import sys

from .classify import ClassSpec, class_check
from .composition import inline_poset, maximal_decomposition
from .core import coloured_embed, embed
from .dectree import (
    decomposition_tree,
    lift_embedding,
    scattered_rank,
    st_embed,
    structured_tree_text,
    tree_rank,
)
from .errors import BadOption, PosetForgeError
from .interval import quotient
from .textio import load_coloured_poset, parse_records, poset_text, PosetRecord
from .wqo import (
    Family,
    _check_family_size,
    _first_bad_pair,
    embeddability_matrix,
    family_indecomposable,
    fence_antichain,
    matrix_text,
)


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load(path):
    return load_coloured_poset(_read(path))


def _parser():
    p = argparse.ArgumentParser(
        prog="poset-forge", description="finite poset decomposition toolkit"
    )
    sub = p.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("validate", help="parse files and check invariants")
    s.add_argument("files", nargs="+")

    s = sub.add_parser("decompose", help="maximal decomposition of a poset")
    s.add_argument("file")

    s = sub.add_parser("tree", help="decomposition tree dump")
    s.add_argument("file")

    s = sub.add_parser("embed", help="search an embedding between two posets")
    s.add_argument("source")
    s.add_argument("target")
    s.add_argument("--coloured", action="store_true")

    s = sub.add_parser("lift", help="tree embedding lifted to a poset embedding")
    s.add_argument("source")
    s.add_argument("target")

    s = sub.add_parser("classify", help="check indecomposable subsets")
    s.add_argument("file")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-indecomposable", type=int, default=None)
    group.add_argument("--allowed", nargs="+", default=None)
    s.add_argument("--bound", type=int, default=None)

    s = sub.add_parser("rank", help="rank of a tree poset")
    s.add_argument("file")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--scattered", action="store_true")
    group.add_argument("--tree", action="store_true")
    s.add_argument("--bound", type=int, default=None)

    s = sub.add_parser("quotient", help="collapse disjoint intervals")
    s.add_argument("file")
    s.add_argument(
        "--interval",
        action="append",
        required=True,
        metavar="a,b,...",
        help="comma-separated members; repeatable",
    )

    s = sub.add_parser("antichain", help="marked-zigzag antichain matrix")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--bound", type=int, default=None)

    s = sub.add_parser("matrix", help="embeddability matrix of a family")
    s.add_argument("files", nargs="+")
    s.add_argument("--bound", type=int, default=None)
    return p


def _cmd_validate(args, out):
    for path in args.files:
        for rec in parse_records(_read(path)):
            if isinstance(rec, PosetRecord):
                print(
                    f"ok poset {rec.name} elems={len(rec.poset)}"
                    f" lt={len(rec.poset.lt_pairs())}",
                    file=out,
                )
            else:
                print(f"ok quasi {rec.name} colours={len(rec.quasi)}", file=out)
    return 0


def _cmd_decompose(args, out):
    name, x = _load(args.file)
    seq, arguments, chain = maximal_decomposition(x)
    print(f"decompose {name}", file=out)
    for j, (arity, s) in enumerate(seq.entries):
        print(f"entry {j} arity={inline_poset(arity)} s={s}", file=out)
    for (j, u) in seq.positions():
        q = arguments[(j, u)]
        elems = ",".join(f"{e}:{q.colour(e)}" for e in q.elements)
        covers = ",".join(f"{a}<{b}" for a, b in q.poset.cover_pairs())
        print(f"arg {j}.{u} elems={elems} lt={covers}", file=out)
    for j, members in enumerate(chain.members):
        ordered = sorted(members, key=x.poset.index.__getitem__)
        print(f"chain {j} {','.join(ordered)}", file=out)
    print("end", file=out)
    return 0


def _cmd_tree(args, out):
    name, x = _load(args.file)
    t = decomposition_tree(x)
    print(f"tree {name}", file=out)
    out.write(structured_tree_text(t))
    print("end", file=out)
    return 0


def _cmd_embed(args, out):
    _, x = _load(args.source)
    _, y = _load(args.target)
    if args.coloured:
        witness = coloured_embed(x, y)
    else:
        witness = embed(x.poset, y.poset)
    if witness is None:
        print("ABSENT", file=out)
        return 1
    print("witness " + " ".join(f"{a}->{b}" for a, b in witness.mapping), file=out)
    return 0


def _cmd_lift(args, out):
    _, x = _load(args.source)
    _, y = _load(args.target)
    tx = decomposition_tree(x)
    ty = decomposition_tree(y)
    phi = st_embed(tx, ty)
    if phi is None:
        print("ABSENT", file=out)
        return 1
    print("tree-witness " + " ".join(f"{a}->{b}" for a, b in phi.mapping), file=out)
    lifted = lift_embedding(tx, ty, phi)
    print("witness " + " ".join(f"{a}->{b}" for a, b in lifted.mapping), file=out)
    return 0


def _cmd_classify(args, out):
    _, x = _load(args.file)
    if args.max_indecomposable is not None:
        spec = ClassSpec(max_size=args.max_indecomposable)
    else:
        allowed = []
        for path in args.allowed:
            for rec in parse_records(_read(path)):
                if isinstance(rec, PosetRecord):
                    allowed.append(rec.poset)
        spec = ClassSpec(allowed=allowed)
    report = class_check(x, spec, bound=args.bound)
    out.write(report.text())
    return 0 if report.passed else 1


def _cmd_rank(args, out):
    if args.tree and args.bound is not None:
        raise BadOption("--bound applies only to --scattered")
    _, x = _load(args.file)
    if args.scattered:
        value = scattered_rank(x.poset, bound=args.bound)
    else:
        value = tree_rank(x.poset)
    print(f"rank {value}", file=out)
    return 0


def _cmd_quotient(args, out):
    name, x = _load(args.file)
    parts = [frozenset(spec.split(",")) for spec in args.interval]
    result, rep_of = quotient(x.poset, parts)
    out.write(poset_text(f"{name}.q", result))
    for e in x.poset.elements:
        print(f"rep {e} {rep_of[e]}", file=out)
    return 0


def _cmd_antichain(args, out):
    _check_family_size(args.n, args.bound)  # before building n fences
    fam = fence_antichain(args.n)
    matrix = embeddability_matrix(fam, bound=args.bound)
    out.write(matrix_text(fam, matrix))
    flags = family_indecomposable(fam)
    print(
        "indecomposable "
        + " ".join(f"{n}={'yes' if f else 'no'}" for n, f in zip(fam.names, flags)),
        file=out,
    )
    identity = all(
        matrix[i][j] == (i == j) for i in range(len(fam)) for j in range(len(fam))
    )
    verdict = identity and all(flags)
    print(f"antichain {'yes' if verdict else 'no'}", file=out)
    return 0 if verdict else 1


def _cmd_matrix(args, out):
    members = []
    names = []
    for path in args.files:
        name, x = _load(path)
        names.append(name)
        members.append(x)
    fam = Family(members, names)
    matrix = embeddability_matrix(fam, bound=args.bound)
    out.write(matrix_text(fam, matrix))
    bad = _first_bad_pair(len(matrix), lambda i, j: matrix[i][j])
    if bad is None:
        print("bad-pair none", file=out)
    else:
        print(f"bad-pair {bad[0]} {bad[1]}", file=out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "decompose": _cmd_decompose,
    "tree": _cmd_tree,
    "embed": _cmd_embed,
    "lift": _cmd_lift,
    "classify": _cmd_classify,
    "rank": _cmd_rank,
    "quotient": _cmd_quotient,
    "antichain": _cmd_antichain,
    "matrix": _cmd_matrix,
}


def run(argv, out=None):
    """Dispatch one command line; returns the exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.verb](args, out)
    except (PosetForgeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
