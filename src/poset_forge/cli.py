"""Command-line front end.

Exit codes: 0 success, 1 negative result (absent embedding, failed class
check, broken antichain), 2 input error, a usage error included, which
prints one ``error:`` line.  All output is plain text on stdout with a
stable field order; identical inputs give byte-identical output.
"""

import sys
from types import SimpleNamespace

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


# kinds of option value: a flag takes none, an int one, "some" one or more
# words (the last use wins), "append" one word per use
FLAG, INT, SOME, APPEND = "flag", "int", "some", "append"
HELP = "help"

_HELP = {"-h": HELP, "--help": HELP}
_METAVAR = {FLAG: "", INT: " N", SOME: " FILE...", APPEND: " a,b,..."}


def _usage(verb):
    """One verb's usage line, read off its table entry."""
    _, positionals, kinds, required, pair, _ = _VERBS[verb]
    words = [verb]
    for name in positionals:
        words.append(name[:-1].upper() + "..." if name.endswith("+") else name.upper())
    if pair:
        words.append("(" + " | ".join(o + _METAVAR[kinds[o]] for o in pair) + ")")
    for option, kind in kinds.items():
        if option in required:
            words.append(option + _METAVAR[kind])
        elif option not in pair:
            words.append(f"[{option}{_METAVAR[kind]}]")
        if kind == APPEND:
            words.append(f"[{option} ...]")
    return " ".join(words)


def _help(word):
    """Help for one verb, or for every verb when word names none."""
    if word in _VERBS:
        return f"usage: poset-forge {_usage(word)}\n\n{_VERBS[word][0]}\n"
    lines = ["usage: poset-forge VERB ...", ""]
    for verb, entry in _VERBS.items():
        lines += [f"  {_usage(verb)}", f"      {entry[0]}"]
    lines += [
        "",
        "Options go before, between or after the positionals, as --opt value,",
        "--opt=value or a unique prefix; -h after a verb shows its usage.",
        "Exit code 0 = success, 1 = negative result, 2 = input error.",
    ]
    return "\n".join(lines) + "\n"


def _negative_number(word):
    """Whether word is ``-`` then digits, with at most one ``.`` before the
    last digit (``-2``, ``-1.5``, ``-.5``): such a word is a value."""
    whole, dot, part = word[1:].partition(".")
    if dot:
        return (whole == "" or whole.isdecimal()) and part.isdecimal()
    return whole.isdecimal()


def _option(word, kinds):
    """``(option, value)`` when word is an option: a known name or a unique
    prefix of one, or an unknown word that starts with ``-`` (kept whole);
    value is the text after ``=``, or None.  None when word is a value: it
    does not start with ``-``, is ``-`` itself, a negative number or holds a
    space."""
    if word[:1] != "-" or word == "-":
        return None
    name, eq, value = word.partition("=")
    value = value if eq else None
    if name in kinds:
        return name, value
    if word[1] == "-":
        found = [option for option in kinds if option.startswith(name)]
        if len(found) > 1:
            raise BadOption(f"{name} is ambiguous: {', '.join(found)}")
        if found:
            return found[0], value
    if _negative_number(word) or " " in word:
        return None
    return word, None


def _dest(name):
    return name.lstrip("-").rstrip("+").replace("-", "_")


def _parse(argv):
    """The values of one command line, keyed as the ``_cmd_*`` functions read
    them; None when it asks for help.  Raises BadOption on a usage error.

    A line reads as it did under the argparse parser this replaced (kept as
    a test oracle).  Options and runs of positional words may interleave,
    and every word after ``--`` is positional; each run fills the
    positionals left, in order.  A bad integer, a missing value, a value
    given to a flag or the second option of an exactly-one-of pair fails at
    once, before a later ``-h`` is read.  Any other usage error is reported
    once the whole line is read, and ``-h`` anywhere wins over it.
    """
    if not argv or argv[0] not in _VERBS:
        if argv and argv[0] in ("-h", "--h", "--he", "--hel", "--help"):
            return None
        word = repr(argv[0]) if argv else "none"
        raise BadOption(f"verb {word} is not one of {', '.join(_VERBS)}")
    verb = argv[0]
    _, positionals, kinds, required, pair, _ = _VERBS[verb]
    values = {"verb": verb}
    values.update((_dest(name), None) for name in positionals)
    values.update((_dest(o), False if k == FLAG else None) for o, k in kinds.items())
    kinds = {**_HELP, **kinds}
    late = []  # errors that a later -h still overrides
    runs = [[]]  # runs of positional words, split by options
    given = set()
    i, rest = 1, False
    while i < len(argv):
        word = argv[i]
        i += 1
        if word == "--" and not rest:
            rest = True
            continue
        found = None if rest else _option(word, kinds)
        if found is None:
            runs[-1].append(word)
            continue
        runs.append([])
        option, value = found
        kind = kinds.get(option)
        if kind is None:
            late.append(f"unknown option {option!r} for {verb}")
            continue
        if kind in (FLAG, HELP):
            if value is not None:
                raise BadOption(f"{option} takes no value, got {value!r}")
            if kind == HELP:
                return None
            value = True
        elif value is None:
            start = i
            while i < len(argv) and argv[i] != "--" and _option(argv[i], kinds) is None:
                i += 1
                if kind != SOME:
                    break
            if i == start:
                raise BadOption(f"{option} needs a value")
            value = argv[start:i] if kind == SOME else argv[start]
        elif kind == SOME:
            value = [value]
        if kind == INT:
            try:
                value = int(value)
            except ValueError:
                raise BadOption(f"{option} takes an integer, got {value!r}") from None
        elif kind == APPEND:
            value = (values[_dest(option)] or []) + [value]
        if option in pair and given.intersection(pair) - {option}:
            raise BadOption(f"{pair[0]} and {pair[1]} exclude each other")
        given.add(option)
        values[_dest(option)] = value
    names = iter(positionals)
    for run in runs:
        j = 0
        while j < len(run) and (name := next(names, None)):
            if name.endswith("+"):
                values[_dest(name)], j = run[j:], len(run)
            else:
                values[name], j = run[j], j + 1
        late += [f"unexpected word {word!r} for {verb}" for word in run[j:]]
    if rest and not runs[-1]:  # a -- that no positional took
        late.append(f"unexpected word '--' for {verb}")
    late += [f"{verb} needs {_dest(name).upper()}" for name in names]
    late += [f"{verb} needs {option}" for option in required if option not in given]
    if pair and not given.intersection(pair):
        late.append(f"{verb} needs one of {pair[0]} and {pair[1]}")
    if late:
        raise BadOption(late[0])
    return SimpleNamespace(**values)


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


# verb: (help line, positionals, options and their kinds, required options,
# an exactly-one-of pair or (), handler); a positional ending in "+" takes one
# or more words, and takes the whole run of words it starts
_VERBS = {
    "validate": ("parse files and check invariants", ("files+",), {}, (), (), _cmd_validate),
    "decompose": ("maximal decomposition of a poset", ("file",), {}, (), (), _cmd_decompose),
    "tree": ("decomposition tree dump", ("file",), {}, (), (), _cmd_tree),
    "embed": (
        "search an embedding between two posets",
        ("source", "target"),
        {"--coloured": FLAG},
        (),
        (),
        _cmd_embed,
    ),
    "lift": (
        "tree embedding lifted to a poset embedding",
        ("source", "target"),
        {},
        (),
        (),
        _cmd_lift,
    ),
    "classify": (
        "check indecomposable subsets",
        ("file",),
        {"--max-indecomposable": INT, "--allowed": SOME, "--bound": INT},
        (),
        ("--max-indecomposable", "--allowed"),
        _cmd_classify,
    ),
    "rank": (
        "rank of a tree poset",
        ("file",),
        {"--scattered": FLAG, "--tree": FLAG, "--bound": INT},
        (),
        ("--scattered", "--tree"),
        _cmd_rank,
    ),
    "quotient": (
        "collapse disjoint intervals",
        ("file",),
        {"--interval": APPEND},
        ("--interval",),
        (),
        _cmd_quotient,
    ),
    "antichain": (
        "marked-zigzag antichain matrix",
        (),
        {"--n": INT, "--bound": INT},
        ("--n",),
        (),
        _cmd_antichain,
    ),
    "matrix": (
        "embeddability matrix of a family", ("files+",), {"--bound": INT}, (), (), _cmd_matrix
    ),
}


def run(argv, out=None):
    """Dispatch one command line; returns the exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = _parse(argv)
        if args is None:
            out.write(_help(argv[0]))
            return 0
        return _VERBS[args.verb][-1](args, out)
    except (PosetForgeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
