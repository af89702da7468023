import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from poset_forge.cli import run
from poset_forge.textio import load_coloured_poset, poset_text
from poset_forge import canonical, wqo
from poset_forge.wqo import Family, bad_pair_search, embeddability_matrix, matrix_text


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)

    write("n.poset", poset_text("n", canonical("N", 0)))
    write("ch2.poset", poset_text("ch2", canonical("chain", 2)))
    write("ch3.poset", poset_text("ch3", canonical("chain", 3)))
    write("tree.poset", poset_text("t", canonical("binary_tree_prefix", 3)))
    write(
        "col0.poset",
        "poset c0\nelem a colour=0\nend\nquasi q\nelem 0\nelem 1\nle 0 1\nend\n",
    )
    write(
        "col1.poset",
        "poset c1\nelem a colour=1\nend\nquasi q\nelem 0\nelem 1\nle 0 1\nend\n",
    )
    write("bad.poset", "poset b\nelem a\nlt a z\nend\n")
    write("one.poset", poset_text("one", canonical("chain", 1)))
    return paths


class TestExitCodes:
    def test_embed_absent_is_1(self, files):
        code, text = invoke(["embed", files["n.poset"], files["ch3.poset"]])
        assert code == 1 and text == "ABSENT\n"

    def test_embed_present_is_0(self, files):
        code, text = invoke(["embed", files["ch2.poset"], files["ch3.poset"]])
        assert code == 0 and text.startswith("witness ")

    def test_classify_negative(self, files):
        code, text = invoke(
            ["classify", files["n.poset"], "--max-indecomposable", "3"]
        )
        assert code == 1
        assert "violation 0,1,2,3" in text

    def test_classify_positive(self, files):
        code, _ = invoke(
            ["classify", files["n.poset"], "--max-indecomposable", "4"]
        )
        assert code == 0

    def test_parse_error_is_2(self, files):
        code, text = invoke(["validate", files["bad.poset"]])
        assert code == 2 and text.startswith("error:")

    def test_missing_file_is_2(self, files):
        code, _ = invoke(["decompose", files["n.poset"] + ".nope"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "{e}"],
            ["tree", "{e}"],
            ["embed", "{e}", "{e}"],
            ["lift", "{e}", "{e}"],
            ["classify", "{e}", "--max-indecomposable", "3"],
            ["rank", "{e}", "--tree"],
            ["quotient", "{e}", "--interval", "x"],
            ["matrix", "{e}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_empty_palette_is_2(self, tmp_path, argv):
        path = tmp_path / "empty-palette.poset"
        path.write_text("poset p\nelem x\nend\nquasi z\nend\n", encoding="utf-8")
        code, text = invoke([a.format(e=path) for a in argv])
        assert code == 2 and text.startswith("error:")

    def test_bad_usage_is_2(self, files):
        assert invoke(["frobnicate"])[0] == 2
        assert invoke(["rank", files["ch3.poset"]])[0] == 2  # needs a mode


class TestVerbs:
    def test_validate(self, files):
        code, text = invoke(["validate", files["n.poset"], files["ch2.poset"]])
        assert code == 0
        assert "ok poset n elems=4" in text

    def test_decompose(self, files):
        code, text = invoke(["decompose", files["ch3.poset"]])
        assert code == 0
        assert text.splitlines()[0] == "decompose ch3"
        assert "chain 0 a,b,c" in text
        assert "chain 2 a" in text

    def test_decompose_carries_colours(self, files, tmp_path):
        path = tmp_path / "coloured.poset"
        path.write_text(
            "poset cp\nelem x colour=1\nelem y colour=0\nlt x y\nend\n",
            encoding="utf-8",
        )
        code, text = invoke(["decompose", str(path)])
        assert code == 0
        assert "elems=y:0" in text and "elems=x:1" in text

    def test_tree(self, files):
        code, text = invoke(["tree", files["ch3.poset"]])
        assert code == 0
        assert text.count("node ") == 6

    def test_lift_present(self, files):
        code, text = invoke(["lift", files["ch2.poset"], files["ch3.poset"]])
        assert code == 0
        assert "tree-witness " in text and "\nwitness " in text

    def test_lift_absent(self, files):
        code, text = invoke(["lift", files["n.poset"], files["ch3.poset"]])
        assert code == 1 and text == "ABSENT\n"

    def test_coloured_embed(self, files):
        code, _ = invoke(
            ["embed", files["col0.poset"], files["col1.poset"], "--coloured"]
        )
        assert code == 0
        code, _ = invoke(
            ["embed", files["col1.poset"], files["col0.poset"], "--coloured"]
        )
        assert code == 1

    def test_rank(self, files):
        code, text = invoke(["rank", files["tree.poset"], "--tree"])
        assert code == 0 and text == "rank 2\n"
        code, text = invoke(["rank", files["tree.poset"], "--scattered"])
        assert code == 0 and text == "rank 2\n"
        code, _ = invoke(["rank", files["n.poset"], "--tree"])
        assert code == 2  # not a tree

    def test_quotient(self, files):
        code, text = invoke(
            ["quotient", files["ch3.poset"], "--interval", "a,b"]
        )
        assert code == 0
        assert "poset ch3.q" in text
        assert "rep b a" in text

    def test_quotient_not_interval(self, files):
        code, _ = invoke(["quotient", files["ch3.poset"], "--interval", "a,c"])
        assert code == 2

    def test_antichain(self, files):
        code, text = invoke(["antichain", "--n", "4"])
        assert code == 0
        assert "row Z1 1000" in text
        assert "row Z4 0001" in text
        assert "antichain yes" in text

    def test_antichain_over_bound_fails_before_building(self, monkeypatch):
        def refuse(n_max):
            raise AssertionError("fences built before the bound check")

        monkeypatch.setattr("poset_forge.cli.fence_antichain", refuse)
        code, text = invoke(["antichain", "--n", "1000000"])
        assert code == 2 and text == "error: family has 1000000 > 10 members\n"

    def test_antichain_bound_widens_limit(self):
        code, text = invoke(["antichain", "--n", "11"])
        assert code == 2 and text == "error: family has 11 > 10 members\n"
        code, text = invoke(["antichain", "--n", "11", "--bound", "11"])
        assert code == 0
        assert "row Z11 00000000001" in text and text.endswith("antichain yes\n")

    def test_matrix(self, files):
        code, text = invoke(
            ["matrix", files["ch3.poset"], files["ch2.poset"], files["one.poset"]]
        )
        assert code == 0
        assert "row ch3 100" in text
        assert "row ch2 110" in text
        assert "bad-pair 0 1" in text

    def test_matrix_good_family(self, files):
        # chains of growing length: each embeds in every later one
        code, text = invoke(
            ["matrix", files["one.poset"], files["ch2.poset"], files["ch3.poset"]]
        )
        assert code == 0
        assert "row one 111" in text and "row ch3 001" in text
        assert text.splitlines()[-1] == "bad-pair none"

    def test_matrix_searches_each_pair_once(self, files, monkeypatch):
        # the bad pair is read off the printed matrix, and the diagonal is
        # true by reflexivity: n^2 - n searches, one per off-diagonal pair
        names = ["ch3.poset", "ch2.poset", "one.poset"]
        members = [load_coloured_poset(Path(files[n]).read_text()) for n in names]
        fam = Family(tuple(x for _, x in members), tuple(name for name, _ in members))
        want = matrix_text(fam, embeddability_matrix(fam)) + "bad-pair 0 1\n"
        assert bad_pair_search(fam) == (0, 1)
        calls = []
        family_below = wqo._family_below

        def counted(members):
            below = family_below(members)

            def counted_pair(i, j):
                calls.append((members[i], members[j]))
                return below(i, j)

            return counted_pair

        monkeypatch.setattr(wqo, "_family_below", counted)
        code, text = invoke(["matrix"] + [files[n] for n in names])
        assert code == 0 and text == want
        assert len(calls) == len(names) ** 2 - len(names) == 6
        assert all(x is not y for x, y in calls)

    def test_scattered_rank_bound_flag(self, files):
        code, text = invoke(
            ["rank", files["tree.poset"], "--scattered", "--bound", "3"]
        )
        assert code == 2  # 7 nodes > bound

    def test_tree_rank_refuses_bound(self, files):
        # --bound applies only to --scattered: with --tree it is refused
        code, text = invoke(["rank", files["tree.poset"], "--tree", "--bound", "1"])
        assert code == 2 and text == "error: --bound applies only to --scattered\n"

    def test_matrix_palette_mismatch(self, files):
        code, text = invoke(
            ["matrix", files["col0.poset"], files["ch2.poset"]]
        )
        assert code == 2 and text.startswith("error:")


class TestSeparatorIds:
    # element ids that look like layer/slot paths
    TEXT = (
        "poset p\nelem 1.a\nelem b/1\nelem b\nelem 0.b\nelem a\n"
        "lt 1.a 0.b\nlt b/1 b\nlt b/1 0.b\nlt b a\nend\n"
    )

    @pytest.fixture
    def path(self, tmp_path):
        p = tmp_path / "p.poset"
        p.write_text(self.TEXT, encoding="utf-8")
        return str(p)

    def test_tree_node_ids_distinct(self, path):
        code, text = invoke(["tree", path])
        assert code == 0
        nodes = [line.split()[1] for line in text.splitlines() if line.startswith("node ")]
        assert len(nodes) == 9 and len(set(nodes)) == 9

    def test_lift_into_itself_is_identity(self, path):
        code, text = invoke(["lift", path, path])
        assert code == 0
        (witness,) = [line for line in text.splitlines() if line.startswith("witness ")]
        pairs = [ab.split("->") for ab in witness.split()[1:]]
        assert sorted(pairs) == sorted([e, e] for e in ("1.a", "b/1", "b", "0.b", "a"))


class TestDeterminism:
    def test_repeated_runs_identical(self, files):
        for verb in ("decompose", "tree"):
            outputs = {invoke([verb, files["n.poset"]])[1] for _ in range(3)}
            assert len(outputs) == 1

    def test_env_bound_override(self, files, monkeypatch):
        monkeypatch.setenv("POSET_FORGE_BOUND", "3")
        code, _ = invoke(["decompose", files["n.poset"]])
        assert code == 2  # four elements exceed the global bound


# seed documents for the fuzz test, all valid
FUZZ_SEEDS = (
    poset_text("n", canonical("N", 0)),
    poset_text("t", canonical("binary_tree_prefix", 3)),
    poset_text("f", canonical("fence", 3)),
    "poset c\nelem a colour=0\nelem b colour=1\nelem c colour=1\nlt a b\nend\n"
    "quasi q\nelem 0\nelem 1\nle 0 1\nend\n",
    "poset d\nelem 1.a\nelem b/1\nelem _s\nlt 1.a b/1\nend\n",
)
FUZZ_TOKENS = (
    "a", "b", "z", "0", "1", "_s", "1.a", "\\", "colour=1", "colour=", "colour=9",
    "lt", "le", "elem", "end", "poset", "quasi", "#",
)
FUZZ_LINES = ("lt a a", "lt b a", "elem a", "end", "quasi q", "le 1 0", "poset p", "elem x colour=9")
FUZZ_VERBS = (
    ["validate", "{a}", "{b}"],
    ["decompose", "{a}"],
    ["tree", "{a}"],
    ["embed", "{a}", "{b}"],
    ["embed", "{a}", "{b}", "--coloured"],
    ["lift", "{a}", "{b}"],
    ["classify", "{a}", "--max-indecomposable", "3"],
    ["classify", "{a}", "--allowed", "{b}"],
    ["rank", "{a}", "--tree"],
    ["rank", "{a}", "--scattered"],
    ["quotient", "{a}", "--interval", "a,b"],
    ["antichain", "--n", "{n}"],
    ["matrix", "{a}", "{b}"],
)


@st.composite
def mutated_documents(draw):
    """A seed document under a few line and token edits, as bytes; an edit
    may also cut the document short or put in a byte that is not UTF-8."""
    lines = draw(st.sampled_from(FUZZ_SEEDS)).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("drop", "copy", "swap", "token", "insert", "cut")))
        k = draw(st.integers(0, max(len(lines) - 1, 0)))
        if not lines:
            lines = [draw(st.sampled_from(FUZZ_LINES))]
        elif kind == "drop":
            del lines[k]
        elif kind == "copy":
            lines.insert(k, lines[k])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[j], lines[k] = lines[k], lines[j]
        elif kind == "token":
            tokens = lines[k].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(FUZZ_TOKENS))
            lines[k] = " ".join(tokens)
        elif kind == "insert":
            lines.insert(k, draw(st.sampled_from(FUZZ_LINES)))
        else:
            lines = lines[:k]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(FUZZ_VERBS),
        mutated_documents(),
        mutated_documents(),
        st.integers(-2, 3),
    )
    def test_mutated_files_never_crash(self, tmp_path_factory, argv, a, b, n):
        # every verb, the two-file ones included: exit 0, 1 or 2, and a 2
        # ends the output with its one error line
        folder = tmp_path_factory.getbasetemp()
        paths = {"a": folder / "fuzz-a.poset", "b": folder / "fuzz-b.poset"}
        paths["a"].write_bytes(a)
        paths["b"].write_bytes(b)
        code, text = invoke([arg.format(n=n, **paths) for arg in argv])
        assert code in (0, 1, 2)
        if code == 2:
            lines = text.splitlines()
            errors = [line for line in lines if line.startswith("error:")]
            assert errors == lines[-1:]


def _run_after_cli_import(probe):
    """Run probe in a fresh interpreter after it imports the package and its
    CLI; ``before`` holds the names of the modules loaded until then."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    imports = "import sys; before = set(sys.modules); import poset_forge, poset_forge.cli; "
    done = subprocess.run(
        [sys.executable, "-c", imports + probe],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_numpy_out():
    _run_after_cli_import("assert 'numpy' not in sys.modules")


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 20 ms of start-up
    _run_after_cli_import(
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules); "
        "assert not loaded, loaded"
    )


def test_import_loads_only_the_standard_library():
    # pyproject.toml declares no dependencies: every module the imports load
    # is the package's own or the standard library's
    _run_after_cli_import(
        "roots = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "other = roots - set(sys.stdlib_module_names) - {'poset_forge'}; "
        "assert not other, sorted(other)"
    )
