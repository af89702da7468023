"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Smoke mode runs two jobs of a workload, so each test takes seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def expected_units(key):
    return {m["name"]: m["unit"] for m in SPEC[key]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    info, result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = expected_units("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert info["reference"] == "checked"
    assert info["environment"]["nproc"] >= 1


def test_traced_layers_stay_out_of_bypassing_workloads():
    _, decompose = result_of(smoke("decompose", 1))
    _, search = result_of(smoke("embed_search", 1))
    assert decompose["metrics"]["core.embed.calls"]["value"] == 0
    assert decompose["metrics"]["dectree.decomposition_tree.calls"]["value"] > 0
    assert search["metrics"]["interval.maximal_interval_chain.calls"]["value"] == 0
    assert search["metrics"]["core.embed.calls"]["value"] > 0


def test_corrupted_reference_fails_the_run(tmp_path, monkeypatch, capsys):
    table = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    items = table["decompose"]["1"]["items"]
    items[0] = "0" * len(items[0])
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(table), encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCE", corrupted)
    code = run.main(["--workload", "decompose", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--smoke"])
    assert code != 0
    info, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    assert not result["correct"] and result["failed"] >= 1
    assert info["fail_ratio"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1


def test_fanout_check_refuses_an_allowed_violation():
    pf, _ = run.import_library()
    fanout = workloads.LIBRARY["fanout"]
    n = pf.make_poset(["a", "b", "c", "d"], [("b", "a"), ("b", "c"), ("d", "c")])
    report = SimpleNamespace(violations=[frozenset(n.elements)])
    errors = fanout.violation_errors(n, fanout.allowed_spec(pf), report)
    assert any("within the spec" in e for e in errors)


def test_scaling_follows_the_probe():
    probe = calibrate.Loop()
    samples = [2 * probe.nominal] * 20 + [probe.nominal] * 20
    factors = calibrate.local_factors(probe, samples)
    assert factors[0] == 0.5 and factors[-1] == 1.0


def test_untraced_run_installs_no_wrappers(monkeypatch):
    def refuse(self):
        raise AssertionError("the untraced run installed span wrappers")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    args = run.parse_args(["--workload", "fanout", "--seed", "1", "--seconds", "1",
                           "--trace", "0", "--smoke"])
    _, result = run.measure(args)
    assert result["correct"]
    assert not spans.is_installed()


def test_traced_run_restores_the_library(monkeypatch):
    args = run.parse_args(["--workload", "decompose", "--seed", "1", "--seconds", "1",
                           "--trace", "1", "--smoke"])
    _, result = run.measure(args)
    assert result["correct"]
    assert result["metrics"]["dectree.decomposition_tree.calls"]["value"] > 0
    assert not spans.is_installed()


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("decompose", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
