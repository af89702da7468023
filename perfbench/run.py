#!/usr/bin/env python3
"""poset-forge benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_small, decompose, embed_search, fanout (see README.md).  One
client cycles through the workload's seeded corpus of jobs, each job after
the previous one finished, until S seconds have passed; items the loop did
not reach then run untimed, so every output is checked.  After each job a
calibration probe is timed, and the end-to-end times are scaled to the
probe's nominal speed (see calibrate.py); the unscaled figures are in the
info line.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` each job runs untraced and then traced, and the run reports
per-layer spans instead.  The last stdout line is the result as JSON; the
line before it describes the run.
Exits 1 when any job failed, 2 when the library sources are missing.
"""

import argparse
import compileall
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata, util
from pathlib import Path

import calibrate
import checks
import spans
from cliwork import CliSmall
from workloads import LIBRARY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("cli_small", "decompose", "embed_search", "fanout")
PINNED_ENV = ("POSET_FORGE_BACKEND", "POSET_FORGE_BOUND")
SETUP_REPEATS = 3
SETUP_PROBES = 5  # calibration probes before each set-up
WARM_JOBS = 3
SMOKE_ITEMS = 2
STARTUP_REPEATS = 5


class Missing(Exception):
    """The checkout holds no library sources to benchmark."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="two jobs, one pass, one set-up")
    p.add_argument("--record", action="store_true", help="store this seed's digests as the reference")
    return p.parse_args(argv)


def pin_environment():
    """Drop settings that change which kernel runs or which inputs raise."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def build():
    """Compile the library sources, so the first import is not a compile."""
    if not (SRC / "poset_forge" / "__init__.py").is_file():
        raise Missing(f"no poset_forge sources under {SRC}")
    compileall.compile_dir(str(SRC), quiet=2)


def environment():
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy,
        "numba": util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
    }


def import_library():
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import poset_forge

    elapsed = time.perf_counter() - start
    if not Path(poset_forge.__file__).resolve().is_relative_to(SRC):
        raise Missing(f"poset_forge imported from {poset_forge.__file__}, not {SRC}")
    return poset_forge, elapsed


def startup_ms(code):
    """Median wall time of ``python -c CODE`` in a fresh interpreter."""
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


class Ledger:
    """Per-job verdicts.  Each corpus item's first output is checked
    independently and against the reference digest; every other job of
    that item must reproduce the first output's text exactly."""

    def __init__(self, reference):
        self.reference = reference  # item index -> short digest, or None
        self.canon = {}
        self.errors = {}
        self.jobs = []

    def first(self, index, text):
        self.canon[index] = text
        self.errors[index] = []
        if self.reference is not None and checks.digest(text)[:16] != self.reference[index]:
            self.errors[index].append("output digest differs from the reference")

    def add(self, index, text, error):
        """Record one job; ``text`` is its canonical output, or None."""
        if text is not None and index not in self.canon:
            self.first(index, text)
        self.jobs.append((index, text, error))

    def failures(self):
        out = []
        for index, text, error in self.jobs:
            if error is not None:
                reason = error
            elif text != self.canon[index]:
                reason = "output differs from the item's first output"
            elif self.errors[index]:
                reason = "; ".join(self.errors[index])
            else:
                continue
            out.append(f"item {index}: {reason}")
        return out

    def digest(self, count):
        return checks.digest("".join(f"{i}\t{self.canon[i]}\n" for i in range(count)))

    def item_digests(self, count):
        return [checks.digest(self.canon[i])[:16] for i in range(count)]


def load_reference(path, workload, seed, count):
    try:
        table = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    entry = table.get(workload, {}).get(str(seed))
    if entry is None:
        return None
    if len(entry["items"]) < count:
        raise ValueError(f"reference for {workload} seed {seed} covers fewer items than the corpus")
    return entry["items"]


def record_reference(path, workload, seed, ledger, count):
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    table.setdefault(workload, {})[str(seed)] = {
        "digest": ledger.digest(count),
        "items": ledger.item_digests(count),
    }
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def tail(latencies):
    """Latency at the highest percentile with at least ten jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarise_mix(mix):
    out = dict(mix)
    out["sizes"] = dict(sorted(Counter(mix["sizes"]).items()))
    return out


class LibraryRun:
    """Jobs as in-process library calls."""

    def __init__(self, workload, seed, smoke):
        self.w = LIBRARY[workload]
        self.seed = seed
        self.smoke = smoke
        self.tracer = spans.Tracer()
        self.probe = calibrate.Loop()
        self.pf, self.import_s = import_library()

    def setup(self):
        items = self.w.corpus(self.pf, random.Random(f"{self.w.name}:{self.seed}"))
        if self.smoke:
            items = items[:SMOKE_ITEMS]
        for item in items[:WARM_JOBS]:
            self.w.run(self.pf, item)
        self.items = items

    def begin(self, traced):
        if traced:
            self.tracer.install()

    def end(self, traced):
        if traced:
            self.tracer.uninstall()

    def job(self, index, job_id, traced):
        self.tracer.job = job_id
        return self.w.run(self.pf, self.items[index])

    def canon(self, index, result):
        return self.w.canon(self.pf, self.items[index], result)

    def check(self, index, result):
        return self.w.check(self.pf, self.items[index], result)

    def mix(self, results):
        return self.w.mix(self.pf, self.items, results)

    def span_records(self):
        return self.tracer.spans

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CliRun:
    """Jobs as CLI processes; the measuring process never imports the library."""

    def __init__(self, seed, smoke):
        self.w = CliSmall()
        self.seed = seed
        self.smoke = smoke
        self.import_s = 0.0
        self.inputs = WORK / "cli_inputs"
        self.span_file = WORK / "cli_child_spans.jsonl"
        self.records = []
        self.warm = {}
        self.probe = calibrate.NumpyImport(sys.executable, child_env(), WORK)

    def setup(self):
        if self.inputs.exists():
            shutil.rmtree(self.inputs)
        items = self.w.corpus(random.Random(f"cli_small:{self.seed}"), self.inputs)
        if self.smoke:
            items = items[:SMOKE_ITEMS]
        self.items = items
        for index, item in enumerate(items):
            self.warm.setdefault(index, []).append(self._call(item, traced=False))

    def _call(self, item, traced):
        if traced:
            self.span_file.unlink(missing_ok=True)
            prefix = (str(HERE / "trace_child.py"), str(self.span_file))
            return self.w.run(item, sys.executable, child_env(), self.inputs, prefix)
        return self.w.run(item, sys.executable, child_env(), self.inputs)

    def begin(self, traced):
        pass

    def end(self, traced):
        if traced and self.span_file.exists():
            for record in spans.read_spans(self.span_file):
                record[spans.JOB] = self.job_id
                self.records.append(record)

    def job(self, index, job_id, traced):
        self.job_id = job_id
        return self._call(self.items[index], traced)

    def canon(self, index, result):
        return self.w.canon(self.items[index], result)

    def check(self, index, result):
        errors = self.w.check(self.items[index], result)
        texts = {self.canon(index, r) for r in self.warm[index]}
        if len(texts) != 1:
            errors.append("warm-up calls printed different outputs")
        return errors

    def mix(self, results):
        return self.w.mix(self.items, results)

    def span_records(self):
        return self.records

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def measure(args):
    pin_environment()
    build()
    WORK.mkdir(exist_ok=True)
    if args.workload == "cli_small":
        runner = CliRun(args.seed, args.smoke)
    else:
        runner = LibraryRun(args.workload, args.seed, args.smoke)

    setup_times, setup_cal = [], []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        setup_cal += [runner.probe.sample() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        runner.setup()
        setup_times.append(time.perf_counter() - start)
    raw_setup_s = runner.import_s + statistics.median(setup_times)
    count = len(runner.items)
    reference = None if args.record else load_reference(REFERENCE, args.workload, args.seed, count)
    ledger = Ledger(reference)
    firsts = {}  # first result of each item, checked after the loop
    if isinstance(runner, CliRun):
        # a CLI job must print exactly what its warm-up call printed
        for index in range(count):
            firsts[index] = runner.warm[index][0]
            ledger.first(index, runner.canon(index, firsts[index]))

    def timed_job(index, traced):
        """Run one job; check its output outside the timed interval."""
        nonlocal job_id
        runner.begin(traced)
        t0 = time.perf_counter()
        try:
            result, error = runner.job(index, job_id, traced), None
        except Exception as exc:  # a failing job is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            runner.end(traced)
        job_id += 1
        text = None if error is not None else runner.canon(index, result)
        if text is not None and index not in ledger.canon:
            firsts[index] = result
        ledger.add(index, text, error)
        return elapsed

    latencies = []  # untraced jobs
    segments = []  # wall time of each untraced job with its checking
    cal = []  # one calibration probe after each untraced job
    traced_seconds = []  # the same jobs again, traced
    job_id = 0
    start = time.perf_counter()
    while True:
        index = len(latencies) % count
        segment = time.perf_counter()
        latencies.append(timed_job(index, False))
        segments.append(time.perf_counter() - segment)
        cal.append(runner.probe.sample())
        if args.trace:
            traced_seconds.append(timed_job(index, True))
        if len(latencies) >= count if args.smoke else time.perf_counter() - start >= args.seconds:
            break
    # every corpus item gets checked, also those the timed loop did not reach
    for index in range(len(latencies), count):
        timed_job(index, False)
    for index, result in firsts.items():
        ledger.errors[index] += runner.check(index, result)

    failures = ledger.failures()
    failed = len(failures)
    attempted = len(ledger.jobs)
    complete = len(firsts) == count
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "corpus_jobs": count,
        "timed_jobs": len(latencies),
        "fail_ratio": failed / attempted,
        "failures": failures[:5],
        "digest": ledger.digest(count) if complete else None,
        "reference": "none for this seed" if reference is None else "checked",
    }
    if complete:
        info["mix"] = summarise_mix(runner.mix([firsts[i] for i in range(count)]))

    if args.trace:
        metrics = layer_metrics(runner.span_records(), len(traced_seconds))
        metrics["trace.overhead_ratio"] = {
            "value": sum(traced_seconds) / sum(latencies),
            "unit": "ratio",
        }
        metrics["cli.import_ms"] = {"value": startup_ms("import poset_forge.cli"), "unit": "ms"}
        metrics["cli.bare_python_ms"] = {"value": startup_ms("pass"), "unit": "ms"}
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.write_spans(runner.span_records(), spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        factors = calibrate.local_factors(runner.probe, cal)
        scaled = [t * f for t, f in zip(latencies, factors)]
        value, percentile = tail(scaled)
        info["tail_percentile"] = percentile
        info["tail_jobs"] = len(latencies)
        info["calibration_ms"] = statistics.median(cal) * 1000
        info["unscaled"] = {
            "job_p50_ms": statistics.median(latencies) * 1000,
            "job_tail_ms": tail(latencies)[0] * 1000,
            "jobs_per_s": len(latencies) / sum(segments),
            "setup_s": raw_setup_s,
        }
        metrics = {
            "job_p50_ms": {"value": statistics.median(scaled) * 1000, "unit": "ms"},
            "job_tail_ms": {"value": value * 1000, "unit": "ms"},
            "jobs_per_s": {
                "value": len(latencies) / sum(t * f for t, f in zip(segments, factors)),
                "unit": "1/s",
            },
            "setup_s": {"value": raw_setup_s * calibrate.factor(runner.probe, setup_cal), "unit": "s"},
            "peak_rss_mb": {"value": runner.peak_rss_kb() / 1024, "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    if args.record and failed == 0:
        record_reference(REFERENCE, args.workload, args.seed, ledger, count)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return info, result


def layer_metrics(records, traced_jobs):
    """Per-layer metrics, as means per traced job."""
    totals = spans.layer_totals(records)
    per = max(1, traced_jobs)
    metrics = {}
    for name in spans.SPAN_NAMES:
        calls, total, self_time, found = totals[name]
        metrics[f"{name}.calls"] = {"value": calls / per, "unit": "count"}
        metrics[f"{name}.total_ms"] = {"value": total * 1000 / per, "unit": "ms"}
        metrics[f"{name}.self_ms"] = {"value": self_time * 1000 / per, "unit": "ms"}
        if name in spans.SEARCHES:
            metrics[f"{name}.found_ratio"] = {"value": found / calls if calls else 0.0, "unit": "ratio"}
    return metrics


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        info, result = measure(args)
    except Missing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
