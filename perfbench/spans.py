"""Span tracing for the benchmark's traced runs.

The tracer rebinds each public function listed in ``TARGETS`` wherever a
``poset_forge`` module namespace holds it, so calls made through
``composition.maximal_interval_chain``, ``dectree.embed`` or the package
itself are all timed.  Each call becomes one span: a name, a start and end
from ``perf_counter``, the span that was open when it began (its parent) and
the current job id.  Spans stay in memory until the run writes them out.
No library file is edited; ``uninstall`` puts every original back.
"""

import functools
import json
import sys
from time import perf_counter

# (module, function) pairs, grouped by the layer they stand for.
TARGETS = (
    ("textio", "parse_records"),
    ("textio", "load_coloured_poset"),
    ("core", "make_poset"),
    ("core", "embed"),
    ("core", "coloured_embed"),
    ("core", "is_isomorphic"),
    ("interval", "maximal_interval_chain"),
    ("interval", "is_indecomposable"),
    ("interval", "enumerate_intervals"),
    ("interval", "quotient"),
    ("composition", "maximal_decomposition"),
    ("composition", "decomposition_function"),
    ("dectree", "decomposition_tree"),
    ("dectree", "tree_rank"),
    ("dectree", "st_embed"),
    ("dectree", "verify_st_embedding"),
    ("dectree", "lift_embedding"),
    ("classify", "class_check"),
    ("classify", "indecomposable_subsets"),
    ("classify", "is_n_free"),
    ("classify", "pathological_prefix_check"),
    ("wqo", "embeddability_matrix"),
)

# searches whose result is a witness or None; their spans record which
SEARCHES = ("core.embed", "core.coloured_embed", "dectree.st_embed")

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)
MARK = "__perfbench_span__"

# span record fields
ID, PARENT, JOB, NAME, START, END, FOUND = range(7)


def _library_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "poset_forge" or name.startswith("poset_forge."))
    ]


def is_installed():
    """True when any library namespace holds a span wrapper."""
    return any(
        getattr(value, MARK, False)
        for mod in _library_modules()
        for value in vars(mod).values()
    )


class Tracer:
    """Collects spans for the calls into ``TARGETS`` while installed."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._saved = []

    def install(self):
        modules = _library_modules()
        for modname, fname in TARGETS:
            home = sys.modules.get(f"poset_forge.{modname}")
            if home is None:  # never imported, so never called
                continue
            original = getattr(home, fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        tracer = self
        search = name in SEARCHES

        @functools.wraps(fn)
        def span(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, tracer.job, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[ID])
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if search:
                record[FOUND] = result is not None
            return result

        setattr(span, MARK, True)
        return span


def write_spans(records, path):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def read_spans(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def layer_totals(spans):
    """Per span name: calls, total seconds, self seconds, searches found.

    Self time is a span's duration minus the durations of its child spans;
    calls are single-threaded, so children nest strictly inside parents.
    """
    child_time = {}
    for s in spans:
        if s[PARENT] >= 0:
            key = (s[JOB], s[PARENT])
            child_time[key] = child_time.get(key, 0.0) + s[END] - s[START]
    totals = {name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES}
    for s in spans:
        t = totals[s[NAME]]
        duration = s[END] - s[START]
        t[0] += 1
        t[1] += duration
        t[2] += duration - child_time.get((s[JOB], s[ID]), 0.0)
        if s[FOUND]:
            t[3] += 1
    return totals
