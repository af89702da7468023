"""The benchmark's traced functions still exist.

``perfbench/spans.py`` rebinds each ``(module, function)`` of its
``TARGETS`` in a traced run.  A function renamed or deleted from the
library would only fail such a run, so this reads ``TARGETS`` off the file
itself, loaded by path, and checks each pair against the package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        f"{module}.{name}"
        for module, name in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"poset_forge.{module}"), name, None))
    ]
    assert missing == []
