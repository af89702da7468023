"""Run one CLI command with span tracing, for the traced CLI runs.

    python perfbench/trace_child.py SPAN_FILE VERB ARGS...

Behaves like ``python -m poset_forge.cli VERB ARGS...`` (same stdout and
exit code) and writes the spans of the library calls to SPAN_FILE.
"""

import sys

from spans import Tracer, write_spans

import poset_forge.cli


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = poset_forge.cli.run(argv)
    finally:
        tracer.uninstall()
        write_spans(tracer.spans, span_file)
    sys.exit(code)


if __name__ == "__main__":
    main()
