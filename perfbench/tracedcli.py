"""Run one ``mcgc`` command with the package's functions traced.

    python3 perfbench/tracedcli.py SPANS_PATH MEMORY COMMAND [ARGS...]

Behaves like ``python3 -m mcgc.cli COMMAND [ARGS...]`` (same stdout, files
and exit code) and writes the spans it recorded to SPANS_PATH as one JSON
list when the command ends.  MEMORY is 1 to record tracemalloc peaks.  ``src/`` must be on PYTHONPATH.
"""

import json
import sys

import mcgc.cli

import tracer as tracing


def main(argv: list[str]) -> int:
    spans_path, memory, args = argv[0], argv[1] == "1", argv[2:]
    spans = tracing.Tracer(memory)
    try:
        with tracing.installed(spans):
            spans.enabled = True
            code = mcgc.cli.dispatch(args)
            spans.enabled = False
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(spans.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
