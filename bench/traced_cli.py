"""Run `obreshkov` like `python -m obreshkov`, with the tracer installed.

Usage: python traced_cli.py SPANS_JSON [obreshkov arguments...]

The spans and counts are written to SPANS_JSON for the parent benchmark
process to attach under the operation that spawned this process.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402

import obreshkov.cli  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = obreshkov.cli.main(argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
