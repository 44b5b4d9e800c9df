"""Run one CLI request with span tracing; the traced twin of
``python -m borelstab.cli``.

Usage: ``python bench/cli_traced.py <verb> [options]`` with ``src`` on
``PYTHONPATH`` and ``BENCH_SPANS`` naming the file the spans go to.  The
exit status is the CLI's own.
"""

import json
import os
import sys

import borelstab.cli

from spans import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.begin(0)
    try:
        code = borelstab.cli.run(sys.argv[1:])
    finally:
        tracer.end()
        spans, counts = tracer.take()
        with open(os.environ["BENCH_SPANS"], "w") as handle:
            json.dump({"spans": spans, "counts": counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
