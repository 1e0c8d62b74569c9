"""Run one cyc3 command line with the benchmark's span wrappers installed.

    python3 perfbench/cli_driver.py verify --m 10 --e 734 --format json

It behaves as `python -m cyc3 ...` does: same stdout, same exit code.  After
the command finishes it writes the recorded spans and counts as one JSON
line to stderr, prefixed with SPANS_MARKER.  Needs `src` on PYTHONPATH.
"""

import json
import sys

import cyc3.cli
from tracer import Tracer

SPANS_MARKER = b"@@perfbench-spans "


def main() -> int:
    tracer = Tracer()
    tracer.install()
    code = cyc3.cli.main(sys.argv[1:])
    sys.stdout.flush()
    payload = json.dumps({"spans": tracer.spans, "counts": tracer.counts})
    sys.stderr.buffer.write(SPANS_MARKER + payload.encode() + b"\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
