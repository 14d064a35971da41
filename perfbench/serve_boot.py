"""Start ``repro serve`` with the layer wrappers installed.

Usage: ``python3 perfbench/serve_boot.py SPANS_JSON serve [ARGS...]``
(with ``src`` on ``PYTHONPATH``).  Runs ``repro.cli.main`` on the
remaining arguments and, once the server has shut down, writes the
recorded spans and counts to SPANS_JSON.  Spans of the verification
pool's worker processes are not recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from layers import SpanRecorder


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    out = Path(argv[0])
    recorder = SpanRecorder().install()
    try:
        return cli_main(argv[1:])
    finally:
        recorder.uninstall()
        out.write_text(json.dumps(recorder.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
