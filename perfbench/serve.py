"""Launch ``repro serve`` for the benchmark, optionally with layer spans.

``python3 perfbench/serve.py [--trace-out FILE] -- <repro serve args>``

With ``--trace-out`` the layer wrappers of :mod:`layers` are installed in
the server process before it boots, and the span tallies are written to
``FILE`` as JSON when the server exits (SIGTERM drains it first).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]
    rec = None
    if args.trace_out is not None:
        import layers

        layers.import_program()
        rec = layers.Recorder()
        layers.install(rec)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        if rec is not None:
            args.trace_out.write_text(json.dumps(rec.summary()))
            rec.dump(args.trace_out.with_suffix(".spans.jsonl"))


if __name__ == "__main__":
    sys.exit(main())
