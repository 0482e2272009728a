"""One set-up trial in a fresh interpreter.

``python3 perfbench/probe.py suite-quick --seed N``
    imports the experiment stack and the execution engine.
``python3 perfbench/probe.py stream-1m --seed N --store PATH``
    imports the streaming stack, generates the seeded 10⁶-request
    workload and writes it to a trace store at ``PATH``.

The caller times the whole process, interpreter start included.  The
work runs under :class:`harness.Pace`; the last line of standard output
gives the probes' own time and the pace factor, so the caller can rescale
the trial like any op.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import harness


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("suite-quick", "stream-1m"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", type=Path)
    args = parser.parse_args()
    with harness.Pace() as pace:
        if args.workload == "suite-quick":
            import repro.exec  # noqa: F401
            import repro.experiments  # noqa: F401
        else:
            import wl_stream

            wl_stream.write(args.store, args.seed)
    print(json.dumps({"probe_s": pace.spent, "factor": pace.factor(0)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
