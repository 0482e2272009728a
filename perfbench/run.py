"""Layered benchmark for the paging reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload suite-quick --seed 0 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each one exists):

``suite-quick``  the eleven quick experiments, cold and warm result cache;
``stream-1m``    DET-PAR and GLOBAL-LRU streamed over a 10⁶-request store;
``service-2c``   ``repro serve --jobs 1`` under two closed-loop clients.

With ``--trace 0`` the run reports the end-to-end metrics; each workload
maps its two phases onto the same names (``primary``: cold pass, DET-PAR,
miss phase; ``secondary``: warm pass, GLOBAL-LRU, hit phase) and prints
the workload's own metric names above the result line.  Times are
rescaled to a reference host pace (:class:`harness.Pace`); the raw times
are printed too.  With
``--trace 1`` it reports the per-layer metrics of :mod:`traced`.  Every
op's output is checked; a mismatch is a failed op.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

All caches, stores and servers live in ``.perfbench/work-<pid>/`` under
the repository root, which is removed at the end; traced runs leave their
span files in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys

import harness

WORKLOADS = ("suite-quick", "stream-1m", "service-2c")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not harness.program_present():
        print(f"perfbench: no program sources under {harness.SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # SIGTERM unwinds like an exception, so servers are stopped and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = harness.ROOT / ".perfbench" / f"work-{os.getpid()}"
    harness.fresh_dir(work)
    harness.hermetic_env(work)
    sys.path.insert(0, str(harness.SRC))
    result = harness.Result()
    try:
        if args.trace:
            import traced

            traced.RUNNERS[args.workload](work, args.seed, args.seconds, result)
        else:
            import wl_service
            import wl_stream
            import wl_suite

            runner = {"suite-quick": wl_suite.run, "stream-1m": wl_stream.run, "service-2c": wl_service.run}
            runner[args.workload](work, args.seed, args.seconds, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
