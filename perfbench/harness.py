"""Shared plumbing: hermetic environment, set-up trials, pacing, stats, result line."""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_TRIALS = 5

#: Numeric libraries run single-threaded, so a run's compute stays on one thread.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
}


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def hermetic_env(work: Path) -> None:
    """Point every program-side cache and scratch directory into ``work``.

    The program's own defaults (``./.repro_cache`` and friends) are never
    read or written, so earlier runs cannot turn misses into hits.
    """
    env = {
        "REPRO_CACHE_DIR": str(work / "cache"),
        "REPRO_TRACES_DIR": str(work / "traces"),
        "REPRO_RUNS_DIR": str(work / "runs"),
        "REPRO_NATIVE_CACHE": str(work / "native"),
        "TMPDIR": str(work / "tmp"),
        "PYTHONPATH": str(SRC),
        "PYTHONDONTWRITEBYTECODE": "1",
        **THREAD_ENV,
    }
    for key in ("REPRO_KERNEL", "REPRO_SIM", "REPRO_NATIVE", "REPRO_FAULTS", "REPRO_OBS_METRICS", "REPRO_OBS_TRACE"):
        os.environ.pop(key, None)
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ.update(env)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_probe(args: Sequence[str], timeout: float = 120.0) -> Tuple[float, float]:
    """Run ``probe.py`` once in a fresh interpreter.

    Returns its wall time and that time at the reference pace of
    :class:`Pace`, with the probes' own time taken out.
    """
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-2000:]}")
    pace = json.loads(out.stdout.strip().splitlines()[-1])
    return wall, (wall - pace["probe_s"]) * pace["factor"]


def config_line() -> str:
    """The shipping configuration this environment resolves to, as one line.

    Resolving the native flavor may build it; callers record the line
    after the timed window.
    """
    from repro.paging._native import native_flavor
    from repro.paging.kernel import kernel_backend
    from repro.parallel.events import sim_backend

    config = {"kernel_backend": kernel_backend(), "native_flavor": native_flavor(), "sim_backend": sim_backend()}
    return f"config {json.dumps(config, sort_keys=True)}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float]) -> Optional[tuple]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns ``(q, value)`` by nearest rank, or ``None`` below 20 samples.
    """
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    q = int(100 * (n - 10) // n)
    rank = max(1, -(-n * q // 100))
    return q, ordered[rank - 1]


def latency_line(label: str, seconds: Sequence[float]) -> str:
    """``<label> <p50> ms (p<q> <value> ms, n=<count>)`` for a list of op times.

    ``q`` is the highest percentile with at least ten samples beyond it;
    it is left out below 20 samples.
    """
    ms = [1000 * v for v in seconds]
    tail = tail_percentile(ms)
    spread = f"p{tail[0]} {tail[1]:.3f} ms, " if tail is not None else ""
    return f"{label} {median(ms):.3f} ms ({spread}n={len(ms)})"


def timed(fn: Callable[[], T]) -> Tuple[T, float]:
    """Run ``fn``; returns its result and wall time."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


class Pace:
    """The host's current interpreter speed, sampled while ops run.

    On a shared host the same op can take twice as long in a busy minute
    as in a quiet one, and the busy share drifts over minutes, so raw
    times from runs a few minutes apart disagree by more than any bound
    worth setting.  Inside ``with Pace():`` a ``SIGALRM`` handler times a
    fixed pure-Python probe (about 2 ms) every :data:`INTERVAL_S`.  An op's
    time is rescaled by the mean probe time during that op, to a host on
    which the probe takes :data:`REF_S`.  Probes sampled next to each op
    rather than inside it tracked the drift too poorly to use.
    """

    INTERVAL_S = 0.1
    REF_S = 0.002

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    @staticmethod
    def probe() -> int:
        d: Dict[int, int] = {}
        x = 0
        for i in range(10_000):
            k = (i * 7919) & 8191
            v = d.get(k)
            if v is None:
                d[k] = i
            else:
                x += v & 7
                d[k] = i
        return x

    def _tick(self, *_: Any) -> None:
        t0 = time.perf_counter()
        self.probe()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """Like :func:`timed`, with the probes' own time taken out."""
        spent = self.spent
        out, wall = timed(fn)
        return out, wall - (self.spent - spent)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """``REF_S`` over the mean probe time since ``mark``."""
        probes = self.samples[mark:] or self.samples[-1:]
        if not probes:
            raise RuntimeError("op ended before the first pace probe")
        return self.REF_S / statistics.fmean(probes)


def pace_line(pace: Pace) -> str:
    """The probe figures behind a run's rescaled times, as one line."""
    probes = pace.samples
    return (
        f"pace: mean probe {1000 * statistics.fmean(probes):.3f} ms over {len(probes)} probes "
        f"(reference {1000 * Pace.REF_S:.3f} ms); the probes took {pace.spent:.2f} s"
    )


def counter_totals(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Sum a metrics snapshot's counters over their labels."""
    totals: Dict[str, float] = {}
    for key, value in snapshot.get("counters", {}).items():
        name = key.split("{", 1)[0]
        totals[name] = totals.get(name, 0) + value
    return totals


def phase_loop(budget_s: float, step: Callable[[], None]) -> int:
    """Run ``step`` while the phase has time left; returns the step count.

    A step is never cut: a phase always holds whole steps, at least one.
    """
    t0 = time.perf_counter()
    steps = 0
    while steps == 0 or time.perf_counter() - t0 < budget_s:
        step()
        steps += 1
    return steps


class Result:
    """Accumulates ops, failures and metrics; prints the final JSON line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.notes: List[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def note(self, line: str) -> None:
        self.notes.append(line)

    def emit(self) -> None:
        for line in self.notes:
            print(line)
        for what in self.failures:
            print(f"FAILED: {what}")
        print(
            json.dumps(
                {
                    "correct": self.failed == 0 and self.attempted > 0,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": self.metrics,
                }
            )
        )
