"""``stream-1m``: DET-PAR and GLOBAL-LRU on a streamed 10⁶-request store.

The store has the Albers–Hellwig parallel-schedules shape (1023 short
head jobs plus one long cache-thrashing tail, p=1024, 999 732 requests).
It is written once in set-up and every op streams it chunk by chunk
through ``open_streaming``.  The seed relabels pages and permutes the
processors; sizes stay fixed.  Heads and the tail share no page, so the
makespans do not depend on labels or processor order and every seed must
reproduce the same two makespans.
"""

from __future__ import annotations

import gc
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

import harness

P = 1024
HEAD_REQUESTS = 684
HEAD_PAGES = 24
TAIL_REQUESTS = 300_000
TAIL_PAGES = 4096
CHUNK_ROWS = 4096
MISS_COST = 8
GLOBAL_CACHE = 4096
DETPAR_CACHE = 32768
EXPECTED_MAKESPAN = {"det-par": 362160, "global-lru": 333460}
#: One measured round.  GLOBAL-LRU runs twice per round: its op is shorter
#: and spreads more from op to op than DET-PAR's, so it needs more samples.
ROUND = ("det-par", "global-lru", "global-lru")


def build(seed: int):
    from repro.workloads import ParallelWorkload, cyclic

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    labels = rng.permutation(32 * P + TAIL_PAGES).astype(np.int64)
    head = cyclic(HEAD_REQUESTS, HEAD_PAGES)
    seqs = [cyclic(TAIL_REQUESTS, TAIL_PAGES) + 32 * P] + [head + 32 * i for i in range(P - 1)]
    order = rng.permutation(P)
    return ParallelWorkload(
        sequences=[labels[np.asarray(seqs[i], dtype=np.int64)] for i in order],
        name=f"perfbench-stream-{seed}",
        allow_shared=True,
    )


def write(path: Path, seed: int):
    from repro.traces.store import write_store

    return write_store(path, build(seed), chunk_rows=CHUNK_ROWS)


class Stream:
    def __init__(self, store_path: Path) -> None:
        from repro.core import DetPar
        from repro.paging.kernel import clear_kernel_cache
        from repro.parallel.streaming import open_streaming
        from repro.parallel.timestep import GlobalLRU

        self.path = store_path
        self._open = open_streaming
        self._clear = clear_kernel_cache
        self.algorithms = {
            "det-par": lambda: DetPar(DETPAR_CACHE, MISS_COST),
            "global-lru": lambda: GlobalLRU(GLOBAL_CACHE, MISS_COST),
        }
        self.total = self._open(store_path).total_requests
        self.completions: Dict[str, List[int]] = {}
        self.boxes: Dict[str, int] = {}

    def op(self, algo: str, result: harness.Result, timed: Callable = harness.timed) -> float:
        """One full simulation of ``algo`` over the store; returns its time as ``timed`` measures it."""
        self._clear()
        gc.collect()
        sim = self.algorithms[algo]()
        res, dt = timed(lambda: sim.run(self._open(self.path)))
        self.boxes[algo] = len(res.trace)
        completion = res.completion_times.tolist()
        first = self.completions.setdefault(algo, completion)
        ok = int(res.makespan) == EXPECTED_MAKESPAN[algo] and completion == first
        result.op(ok, f"{algo}: makespan {int(res.makespan)} (expected {EXPECTED_MAKESPAN[algo]}) or completions changed")
        return dt


def setup(work: Path, seed: int) -> Dict[str, Any]:
    """Write the store :data:`harness.SETUP_TRIALS` times; keeps the last one."""
    trials = []
    for i in range(harness.SETUP_TRIALS):
        store = work / f"stream-{i}.trc"
        trials.append(harness.run_probe(["stream-1m", "--seed", str(seed), "--store", str(store)]))
        if i:
            (work / f"stream-{i - 1}.trc").unlink()
    return {
        "setup_s": harness.median([paced for _, paced in trials]),
        "setup_raw_s": harness.median([wall for wall, _ in trials]),
        "store": store,
    }


def run(work: Path, seed: int, seconds: float, result: harness.Result) -> None:
    info = setup(work, seed)
    stream = Stream(info["store"])
    # per algorithm: each simulation's own time, and that time at the reference pace
    raw: Dict[str, List[float]] = {"det-par": [], "global-lru": []}
    paced: Dict[str, List[float]] = {"det-par": [], "global-lru": []}

    with harness.Pace() as pace:

        def round_() -> None:
            for algo in ROUND:
                mark = pace.mark()
                raw[algo].append(stream.op(algo, result, pace.timed))
                paced[algo].append(raw[algo][-1] * pace.factor(mark))

        harness.phase_loop(0.7 * seconds, round_)
    det = harness.median(paced["det-par"])
    glru = harness.median(paced["global-lru"])
    result.metric("setup_s", info["setup_s"], "s")
    result.metric("peak_rss_mb", harness.peak_rss_mb(), "MB")
    result.metric("primary_per_s", stream.total / det, "1/s")
    result.metric("secondary_per_s", stream.total / glru, "1/s")
    result.metric("primary_p50_ms", 1000 * det, "ms")
    result.metric("secondary_p50_ms", 1000 * glru, "ms")
    result.note(harness.config_line())
    result.note(harness.pace_line(pace))
    result.note(f"setup_s {info['setup_s']:.4f} s at reference pace (raw {info['setup_raw_s']:.4f} s)")
    for name, algo, value in (("detpar_req_per_s", "det-par", det), ("glru_req_per_s", "global-lru", glru)):
        result.note(
            f"{name} {stream.total / value:.1f} req/s at reference pace, median of {len(raw[algo])} simulations "
            f"(raw {stream.total / harness.median(raw[algo]):.1f} req/s, {[round(v, 3) for v in raw[algo]]} s)"
        )
