"""Static-partition baselines: EQUAL-PARTITION and BEST-STATIC-PARTITION.

These are the comparators a systems audience reaches for first:

* **EQUAL-PARTITION** — give every processor a fixed private ``K/p`` LRU
  cache.  Oblivious and simple, but the paper's introduction explains why
  it must lose: marginal benefit differs wildly across processors, so a
  uniform split simultaneously starves the cache-hungry and wastes space
  on streaming processors.
* **BEST-STATIC-PARTITION** — the *offline optimal fixed* split, computed
  by binary-searching the makespan target and, for each target T, asking
  each processor for the minimum capacity that finishes by T under
  Belady's MIN (monotone in capacity, so a second binary search inside).
  This is an unrealizable clairvoyant baseline; beating it dynamically is
  the whole point of boxes.

Both produce standard :class:`ParallelRunResult`s (one conceptual box per
processor spanning its run) so the metrics pipeline treats them uniformly.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..paging.belady import min_service_time
from ..paging.lru import LRUCache
from ..workloads.trace import ParallelWorkload
from .events import BoxRecord, ParallelRunResult

__all__ = ["EqualPartition", "BestStaticPartition", "static_partition_makespan"]


def _lru_service_time(seq: np.ndarray, capacity: int, s: int) -> Tuple[int, int, int]:
    """(time, hits, faults) for one processor alone on a private LRU cache."""
    cache = LRUCache(capacity)
    hits = 0
    for page in seq:
        if cache.touch(int(page)):
            hits += 1
    faults = len(seq) - hits
    return hits + s * faults, hits, faults


class EqualPartition:
    """Fixed ``K/p`` private LRU cache per processor."""

    name = "equal-partition"

    def __init__(self, cache_size: int, miss_cost: int) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if miss_cost <= 1:
            raise ValueError(f"miss_cost must be > 1, got {miss_cost}")
        self.cache_size = int(cache_size)
        self.miss_cost = int(miss_cost)

    def run(self, workload: ParallelWorkload) -> ParallelRunResult:
        """Run every processor on its private K/p LRU share."""
        p = workload.p
        share = max(1, self.cache_size // p)
        s = self.miss_cost
        completion = np.zeros(p, dtype=np.int64)
        trace: List[BoxRecord] = []
        for i, seq in enumerate(workload.sequences):
            t, hits, faults = _lru_service_time(seq, share, s)
            completion[i] = t
            trace.append(
                BoxRecord(
                    proc=i,
                    height=share,
                    start=0,
                    end=t,
                    served_start=0,
                    served_end=len(seq),
                    hits=hits,
                    faults=faults,
                    tag="static",
                )
            )
        return ParallelRunResult(
            algorithm=self.name,
            completion_times=completion,
            trace=trace,
            cache_size=self.cache_size,
            miss_cost=s,
            meta={"share": share},
        )


def _min_capacity_for_target(
    times: Callable[[int, int], int], proc: int, target: int, k_max: int
) -> Optional[int]:
    """Smallest capacity whose Belady service time is <= target (None if none).

    Belady's fault count is nonincreasing in capacity (no anomaly), so the
    service time is monotone and a binary search is sound.
    """
    if times(proc, k_max) > target:
        return None
    lo, hi = 1, k_max
    while lo < hi:
        mid = (lo + hi) // 2
        if times(proc, mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _static_partition(
    workload: ParallelWorkload, cache_size: int, miss_cost: int
) -> Tuple[int, List[int], Callable[[int, int], int]]:
    """:func:`static_partition_makespan` plus its Belady service times.

    The nested binary searches ask the same (processor, capacity) pairs
    many times over, so ``times`` runs :func:`min_service_time` once per
    distinct pair and is returned for the caller's final per-share pass.
    """
    p = workload.p
    if p < 1:
        raise ValueError("workload must have at least one processor")
    if cache_size < p:
        raise ValueError(f"cache_size={cache_size} cannot give every one of {p} processors a page")
    sequences = workload.sequences
    lengths = [len(seq) for seq in sequences]

    @functools.lru_cache(maxsize=None)
    def times(proc: int, capacity: int) -> int:
        return min_service_time(sequences[proc], capacity, miss_cost)

    def allocation_for(target: int) -> Optional[List[int]]:
        alloc: List[int] = []
        for i, n in enumerate(lengths):
            if n == 0:
                alloc.append(0)
                continue
            c = _min_capacity_for_target(times, i, target, cache_size)
            if c is None:
                return None
            alloc.append(c)
        return alloc if sum(alloc) <= cache_size else None

    lo = max(lengths, default=0)  # every request >= 1 step
    hi = max(
        (times(i, max(1, cache_size // p)) for i, n in enumerate(lengths) if n),
        default=0,
    )
    if hi == 0:
        return 0, [0] * p, times
    while lo < hi:
        mid = (lo + hi) // 2
        if allocation_for(mid) is not None:
            hi = mid
        else:
            lo = mid + 1
    alloc = allocation_for(lo)
    assert alloc is not None
    return lo, alloc, times


def static_partition_makespan(workload: ParallelWorkload, cache_size: int, miss_cost: int) -> Tuple[int, List[int]]:
    """Optimal static-partition makespan and a witnessing allocation.

    Binary search over the makespan target T; feasibility check: the sum of
    per-processor minimum capacities achieving T must fit in the cache.
    Uses Belady per processor (clairvoyant), so this is a *lower bound* on
    anything a static partition with an online policy can do.
    """
    makespan, alloc, _ = _static_partition(workload, cache_size, miss_cost)
    return makespan, alloc


class BestStaticPartition:
    """Clairvoyant optimal static split, each share run with Belady's MIN."""

    name = "best-static-partition"

    def __init__(self, cache_size: int, miss_cost: int) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if miss_cost <= 1:
            raise ValueError(f"miss_cost must be > 1, got {miss_cost}")
        self.cache_size = int(cache_size)
        self.miss_cost = int(miss_cost)

    def run(self, workload: ParallelWorkload) -> ParallelRunResult:
        """Search the optimal static split, then run Belady per share."""
        s = self.miss_cost
        p = workload.p
        _, alloc, times = _static_partition(workload, self.cache_size, s)
        completion = np.zeros(p, dtype=np.int64)
        trace: List[BoxRecord] = []
        for i, seq in enumerate(workload.sequences):
            if len(seq) == 0 or alloc[i] == 0:
                continue
            t = times(i, alloc[i])
            completion[i] = t
            faults = (t - len(seq)) // (s - 1)
            trace.append(
                BoxRecord(
                    proc=i,
                    height=alloc[i],
                    start=0,
                    end=t,
                    served_start=0,
                    served_end=len(seq),
                    hits=len(seq) - faults,
                    faults=faults,
                    tag="static-opt",
                )
            )
        return ParallelRunResult(
            algorithm=self.name,
            completion_times=completion,
            trace=trace,
            cache_size=self.cache_size,
            miss_cost=s,
            meta={"allocation": alloc},
        )
