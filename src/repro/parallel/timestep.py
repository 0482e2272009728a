"""Time-stepped shared-cache simulator for non-box baselines.

GLOBAL-LRU — all processors share one LRU cache with no partitioning — is
what an unmanaged multicore actually does, and it cannot be expressed as a
box schedule (there is no per-processor allocation at all).  This module
simulates it directly: at each time step every processor is either serving
a hit (1 step), amid a miss (``s`` steps), or finished.  Evictions come
from the single shared LRU order, so one thrashing processor can evict
everyone else's working set — the interference the paper's box model is
designed to control.

Two backends, selected by ``$REPRO_SIM`` (:func:`~repro.parallel.events.
sim_backend`):

* ``event`` (default) — advance over service-completion events via the
  shared :class:`~repro.parallel.events.EventScheduler`.  Every processor
  has exactly one scheduled event while active, with the processor index
  as the tie-break priority, so same-time completions are served in
  ascending processor order.
* ``reference`` — the retained per-timestep full-rescan loop (O(p) per
  event instant), the historical oracle.  It serves same-time processors
  in ascending index too, so both backends touch the shared LRU in the
  same order and every count — completions, hits, faults, evictions — is
  byte-identical.  The differential harness asserts exactly this.

Requests are consumed strictly in order through
:func:`~repro.parallel.streaming.request_feed`, so a
:class:`~repro.parallel.streaming.StreamingWorkload` is served directly
from the trace store one chunk at a time — a million-request,
thousand-processor run never holds more than one chunk per processor.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from ..obs import metrics as obs_metrics
from ..paging.lru import LRUCache
from ..workloads.trace import ParallelWorkload
from .events import EventScheduler, ParallelRunResult, resolve_sim_backend
from .streaming import request_feed

__all__ = ["GlobalLRU"]


class GlobalLRU:
    """Fully shared LRU cache baseline (no partitioning, no boxes).

    Parameters
    ----------
    cache_size:
        Shared cache capacity.
    miss_cost:
        Fault service time ``s > 1``.  A faulting processor occupies its
        channel for ``s`` steps; the faulted page is inserted (and becomes
        evictable) immediately at fault time, matching the model where the
        transfer reserves the frame up front.
    """

    name = "global-lru"

    def __init__(self, cache_size: int, miss_cost: int) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if miss_cost <= 1:
            raise ValueError(f"miss_cost must be > 1, got {miss_cost}")
        self.cache_size = int(cache_size)
        self.miss_cost = int(miss_cost)

    def run(self, workload: ParallelWorkload) -> ParallelRunResult:
        """Simulate the shared LRU until every processor finishes."""
        p = workload.p
        n = [int(x) for x in workload.lengths]
        feeds = [request_feed(workload, i) for i in range(p)]
        done = [n[i] == 0 for i in range(p)]
        completion = np.zeros(p, dtype=np.int64)
        cache = LRUCache(self.cache_size)
        if resolve_sim_backend("global-lru") == "event":
            self._run_event(feeds, n, done, completion, cache)
        else:
            self._run_reference(feeds, n, done, completion, cache)
        reg = obs_metrics.active()
        if reg.enabled:
            reg.counter("sim.timestep.hits").inc(cache.hits)
            reg.counter("sim.timestep.faults").inc(cache.faults)
            reg.counter("sim.timestep.evictions").inc(cache.evictions)
            for i in range(p):
                reg.counter("sim.timestep.served", proc=i).inc(n[i])
            reg.gauge("sim.timestep.makespan").record_max(int(completion.max()) if p else 0)
        return ParallelRunResult(
            algorithm=self.name,
            completion_times=completion,
            trace=[],  # no box structure to record
            cache_size=self.cache_size,
            miss_cost=self.miss_cost,
            meta={"hits": cache.hits, "faults": cache.faults},
        )

    def _run_event(
        self,
        feeds: List[Iterator[int]],
        n: List[int],
        done: List[bool],
        completion: np.ndarray,
        cache: LRUCache,
    ) -> None:
        """Event backend: one scheduled completion per active processor.

        The processor index is the tie-break priority, so same-time
        completions pop in ascending processor order — the same order the
        reference rescan serves them, hence identical shared-LRU state.
        """
        s = self.miss_cost
        p = len(n)
        pos = [0] * p
        sched = EventScheduler()
        for i in range(p):
            if not done[i]:
                sched.schedule(0, "serve", i, priority=i)
        touch = cache.touch
        schedule = sched.schedule
        pop = sched.pop
        while sched:
            t, _, _, i = pop()
            page = next(feeds[i])
            cost = 1 if touch(page) else s
            pos[i] += 1
            if pos[i] >= n[i]:
                done[i] = True
                completion[i] = t + cost
            else:
                schedule(t + cost, "serve", i, priority=i)

    def _run_reference(
        self,
        feeds: List[Iterator[int]],
        n: List[int],
        done: List[bool],
        completion: np.ndarray,
        cache: LRUCache,
    ) -> None:
        """Reference backend: the historical O(p)-per-instant rescan loop,
        retained verbatim as the oracle for the event backend."""
        s = self.miss_cost
        p = len(n)
        pos = [0] * p
        busy_until = [0] * p
        remaining = sum(1 for d in done if not d)
        touch = cache.touch
        t = 0
        while remaining > 0:
            for i in range(p):
                if done[i] or busy_until[i] > t:
                    continue
                page = next(feeds[i])
                cost = 1 if touch(page) else s
                busy_until[i] = t + cost
                pos[i] += 1
                if pos[i] >= n[i]:
                    done[i] = True
                    completion[i] = t + cost
                    remaining -= 1
            if remaining == 0:
                break
            t = min(busy_until[i] for i in range(p) if not done[i])
