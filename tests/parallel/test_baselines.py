"""Tests for EQUAL-PARTITION, BEST-STATIC-PARTITION, and GLOBAL-LRU."""

from __future__ import annotations

import numpy as np
import pytest

from repro.paging import LRUCache, min_service_time
from repro.parallel import (
    BestStaticPartition,
    EqualPartition,
    GlobalLRU,
    static_partition_makespan,
)
from repro.workloads import ParallelWorkload, cyclic, scan


def wl_of(*locals_, name="t"):
    return ParallelWorkload.from_local([np.asarray(x, dtype=np.int64) for x in locals_], name=name)


class TestEqualPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            EqualPartition(0, 4)
        with pytest.raises(ValueError):
            EqualPartition(16, 1)

    def test_matches_direct_lru_computation(self):
        wl = wl_of(cyclic(50, 3), cyclic(40, 9))
        s = 7
        res = EqualPartition(8, s).run(wl)
        for i, seq in enumerate(wl.sequences):
            cache = LRUCache(4)
            hits = sum(cache.touch(int(x)) for x in seq)
            assert res.completion_times[i] == hits + s * (len(seq) - hits)

    def test_share_floor_one(self):
        wl = wl_of([0, 1], [0], [0], [0], [0])
        res = EqualPartition(4, 3).run(wl)  # 4 // 5 -> share 1
        assert res.meta["share"] == 1

    def test_starves_cache_hungry_processor(self):
        """A k/p share thrashes a processor whose cycle needs more — the
        intro's motivating failure of uniform splits."""
        k, s = 16, 10
        hungry = cyclic(200, 10)  # needs 10 pages, gets 8
        light = scan(200)
        wl = wl_of(hungry, light)
        res = EqualPartition(k, s).run(wl)
        # hungry thrashes: all misses
        assert res.completion_times[0] == 200 * s


class TestStaticPartitionSearch:
    def test_validation(self):
        wl = wl_of([0], [0])
        with pytest.raises(ValueError):
            static_partition_makespan(wl, 1, 4)

    def test_gives_more_cache_to_the_needy(self):
        """Two cyclic processors with unequal working sets: the optimal
        split fits both cycles (10 + 4 <= 16), whereas the equal split
        (8 each) thrashes the larger cycle."""
        k, s = 16, 10
        hungry = cyclic(300, 10)
        light = cyclic(300, 4)
        wl = wl_of(hungry, light)
        makespan, alloc = static_partition_makespan(wl, k, s)
        assert alloc[0] >= 10  # hungry processor gets its working set
        assert alloc[0] + alloc[1] <= k
        # cold misses only: max(10s + 290, 4s + 296)
        assert makespan == max(10 * s + 290, 4 * s + 296)
        # and beats the equal split decisively
        eq = EqualPartition(k, s).run(wl)
        assert makespan < eq.makespan

    def test_allocation_achieves_reported_makespan(self):
        wl = wl_of(cyclic(100, 6), cyclic(100, 3), scan(50))
        k, s = 16, 8
        makespan, alloc = static_partition_makespan(wl, k, s)
        times = [
            min_service_time(seq, alloc[i], s) if len(seq) else 0
            for i, seq in enumerate(wl.sequences)
        ]
        assert max(times) == makespan

    def test_empty_workload_sequences(self):
        wl = wl_of([], [])
        makespan, alloc = static_partition_makespan(wl, 4, 3)
        assert makespan == 0 and alloc == [0, 0]

    def test_runner_class(self):
        wl = wl_of(cyclic(80, 5), cyclic(80, 3))
        res = BestStaticPartition(16, 5).run(wl)
        res.validate()
        assert res.makespan == static_partition_makespan(wl, 16, 5)[0]

    def test_each_min_run_happens_once_per_search(self, monkeypatch):
        # the nested binary searches revisit (processor, capacity) pairs;
        # each distinct pair runs MIN once, final per-share pass included
        import repro.parallel.baselines as baselines

        calls = []

        def counted(seq, capacity, s):
            calls.append((id(seq), capacity))
            return min_service_time(seq, capacity, s)

        monkeypatch.setattr(baselines, "min_service_time", counted)
        wl = wl_of(cyclic(100, 6), cyclic(100, 3), scan(50))
        res = BestStaticPartition(16, 8).run(wl)
        assert calls and len(calls) == len(set(calls))
        monkeypatch.undo()
        assert res.makespan == static_partition_makespan(wl, 16, 8)[0]


class TestGlobalLRU:
    def test_validation(self):
        with pytest.raises(ValueError):
            GlobalLRU(0, 4)
        with pytest.raises(ValueError):
            GlobalLRU(16, 1)

    def test_single_processor_matches_private_lru(self):
        seq = cyclic(100, 7)
        wl = wl_of(seq)
        s = 6
        res = GlobalLRU(8, s).run(wl)
        cache = LRUCache(8)
        hits = sum(cache.touch(int(x)) for x in seq)
        assert res.completion_times[0] == hits + s * (100 - hits)

    def test_interference_hurts(self):
        """A thrashing neighbour evicts a well-behaved processor's pages —
        the contention GLOBAL-LRU cannot prevent."""
        s = 10
        friendly = cyclic(300, 4)
        bully = scan(300)
        wl = wl_of(friendly, bully)
        shared = GlobalLRU(8, s).run(wl)
        private = EqualPartition(8, s).run(wl)
        assert shared.completion_times[0] >= private.completion_times[0]

    def test_completes_everything(self):
        wl = wl_of(cyclic(60, 3), scan(40), cyclic(50, 12))
        res = GlobalLRU(16, 4).run(wl)
        assert (res.completion_times > 0).all()
        assert res.meta["hits"] + res.meta["faults"] == wl.total_requests

    def test_empty_sequences(self):
        wl = wl_of([], [0, 1])
        res = GlobalLRU(4, 4).run(wl)
        assert res.completion_times[0] == 0
        assert res.completion_times[1] > 0
