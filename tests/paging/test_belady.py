"""Tests for Belady's MIN (offline optimal replacement)."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.paging import BeladySimulation, LRUCache, belady_faults, min_service_time, next_use_indices


class TestNextUse:
    def test_simple(self):
        seq = [1, 2, 1, 3, 2]
        nxt = next_use_indices(seq)
        assert nxt.tolist() == [2, 4, 5, 5, 5]

    def test_empty(self):
        assert next_use_indices([]).tolist() == []

    def test_all_same_page(self):
        nxt = next_use_indices([9, 9, 9])
        assert nxt.tolist() == [1, 2, 3]

    def test_all_distinct(self):
        nxt = next_use_indices([1, 2, 3])
        assert nxt.tolist() == [3, 3, 3]

    @staticmethod
    def _backward_pass(seq):
        """The classic O(n) dict loop the vectorized form replaced."""
        n = len(seq)
        nxt, last_seen = [n] * n, {}
        for i in range(n - 1, -1, -1):
            nxt[i] = last_seen.get(seq[i], n)
            last_seen[seq[i]] = i
        return nxt

    @given(seq=st.lists(st.integers(-3, 12), max_size=200))
    @example(seq=[])
    @example(seq=[5])
    @example(seq=[7] * 9)
    @example(seq=list(range(6)) * 3)
    @settings(max_examples=200, deadline=None)
    def test_matches_backward_pass(self, seq):
        for form in (seq, np.asarray(seq, dtype=np.int64)):
            nxt = next_use_indices(form)
            assert nxt.dtype == np.int64
            assert nxt.tolist() == self._backward_pass(seq)


def _brute_force_min_faults(seq, capacity):
    """Exhaustive optimal faults via BFS over cache-content states.

    Exponential; only for tiny instances.  Demand paging with free choice of
    victim is optimal among all strategies for fault minimization, so this
    is a genuine OPT oracle.
    """
    from functools import lru_cache

    seq = tuple(seq)
    n = len(seq)

    @lru_cache(maxsize=None)
    def go(i, contents):
        if i == n:
            return 0
        page = seq[i]
        if page in contents:
            return go(i + 1, contents)
        # fault: try every eviction choice (or none if not full)
        base = set(contents)
        if len(base) < capacity:
            return 1 + go(i + 1, tuple(sorted(base | {page})))
        best = None
        for victim in base:
            cand = 1 + go(i + 1, tuple(sorted((base - {victim}) | {page})))
            if best is None or cand < best:
                best = cand
        return best

    return go(0, ())


class TestBelady:
    def test_no_reuse_all_faults(self):
        assert belady_faults(list(range(10)), 3) == 10

    def test_cycle_fits(self):
        seq = [0, 1, 2] * 5
        assert belady_faults(seq, 3) == 3

    def test_cycle_too_big_beats_lru(self):
        """On a size-(c+1) cycle MIN faults ~n/c of the time; LRU thrashes."""
        seq = [0, 1, 2, 3] * 12
        lru = LRUCache(3)
        for page in seq:
            lru.touch(page)
        opt = belady_faults(seq, 3)
        assert lru.faults == len(seq)
        assert opt < lru.faults
        # MIN keeps 2 of the 4 pages pinned; one fault per 2 requests + warmup
        assert opt <= len(seq) // 2 + 3

    def test_textbook_example(self):
        seq = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1]
        assert belady_faults(seq, 3) == 9  # classical OS-textbook answer

    def test_step_matches_run(self):
        seq = [1, 2, 3, 1, 4, 2, 5, 1, 2, 3]
        stepped = BeladySimulation(seq, 2)
        outcomes = []
        while not stepped.done():
            outcomes.append(stepped.step())
        ran = BeladySimulation(seq, 2)
        ran.run()
        assert stepped.faults == ran.faults
        assert stepped.hits == ran.hits
        assert outcomes.count(False) == stepped.faults

    def test_step_past_end_raises(self):
        sim = BeladySimulation([1], 1)
        sim.run()
        with pytest.raises(IndexError):
            sim.step()

    def test_partial_run_limit(self):
        sim = BeladySimulation([1, 2, 3, 1], 2)
        sim.run(limit=2)
        assert sim.pos == 2
        sim.run()
        assert sim.done()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BeladySimulation([1], 0)

    def test_exhaustive_small_instances(self):
        """MIN matches brute-force OPT on every tiny instance."""
        for n, pages, capacity in [(6, 3, 2), (7, 4, 2), (6, 4, 3)]:
            for seq in product(range(pages), repeat=n):
                assert belady_faults(list(seq), capacity) == _brute_force_min_faults(seq, capacity), seq


@st.composite
def request_sequences(draw):
    n_pages = draw(st.integers(min_value=1, max_value=8))
    return draw(st.lists(st.integers(min_value=0, max_value=n_pages - 1), max_size=120))


class TestProperties:
    @given(request_sequences(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=150)
    def test_belady_never_worse_than_lru(self, seq, capacity):
        lru = LRUCache(capacity)
        for page in seq:
            lru.touch(page)
        assert belady_faults(seq, capacity) <= lru.faults

    @given(request_sequences(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=100)
    def test_faults_at_least_distinct_cold_misses(self, seq, capacity):
        f = belady_faults(seq, capacity)
        assert f >= min(len(set(seq)), 1) if seq else f == 0
        assert f >= len(set(seq)) - 0 if capacity >= len(set(seq)) else True

    @given(request_sequences(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=100)
    def test_faults_monotone_in_capacity(self, seq, capacity):
        """No Belady anomaly for Belady itself: OPT faults decrease with capacity."""
        assert belady_faults(seq, capacity) >= belady_faults(seq, capacity + 1)

    @given(request_sequences(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=50)
    def test_matches_brute_force(self, seq, capacity):
        if len(seq) > 12 or len(set(seq)) > 5:
            seq = seq[:12]
        assert belady_faults(seq, capacity) == _brute_force_min_faults(tuple(seq), capacity)

    @given(request_sequences(), st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=9))
    @settings(max_examples=100)
    def test_min_service_time_formula(self, seq, capacity, s):
        f = belady_faults(seq, capacity)
        assert min_service_time(seq, capacity, s) == (len(seq) - f) + s * f

    @given(request_sequences())
    @settings(max_examples=50)
    def test_full_capacity_only_cold_misses(self, seq):
        capacity = max(1, len(set(seq)))
        assert belady_faults(seq, capacity) == len(set(seq))

    @given(request_sequences(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=100)
    def test_resident_bounded_by_capacity(self, seq, capacity):
        sim = BeladySimulation(seq, capacity)
        while not sim.done():
            sim.step()
            assert len(sim.resident) <= capacity
