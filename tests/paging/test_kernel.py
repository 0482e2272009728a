"""The fast box kernel must be bit-identical to the reference engine.

``run_box`` is the semantic ground truth: a dict-LRU simulation of one
cold box.  ``repro.paging.kernel`` replays the same decisions from a
reuse-distance precompute, so every observable — endpoints, hit/fault
splits, time used, DP impacts, sim.* metrics — must match *exactly*,
not approximately.  These tests pin that equivalence property-style
(hypothesis drives sequences, starts, heights, budgets) and pin the
operational surface around it: the internal scalar/vectorized paths,
the reuse-distance build against its brute-force definition, the ladder
plan the offline DP probes, the streaming kernel, the kernel cache, and
the ``REPRO_KERNEL`` escape hatch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.paging.kernel as kernel_mod
from repro.core.box import HeightLattice
from repro.core.distributions import make_distribution
from repro.green.offline import optimal_box_profile
from repro.paging._native import native_ops
from repro.paging.engine import run_box
from repro.paging.kernel import (
    KERNEL_ENV,
    SequenceKernel,
    StreamKernel,
    clear_kernel_cache,
    get_kernel,
    kernel_backend,
    maybe_kernel,
    run_box_fast,
)

# --------------------------------------------------------------------- #
# property: run_box_fast ≡ run_box
# --------------------------------------------------------------------- #

sequences = st.lists(st.integers(min_value=0, max_value=12), min_size=0, max_size=160)


@given(
    seq=sequences,
    start_frac=st.floats(min_value=0.0, max_value=1.0),
    height=st.integers(min_value=1, max_value=20),
    budget=st.integers(min_value=0, max_value=400),
    miss_cost=st.integers(min_value=2, max_value=9),
)
@settings(max_examples=300)
def test_run_box_fast_matches_reference(seq, start_frac, height, budget, miss_cost):
    arr = np.asarray(seq, dtype=np.int64)
    start = int(start_frac * len(arr))  # includes start == n
    kern = SequenceKernel(arr)
    assert run_box_fast(kern, start, height, budget, miss_cost) == run_box(
        arr, start, height, budget, miss_cost
    )


def test_budget_exhaustion_mid_hit_and_mid_miss():
    # [0, 1, 0, 1, ...] with height 2: everything after the first two
    # requests hits.  Budgets chosen to land the cutoff on a hit, on a
    # miss, and exactly on a boundary.
    arr = np.asarray([0, 1] * 20, dtype=np.int64)
    kern = SequenceKernel(arr)
    for budget in range(0, 30):
        for height in (1, 2, 3):
            got = run_box_fast(kern, 0, height, budget, 5)
            want = run_box(arr, 0, height, budget, 5)
            assert got == want, (budget, height)


def test_scalar_walk_defers_to_vectorized_on_long_boxes():
    # A cyclic sequence inside the height: after the first lap, every
    # request hits, so a big budget serves far past _SCALAR_MAX and the
    # scalar walk must hand off mid-box without losing its prefix.
    n = 4 * kernel_mod._SCALAR_MAX
    arr = np.asarray([i % 4 for i in range(n)], dtype=np.int64)
    kern = SequenceKernel(arr)
    budget = n + 4 * 3  # every request affordable: 4 faults + (n-4) hits
    got = run_box_fast(kern, 0, 8, budget, 4)
    want = run_box(arr, 0, 8, budget, 4)
    assert got == want
    assert got.served > kernel_mod._SCALAR_MAX


def _brute_force_reuse(seq):
    """O(n²) definitions: previous occurrence, and the number of distinct
    pages strictly between it and the request (``None`` when cold)."""
    prev, reuse, last = [], [], {}
    for i, page in enumerate(seq):
        j = last.get(page, -1)
        prev.append(j)
        reuse.append(len(set(seq[j + 1 : i])) if j >= 0 else None)
        last[page] = i
    return prev, reuse


#: Lengths where the build's dyadic passes change shape: empty, tiny,
#: around the old 128-row chunk, and one off every power of two.
_EDGE_LENGTHS = sorted({0, 1, 2, 3, 127, 128, 129} | {2**k + d for k in range(2, 10) for d in (-1, 1)})


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_reuse_dist_matches_brute_force_definition(data):
    n = data.draw(st.sampled_from(_EDGE_LENGTHS), label="n")
    pages = data.draw(st.integers(min_value=1, max_value=2 * n + 1), label="pages")
    seq = data.draw(st.lists(st.integers(0, pages - 1), min_size=n, max_size=n), label="seq")
    kern = SequenceKernel(np.asarray(seq, dtype=np.int64))
    prev, reuse = _brute_force_reuse(seq)
    assert kern.prev_occ.tolist() == prev
    cold = int(np.iinfo(np.int64).max)
    assert kern.reuse_dist.tolist() == [cold if r is None else r for r in reuse]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_stream_kernel_any_append_and_compact_schedule_matches_sequence_kernel(data):
    seq = data.draw(st.lists(st.integers(0, 15), max_size=300), label="seq")
    arr = np.asarray(seq, dtype=np.int64)
    n = len(arr)
    whole = SequenceKernel(arr)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=8), label="cuts"))
    pieces = np.split(arr, cuts)

    # one batched append and any split into smaller appends both sweep
    # exactly the sequence kernel's arrays
    for chunks in ([arr], pieces):
        stream = StreamKernel()
        for piece in chunks:
            stream.append(piece)
        assert np.array_equal(stream._prev, whole.prev_occ)
        assert np.array_equal(stream._reuse, whole.reuse_dist)

    # compacting between appends: every row whose previous occurrence is
    # still retained keeps the exact arrays; the rest read as cold for
    # every legal box start, so boxes match the reference over the swept
    # prefix
    stream = StreamKernel()
    for piece in pieces:
        stream.append(piece)
        if data.draw(st.booleans(), label="compact"):
            stream.compact(data.draw(st.integers(stream.base, stream.end), label="upto"))
        base, end = stream.base, stream.end
        true_prev = whole.prev_occ[base:end]
        kept = true_prev >= base
        assert np.array_equal((stream._prev + base)[kept], true_prev[kept])
        assert np.array_equal(stream._reuse[kept], whole.reuse_dist[base:end][kept])
        assert (stream._prev[~kept] < 0).all()
        for start in {base, (base + end) // 2, end}:
            for height, budget in ((1, 9), (3, 40), (8, 10**4)):
                assert stream.box(start, height, budget, 5) == run_box(
                    arr[:end], start, height, budget, 5
                )


@pytest.mark.skipif(native_ops() is None, reason="no native flavor available")
def test_numpy_reuse_build_matches_native_sweep():
    ops = native_ops()
    cold = kernel_mod._COLD
    rng = np.random.default_rng(11)
    for n in (1, 2, 127, 129, 4097, 30000):
        for pages in (1, 3, 64, n + 1):
            prev = kernel_mod._prev_occurrence(rng.integers(0, pages, size=n))
            for start in (0, n // 3, n - 1):
                want = np.full(n, cold, dtype=np.int64)
                ops.reuse_sweep(prev, start, n, cold, np.zeros(n + 1, dtype=np.int64), n, want)
                got = kernel_mod._reuse_distances(prev, start)
                assert np.array_equal(got[start:], want[start:]), (n, pages, start)


# --------------------------------------------------------------------- #
# ladder plan (offline DP's probe path)
# --------------------------------------------------------------------- #


def test_ladder_ends_match_reference_including_block_recompute():
    rng = np.random.default_rng(5)
    arr = rng.integers(0, 24, size=500)
    lattice = HeightLattice(16, 4)
    heights = tuple(int(h) for h in lattice.heights)
    s = 3
    budgets = tuple(s * h for h in heights)
    kern = SequenceKernel(arr)
    starts = list(range(0, len(arr) + 1))
    rng.shuffle(starts)  # non-ascending starts force block recomputes
    for q in starts:
        got = kern.box_ends(q, heights, budgets, s)
        want = [run_box(arr, q, h, s * h, s).end for h in heights]
        assert got == want, q


def test_ladder_plan_is_memoized_and_rows_are_copies():
    arr = np.arange(64, dtype=np.int64) % 8
    kern = SequenceKernel(arr)
    plan = kern.ladder_plan((2, 4), (6, 12), 3)
    assert kern.ladder_plan((2, 4), (6, 12), 3) is plan
    ends = kern.box_ends(0, (2, 4), (6, 12), 3)
    ends[0] = -999  # mutating the returned list must not poison the plan
    assert kern.box_ends(0, (2, 4), (6, 12), 3)[0] != -999


# --------------------------------------------------------------------- #
# streaming kernel
# --------------------------------------------------------------------- #


def test_stream_kernel_matches_sequence_kernel_across_chunks():
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 10, size=300)
    stream = StreamKernel(capacity=16)  # forces growth
    for lo in range(0, len(arr), 37):
        stream.append(arr[lo : lo + 37])
    for start in (0, 1, 50, 299, 300):
        for h, b in ((1, 9), (4, 40), (8, 1000)):
            assert stream.box(start, h, b, 5) == run_box(arr, start, h, b, 5)


def test_stream_kernel_compact_preserves_suffix_boxes():
    rng = np.random.default_rng(9)
    arr = rng.integers(0, 6, size=200)
    stream = StreamKernel(capacity=16)
    stream.append(arr)
    stream.compact(80)
    assert stream.base == 80
    for start in (80, 120, 199):
        assert stream.box(start, 3, 50, 4) == run_box(arr, start, 3, 50, 4)
    with pytest.raises(ValueError, match="precedes retained window"):
        stream.box(79, 3, 50, 4)


# --------------------------------------------------------------------- #
# validation (hoisted out of the hot loops, same errors both paths)
# --------------------------------------------------------------------- #


def test_run_box_fast_validates_like_reference():
    arr = np.asarray([0, 1, 2], dtype=np.int64)
    kern = SequenceKernel(arr)
    with pytest.raises(ValueError, match="box height must be >= 1"):
        run_box_fast(kern, 0, 0, 10, 4)
    with pytest.raises(ValueError, match="miss_cost must be > 1"):
        run_box_fast(kern, 0, 2, 10, 1)
    # identical messages to the reference engine
    for kwargs in ({"height": 0}, {"miss_cost": 1}):
        call = {"start": 0, "height": 2, "budget": 10, "miss_cost": 4, **kwargs}
        with pytest.raises(ValueError) as fast_err:
            run_box_fast(kern, **call)
        with pytest.raises(ValueError) as ref_err:
            run_box(arr, **call)
        assert str(fast_err.value) == str(ref_err.value)


@pytest.mark.parametrize("backend", ["fast", "reference"])
def test_offline_dp_validates_miss_cost_under_both_backends(backend, monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, backend)
    clear_kernel_cache()
    seq = np.asarray([0, 1, 0, 1], dtype=np.int64)
    with pytest.raises(ValueError, match="miss_cost must be > 1"):
        optimal_box_profile(seq, HeightLattice(4, 2), 1)


# --------------------------------------------------------------------- #
# kernel cache
# --------------------------------------------------------------------- #


def test_get_kernel_caches_by_identity_and_by_key():
    clear_kernel_cache()
    arr = np.asarray([0, 1, 0], dtype=np.int64)
    assert get_kernel(arr) is get_kernel(arr)
    other = arr.copy()
    assert get_kernel(other) is get_kernel(arr)  # equal bytes share a kernel
    assert get_kernel(arr.tolist()) is get_kernel(arr)  # compared as int64
    assert get_kernel(np.asarray([0, 1, 1], dtype=np.int64)) is not get_kernel(arr)
    assert get_kernel(arr[:2]) is not get_kernel(arr)
    assert get_kernel(arr, key=("digest", 0)) is get_kernel(other, key=("digest", 0))
    # shared kernels count their elements once against the cache bound
    assert kernel_mod._cache_elements == 3 + 3 + 2
    clear_kernel_cache()


def test_kernel_cache_is_lru_bounded():
    clear_kernel_cache()
    keep = [np.asarray([i], dtype=np.int64) for i in range(kernel_mod._CACHE_MAX_ENTRIES + 8)]
    for arr in keep:
        get_kernel(arr)
    assert len(kernel_mod._CACHE) <= kernel_mod._CACHE_MAX_ENTRIES
    assert kernel_mod._cache_elements == len(kernel_mod._CACHE)  # evictions released
    # the most recent arrays survive, the oldest were evicted
    assert get_kernel(keep[-1]) is get_kernel(keep[-1])
    clear_kernel_cache()
    assert len(kernel_mod._CACHE) == 0


# --------------------------------------------------------------------- #
# backend selection
# --------------------------------------------------------------------- #


def test_backend_env_switching(monkeypatch):
    arr = np.asarray([0, 1], dtype=np.int64)
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    assert kernel_backend() == "fast"
    assert maybe_kernel(arr) is not None
    for alias in ("fast", "kernel"):
        monkeypatch.setenv(KERNEL_ENV, alias)
        assert kernel_backend() == "fast"
    for alias in ("reference", "ref", " Reference "):
        monkeypatch.setenv(KERNEL_ENV, alias)
        assert kernel_backend() == "reference"
        assert maybe_kernel(arr) is None
    monkeypatch.setenv(KERNEL_ENV, "turbo")
    with pytest.raises(ValueError, match="unknown REPRO_KERNEL backend"):
        kernel_backend()
    clear_kernel_cache()


# --------------------------------------------------------------------- #
# end-to-end determinism across backends
# --------------------------------------------------------------------- #


@pytest.mark.slow
def test_e1_rows_and_sim_metrics_identical_across_backends(monkeypatch):
    """The kernel swap is invisible to every experiment observable.

    Result rows (what the CSVs serialize) and the full stripped metrics
    snapshot — every ``sim.*`` counter included — must be byte-identical
    between ``REPRO_KERNEL=fast`` and ``REPRO_KERNEL=reference``.
    """
    from repro.experiments import run_named_experiment
    from repro.obs import observability
    from repro.obs.metrics import strip_wall

    out = {}
    for backend in ("fast", "reference"):
        monkeypatch.setenv(KERNEL_ENV, backend)
        clear_kernel_cache()
        with observability(metrics=True) as scope:
            rows, _ = run_named_experiment("e1", scale="quick", seed=0)
            out[backend] = (rows, strip_wall(scope.metrics_snapshot()))
    assert out["fast"][0] == out["reference"][0], "result rows diverged"
    assert out["fast"][1] == out["reference"][1], "sim.* metrics diverged"


# --------------------------------------------------------------------- #
# scalar sampling fast path
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["inverse_square", "inverse_linear", "uniform"])
def test_scalar_sample_is_bit_identical_to_rng_choice(kind):
    for k, p in ((8, 2), (64, 8), (128, 32)):
        dist = make_distribution(HeightLattice(k, p), kind)
        heights = np.asarray(dist.lattice.heights, dtype=np.int64)
        probs = np.asarray(dist.pmf, dtype=np.float64)
        rng_a = np.random.default_rng(1234)
        rng_b = np.random.default_rng(1234)
        draws_fast = [dist.sample(rng_a) for _ in range(500)]
        draws_ref = [int(rng_b.choice(heights, p=probs)) for _ in range(500)]
        assert draws_fast == draws_ref
