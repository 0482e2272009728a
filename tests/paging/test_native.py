"""``REPRO_KERNEL=native`` must be bit-identical to fast and reference.

The native tier (numba when importable, else a cc-compiled shared
library, else a graceful fallback to the numpy fast path) re-implements
the three inner loops of the paging kernel: the reuse-distance sweep,
the per-box service walk, and the offline green DP.  Its only contract
is *exactness*: every observable — box endpoints, hit/fault splits,
ladder plans, DP distances and parents — must equal the numpy fast path
and the dict-LRU reference bit for bit.  These tests pin that
three-way equivalence property-style (random boxes, ladders via the
offline DP on non-power-of-two lattices, streamed chunk appends with
compaction) plus the operational surface: backend selection, the
``$REPRO_NATIVE`` flavor pin, and the no-compiler fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.box import HeightLattice
from repro.green.offline import optimal_box_profile
from repro.paging import _native
from repro.paging._native import NATIVE_CACHE_ENV, NATIVE_ENV, clear_native_cache, native_ops
from repro.paging.engine import run_box
from repro.paging.kernel import (
    KERNEL_ENV,
    SequenceKernel,
    StreamKernel,
    _prev_occurrence,
    _reuse_distances,
    clear_kernel_cache,
    kernel_backend,
    native_flavor,
    run_box_fast,
)

HAVE_NATIVE = native_flavor() is not None

requires_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="no native flavor available (neither numba nor cc)"
)


@contextmanager
def backend(value: str, native: str | None = None):
    """Temporarily pin ``$REPRO_KERNEL`` (and optionally ``$REPRO_NATIVE``).

    A context manager instead of monkeypatch so hypothesis-driven tests
    can flip backends per example; kernels capture their backend at
    construction, so the cache is cleared on entry and exit.
    """
    saved = {k: os.environ.get(k) for k in (KERNEL_ENV, NATIVE_ENV)}
    os.environ[KERNEL_ENV] = value
    if native is not None:
        os.environ[NATIVE_ENV] = native
        clear_native_cache()
    clear_kernel_cache()
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        if native is not None:
            clear_native_cache()
        clear_kernel_cache()


# --------------------------------------------------------------------- #
# backend selection and flavor pinning
# --------------------------------------------------------------------- #


class TestBackendSelection:
    def test_native_resolves_to_native_or_fast(self):
        with backend("native"):
            assert kernel_backend() == ("native" if HAVE_NATIVE else "fast")

    def test_compiled_alias(self):
        with backend("compiled"):
            assert kernel_backend() == ("native" if HAVE_NATIVE else "fast")

    def test_native_off_forces_fallback_to_fast(self):
        with backend("native", native="off"):
            assert native_flavor() is None
            assert kernel_backend() == "fast"

    def test_invalid_backend_rejected(self):
        with backend("turbo"):
            with pytest.raises(ValueError, match="REPRO_KERNEL"):
                kernel_backend()

    def test_invalid_flavor_pin_rejected(self):
        saved = os.environ.get(NATIVE_ENV)
        os.environ[NATIVE_ENV] = "gpu"
        clear_native_cache()
        try:
            with pytest.raises(ValueError, match="REPRO_NATIVE"):
                native_ops()
        finally:
            if saved is None:
                os.environ.pop(NATIVE_ENV, None)
            else:
                os.environ[NATIVE_ENV] = saved
            clear_native_cache()

    @requires_native
    def test_flavor_pin_is_honored(self):
        flavor = native_flavor()
        with backend("native", native=flavor):
            assert native_flavor() == flavor

    @requires_native
    def test_native_kernel_carries_compiled_ops(self):
        with backend("native"):
            kern = SequenceKernel(np.arange(8, dtype=np.int64))
            assert kern._ops is not None
        with backend("fast"):
            kern = SequenceKernel(np.arange(8, dtype=np.int64))
            assert kern._ops is None

    def test_off_kernel_still_correct(self):
        # fallback is not just "doesn't crash": it is the numpy fast path
        arr = np.asarray([0, 1, 2, 0, 1, 3] * 10, dtype=np.int64)
        with backend("native", native="off"):
            kern = SequenceKernel(arr)
            got = run_box_fast(kern, 0, 3, 40, 5)
        assert got == run_box(arr, 0, 3, 40, 5)


# --------------------------------------------------------------------- #
# property: native ≡ fast ≡ reference on random boxes
# --------------------------------------------------------------------- #

sequences = st.lists(st.integers(min_value=0, max_value=12), min_size=0, max_size=160)


@requires_native
@given(
    seq=sequences,
    start_frac=st.floats(min_value=0.0, max_value=1.0),
    height=st.integers(min_value=1, max_value=20),
    budget=st.integers(min_value=0, max_value=400),
    miss_cost=st.integers(min_value=2, max_value=9),
)
@settings(max_examples=200, deadline=None)
def test_native_box_three_way_identical(seq, start_frac, height, budget, miss_cost):
    arr = np.asarray(seq, dtype=np.int64)
    start = int(start_frac * len(arr))  # includes start == n
    with backend("native"):
        native_run = run_box_fast(SequenceKernel(arr), start, height, budget, miss_cost)
    with backend("fast"):
        fast_run = run_box_fast(SequenceKernel(arr), start, height, budget, miss_cost)
    assert native_run == fast_run
    assert native_run == run_box(arr, start, height, budget, miss_cost)


@requires_native
@given(
    seq=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=120),
    chunks=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=12),
    probes=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.99),
            st.integers(min_value=1, max_value=10),
            st.integers(min_value=0, max_value=80),
        ),
        min_size=1,
        max_size=6,
    ),
    miss_cost=st.sampled_from([2, 5, 8]),
)
@settings(max_examples=100, deadline=None)
def test_native_stream_kernel_identical_across_chunked_appends(
    seq, chunks, probes, miss_cost
):
    """Streamed appends + boxes + compaction, native vs fast, same answers.

    Both kernels see the same chunk boundaries and the same interleaved
    box/compact schedule; every box must agree, including boxes evaluated
    after ``compact`` re-based the window.
    """
    arr = np.asarray(seq, dtype=np.int64)

    def play(backend_name):
        with backend(backend_name):
            sk = StreamKernel()
            runs = []
            i = 0
            ci = 0
            while i < len(arr):
                step = chunks[ci % len(chunks)]
                ci += 1
                sk.append(arr[i : i + step])
                i += step
                for frac, height, budget in probes:
                    start = sk.base + int(frac * (sk.end - sk.base))
                    runs.append(tuple(sk.box(start, height, budget, miss_cost)))
                # compact behind the median probe position to exercise the
                # re-based window on the next round
                mid = sk.base + (sk.end - sk.base) // 2
                sk.compact(mid)
            return runs

    assert play("native") == play("fast")


# --------------------------------------------------------------------- #
# property: ladders + offline DP on non-power-of-two lattices
# --------------------------------------------------------------------- #


@requires_native
@given(
    seed=st.integers(0, 10**6),
    k=st.integers(min_value=3, max_value=24),
    p_frac=st.floats(min_value=0.0, max_value=1.0),
    s=st.sampled_from([2, 4, 7]),
    n=st.integers(min_value=10, max_value=220),
)
@settings(max_examples=60, deadline=None)
def test_native_offline_dp_three_way_identical(seed, k, p_frac, s, n):
    """The whole DP pipeline — ladder plans included — is bit-identical.

    ``optimal_box_profile`` exercises every native primitive at once
    (reuse sweep, ladder/block probes, DP relaxation); k and p are *not*
    restricted to powers of two.
    """
    p = 1 + int(p_frac * (k - 1))  # any 1 <= p <= k, non-power-of-two included
    lattice = HeightLattice(k, p)
    rng = np.random.default_rng(seed)
    seq = rng.integers(0, max(2, k), size=n).astype(np.int64)

    def solve(backend_name):
        with backend(backend_name):
            res = optimal_box_profile(seq, lattice, s)
            return res.impact, tuple(res.profile), res.distances.tolist()

    native = solve("native")
    assert native == solve("fast")
    assert native == solve("reference")


# --------------------------------------------------------------------- #
# cc build: concurrent builders share one build directory
# --------------------------------------------------------------------- #

requires_cc = pytest.mark.skipif(
    shutil.which(os.environ.get("CC") or "cc") is None, reason="no C compiler"
)


def _shared_source(build_dir) -> "os.PathLike":
    digest = hashlib.sha256(_native._C_SOURCE.encode()).hexdigest()[:16]
    return build_dir / f"repro_kernel_{digest}.c"


def _assert_library_works(lib) -> None:
    assert lib is not None
    arr = np.asarray([0, 1, 2, 0, 1, 3] * 10, dtype=np.int64)
    prev = _prev_occurrence(arr)
    reuse = _reuse_distances(prev)
    out = np.empty(3, dtype=np.int64)
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.repro_box_run.argtypes = [ptr, ptr, i64, i64, i64, i64, i64, ptr]
    lib.repro_box_run.restype = None
    lib.repro_box_run(*(a.ctypes.data for a in (prev, reuse)), len(arr), 0, 3, 40, 5, out.ctypes.data)
    want = run_box(arr, 0, 3, 40, 5)
    assert out.tolist() == [want.end, want.hits, want.time_used]


@requires_cc
def test_cc_build_ignores_garbage_shared_source(tmp_path, monkeypatch):
    """A truncated ``repro_kernel_<digest>.c`` left by another builder is harmless."""
    monkeypatch.setenv(NATIVE_CACHE_ENV, str(tmp_path))
    _shared_source(tmp_path).write_text("#include <stdint.h>\nvoid repro_box_run(int64_t *")
    _assert_library_works(_native._compile_cc())
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


@requires_cc
def test_cc_build_survives_a_concurrent_source_write(tmp_path, monkeypatch):
    """Another worker rewriting the shared source mid-compile cannot tear this build."""
    monkeypatch.setenv(NATIVE_CACHE_ENV, str(tmp_path))
    real_run = subprocess.run

    def racing_run(cmd, **kwargs):
        _shared_source(tmp_path).write_text("int torn(")  # a half-written copy
        return real_run(cmd, **kwargs)

    monkeypatch.setattr(_native.subprocess, "run", racing_run)
    _assert_library_works(_native._compile_cc())
    # the private source copy is removed after the compile
    assert sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".c") == [_shared_source(tmp_path).name]
