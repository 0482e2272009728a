"""Compiled box-kernel primitives behind ``REPRO_KERNEL=native``.

The numpy fast path (:mod:`repro.paging.kernel`) already amortizes the
reuse-distance precompute, but three inner loops remain bound by python
or by O(window) vectorized work per probe:

* the reuse-distance sweep (a compiled Fenwick loop here; the numpy
  tier's O(n log n) build pays a sort per pass),
* the per-box service walk (a cumsum over the whole budget window even
  when the box serves a dozen requests), and
* the offline green DP relaxation (a python ``zip`` loop over every
  reachable position × ladder level).

This module provides those loops as compiled primitives with two
flavors, tried in order:

* ``numba`` — ``@njit`` kernels, when the optional dependency imports;
* ``cc`` — a tiny C translation unit compiled on demand with the
  system C compiler into a content-addressed shared library and loaded
  through :mod:`ctypes` (no third-party dependency at all).

Both flavors implement the *identical* integer algorithms, so every
value they produce — reuse distances, box endpoints, DP distances and
parent pointers — is bit-identical to the numpy fast path and to the
dict-LRU reference.  When neither flavor is available
:func:`native_ops` returns ``None`` and ``REPRO_KERNEL=native``
gracefully degrades to the numpy fast path (see
:func:`repro.paging.kernel.kernel_backend`).

``$REPRO_NATIVE`` pins the flavor: ``auto`` (default), ``numba``,
``cc``, or ``off`` (pretend neither is available — used by CI to prove
the fallback).  ``$REPRO_NATIVE_CACHE`` overrides the build directory
for the cc flavor.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = ["NativeOps", "native_ops", "native_flavor", "NATIVE_ENV", "clear_native_cache"]

#: Environment variable pinning the native flavor (auto/numba/cc/off).
NATIVE_ENV = "REPRO_NATIVE"
#: Environment variable overriding the cc build cache directory.
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE"

_C_SOURCE = r"""
#include <stdint.h>

/* Reuse-distance sweep in deletion form (cf. SequenceKernel.__init__):
 * position j is marked in the Fenwick tree once its page reoccurs, so
 * the distinct count between an occurrence pair (j, i) is the gap
 * length minus the marks inside it.  Rows in [0, lo) are processed for
 * their tree marks but not written, which is exactly what the
 * streaming kernel's suffix rebuild needs.  `tree` must be zeroed,
 * length cap + 1, cap >= hi. */
void repro_reuse_sweep(const int64_t *prev, int64_t lo, int64_t hi,
                       int64_t cold, int64_t *tree, int64_t cap,
                       int64_t *reuse) {
    int64_t i, j, x, acc;
    for (i = 0; i < hi; i++) {
        j = prev[i];
        if (j >= 0) {
            if (i >= lo) {
                acc = i - 1 - j;
                for (x = i; x > 0; x -= x & (-x))
                    acc -= tree[x];
                for (x = j + 1; x > 0; x -= x & (-x))
                    acc += tree[x];
                reuse[i] = acc;
            }
            for (x = j + 1; x <= cap; x += x & (-x))
                tree[x] += 1;
        } else if (i >= lo) {
            reuse[i] = cold;
        }
    }
}

/* One box service walk: the reference loop over the precomputed hit
 * predicate (hit iff prev[i] >= start && reuse[i] < height).  Writes
 * (served, hits, time_used) into out3. */
void repro_box_run(const int64_t *prev, const int64_t *reuse, int64_t n,
                   int64_t start, int64_t height, int64_t budget,
                   int64_t s, int64_t *out3) {
    int64_t i = start, t = 0, hits = 0, c;
    while (i < n) {
        c = (prev[i] >= start && reuse[i] < height) ? 1 : s;
        if (t + c > budget)
            break;
        t += c;
        hits += (c == 1);
        i++;
    }
    out3[0] = i - start;
    out3[1] = hits;
    out3[2] = t;
}

/* Box endpoints for a block of B consecutive starts across a whole
 * ascending height ladder.  lev[i] is the first ladder index whose
 * height exceeds reuse[i] (so level l hits i iff lev[i] <= l), which
 * collapses the nested hit sets to one comparison per request. */
void repro_ladder_block(const int64_t *prev, const int64_t *lev, int64_t n,
                        int64_t L, const int64_t *budgets, int64_t s,
                        int64_t q0, int64_t B, int64_t *ends_out) {
    int64_t b, l, q, budget, t, i, c;
    for (b = 0; b < B; b++) {
        q = q0 + b;
        for (l = 0; l < L; l++) {
            budget = budgets[l];
            t = 0;
            i = q;
            while (i < n) {
                c = (prev[i] >= q && lev[i] <= l) ? 1 : s;
                if (t + c > budget)
                    break;
                t += c;
                i++;
            }
            ends_out[b * L + l] = i;
        }
    }
}

/* The whole offline green DP relaxation (repro.green.offline): ascending
 * positions, ascending ladder levels, strict-< improvement — the exact
 * tie-breaking of the python sweep, so distances and parent pointers
 * are bit-identical.  dist has length n + 1 with dist[0] = 0 and inf
 * elsewhere on entry. */
void repro_dp_solve(const int64_t *prev, const int64_t *lev, int64_t n,
                    int64_t L, const int64_t *budgets, const int64_t *costs,
                    const int64_t *heights, int64_t s, int64_t inf,
                    int64_t *dist, int64_t *parent_pos, int64_t *parent_h) {
    int64_t q, l, d, budget, t, i, c, nd;
    for (q = 0; q < n; q++) {
        d = dist[q];
        if (d == inf)
            continue;
        for (l = 0; l < L; l++) {
            budget = budgets[l];
            t = 0;
            i = q;
            while (i < n) {
                c = (prev[i] >= q && lev[i] <= l) ? 1 : s;
                if (t + c > budget)
                    break;
                t += c;
                i++;
            }
            nd = d + costs[l];
            if (nd < dist[i]) {
                dist[i] = nd;
                parent_pos[i] = q;
                parent_h[i] = heights[l];
            }
        }
    }
}
"""


@dataclass(frozen=True)
class NativeOps:
    """Flavor-agnostic handle to the compiled kernel primitives.

    Every callable takes contiguous int64 numpy arrays and plain ints;
    output arrays are filled in place.  ``flavor`` is ``"numba"`` or
    ``"cc"`` (reported by benchmarks and the ``sim.*`` metrics).
    """

    flavor: str
    reuse_sweep: Callable[..., None]
    box_run: Callable[..., List[int]]
    ladder_block: Callable[..., None]
    dp_solve: Callable[..., None]
    #: ``prepare(prev, reuse)`` -> opaque handle; ``box_probe(handle, ...)``
    #: is ``box_run`` minus the per-call pointer/array marshalling, for
    #: call sites that probe the same arrays tens of thousands of times
    #: (the streamed box server).  The handle keeps the arrays alive and
    #: must be dropped whenever they are replaced.
    prepare: Callable[..., object]
    box_probe: Callable[..., List[int]]


def _i64(arr: np.ndarray) -> np.ndarray:
    """Contiguous int64 view/copy (inputs are int64 already on hot paths)."""
    return np.ascontiguousarray(arr, dtype=np.int64)


# --------------------------------------------------------------------- #
# cc flavor: compile-on-demand C shared library, loaded via ctypes
# --------------------------------------------------------------------- #
def _cc_build_dir() -> Path:
    override = os.environ.get(NATIVE_CACHE_ENV)
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid() if hasattr(os, 'getuid') else 'u'}"


def _compile_cc() -> Optional[ctypes.CDLL]:
    """Compile (once, content-addressed) and load the C translation unit."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    suffix = ".so" if sys.platform != "win32" else ".dll"
    build = _cc_build_dir()
    lib_path = build / f"repro_kernel_{digest}{suffix}"
    if not lib_path.exists():
        compiler = os.environ.get("CC") or "cc"
        try:
            build.mkdir(parents=True, exist_ok=True)
            src = build / f"repro_kernel_{digest}.c"
            src.write_text(_C_SOURCE)
            with tempfile.NamedTemporaryFile(
                dir=build, suffix=suffix + ".tmp", delete=False
            ) as tmp:
                tmp_path = tmp.name
            cmd = [compiler, "-O2", "-shared", "-fPIC", "-o", tmp_path, str(src)]
            proc = subprocess.run(
                cmd, capture_output=True, timeout=120, check=False
            )
            if proc.returncode != 0:
                os.unlink(tmp_path)
                return None
            os.replace(tmp_path, lib_path)  # atomic under concurrent builds
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        return ctypes.CDLL(str(lib_path))
    except OSError:
        return None


def _cc_ops() -> Optional[NativeOps]:
    lib = _compile_cc()
    if lib is None:
        return None
    c_i64 = ctypes.c_int64
    p_i64 = ctypes.c_void_p  # raw addresses: ndarray.ctypes.data ints pass
    # straight through, skipping data_as()'s cast machinery per call
    for name, argtypes in (
        ("repro_reuse_sweep", [p_i64, c_i64, c_i64, c_i64, p_i64, c_i64, p_i64]),
        ("repro_box_run", [p_i64, p_i64, c_i64, c_i64, c_i64, c_i64, c_i64, p_i64]),
        ("repro_ladder_block", [p_i64, p_i64, c_i64, c_i64, p_i64, c_i64, c_i64, c_i64, p_i64]),
        ("repro_dp_solve", [p_i64, p_i64, c_i64, c_i64, p_i64, p_i64, p_i64, c_i64, c_i64, p_i64, p_i64, p_i64]),
    ):
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None

    def ptr(arr: np.ndarray) -> int:
        return arr.ctypes.data

    # per-thread (out array, out pointer) scratch for box probes: the C
    # call releases the GIL, so a shared buffer could race across threads
    tls = threading.local()

    def _out():
        pair = getattr(tls, "pair", None)
        if pair is None:
            arr = np.empty(3, dtype=np.int64)
            pair = tls.pair = (arr, ptr(arr))
        return pair

    box_fn = lib.repro_box_run

    def reuse_sweep(prev, lo, hi, cold, tree, cap, reuse):
        lib.repro_reuse_sweep(ptr(prev), lo, hi, cold, ptr(tree), cap, ptr(reuse))

    def box_run(prev, reuse, n, start, height, budget, s):
        out, optr = _out()
        box_fn(ptr(prev), ptr(reuse), n, start, height, budget, s, optr)
        return out.tolist()

    def prepare(prev, reuse):
        # the handle holds the arrays alongside their raw pointers so the
        # pointers can never dangle
        return (ptr(prev), ptr(reuse), prev, reuse)

    def box_probe(handle, n, start, height, budget, s):
        # flattened _out(): this runs once per event-driven box, where a
        # spare function frame is measurable
        try:
            out, optr = tls.pair
        except AttributeError:
            arr = np.empty(3, dtype=np.int64)
            out, optr = tls.pair = (arr, ptr(arr))
        box_fn(handle[0], handle[1], n, start, height, budget, s, optr)
        return out.tolist()

    def ladder_block(prev, lev, n, budgets, s, q0, B, ends_out):
        lib.repro_ladder_block(
            ptr(prev), ptr(lev), n, len(budgets), ptr(budgets), s, q0, B, ptr(ends_out)
        )

    def dp_solve(prev, lev, budgets, costs, heights, s, inf, dist, parent_pos, parent_h):
        lib.repro_dp_solve(
            ptr(prev), ptr(lev), len(prev), len(budgets), ptr(budgets), ptr(costs),
            ptr(heights), s, inf, ptr(dist), ptr(parent_pos), ptr(parent_h),
        )

    return NativeOps(
        flavor="cc",
        reuse_sweep=reuse_sweep,
        box_run=box_run,
        ladder_block=ladder_block,
        dp_solve=dp_solve,
        prepare=prepare,
        box_probe=box_probe,
    )


# --------------------------------------------------------------------- #
# numba flavor
# --------------------------------------------------------------------- #
def _numba_ops() -> Optional[NativeOps]:
    try:
        from numba import njit  # type: ignore
    except ImportError:
        return None

    @njit(cache=True)
    def _nb_reuse_sweep(prev, lo, hi, cold, tree, cap, reuse):  # pragma: no cover — jit
        for i in range(hi):
            j = prev[i]
            if j >= 0:
                if i >= lo:
                    acc = i - 1 - j
                    x = i
                    while x > 0:
                        acc -= tree[x]
                        x -= x & (-x)
                    x = j + 1
                    while x > 0:
                        acc += tree[x]
                        x -= x & (-x)
                    reuse[i] = acc
                x = j + 1
                while x <= cap:
                    tree[x] += 1
                    x += x & (-x)
            elif i >= lo:
                reuse[i] = cold

    @njit(cache=True)
    def _nb_box_run(prev, reuse, n, start, height, budget, s, out3):  # pragma: no cover — jit
        i = start
        t = np.int64(0)
        hits = np.int64(0)
        while i < n:
            c = 1 if (prev[i] >= start and reuse[i] < height) else s
            if t + c > budget:
                break
            t += c
            if c == 1:
                hits += 1
            i += 1
        out3[0] = i - start
        out3[1] = hits
        out3[2] = t

    @njit(cache=True)
    def _nb_ladder_block(prev, lev, n, L, budgets, s, q0, B, ends_out):  # pragma: no cover — jit
        for b in range(B):
            q = q0 + b
            for l in range(L):
                budget = budgets[l]
                t = np.int64(0)
                i = q
                while i < n:
                    c = 1 if (prev[i] >= q and lev[i] <= l) else s
                    if t + c > budget:
                        break
                    t += c
                    i += 1
                ends_out[b * L + l] = i

    @njit(cache=True)
    def _nb_dp_solve(prev, lev, n, L, budgets, costs, heights, s, inf, dist, parent_pos, parent_h):  # pragma: no cover — jit
        for q in range(n):
            d = dist[q]
            if d == inf:
                continue
            for l in range(L):
                budget = budgets[l]
                t = np.int64(0)
                i = q
                while i < n:
                    c = 1 if (prev[i] >= q and lev[i] <= l) else s
                    if t + c > budget:
                        break
                    t += c
                    i += 1
                nd = d + costs[l]
                if nd < dist[i]:
                    dist[i] = nd
                    parent_pos[i] = q
                    parent_h[i] = heights[l]

    tls = threading.local()

    def _out():
        out = getattr(tls, "out", None)
        if out is None:
            out = tls.out = np.empty(3, dtype=np.int64)
        return out

    def box_run(prev, reuse, n, start, height, budget, s):
        out = _out()
        _nb_box_run(prev, reuse, n, start, height, budget, s, out)
        return out.tolist()

    def prepare(prev, reuse):
        return (prev, reuse)

    def box_probe(handle, n, start, height, budget, s):
        try:
            out = tls.out
        except AttributeError:
            out = tls.out = np.empty(3, dtype=np.int64)
        _nb_box_run(handle[0], handle[1], n, start, height, budget, s, out)
        return out.tolist()

    def ladder_block(prev, lev, n, budgets, s, q0, B, ends_out):
        _nb_ladder_block(prev, lev, n, len(budgets), budgets, s, q0, B, ends_out)

    def dp_solve(prev, lev, budgets, costs, heights, s, inf, dist, parent_pos, parent_h):
        _nb_dp_solve(
            prev, lev, len(prev), len(budgets), budgets, costs, heights, s, inf,
            dist, parent_pos, parent_h,
        )

    try:
        # force one compilation now so an unusable numba (missing llvmlite,
        # unsupported python) degrades to the cc flavor instead of raising
        # from a hot loop later
        probe = np.zeros(1, dtype=np.int64)
        _nb_reuse_sweep(np.full(1, -1, dtype=np.int64), 0, 1, 0, np.zeros(2, dtype=np.int64), 1, probe)
    except Exception:
        return None
    return NativeOps(
        flavor="numba",
        reuse_sweep=_nb_reuse_sweep,
        box_run=box_run,
        ladder_block=ladder_block,
        dp_solve=dp_solve,
        prepare=prepare,
        box_probe=box_probe,
    )


# --------------------------------------------------------------------- #
# flavor selection
# --------------------------------------------------------------------- #
_OPS_CACHE: dict = {}


def native_ops() -> Optional[NativeOps]:
    """The active compiled primitives, or ``None`` when unavailable.

    Flavor is chosen by ``$REPRO_NATIVE``: ``auto`` (default; numba
    first, then cc), ``numba``, ``cc``, or ``off``.  The probe result is
    cached per flavor request, so hot paths pay one dict lookup.
    """
    mode = os.environ.get(NATIVE_ENV, "auto").strip().lower() or "auto"
    if mode == "off":
        return None
    if mode not in ("auto", "numba", "cc"):
        raise ValueError(
            f"unknown {NATIVE_ENV} flavor {mode!r}; expected 'auto', 'numba', 'cc', or 'off'"
        )
    if mode in _OPS_CACHE:
        return _OPS_CACHE[mode]
    ops: Optional[NativeOps] = None
    if mode in ("auto", "numba"):
        ops = _numba_ops()
    if ops is None and mode in ("auto", "cc"):
        ops = _cc_ops()
    _OPS_CACHE[mode] = ops
    return ops


def native_flavor() -> Optional[str]:
    """``"numba"``/``"cc"`` when a native flavor is usable, else ``None``."""
    ops = native_ops()
    return ops.flavor if ops is not None else None


def clear_native_cache() -> None:
    """Forget probed flavors (tests that flip ``$REPRO_NATIVE`` mid-process)."""
    _OPS_CACHE.clear()
