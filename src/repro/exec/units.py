"""Work units: the embarrassingly-parallel cells every experiment is made of.

A :class:`WorkUnit` is one self-contained, deterministic computation —
one ``(algorithm, workload, seed)`` simulation, one lower-bound DP, one
green-paging replicate — identified by a *kind* plus a flat parameter
mapping.  Units are picklable (they carry numpy arrays and workloads, no
closures), so the engine can ship them to worker processes, and their
parameters canonically hash into content-addressed cache keys
(:func:`repro.exec.cache.stable_key`).

Each kind maps to a module-level executor in :data:`UNIT_EXECUTORS`;
randomness is reconstructed inside the executor from explicit seed
material, so a unit computes the identical value in-process, in a forked
worker, or on a different machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..obs.metrics import MetricsRegistry
from ..obs.runtime import capture_requested
from ..obs.tracing import Tracer
from .cache import stable_key
from .faults import maybe_inject

__all__ = ["WorkUnit", "CellOutcome", "UNIT_EXECUTORS", "execute_unit"]


@dataclass(frozen=True)
class WorkUnit:
    """One cacheable cell of an experiment.

    Attributes
    ----------
    kind:
        Executor name (a key of :data:`UNIT_EXECUTORS`).
    params:
        Flat mapping of everything the executor needs; must be canonical
        for hashing (scalars, strings, arrays, workloads, nests thereof).
    label:
        Human-readable identity for telemetry (not part of the key).
    """

    kind: str
    params: Mapping[str, Any]
    label: str = ""

    def key(self) -> str:
        """Content-addressed cache key (includes the cache version)."""
        return stable_key(self.kind, self.params)


@dataclass(frozen=True)
class CellOutcome:
    """Executor product: the value plus its telemetry facts.

    ``duration_s`` records the *original* compute time, so a cache hit
    can still report how much work it avoided.

    ``metrics`` and ``trace_events`` are the observability deltas
    captured while the unit executed (``None``/empty when obs was off):
    a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict and a
    tuple of Chrome-trace events.  They travel *inside* the outcome —
    through pickling to pool workers and through the result cache — so
    the parent engine can merge identical metrics whether the cell was
    computed serially, on a worker, or served from cache.
    """

    value: Any
    sim_steps: int
    duration_s: float
    metrics: Optional[Mapping[str, Any]] = None
    trace_events: Tuple[Mapping[str, Any], ...] = ()


def _run_parallel(params: Mapping[str, Any]) -> CellOutcome:
    """Simulate one registered parallel-paging algorithm on a workload.

    Returns a lower-bound-free :class:`~repro.parallel.metrics.RunSummary`
    (ratios are attached by the harness, so one cached run is reusable
    under any lower-bound configuration).
    """
    from ..parallel.metrics import summarize
    from ..parallel.schedulers import RunSpec, make_algorithm

    workload = params["workload"]
    spec = RunSpec(
        algorithm=params["algorithm"],
        cache_size=int(params["cache_size"]),
        miss_cost=int(params["miss_cost"]),
        seed=int(params["seed"]),
    )
    t0 = time.perf_counter()
    result = make_algorithm(spec).run(workload)
    summary = summarize(result)
    return CellOutcome(
        value=summary,
        sim_steps=workload.total_requests,
        duration_s=time.perf_counter() - t0,
    )


def _makespan_lb(params: Mapping[str, Any]) -> CellOutcome:
    """Compute the certified makespan lower bound for a workload."""
    from ..parallel.opt import makespan_lower_bound

    workload = params["workload"]
    t0 = time.perf_counter()
    lb = makespan_lower_bound(
        workload,
        int(params["k"]),
        int(params["miss_cost"]),
        include_impact=bool(params["include_impact"]),
    )
    return CellOutcome(
        value=lb, sim_steps=workload.total_requests, duration_s=time.perf_counter() - t0
    )


def _mean_lb(params: Mapping[str, Any]) -> CellOutcome:
    """Compute the mean-completion-time lower bound for a workload."""
    from ..parallel.opt import mean_completion_lower_bound

    workload = params["workload"]
    t0 = time.perf_counter()
    value = mean_completion_lower_bound(workload, int(params["k"]), int(params["miss_cost"]))
    return CellOutcome(
        value=value, sim_steps=workload.total_requests, duration_s=time.perf_counter() - t0
    )


def _green_rng(params: Mapping[str, Any]) -> np.random.Generator:
    """Rebuild the exact generator an experiment would have constructed."""
    return np.random.default_rng(
        np.random.SeedSequence(
            entropy=int(params["entropy"]), spawn_key=tuple(int(x) for x in params["spawn_key"])
        )
    )


def _rand_green(params: Mapping[str, Any]) -> CellOutcome:
    """One RAND-GREEN replicate: impact of servicing ``seq`` online."""
    from ..core.box import HeightLattice
    from ..core.rand_green import RandGreen

    seq = np.ascontiguousarray(params["seq"], dtype=np.int64)
    lattice = HeightLattice(int(params["k"]), int(params["p"]))
    t0 = time.perf_counter()
    alg = RandGreen(
        lattice,
        int(params["miss_cost"]),
        _green_rng(params),
        kind=params.get("dist", "inverse_square"),
    )
    impact = float(alg.run(seq).impact)
    return CellOutcome(value=impact, sim_steps=len(seq), duration_s=time.perf_counter() - t0)


def _det_green(params: Mapping[str, Any]) -> CellOutcome:
    """DET-GREEN on ``seq``: deterministic green-paging impact."""
    from ..core.box import HeightLattice
    from ..core.det_green import DetGreen

    seq = np.ascontiguousarray(params["seq"], dtype=np.int64)
    lattice = HeightLattice(int(params["k"]), int(params["p"]))
    t0 = time.perf_counter()
    impact = float(DetGreen(lattice, int(params["miss_cost"])).run(seq).impact)
    return CellOutcome(value=impact, sim_steps=len(seq), duration_s=time.perf_counter() - t0)


def _adversary_eval(params: Mapping[str, Any]) -> CellOutcome:
    """Score one adversary-search candidate under one algorithm.

    The workload is rebuilt deterministically from scalar parameters
    inside the executor, so the unit's cache key stays tiny and a hunt
    resumes from the result cache without re-simulating anything.
    """
    from ..search.scorers import evaluate_adversary_params

    t0 = time.perf_counter()
    result = evaluate_adversary_params(params)
    steps = int(result["requests"]) * len(result["per_seed"])
    return CellOutcome(value=result, sim_steps=steps, duration_s=time.perf_counter() - t0)


def _experiment_cell(params: Mapping[str, Any]) -> CellOutcome:
    """One table row of an experiment that simulates bespoke runs (E2/E4/E7/E11).

    ``params["experiment"]`` names the measurement function in
    :data:`repro.experiments.MEASUREMENTS`; it rebuilds its workload from
    the scalar parameters, so the key stays tiny and pool workers need no
    handoff.  The value is the raw measurements, never a formatted row.
    """
    from ..experiments import MEASUREMENTS

    t0 = time.perf_counter()
    value, steps = MEASUREMENTS[params["experiment"]](params)
    return CellOutcome(value=value, sim_steps=int(steps), duration_s=time.perf_counter() - t0)


def _green_opt(params: Mapping[str, Any]) -> CellOutcome:
    """Offline-optimal box-profile impact for ``seq`` (the E1/E8/E9 OPT)."""
    from ..core.box import HeightLattice
    from ..green.offline import optimal_box_profile

    seq = np.ascontiguousarray(params["seq"], dtype=np.int64)
    lattice = HeightLattice(int(params["k"]), int(params["p"]))
    t0 = time.perf_counter()
    impact = float(optimal_box_profile(seq, lattice, int(params["miss_cost"])).impact)
    return CellOutcome(value=impact, sim_steps=len(seq), duration_s=time.perf_counter() - t0)


#: kind -> executor.  Module-level functions only: workers resolve them by
#: qualified name, so anything here runs identically under fork or spawn.
UNIT_EXECUTORS: Dict[str, Callable[[Mapping[str, Any]], CellOutcome]] = {
    "parallel-run": _run_parallel,
    "makespan-lb": _makespan_lb,
    "mean-lb": _mean_lb,
    "rand-green": _rand_green,
    "det-green": _det_green,
    "green-opt": _green_opt,
    "adversary-eval": _adversary_eval,
    "experiment-cell": _experiment_cell,
}


def execute_unit(unit: WorkUnit) -> CellOutcome:
    """Run one unit to completion (the worker-process entry point).

    Honors any fault declared via :mod:`repro.exec.faults` (a single env
    lookup when none are configured), so chaos tests can crash, hang, or
    kill exactly this execution — in-process or in a pool worker.

    When observability is on (ambient scope or the ``REPRO_OBS_*``
    environment flags a pool worker inherits), the unit runs under a
    fresh registry/tracer and its deltas are attached to the outcome —
    the same code path serially and pooled, so an attempt that fails and
    retries contributes its metrics exactly once (only the successful
    attempt's outcome survives).
    """
    try:
        executor = UNIT_EXECUTORS[unit.kind]
    except KeyError:
        known = ", ".join(sorted(UNIT_EXECUTORS))
        raise KeyError(f"unknown work-unit kind {unit.kind!r}; known: {known}") from None
    maybe_inject(unit)
    want_metrics, want_trace = capture_requested()
    if not (want_metrics or want_trace):
        return executor(unit.params)
    registry = MetricsRegistry(enabled=want_metrics)
    tracer = Tracer(enabled=want_trace)
    with obs_metrics.collecting(registry), obs_tracing.collecting(tracer):
        with obs_tracing.span(f"unit:{unit.kind}", kind=unit.kind, label=unit.label):
            outcome = executor(unit.params)
    return replace(
        outcome,
        metrics=None if registry.is_empty() else registry.snapshot(),
        trace_events=tuple(tracer.events),
    )
