"""The experiment suite: one function per claim of the paper (E1–E11).

The paper has no empirical section, so these experiments *are* the
reproduction's tables (see DESIGN.md §5 for the index and EXPERIMENTS.md
for recorded results).  Each function returns ``(rows, report_text)`` —
the CLI prints the report, the benchmark harness times the computation and
persists the report to ``benchmarks/out/``.

Every function takes a ``scale`` ("quick" for CI-sized runs, "full" for
the recorded numbers) and an optional seed; all randomness flows through
seeded generators.

Every replicated computation is a :mod:`repro.exec` work unit run through
the ambient execution engine, so ``repro eN --jobs N`` fans it out over
worker processes and the content-addressed cache makes warm reruns
near-free — with tables identical to serial execution.  Seed reps, sweep
cells and offline OPT profiles use the shared unit kinds; the experiments
that simulate bespoke runs (E2, E4, E7, E11) make each table row one
``experiment-cell`` unit whose executor calls the experiment's entry in
:data:`MEASUREMENTS`.  Units return raw measurements; the experiment
function rounds and renders them.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .analysis.fitting import best_model, fit_growth, normalized_constants
from .analysis.harness import run_experiment
from .analysis.plots import bar_chart, line_chart
from .analysis.report import render_table
from .analysis.sweep import series_of, sweep_p
from .core.box import HeightLattice
from .core.distributions import make_distribution
from .core.det_par import DetPar
from .core.rand_par import RandPar
from .core.well_rounded import audit_balance, audit_well_rounded
from .core.black_box import BlackBoxPar
from .exec.engine import current_engine
from .exec.policy import FailedCell
from .exec.units import WorkUnit
from .parallel.schedulers import observe_pager
from .workloads.adversarial import build_adversarial_instance, lemma8_opt_makespan
from .workloads.generators import cyclic, multiscale_cycles, polluted_cycle, sawtooth, scan
from .workloads.trace import ParallelWorkload

__all__ = ["EXPERIMENTS", "run_named_experiment"]

Rows = List[Dict[str, object]]


def _engine_values(units: List[WorkUnit]) -> List[object]:
    """Run units through the ambient engine, degrading failures to ``nan``.

    Under a keep-going policy a unit that exhausted its retries comes back
    as a :class:`~repro.exec.FailedCell`; mapping it to ``nan`` here lets
    every downstream mean/ratio propagate the loss and the table renderer
    mark the affected cells ``FAIL`` instead of crashing the experiment.
    """
    return [float("nan") if isinstance(v, FailedCell) else v for v in current_engine().run(units)]


class _Lost(dict):
    """The measurements of a unit lost under keep-going: every field reads ``nan``."""

    def __missing__(self, key: object) -> float:
        return float("nan")


_LOST = _Lost()


def _engine_cells(cells: Sequence[Mapping[str, Any]], label: str) -> List[Mapping[str, Any]]:
    """Run one ``experiment-cell`` unit per parameter set, in one engine batch.

    ``label`` is a format string over the parameters (``"e7/ell={ell}"``).

    Each unit's executor calls the experiment's entry in
    :data:`MEASUREMENTS` and returns its raw measurements; the experiment
    rounds and renders them, so a presentation change never reads stale
    rows from the cache.  A lost unit's measurements all read ``nan``,
    which the table renders as ``FAIL``.
    """
    units = [WorkUnit("experiment-cell", cell, label=label.format(**cell)) for cell in cells]
    return [_LOST if isinstance(v, float) else v for v in _engine_values(units)]


# --------------------------------------------------------------------- #
# green-paging workload menu shared by E1 / E8 / E9
# --------------------------------------------------------------------- #
def _green_workloads(k: int, p: int, n: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    """Single-processor sequences that exercise several cache scales."""
    return {
        "scan": scan(n),
        # light pollution over a cycle that fits in half the lattice, so a
        # mid-height box genuinely pays (cycle=k-1 cannot: a height-k box
        # would exhaust its whole s·k budget on warm-up misses)
        "polluted-cycle": polluted_cycle(n, max(2, k // 4), max(4, 2 * p)),
        # phases sweeping every box-height scale — the workload for which
        # the full lattice matters and the log p factor is sharpest
        "multiscale": multiscale_cycles(n, k, p, rng),
    }


def e1_rand_green(scale: str = "quick", seed: int = 0) -> Tuple[Rows, str]:
    """Theorem 1: RAND-GREEN impact within O(log p) of the offline box OPT."""
    p_values = [4, 8, 16, 32] if scale == "quick" else [4, 8, 16, 32, 64, 128]
    reps = 5 if scale == "quick" else 12
    # express every OPT profile and every RAND-GREEN replicate as a work
    # unit, then run the whole grid through the engine in one batch
    units: List[WorkUnit] = []
    cells: List[Tuple[int, str, int, List[int]]] = []  # (p, workload, opt idx, rep idxs)
    for p in p_values:
        k = 4 * p
        s = 2 * k  # tall boxes must beat thrashing (see DESIGN.md §4)
        n = 1200 if scale == "quick" else 3000
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(p,)))
        for name, seq in _green_workloads(k, p, n, rng).items():
            opt_idx = len(units)
            units.append(
                WorkUnit("green-opt", {"k": k, "p": p, "miss_cost": s, "seq": seq}, label=f"e1/opt/{name}/p={p}")
            )
            rep_idxs = []
            for r in range(reps):
                rep_idxs.append(len(units))
                units.append(
                    WorkUnit(
                        "rand-green",
                        {"k": k, "p": p, "miss_cost": s, "entropy": seed + 1, "spawn_key": (p, r), "seq": seq},
                        label=f"e1/rand-green/{name}/p={p}/r={r}",
                    )
                )
            cells.append((p, name, opt_idx, rep_idxs))
    values = _engine_values(units)
    rows: Rows = []
    for p, name, opt_idx, rep_idxs in cells:
        opt = values[opt_idx]
        ratios = [values[i] / opt for i in rep_idxs]
        rows.append(
            {
                "p": p,
                "workload": name,
                "log2_p": int(math.log2(p)),
                "ratio_mean": round(float(np.mean(ratios)), 3),
                "ratio_max": round(float(np.max(ratios)), 3),
                "ratio_over_log2p": round(float(np.mean(ratios)) / math.log2(p), 3),
            }
        )
    # shape check per workload
    lines = [render_table(rows, title="E1 — RAND-GREEN vs offline green OPT (Theorem 1)")]
    for name in ("scan", "polluted-cycle", "multiscale"):
        ps = [r["p"] for r in rows if r["workload"] == name]
        ys = [r["ratio_mean"] for r in rows if r["workload"] == name]
        fit = best_model(ps, ys)
        lines.append(f"best growth model[{name}]: {fit.model} (R²={fit.r_squared:.3f}, slope={fit.slope:.3f})\n")
    series = {
        name: {r["p"]: r["ratio_mean"] for r in rows if r["workload"] == name}
        for name in ("scan", "polluted-cycle", "multiscale")
    }
    lines.append(line_chart(series, title="impact ratio vs p", y_label="ratio"))
    return rows, "\n".join(lines)


def measure_e2(params: Mapping[str, Any]) -> Tuple[Dict[str, Any], int]:
    """E2 cell: RAND-PAR's full-width chunks on ``p`` copies of ``cyclic(n, 3)``.

    Returns the chunk count and the unrounded mean/max secondary-to-primary
    length and impact ratios, plus the number of requests simulated.
    """
    p = int(params["p"])
    wl = ParallelWorkload.from_local([cyclic(int(params["n"]), 3) for _ in range(p)])
    pager = RandPar(int(params["K"]), int(params["s"]), np.random.default_rng(int(params["seed"])))
    res = observe_pager(pager).run(wl, max_chunks=500)
    chunks = [c for c in res.meta["chunks"] if c.active_at_start == p]
    len_ratios = [c.secondary_length / c.primary_length for c in chunks]
    imp_ratios = [c.secondary_impact / max(1, c.primary_impact) for c in chunks]
    served = sum(box.served_end - box.served_start for box in res.trace)
    return {
        "chunks": len(chunks),
        "mean_len_ratio": float(np.mean(len_ratios)),
        "mean_impact_ratio": float(np.mean(imp_ratios)),
        "max_len_ratio": float(np.max(len_ratios)),
    }, served


def e2_chunk_balance(scale: str = "quick", seed: int = 0) -> Tuple[Rows, str]:
    """Observation 1: primary and secondary chunk parts match in expectation."""
    p_values = [4, 8, 16] if scale == "quick" else [4, 8, 16, 32, 64]
    n = 30000 if scale == "quick" else 120000
    cells = [{"experiment": "e2", "p": p, "K": 8 * p, "s": 16, "n": n, "seed": seed} for p in p_values]
    measured = _engine_cells(cells, "e2/p={p}")
    rows: Rows = []
    for cell, m in zip(cells, measured):
        p, K, s = cell["p"], cell["K"], cell["s"]
        # analytic E[ℓ2]/ℓ1 from the drawing distribution (the identity
        # Observation 1 asserts; the empirical mean fluctuates because the
        # secondary length j² is heavy-tailed)
        lattice = HeightLattice(K, p)
        dist = make_distribution(lattice, "inverse_square")
        ell1 = lattice.levels * s * lattice.min_height
        exp_ell2 = sum(
            q * math.ceil(p / max(1, K // j)) * s * j for q, j in zip(dist.pmf, lattice.heights)
        )
        rows.append(
            {
                "p": p,
                "chunks": m["chunks"],
                "analytic_len_ratio": round(exp_ell2 / ell1, 3),
                "mean_len_ratio": round(m["mean_len_ratio"], 3),
                "mean_impact_ratio": round(m["mean_impact_ratio"], 3),
                "max_len_ratio": round(m["max_len_ratio"], 3),
            }
        )
    text = render_table(rows, title="E2 — chunk primary/secondary balance (Observation 1)")
    text += (
        "\nanalytic_len_ratio is E[ℓ2]/ℓ1 computed from the drawing distribution"
        " (Observation 1 predicts Θ(1)); the empirical mean converges to it as"
        " chunks accumulate but the per-chunk ratio is heavy-tailed (max column).\n"
    )
    return rows, text


def _sweep_experiment(
    algorithms: Sequence[str],
    scale: str,
    seed: int,
    field: str,
    title: str,
    claim_models: Dict[str, str],
) -> Tuple[Rows, str]:
    from .analysis.sweep import default_workload_factory

    p_values = [2, 4, 8, 16] if scale == "quick" else [2, 4, 8, 16, 32]
    seeds = (seed, seed + 1, seed + 2) if scale == "quick" else tuple(seed + i for i in range(5))
    result = sweep_p(
        algorithms,
        p_values,
        miss_cost=64,
        # every processor is cache-sensitive at several scales, so the
        # allocation policy (not one bottleneck scan) decides the makespan
        workload_factory=default_workload_factory(
            kind="multiscale", n_requests_per_proc=400 if scale == "quick" else 1000
        ),
        cache_factor=4,
        xi=2,
        seeds=seeds,
        workload_seed=seed + 99,
        include_impact_lb=True,
    )
    rows = result.as_dicts()
    lines = [render_table(rows, title=title)]
    for alg in algorithms:
        ps, ys = series_of(result, alg, field)
        if len(ps) >= 2:
            fit = best_model(ps, ys)
            norm = normalized_constants(ps, ys, claim_models.get(alg, "log"))
            lines.append(
                f"{alg}: best model={fit.model} (R²={fit.r_squared:.3f}); "
                f"ratio/{claim_models.get(alg, 'log')}₂p = {np.round(norm, 3).tolist()}\n"
            )
    chart_series = {alg: result.series(alg, field) for alg in algorithms}
    lines.append(line_chart(chart_series, title=f"{field} vs p", y_label="ratio"))
    return rows, "\n".join(lines)


def e3_rand_par(scale: str = "quick", seed: int = 0) -> Tuple[Rows, str]:
    """Theorem 2: RAND-PAR expected makespan O(log p · T_OPT)."""
    return _sweep_experiment(
        ["rand-par"],
        scale,
        seed,
        field="makespan_ratio",
        title="E3 — RAND-PAR makespan vs certified lower bound (Theorem 2)",
        claim_models={"rand-par": "log"},
    )


def measure_e4(params: Mapping[str, Any]) -> Tuple[Dict[str, Any], int]:
    """E4 cell: the Lemma 6 well-roundedness and memory audit of one DET-PAR run.

    Returns the unrounded audit fields and the number of requests simulated.
    """
    from .workloads.generators import make_parallel_workload

    p, k = int(params["p"]), int(params["k"])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(params["seed"]), spawn_key=(p,)))
    wl = make_parallel_workload(p=p, n_requests=int(params["n"]), k=k, rng=rng)
    res = observe_pager(DetPar(2 * k, 16)).run(wl)
    report = audit_well_rounded(res)
    balance = audit_balance(res)
    return {
        "phases": len(res.meta["phases"]),
        "base_covered": report.base_covered,
        "max_gap_factor": report.max_gap_factor,
        "min_reserved_fraction": balance.min_reserved_fraction,
        "reserved_peak": res.meta["reserved_peak"],
        "max_phase_spread": balance.max_phase_spread,
    }, wl.total_requests


def e4_well_rounded(scale: str = "quick", seed: int = 0) -> Tuple[Rows, str]:
    """Lemma 6: DET-PAR is well-rounded with O(k) memory."""
    p_values = [4, 8, 16] if scale == "quick" else [4, 8, 16, 32, 64]
    n = 300 if scale == "quick" else 800
    cells = [{"experiment": "e4", "p": p, "k": 4 * p, "n": n, "seed": seed} for p in p_values]
    measured = _engine_cells(cells, "e4/p={p}")
    rows: Rows = [
        {
            "p": cell["p"],
            "phases": m["phases"],
            "base_covered": m["base_covered"],
            "max_gap_factor": round(m["max_gap_factor"], 3),
            "reserved_frac_min": round(m["min_reserved_fraction"], 3),
            "reserved_peak/k": round(m["reserved_peak"] / cell["k"], 3),
            "impact_spread": round(m["max_phase_spread"], 3),
        }
        for cell, m in zip(cells, measured)
    ]
    text = render_table(rows, title="E4 — DET-PAR well-roundedness & memory audit (Lemma 6)")
    text += (
        "\nmax_gap_factor is the measured constant c in the well-rounded window"
        " c·z²·s·log p/b — Lemma 6 predicts it stays O(1) as p grows.\n"
    )
    return rows, text


def e5_makespan(scale: str = "quick", seed: int = 0) -> Tuple[Rows, str]:
    """Theorem 3 + baselines: makespan ratios for every algorithm."""
    algorithms = [
        "det-par",
        "rand-par",
        "black-box-green",
        "equal-partition",
        "best-static-partition",
        "global-lru",
    ]
    return _sweep_experiment(
        algorithms,
        scale,
        seed,
        field="makespan_ratio",
        title="E5 — makespan competitive ratios across algorithms (Theorem 3)",
        claim_models={a: "log" for a in algorithms},
    )


def e6_mean_completion(scale: str = "quick", seed: int = 0) -> Tuple[Rows, str]:
    """Corollary 3: DET-PAR is simultaneously O(log p) for mean completion."""
    return _sweep_experiment(
        ["det-par", "rand-par", "equal-partition", "global-lru"],
        scale,
        seed,
        field="mean_completion_ratio",
        title="E6 — mean completion time ratios (Corollary 3)",
        claim_models={"det-par": "log", "rand-par": "log"},
    )


def measure_e7(params: Mapping[str, Any]) -> Tuple[Dict[str, Any], int]:
    """E7 cell: one Theorem 4 instance under BLACK-BOX, DET-PAR and RAND-PAR.

    Returns the instance geometry (``p``, ``k``, ``s``), its Lemma 8 OPT,
    the three makespans and BLACK-BOX's era count and balance, plus the
    number of requests simulated.
    """
    from .analysis.eras import era_analysis

    inst = build_adversarial_instance(int(params["ell"]), alpha=0.25, suffix_phase_multiplier=1)
    s = inst.recommended_miss_cost()
    K = 2 * inst.k
    bb = observe_pager(BlackBoxPar(K, s)).run(inst.workload)
    dp = observe_pager(DetPar(K, s)).run(inst.workload)
    rp = observe_pager(RandPar(K, s, np.random.default_rng(int(params["seed"])))).run(inst.workload)
    eras = era_analysis(bb)
    return {
        "p": inst.p,
        "k": inst.k,
        "s": s,
        "opt": lemma8_opt_makespan(inst, s),
        "blackbox_makespan": bb.makespan,
        "detpar_makespan": dp.makespan,
        "randpar_makespan": rp.makespan,
        "eras": len(eras.durations),
        "era_balance": eras.balance,
    }, 3 * inst.workload.total_requests


def e7_lower_bound(scale: str = "quick", seed: int = 0) -> Tuple[Rows, str]:
    """Theorem 4: the greedily-green separation grows like log p/log log p."""
    ells = [2, 3, 4] if scale == "quick" else [2, 3, 4, 5]
    cells = [{"experiment": "e7", "ell": ell, "seed": seed} for ell in ells]
    measured = _engine_cells(cells, "e7/ell={ell}")
    rows: Rows = []
    for cell, m in zip(cells, measured):
        opt = m["opt"]
        logp = math.log2(m["p"])
        ll = math.log2(max(2.0, logp))
        rows.append(
            {
                "ell": cell["ell"],
                "p": m["p"],
                "k": m["k"],
                "s": m["s"],
                "opt_lemma8": opt,
                "blackbox_ratio": round(m["blackbox_makespan"] / opt, 3),
                "detpar_ratio": round(m["detpar_makespan"] / opt, 3),
                "randpar_ratio": round(m["randpar_makespan"] / opt, 3),
                "log_over_loglog": round(logp / ll, 3),
                "eras": m["eras"],
                "era_balance": round(m["era_balance"], 2),
            }
        )
    text = render_table(rows, title="E7 — Theorem 4 adversarial instance: PAR vs Lemma-8 OPT")
    # a lost cell's row renders FAIL in the table and stays out of the fit
    fitted = [r for r in rows if math.isfinite(r["blackbox_ratio"])]
    ps = [r["p"] for r in fitted]
    ys = [r["blackbox_ratio"] for r in fitted]
    if len(ps) >= 2:
        fit = fit_growth(ps, ys, "log_over_loglog")
        text += (
            f"\nblack-box ratio vs log p/log log p fit: slope={fit.slope:.3f}, "
            f"R²={fit.r_squared:.3f} (Theorem 4 predicts linear growth in this feature).\n"
            "suffix_phase_multiplier=1 (paper: 4) — see EXPERIMENTS.md for why the paper's\n"
            "constant hides the separation at laptop-scale p.\n"
        )
        text += "\n" + line_chart(
            {
                "black-box": {r["p"]: r["blackbox_ratio"] for r in fitted},
                "det-par": {r["p"]: r["detpar_ratio"] for r in fitted},
                "logp/loglogp": {r["p"]: r["log_over_loglog"] for r in fitted},
            },
            title="Theorem 4 separation vs p",
            y_label="ratio",
        )
    return rows, text


def e8_ablation(scale: str = "quick", seed: int = 0) -> Tuple[Rows, str]:
    """§3.1/§3.2 ablation: the 1/j² height distribution is the right one."""
    p_values = [8, 16, 32] if scale == "quick" else [8, 16, 32, 64]
    reps = 5 if scale == "quick" else 10
    kinds = ("inverse_square", "inverse_linear", "uniform")
    units: List[WorkUnit] = []
    cells: List[Tuple[int, int, Dict[str, List[int]]]] = []  # (p, opt idx, kind -> rep idxs)
    for p in p_values:
        k = 4 * p
        s = 2 * k
        n = 1200 if scale == "quick" else 2500
        # a scan is the sharpest discriminator: its OPT uses only minimum
        # boxes, so every unit of tall-box impact is pure waste — uniform
        # height draws then cost Θ(p/log p) while 1/j² costs Θ(log p)
        seq = scan(n)
        opt_idx = len(units)
        units.append(WorkUnit("green-opt", {"k": k, "p": p, "miss_cost": s, "seq": seq}, label=f"e8/opt/p={p}"))
        by_kind: Dict[str, List[int]] = {}
        for kind in kinds:
            by_kind[kind] = []
            for r in range(reps):
                by_kind[kind].append(len(units))
                units.append(
                    WorkUnit(
                        "rand-green",
                        {"k": k, "p": p, "miss_cost": s, "entropy": seed + 7, "spawn_key": (p, r), "dist": kind, "seq": seq},
                        label=f"e8/rand-green/{kind}/p={p}/r={r}",
                    )
                )
        cells.append((p, opt_idx, by_kind))
    values = _engine_values(units)
    rows: Rows = []
    for p, opt_idx, by_kind in cells:
        opt = values[opt_idx]
        row: Dict[str, object] = {"p": p}
        for kind in kinds:
            row[kind] = round(float(np.mean([values[i] / opt for i in by_kind[kind]])), 3)
        rows.append(row)
    text = render_table(rows, title="E8 — height-distribution ablation (green impact ratio)")
    text += (
        "\nLemma 1's equalization holds only for 1/j²: heavier-tailed distributions"
        " overspend on tall boxes and the ratio degrades with p.\n"
    )
    text += "\n" + line_chart(
        {kind: {r["p"]: r[kind] for r in rows} for kind in kinds},
        title="green impact ratio vs p by height distribution",
        y_label="ratio",
    )
    return rows, text


def e9_det_green(scale: str = "quick", seed: int = 0) -> Tuple[Rows, str]:
    """Deterministic green paging matches RAND-GREEN (derandomization)."""
    p_values = [4, 8, 16, 32] if scale == "quick" else [4, 8, 16, 32, 64, 128]
    reps = 5 if scale == "quick" else 10
    units: List[WorkUnit] = []
    cells: List[Tuple[int, str, int, int, List[int]]] = []  # (p, name, opt, det, rand idxs)
    for p in p_values:
        k = 4 * p
        s = 2 * k
        n = 1200 if scale == "quick" else 3000
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(p,)))
        for name, seq in _green_workloads(k, p, n, rng).items():
            opt_idx = len(units)
            units.append(WorkUnit("green-opt", {"k": k, "p": p, "miss_cost": s, "seq": seq}, label=f"e9/opt/{name}/p={p}"))
            det_idx = len(units)
            units.append(WorkUnit("det-green", {"k": k, "p": p, "miss_cost": s, "seq": seq}, label=f"e9/det-green/{name}/p={p}"))
            rand_idxs = []
            for r in range(reps):
                rand_idxs.append(len(units))
                units.append(
                    WorkUnit(
                        "rand-green",
                        {"k": k, "p": p, "miss_cost": s, "entropy": seed + 3, "spawn_key": (p, r), "seq": seq},
                        label=f"e9/rand-green/{name}/p={p}/r={r}",
                    )
                )
            cells.append((p, name, opt_idx, det_idx, rand_idxs))
    values = _engine_values(units)
    rows: Rows = []
    for p, name, opt_idx, det_idx, rand_idxs in cells:
        opt = values[opt_idx]
        det_ratio = values[det_idx] / opt
        rg_ratios = [values[i] / opt for i in rand_idxs]
        rows.append(
            {
                "p": p,
                "workload": name,
                "det_green_ratio": round(det_ratio, 3),
                "rand_green_mean": round(float(np.mean(rg_ratios)), 3),
                "det/rand": round(det_ratio / float(np.mean(rg_ratios)), 3),
            }
        )
    text = render_table(rows, title="E9 — DET-GREEN vs RAND-GREEN vs offline OPT")
    text += "\ndet/rand near (or below) 1 means derandomization costs nothing.\n"
    return rows, text


#: E11's workload families: ``(height, rng) -> sequence``.  Only
#: ``multiscale`` draws from the generator, in height order.
_E11_FAMILIES: Dict[str, Callable[[int, np.random.Generator], np.ndarray]] = {
    "cycle(h+1)": lambda h, rng: cyclic(6000, h + 1),
    "sawtooth(h+2)": lambda h, rng: sawtooth(6000, h + 2),
    "multiscale": lambda h, rng: multiscale_cycles(6000, 4 * h, 4, rng),
}


def measure_e11(params: Mapping[str, Any]) -> Tuple[Dict[int, Dict[str, int]], int]:
    """E11 cell: requests served per box window for one workload family.

    For every height ``h`` it runs LRU, FIFO and offline MIN at height
    ``h`` and LRU at ``2h`` over the same budget, and returns the served
    counts by height, plus the number of requests simulated.
    """
    from .paging.engine import run_box
    from .paging.engine_policy import run_box_min, run_box_policy
    from .paging.fifo import FIFOCache

    make = _E11_FAMILIES[params["family"]]
    s = int(params["s"])
    rng = np.random.default_rng(int(params["seed"]))
    served: Dict[int, Dict[str, int]] = {}
    for h in params["heights"]:
        seq = make(h, rng)
        budget = 4 * s * h  # a few box lifetimes
        served[h] = {
            "lru": run_box(seq, 0, h, budget, s).served,
            "fifo": run_box_policy(seq, 0, FIFOCache(h), budget, s).served,
            "min": run_box_min(seq, 0, h, budget, s).served,
            "lru@2h": run_box(seq, 0, 2 * h, budget, s).served,
        }
    return served, sum(sum(by_policy.values()) for by_policy in served.values())


def e11_inbox_policy(scale: str = "quick", seed: int = 0) -> Tuple[Rows, str]:
    """Beyond the paper: what the WLOG-to-LRU reduction costs inside boxes.

    The model fixes LRU inside compartmentalized boxes (WLOG up to O(1)).
    This ablation measures that O(1) empirically: run identical green box
    profiles with LRU, FIFO, and offline MIN replacement inside each box
    and compare requests served per box — MIN/LRU bounds the constant the
    reduction absorbs; FIFO shows an online policy that is *not* within a
    small constant on sliding patterns.
    """
    heights = (4, 8, 16, 32) if scale == "quick" else (4, 8, 16, 32, 64)
    cells = [
        {"experiment": "e11", "family": name, "heights": heights, "s": 64, "seed": seed} for name in _E11_FAMILIES
    ]
    measured = _engine_cells(cells, "e11/{family}")
    rows: Rows = []
    for cell, m in zip(cells, measured):
        for h in heights:
            served = m.get(h, _LOST)
            lru, opt, lru2 = served["lru"], served["min"], served["lru@2h"]
            rows.append(
                {
                    "workload": cell["family"],
                    "height": h,
                    "lru_served": lru,
                    "fifo_served": served["fifo"],
                    "min_served": opt,
                    "lru@2h_served": lru2,
                    "min/lru": round(opt / max(1, lru), 3),
                    "lru@2h/min": round(lru2 / max(1, opt), 3),
                }
            )
    text = render_table(rows, title="E11 — in-box replacement ablation (requests served per box window)")
    measured_rows = [r for r in rows if math.isfinite(r["min/lru"])]
    worst = max((r["min/lru"] for r in measured_rows), default=float("nan"))
    min_aug = min((r["lru@2h/min"] for r in measured_rows), default=float("nan"))
    text += (
        f"\nSame-height MIN can beat LRU by up to min(h, s) on sliding cycles"
        f" (observed {worst}×) — equal-size equivalence does NOT hold.  What the"
        f" WLOG actually uses is Sleator–Tarjan augmentation: LRU with 2h never"
        f" trails MIN with h (worst lru@2h/min observed: {min_aug} >= 1), so the"
        " reduction costs one factor of 2 in resource augmentation, not a"
        " competitive-ratio factor.\n"
    )
    return rows, text


def e10_shared_pages(scale: str = "quick", seed: int = 0) -> Tuple[Rows, str]:
    """Beyond the paper: the shared-pages model of the conclusion.

    The paper assumes disjoint sequences and poses sharing as future work.
    We sweep the fraction of requests that hit a common hot set: box
    algorithms (which duplicate the hot set per processor) progressively
    lose to one globally shared LRU, quantifying what a sharing-aware
    parallel paging theory would have to beat.
    """
    from .workloads.generators import make_shared_workload

    p = 8
    K = 64
    s = 16
    n = 600 if scale == "quick" else 1500
    fractions = (0.0, 0.25, 0.5, 0.75, 0.95)
    algorithms = ("det-par", "equal-partition", "global-lru")
    units: List[WorkUnit] = []
    for frac in fractions:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(int(frac * 100),)))
        wl = make_shared_workload(
            p, n, shared_pages=3 * K // 4, private_pages=K // 4, shared_fraction=frac, rng=rng
        )
        for name in algorithms:
            units.append(
                WorkUnit(
                    "parallel-run",
                    {"algorithm": name, "cache_size": 2 * K, "miss_cost": s, "seed": seed, "workload": wl},
                    label=f"e10/{name}/shared={frac}",
                )
            )
    values = _engine_values(units)
    rows: Rows = []
    for fi, frac in enumerate(fractions):
        row: Dict[str, object] = {"shared_fraction": frac}
        for ni, name in enumerate(algorithms):
            row[name] = values[fi * len(algorithms) + ni].makespan
        row["global/det-par"] = round(row["global-lru"] / row["det-par"], 3)
        rows.append(row)
    text = render_table(rows, title="E10 — shared pages (beyond the paper): makespans")
    text += (
        "\nAs sharing grows, the globally shared cache stores the hot set once"
        " while per-processor schemes duplicate it p times — the gap a"
        " sharing-aware parallel paging theory (the paper's open problem)"
        " would need to close.\n"
    )
    heavy = rows[-1]
    text += "\n" + bar_chart(
        {name: float(heavy[name]) for name in algorithms},
        title=f"makespans at shared_fraction={heavy['shared_fraction']}",
        fmt="{:.0f}",
    )
    return rows, text


#: experiment id -> measurement function of its ``experiment-cell`` units.
#: Module-level functions only, so a pool worker resolves them by name.
MEASUREMENTS: Dict[str, Callable[[Mapping[str, Any]], Tuple[Any, int]]] = {
    "e2": measure_e2,
    "e4": measure_e4,
    "e7": measure_e7,
    "e11": measure_e11,
}

EXPERIMENTS: Dict[str, Callable[..., Tuple[Rows, str]]] = {
    "e1": e1_rand_green,
    "e2": e2_chunk_balance,
    "e3": e3_rand_par,
    "e4": e4_well_rounded,
    "e5": e5_makespan,
    "e6": e6_mean_completion,
    "e7": e7_lower_bound,
    "e8": e8_ablation,
    "e9": e9_det_green,
    "e10": e10_shared_pages,
    "e11": e11_inbox_policy,
}


def run_named_experiment(name: str, scale: str = "quick", seed: int = 0) -> Tuple[Rows, str]:
    """Dispatch an experiment by id ('e1' … 'e11')."""
    try:
        fn = EXPERIMENTS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None
    return fn(scale=scale, seed=seed)
