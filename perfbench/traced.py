"""The traced run (``--trace 1``): per-layer metrics for every workload.

Each workload first runs one untraced round, then installs the layer
wrappers and runs the identical round again.  Layer figures come from
the traced round only, so counts repeat exactly from run to run.

* ``trace.overhead_frac`` — traced op time over untraced op time, minus 1;
* ``trace.unattributed_frac`` — the share of traced op time that no named
  layer span covers (op root self time; for ``service-2c``, server-side
  job time outside every named layer).

Every workload reports every metric in :data:`UNITS`; a layer the
workload bypasses reads 0.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import harness
import layers

#: Every per-layer metric with its unit, as ``BENCHMARK.json`` declares them.
UNITS: Dict[str, str] = {
    m["name"]: m["unit"] for m in json.loads((harness.ROOT / "BENCHMARK.json").read_text())["per_layer"]
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(summary: Dict[str, Any], counters: Dict[str, float]) -> Dict[str, float]:
    """Map a recorder summary plus program counters onto :data:`UNITS`."""
    s = summary["self_s"]
    c = summary["calls"]
    n = summary["counts"]
    get = lambda d, k: float(d.get(k, 0))  # noqa: E731
    return {
        "paging.kernel.precompute_s": get(s, "paging.kernel.precompute"),
        "paging.kernel.precompute_calls": get(c, "paging.kernel.precompute"),
        "paging.kernel.precompute_rows": get(n, "paging.kernel.precompute.rows"),
        "paging.kernel.reuse_ratio": _ratio(get(n, "paging.kernel.get.reused"), get(c, "paging.kernel.get")),
        "paging.kernel.probe_s": get(s, "paging.kernel.probe") + get(s, "paging.kernel.run_box_fast"),
        "paging.kernel.probe_calls": get(c, "paging.kernel.probe"),
        "paging.kernel.stream_append_s": get(s, "paging.kernel.stream_append"),
        "paging.kernel.stream_probe_s": get(s, "paging.kernel.stream_probe"),
        "paging.kernel.stream_probe_calls": get(c, "paging.kernel.stream_probe"),
        "paging.kernel.compact_s": get(s, "paging.kernel.compact"),
        "paging.belady.min_s": get(s, "paging.belady.min"),
        "paging.belady.min_calls": get(c, "paging.belady.min"),
        "paging.belady.min_rows": get(n, "paging.belady.min.rows"),
        "parallel.opt.lower_bound_s": get(s, "parallel.opt.lower_bound"),
        "parallel.opt.lower_bound_calls": get(c, "parallel.opt.lower_bound"),
        "green.offline.dp_s": get(s, "green.offline.dp"),
        "green.offline.dp_calls": get(c, "green.offline.dp"),
        "green.offline.dp_rows": get(n, "green.offline.dp.rows"),
        "green.online.rand_green_self_s": get(s, "green.online.rand_green"),
        "green.online.det_green_self_s": get(s, "green.online.det_green"),
        "core.det_par.run_self_s": get(s, "core.det_par.run"),
        "parallel.streaming.feed_serve_s": get(s, "parallel.streaming.feed_serve"),
        "parallel.streaming.feed_serve_calls": get(c, "parallel.streaming.feed_serve"),
        "sim.parallel.boxes": get(counters, "sim.parallel.boxes"),
        "parallel.timestep.glru_self_s": get(s, "parallel.timestep.glru"),
        "sim.timestep.served": get(counters, "sim.timestep.served"),
        "core.rand_par.run_self_s": get(s, "core.rand_par.run"),
        "core.black_box.run_self_s": get(s, "core.black_box.run"),
        "traces.store.read_s": get(s, "traces.store.read"),
        "traces.store.chunks": get(n, "traces.store.read.chunks"),
        "traces.store.bytes_read": get(n, "traces.store.read.bytes"),
        "traces.store.write_s": get(s, "traces.store.write"),
        "exec.cache.load_s": get(s, "exec.cache.load"),
        "exec.cache.load_calls": get(c, "exec.cache.load"),
        "exec.cache.hit_ratio": _ratio(get(n, "exec.cache.load.hits"), get(c, "exec.cache.load")),
        "exec.cache.store_s": get(s, "exec.cache.store"),
        "exec.cache.store_calls": get(c, "exec.cache.store"),
        "exec.cache.bytes_written": get(n, "exec.cache.store.bytes"),
        "exec.engine.overhead_s": get(s, "exec.engine"),
        "exec.cells": get(counters, "exec.cells"),
        "exec.computed": get(counters, "exec.computed"),
        "analysis.harness.run_experiment_self_s": get(s, "analysis.harness.run_experiment"),
    }


def _traced_round(round_fn: Callable[[Any], float]) -> Tuple[float, float, layers.Recorder, Dict[str, float]]:
    """Untraced round, then the same round with wrappers and program counters on."""
    from repro.obs import observability

    untraced = round_fn(None)
    rec = layers.Recorder()
    handle = layers.install(rec)
    try:
        missing = handle.leftovers()
        if missing:
            raise RuntimeError(f"unwrapped aliases remain: {missing}")
        with observability(metrics=True) as scope:
            traced = round_fn(rec)
        counters = harness.counter_totals(scope.metrics_snapshot())
    finally:
        handle.remove()
    return untraced, traced, rec, counters


def _finish(result: harness.Result, values: Dict[str, float], rec: layers.Recorder, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rec.dump(path)
    result.note(harness.config_line())
    result.note(f"spans written to {path.name} ({len(rec.spans)} spans, min self time {rec.min_self_s:.2e} s)")
    for name, unit in UNITS.items():
        result.metric(name, values.get(name, 0.0), unit)


# --------------------------------------------------------------------- #
# per workload
# --------------------------------------------------------------------- #
def suite(work: Path, seed: int, seconds: float, result: harness.Result) -> None:
    import wl_suite

    layers.import_program()
    run = wl_suite.Suite(work, seed)
    per_exp: Dict[str, float] = {}
    cold_unattributed: List[float] = []

    def round_fn(rec) -> float:
        total = 0.0
        for cold in (True, False):
            for name, dt in run.run_pass(cold, result, harness.timed if rec is None else rec.timed).items():
                total += dt
                if rec is not None:
                    per_exp[name] = per_exp.get(name, 0.0) + dt
            if rec is not None and cold:
                cold_unattributed.append(rec.self_s["op"] / total)
        return total

    untraced, traced, rec, counters = _traced_round(round_fn)
    values = layer_values(rec.summary(), counters)
    values.update({f"experiments.{name}_s": dt for name, dt in per_exp.items()})
    values["trace.overhead_frac"] = traced / untraced - 1
    values["trace.unattributed_frac"] = rec.self_s["op"] / traced
    result.note(f"cold pass alone: trace.unattributed_frac {cold_unattributed[0]:.4f}")
    _finish(result, values, rec, work.parent / "traces" / "suite-quick.spans.jsonl")


def stream(work: Path, seed: int, seconds: float, result: harness.Result) -> None:
    import wl_stream

    layers.import_program()
    rec = layers.Recorder()
    handle = layers.install(rec)
    try:
        store = work / "stream.trc"
        wl_stream.write(store, seed)
    finally:
        handle.remove()
    write_s = rec.self_s["traces.store.write"]
    run = wl_stream.Stream(store)

    def round_fn(r) -> float:
        timed = harness.timed if r is None else r.timed
        return sum(run.op(algo, result, timed) for algo in ("det-par", "global-lru"))

    untraced, traced, rec2, counters = _traced_round(round_fn)
    # the algorithms are built directly, not through the registry that
    # feeds sim.parallel.boxes, so the box count comes from the result
    counters["sim.parallel.boxes"] = run.boxes["det-par"]
    values = layer_values(rec2.summary(), counters)
    values["traces.store.write_s"] = write_s
    values["trace.overhead_frac"] = traced / untraced - 1
    values["trace.unattributed_frac"] = rec2.self_s["op"] / traced
    _finish(result, values, rec2, work.parent / "traces" / "stream-1m.spans.jsonl")


def service(work: Path, seed: int, seconds: float, result: harness.Result) -> None:
    import wl_service

    n_miss = max(8, int(1.5 * seconds))
    n_hit = max(40, int(15 * seconds))

    def round_on(server, rec):
        load = wl_service.Load(server.url, seed)
        miss = load.phase("miss", result, count=n_miss, rec=rec)
        warm = load.warm_hit_cell()
        hit = load.phase("hit", result, count=n_hit, rec=rec)
        return load, miss, hit, warm.elapsed_s

    server = wl_service.Server(work, "server-untraced")
    try:
        _, u_miss, u_hit, _ = round_on(server, None)
    finally:
        result.op(server.stop() == 0, "untraced server exit code")
    untraced = sum(u_miss["latencies"]) + sum(u_hit["latencies"])

    summary_path = work / "server.trace.json"
    server = wl_service.Server(work, "server-traced", trace_out=summary_path)
    rec = layers.Recorder()
    try:
        load, miss, hit, warm_s = round_on(server, rec)
    finally:
        result.op(server.stop() == 0, "traced server exit code")
    load.check_sample(result)
    server_summary = json.loads(summary_path.read_text())
    counters = {k: miss["delta"].get(k, 0) + hit["delta"].get(k, 0) for k in set(miss["delta"]) | set(hit["delta"])}
    values = layer_values(server_summary, counters)
    latencies = miss["latencies"] + hit["latencies"]
    elapsed = miss["elapsed"] + hit["elapsed"]
    traced = sum(latencies)
    server_layers = sum(v for k, v in server_summary["self_s"].items() if k not in layers.ROOT_SPANS)
    values["client.http.overhead_ms"] = 1000 * harness.median([l - e for l, e in zip(latencies, elapsed)])
    values["service.compute_ms"] = 1000 * harness.median(miss["elapsed"])
    values["service.hit_ratio"] = _ratio(counters.get("service.cache_hits_served", 0), counters.get("service.cells_served", 0))
    values["service.coalesced"] = float(counters.get("service.coalesced", 0))
    values["trace.overhead_frac"] = traced / untraced - 1
    # server-side job time (the warm-up job included) that no named layer covers
    values["trace.unattributed_frac"] = max(0.0, sum(elapsed) + warm_s - server_layers) / traced
    _finish(result, values, rec, work.parent / "traces" / "service-2c.spans.jsonl")
    spans = summary_path.with_suffix(".spans.jsonl")
    if spans.exists():
        spans.replace(work.parent / "traces" / "service-2c.server.spans.jsonl")


RUNNERS = {"suite-quick": suite, "stream-1m": stream, "service-2c": service}
