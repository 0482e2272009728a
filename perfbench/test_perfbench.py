"""Checks on the benchmark's own tracing: ``python3 -m pytest perfbench``.

Each workload's traced run (``--trace 1``) is executed once as the
benchmark itself runs it, and its span file is checked:

* every wrapped entry point mapped to the workload fires at least once;
* no span's self time is negative;
* layer self times plus ``trace.unattributed_frac`` reconstruct the op
  wall time.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import pytest

import harness
import layers
import traced
import wl_suite

BENCH = harness.BENCH_DIR
ROOT = harness.ROOT
sys.path.insert(0, str(harness.SRC))
TRACES = ROOT / ".perfbench" / "traces"

#: Span names each workload must fire (its row in the layer table).
FIRES = {
    "suite-quick": {
        "paging.kernel.get", "paging.kernel.precompute", "paging.kernel.probe", "paging.kernel.run_box_fast",
        "paging.belady.min", "parallel.opt.lower_bound", "green.offline.dp", "green.online.rand_green",
        "green.online.det_green", "core.det_par.run", "core.rand_par.run", "core.black_box.run",
        "parallel.timestep.glru", "exec.cache.load", "exec.cache.store", "exec.engine",
        "analysis.harness.run_experiment",
    },
    "stream-1m": {
        "paging.kernel.stream_append", "paging.kernel.stream_probe", "paging.kernel.compact",
        "parallel.streaming.feed_serve", "core.det_par.run", "parallel.timestep.glru", "traces.store.read",
    },
    "service-2c": {
        "service.execute", "exec.engine", "exec.cache.load", "exec.cache.store", "paging.belady.min",
        "parallel.opt.lower_bound", "green.offline.dp", "core.det_par.run", "parallel.timestep.glru",
        "analysis.harness.run_experiment",
    },
}
SPAN_FILES = {
    "suite-quick": ("suite-quick.spans.jsonl",),
    "stream-1m": ("stream-1m.spans.jsonl",),
    "service-2c": ("service-2c.spans.jsonl", "service-2c.server.spans.jsonl"),
}


def _load(name: str):
    spans = [tuple(json.loads(line)) for line in (TRACES / name).read_text().splitlines()]
    children = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    return [(sid, parent, span, end - start, end - start - children[sid]) for sid, parent, span, start, end in spans]


@pytest.fixture(scope="module", params=sorted(FIRES))
def traced_run(request):
    workload = request.param
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5", "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    spans = {name: _load(name) for name in SPAN_FILES[workload]}
    return workload, result, spans


def test_result_is_correct_and_complete(traced_run):
    workload, result, _ = traced_run
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(traced.UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == traced.UNITS[name]


def test_every_mapped_entry_point_fires(traced_run):
    workload, _, spans = traced_run
    fired = {span for rows in spans.values() for _, _, span, _, _ in rows}
    assert FIRES[workload] <= fired, sorted(FIRES[workload] - fired)


def test_self_times_are_never_negative(traced_run):
    _, _, spans = traced_run
    for rows in spans.values():
        assert min(own for *_, own in rows) >= -1e-9


def test_self_times_reconstruct_op_time(traced_run):
    workload, result, spans = traced_run
    unattributed = result["metrics"]["trace.unattributed_frac"]["value"]
    assert 0 <= unattributed < 1
    if workload == "service-2c":
        # server layers live in another process: they may cover at most
        # the server's own job time
        server = spans["service-2c.server.spans.jsonl"]
        jobs = sum(dur for _, _, name, dur, _ in server if name == "service.execute")
        covered = sum(own for _, _, name, _, own in server if name not in layers.ROOT_SPANS)
        assert 0 < covered <= jobs
        return
    (rows,) = spans.values()
    op_time = sum(dur for _, _, name, dur, _ in rows if name == "op")
    layer_self = sum(own for _, _, name, _, own in rows if name != "op")
    assert layer_self / op_time + unattributed == pytest.approx(1.0, abs=1e-6)
    # the acceptance floor: named layers cover at least 80% of op time,
    # on suite-quick's cold pass (its first eleven ops) on its own too
    assert unattributed <= 0.2
    if workload == "suite-quick":
        cold = sorted(row for row in rows if row[2] == "op")[: len(wl_suite.NAMES)]
        assert sum(own for *_, own in cold) / sum(dur for _, _, _, dur, _ in cold) <= 0.2


def test_wrapping_leaves_no_alias_and_restores():
    layers.import_program()
    rec = layers.Recorder()
    handle = layers.install(rec)
    try:
        assert handle.leftovers() == []
        import repro.parallel.opt as opt

        assert opt.min_service_time is not dict(handle.originals)["paging.belady.min"]
    finally:
        handle.remove()
    import repro.paging.belady as belady
    import repro.parallel.opt as opt

    assert opt.min_service_time is belady.min_service_time
    assert getattr(opt.min_service_time, "__wrapped__", None) is None


def test_tail_percentile_has_ten_samples_beyond():
    values = list(range(100))
    q, value = harness.tail_percentile(values)
    assert q == 90 and sum(v > value for v in values) >= 10
    assert harness.tail_percentile(values[:19]) is None


def test_pace_takes_its_probes_out_of_the_op_time():
    def busy() -> None:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass

    with harness.Pace() as pace:
        mark = pace.mark()
        (_, own), wall = harness.timed(lambda: pace.timed(busy))
    assert len(pace.samples) - mark >= 2
    assert own == pytest.approx(wall - pace.spent, abs=2e-3)
    assert pace.factor(mark) == pytest.approx(harness.Pace.REF_S / statistics.fmean(pace.samples[mark:]))
