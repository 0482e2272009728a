"""Every experiment is a batch of cached work units.

No experiment may simulate outside the execution engine: a warm rerun
must be all cache hits with identical rows, ``--jobs`` must not change a
row, and a unit lost under keep-going must degrade its row to ``FAIL``
rather than abort the table.
"""

from __future__ import annotations

import math

import pytest

from repro.exec import TELEMETRY, ExecutionPolicy, execution, inject_faults
from repro.experiments import EXPERIMENTS, MEASUREMENTS, run_named_experiment


@pytest.mark.parametrize("name", sorted(EXPERIMENTS, key=lambda n: int(n[1:])))
def test_warm_rerun_recomputes_nothing(name, tmp_path):
    with execution(cache=True, cache_dir=tmp_path):
        cold_rows, _ = run_named_experiment(name, scale="quick", seed=0)
        mark = len(TELEMETRY)
        warm_rows, _ = run_named_experiment(name, scale="quick", seed=0)
    warm = TELEMETRY.summary(since=mark)
    assert warm["cells"] >= 1, f"{name} ran no work units"
    assert warm["cache_misses"] == 0, f"{name} recomputed {warm['cache_misses']} cells on a warm rerun"
    assert warm_rows == cold_rows
    # labels double as fault-injection match targets, which may not hold ':' or ','
    assert not [r.label for r in TELEMETRY.records if ":" in r.label or "," in r.label]


@pytest.mark.parametrize("name", sorted(MEASUREMENTS, key=lambda n: int(n[1:])))
def test_pooled_rows_equal_serial(name):
    serial_rows, serial_text = run_named_experiment(name, scale="quick", seed=0)
    with execution(jobs=2):
        pooled_rows, pooled_text = run_named_experiment(name, scale="quick", seed=0)
    assert pooled_rows == serial_rows
    assert pooled_text == serial_text


# (experiment, fault match, predicate picking the lost rows, columns the lost rows keep)
LOST_CELLS = [
    ("e2", "e2/p=8", lambda r: r["p"] == 8, {"p", "analytic_len_ratio"}),
    ("e4", "e4/p=8", lambda r: r["p"] == 8, {"p"}),
    ("e7", "e7/ell=3", lambda r: r["ell"] == 3, {"ell"}),
    ("e11", "e11/sawtooth", lambda r: r["workload"] == "sawtooth(h+2)", {"workload", "height"}),
]


@pytest.mark.parametrize("name,match,lost,kept", LOST_CELLS, ids=[c[0] for c in LOST_CELLS])
def test_lost_cell_renders_fail_row(name, match, lost, kept):
    clean_rows, _ = run_named_experiment(name, scale="quick", seed=0)
    with inject_faults(f"crash:{match}:0"):  # every attempt fails
        with execution(policy=ExecutionPolicy(retries=0, keep_going=True)):
            rows, text = run_named_experiment(name, scale="quick", seed=0)
    assert len(TELEMETRY.failures()) == 1
    assert "FAIL" in text
    assert len(rows) == len(clean_rows)
    hit = [r for r in rows if lost(r)]
    assert hit
    for row, clean in zip(rows, clean_rows):
        if not lost(row):
            assert row == clean
            continue
        for col, value in row.items():
            if col in kept:
                assert value == clean[col]
            else:
                assert isinstance(value, float) and math.isnan(value), (col, value)
