"""CLI surface of the execution engine: --jobs, caching flags, cache command."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def run_e1(tmp_path, capsys, *extra):
    rc = main(["e1", "--cache-dir", str(tmp_path / "cache"), *extra])
    assert rc == 0
    return capsys.readouterr().out


def test_cache_stats_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["cache", "--cache-dir", cache_dir]) == 0  # default op is stats
    assert "0 entries" in capsys.readouterr().out

    run_e1(tmp_path, capsys)
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    stats_line = capsys.readouterr().out
    assert "0 entries" not in stats_line and "entries" in stats_line

    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "cleared" in capsys.readouterr().out
    main(["cache", "stats", "--cache-dir", cache_dir])
    assert "0 entries" in capsys.readouterr().out


def test_cache_op_rejected_outside_cache_command(capsys):
    with pytest.raises(SystemExit):
        main(["e1", "clear"])


def test_warm_rerun_is_all_hits(tmp_path, capsys):
    cold = run_e1(tmp_path, capsys)
    assert "hit_rate=0%" in cold
    warm = run_e1(tmp_path, capsys)
    assert "hit_rate=100%" in warm


def test_no_cache_never_hits(tmp_path, capsys):
    run_e1(tmp_path, capsys, "--no-cache")
    second = run_e1(tmp_path, capsys, "--no-cache")
    assert "cache_hits=0" in second
    assert not (tmp_path / "cache").exists()


def test_jobs_output_matches_serial(tmp_path, capsys):
    serial = main(["e1", "--no-cache", "--out", str(tmp_path / "serial.md")])
    pooled = main(["e1", "--no-cache", "--jobs", "2", "--out", str(tmp_path / "pooled.md")])
    assert serial == pooled == 0
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("[telemetry]")]
    assert strip((tmp_path / "serial.md").read_text()) == strip(
        (tmp_path / "pooled.md").read_text()
    )


def test_telemetry_jsonl_written(tmp_path, capsys):
    out = tmp_path / "runs.jsonl"
    run_e1(tmp_path, capsys, "--telemetry", str(out))
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows
    assert all(not r["cached"] for r in rows)  # cold cache
    assert {"kind", "key", "cached", "duration_s", "sim_steps"} <= set(rows[0])

    run_e1(tmp_path, capsys, "--telemetry", str(out))
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert any(r["cached"] for r in rows)  # warm rerun appended hit records


def test_python_dash_m_repro_runs_the_cli(tmp_path):
    """``python -m repro`` is the same entry point as ``repro``, exit code included."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    listing = subprocess.run(
        [sys.executable, "-m", "repro", "list"], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert listing.returncode == 0, listing.stderr
    assert "e11" in listing.stdout.split()
    bad = subprocess.run(
        [sys.executable, "-m", "repro", "resume", "--runs-dir", str(tmp_path / "runs")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert bad.returncode == 2  # the CLI's own exit code is passed on
