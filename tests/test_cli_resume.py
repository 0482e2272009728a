"""CLI fault-tolerance surface: checkpoints, resume, keep-going, runs listing."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exec import RunCheckpoint, UnitExecutionError, inject_faults

pytestmark = pytest.mark.chaos


def args_for(tmp_path, *extra):
    return [
        "--cache-dir", str(tmp_path / "cache"),
        "--runs-dir", str(tmp_path / "runs"),
        *extra,
    ]


def strip_noise(text):
    return [l for l in text.splitlines() if not l.startswith("[telemetry]") and " rows in " not in l]


def test_fresh_run_writes_complete_manifest(tmp_path, capsys):
    rc = main(["e1", "--run-id", "fresh", *args_for(tmp_path)])
    assert rc == 0
    ckpt = RunCheckpoint.load("fresh", root=tmp_path / "runs")
    assert ckpt.manifest.status == "complete"
    assert ckpt.manifest.completed == ["e1"]
    assert ckpt.manifest.config["experiment"] == "e1"
    assert len(ckpt.completed_units()) > 0
    data = json.loads(ckpt.manifest_path.read_text())
    assert data["manifest_version"] == 1


def test_no_checkpoint_flag_writes_nothing(tmp_path, capsys):
    rc = main(["e1", "--no-checkpoint", *args_for(tmp_path)])
    assert rc == 0
    assert not (tmp_path / "runs").exists()


def test_interrupt_then_resume_same_table_all_hits(tmp_path, capsys):
    # ground truth: a clean serial run of the same experiment
    clean_dir = tmp_path / "clean"
    rc = main(["e1", "--out", str(clean_dir / "e1.md"),
               "--cache-dir", str(clean_dir / "cache"),
               "--runs-dir", str(clean_dir / "runs")])
    assert rc == 0
    capsys.readouterr()

    # a mid-sweep Ctrl-C (injected deterministically) checkpoints and exits 130
    with inject_faults("interrupt:e1/rand-green:1"):
        rc = main(["e1", "--run-id", "itest", "--out", str(tmp_path / "resumed.md"),
                   *args_for(tmp_path)])
    assert rc == 130
    err = capsys.readouterr().err
    assert "resume with: repro resume itest" in err
    ckpt = RunCheckpoint.load("itest", root=tmp_path / "runs")
    assert ckpt.manifest.status == "interrupted"
    journaled = len(ckpt.completed_units())
    assert journaled > 0  # cells that finished before the interrupt survived

    # resume: finished cells come back as cache hits, table matches clean run
    # (--out/--cache-dir/--runs-dir are replayed from the stored manifest)
    rc = main(["resume", "itest", "--runs-dir", str(tmp_path / "runs")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "resuming itest: 0 done, 1 to go (e1)" in out
    assert f"cache_hits={journaled}" in out  # every journaled cell was a hit
    assert RunCheckpoint.load("itest", root=tmp_path / "runs").manifest.status == "complete"
    assert strip_noise((tmp_path / "resumed.md").read_text()) == strip_noise(
        (clean_dir / "e1.md").read_text()
    )


def test_resume_complete_run_is_a_noop(tmp_path, capsys):
    main(["e1", "--run-id", "done", *args_for(tmp_path)])
    capsys.readouterr()
    rc = main(["resume", "done", *args_for(tmp_path)])
    assert rc == 0
    assert "already complete" in capsys.readouterr().out


def test_resume_unknown_run_errors_with_known_list(tmp_path, capsys):
    main(["e1", "--run-id", "only", *args_for(tmp_path)])
    capsys.readouterr()
    assert main(["resume", "nope", *args_for(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "nope" in err and "only" in err
    assert main(["resume", *args_for(tmp_path)]) == 2  # missing run id
    assert "requires a run id" in capsys.readouterr().err


def test_runs_listing(tmp_path, capsys):
    assert main(["runs", "--runs-dir", str(tmp_path / "runs")]) == 0
    assert "no checkpointed runs" in capsys.readouterr().out
    main(["e1", "--run-id", "r1", *args_for(tmp_path)])
    capsys.readouterr()
    assert main(["runs", "--runs-dir", str(tmp_path / "runs")]) == 0
    out = capsys.readouterr().out
    assert "r1" in out and "status=complete" in out and "completed=1/1" in out


def test_keep_going_renders_fail_rows(tmp_path, capsys):
    with inject_faults("crash:e1/rand-green/multiscale:0"):  # every attempt fails
        rc = main(["e1", "--keep-going", "--no-cache", *args_for(tmp_path)])
    assert rc == 0  # the sweep survives
    out = capsys.readouterr().out
    assert "FAIL" in out  # degraded cells are marked in the table
    assert "failed cells" in out  # and itemized below it
    assert "InjectedFault" in out
    assert "failed=" in out  # telemetry line counts them


def test_keep_going_renders_lost_e7_row(tmp_path, capsys):
    with inject_faults("crash:e7/ell=3:0"):
        rc = main(["e7", "--keep-going", "--no-cache", *args_for(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.startswith("| ") and line.split("|")[1].strip() == "3")
    assert row.count("FAIL") == 10  # every measured column of the ell=3 row
    assert "e7/ell=3" in out.split("failed cells", 1)[1]


def test_fail_fast_aborts_on_exhausted_cell(tmp_path, capsys):
    with inject_faults("crash:e1/rand-green/multiscale:0"):
        with pytest.raises(UnitExecutionError, match="failed after 1 attempt"):
            main(["e1", "--fail-fast", "--no-cache", *args_for(tmp_path)])


def test_flag_validation(tmp_path):
    for bad in (["e1", "--jobs", "0"], ["e1", "--retries", "-1"], ["e1", "--timeout", "0"]):
        with pytest.raises(SystemExit):
            main(bad + args_for(tmp_path))
