"""``suite-quick``: the eleven quick experiments, serially, in-process.

Every phase holds whole passes in the fixed order E1…E11; one op is one
experiment.  A cold pass starts from an empty result cache; a warm pass
reuses the cache the cold pass before it filled.  The in-process kernel cache
is cleared before every pass, as a user running one process per suite
would see it.
"""

from __future__ import annotations

import gc
import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import harness

NAMES = tuple(f"e{i}" for i in range(1, 12))
DEFAULT_SEED = 0
EXPECTED_FILE = harness.BENCH_DIR / "expected.json"


def rows_digest(rows_by_name: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON of every experiment's rows."""
    blob = json.dumps([[name, rows_by_name[name]] for name in NAMES], sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def expected_digest() -> str:
    return json.loads(EXPECTED_FILE.read_text())["suite-quick"]["rows_sha256"]


class Suite:
    def __init__(self, work: Path, seed: int) -> None:
        from repro.exec import execution
        from repro.experiments import run_named_experiment
        from repro.paging.kernel import clear_kernel_cache

        self._execution = execution
        self._run = run_named_experiment
        self._clear = clear_kernel_cache
        self.cache_dir = work / "suite-cache"
        self.seed = seed
        self.reference: Optional[Dict[str, Any]] = None

    def run_pass(self, cold: bool, result: harness.Result, timed: Callable = harness.timed) -> Dict[str, float]:
        """One whole pass; returns each experiment's time as ``timed`` measures it."""
        if cold:
            harness.fresh_dir(self.cache_dir)
        self._clear()
        gc.collect()
        rows_by_name: Dict[str, Any] = {}
        per_exp: Dict[str, float] = {}
        with self._execution(cache=True, cache_dir=self.cache_dir):
            for name in NAMES:
                (rows, _), per_exp[name] = timed(lambda: self._run(name, scale="quick", seed=self.seed))
                rows_by_name[name] = json.loads(json.dumps(rows, sort_keys=True, default=str))
        self._check(rows_by_name, cold, result)
        return per_exp

    def _check(self, rows_by_name: Dict[str, Any], cold: bool, result: harness.Result) -> None:
        """Every pass equals the first cold pass; the default seed matches the committed digest."""
        if self.reference is None:
            self.reference = rows_by_name
            if self.seed == DEFAULT_SEED:
                got = rows_digest(rows_by_name)
                want = expected_digest()
                if got != want:
                    result.note(f"suite-quick rows sha256 {got} != committed {want}")
                    for name in NAMES:
                        result.op(False, f"{name}: default-seed digest mismatch")
                    return
        phase = "cold" if cold else "warm"
        for name in NAMES:
            result.op(rows_by_name[name] == self.reference[name], f"{name}: {phase} rows differ from first cold pass")


def setup_s(seed: int) -> Tuple[float, float]:
    """Median set-up time at the reference pace, and the raw median."""
    trials = [harness.run_probe(["suite-quick", "--seed", str(seed)]) for _ in range(harness.SETUP_TRIALS)]
    return harness.median([paced for _, paced in trials]), harness.median([wall for wall, _ in trials])


def run(work: Path, seed: int, seconds: float, result: harness.Result) -> None:
    setup, setup_raw = setup_s(seed)
    suite = Suite(work, seed)
    # per phase: each pass's own time, and that time at the reference pace
    raw: Dict[str, List[float]] = {"cold": [], "warm": []}
    paced: Dict[str, List[float]] = {"cold": [], "warm": []}
    experiments: Dict[str, List[float]] = {"cold": [], "warm": []}

    with harness.Pace() as pace:

        def cycle() -> None:
            for cold, phase in ((True, "cold"), (False, "warm")):
                mark = pace.mark()
                per_exp = suite.run_pass(cold, result, pace.timed)
                raw[phase].append(sum(per_exp.values()))
                paced[phase].append(raw[phase][-1] * pace.factor(mark))
                experiments[phase].extend(per_exp.values())

        # cold and warm passes alternate, so both phases sample the host
        # over the whole run rather than one half each
        cycles = harness.phase_loop(0.8 * seconds, cycle)
    rate = {phase: len(NAMES) * len(v) / sum(v) for phase, v in paced.items()}
    result.metric("setup_s", setup, "s")
    result.metric("peak_rss_mb", harness.peak_rss_mb(), "MB")
    result.metric("primary_per_s", rate["cold"], "1/s")
    result.metric("secondary_per_s", rate["warm"], "1/s")
    result.metric("primary_p50_ms", 1000 * harness.median(paced["cold"]), "ms")
    result.metric("secondary_p50_ms", 1000 * harness.median(paced["warm"]), "ms")
    result.note(harness.config_line())
    result.note(harness.pace_line(pace))
    result.note(f"setup_s {setup:.4f} s at reference pace (raw {setup_raw:.4f} s)")
    for phase in ("cold", "warm"):
        raw_rate = len(NAMES) * len(raw[phase]) / sum(raw[phase])
        result.note(
            f"{phase}_exp_per_s {rate[phase]:.4f} exp/s at reference pace over {cycles} passes "
            f"(raw {raw_rate:.4f} exp/s, passes {[round(v, 3) for v in raw[phase]]} s)"
        )
        result.note(
            harness.latency_line(f"{phase} pass p50 at reference pace", paced[phase])
            + "; "
            + harness.latency_line("raw experiment p50", experiments[phase])
        )
