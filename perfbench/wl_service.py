"""``service-2c``: ``repro serve --jobs 1`` under two closed-loop clients.

The server runs as its own process with its own cache directory.  This
process is the single client process: two threads, each with one
:class:`~repro.HttpSession`, send a request as soon as the previous one
returns.

* miss phase — every request is a distinct ``RunRequest`` (the loadgen
  ``DUPLICATE_CELL`` geometry with a workload seed derived from the run
  seed and a running counter), so every one is computed;
* hit phase — one cell, computed once before the first block, repeated.

The two phases run in alternating blocks.

A reply whose hit ratio breaks its phase rule (0 in the miss phase,
>= 0.99 in the hit phase) is a failed op, as is a phase whose
``/v1/metrics`` delta breaks it.  Replies of a fixed sample of requests
are compared with an in-process :class:`~repro.Session` after the timed
window.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import harness

#: Requests whose replies are re-computed in-process and compared.
SAMPLE = (0, 1, 2)
#: Miss/hit block pairs per run; together they take 0.6 of ``--seconds``.
BLOCKS = 4
BOOT_TIMEOUT_S = 60.0


def cell_request(seed: int, phase: str, index: int, client: str = "anonymous"):
    """The ``index``-th request of a phase: unique per (run seed, phase, index)."""
    from repro.client import RunRequest, WorkloadSpec
    from repro.service.loadgen import DUPLICATE_CELL

    spec = DUPLICATE_CELL["workload"]
    digest = hashlib.sha256(f"perfbench/{seed}/{phase}/{index}".encode()).hexdigest()
    unique = WorkloadSpec(p=spec.p, n_requests=spec.n_requests, k=spec.k, workload_seed=int(digest[:8], 16))
    return RunRequest(client=client, **{**DUPLICATE_CELL, "workload": unique})


class Server:
    """One ``repro serve --jobs 1`` subprocess, booted to a healthy ``/v1/health``."""

    def __init__(self, work: Path, name: str, trace_out: Optional[Path] = None) -> None:
        self.dir = harness.fresh_dir(work / name)
        self.log = self.dir / "serve.log"
        cmd = [sys.executable, str(harness.BENCH_DIR / "serve.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--", "--port", "0", "--jobs", "1", "--cache-dir", str(self.dir / "cache"),
                "--runs-dir", str(self.dir / "runs"), "--run-id", name]
        t0 = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=os.environ.copy())
        self.url = self._wait_ready()
        self.boot_s = time.perf_counter() - t0

    def _wait_ready(self) -> str:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        url = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during boot: {self.log.read_text()[-2000:]}")
            if url is None:
                for line in self.log.read_text().splitlines():
                    if "listening on" in line:
                        url = line.rsplit(" ", 1)[-1].strip()
            if url is not None:
                try:
                    with urllib.request.urlopen(url + "/v1/health", timeout=5) as resp:
                        if resp.status == 200:
                            return url
                except OSError:
                    pass
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("server did not become healthy in time")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        return self.proc.wait()


class Load:
    """Two closed-loop client threads against one server."""

    CLIENTS = 2

    def __init__(self, url: str, seed: int) -> None:
        from repro.client import HttpSession

        self.seed = seed
        self.sessions = [HttpSession(url, client=f"perfbench-{i}", timeout=120.0) for i in range(self.CLIENTS)]
        self.replies: Dict[Tuple[str, int], Any] = {}
        #: next request index per phase, kept across blocks of one phase
        self.issued = {"miss": 0, "hit": 0}

    def counters(self) -> Dict[str, float]:
        return harness.counter_totals(dict(self.sessions[0].metrics().snapshot))

    def phase(
        self,
        phase: str,
        result: harness.Result,
        budget_s: Optional[float] = None,
        count: Optional[int] = None,
        rec=None,
    ) -> Dict[str, Any]:
        """Run one block of a phase for ``budget_s`` seconds or ``count`` requests."""
        lock = threading.Lock()
        first = self.issued[phase]
        state = {"next": first}
        records: List[Tuple[float, Any, int]] = []
        errors: List[str] = []
        before = self.counters()
        t0 = time.perf_counter()

        def next_index() -> Optional[int]:
            with lock:
                i = state["next"]
                if count is not None and i - first >= count:
                    return None
                if budget_s is not None and time.perf_counter() - t0 >= budget_s:
                    return None
                state["next"] = i + 1
                return i

        def client(c: int) -> None:
            session = self.sessions[c]
            while True:
                i = next_index()
                if i is None:
                    return
                index = 0 if phase == "hit" else i
                request = cell_request(self.seed, phase, index, session.client)
                start = time.perf_counter()
                try:
                    if rec is not None:
                        with rec.span("op"):
                            reply = session.run(request)
                    else:
                        reply = session.run(request)
                except Exception as exc:  # noqa: BLE001 — every failure is a failed op
                    with lock:
                        errors.append(f"{phase}#{i}: {type(exc).__name__}: {exc}")
                    continue
                latency = time.perf_counter() - start
                with lock:
                    records.append((latency, reply, i))
                    if i in SAMPLE:
                        self.replies[(phase, index)] = reply

        threads = [threading.Thread(target=client, args=(c,)) for c in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        after = self.counters()
        self.issued[phase] = state["next"]

        for what in errors:
            result.op(False, what)
        for _, reply, i in records:
            hits_ok = reply.cache_hits == 0 if phase == "miss" else reply.cache_hits >= 0.99 * reply.cells
            result.op(bool(reply.rows) and reply.cells > 0 and hits_ok, f"{phase}#{i}: {reply.cache_hits}/{reply.cells} hits")
        delta = {k: after.get(k, 0) - before.get(k, 0) for k in set(after) | set(before)}
        cells = delta.get("exec.cells", 0)
        ratio = delta.get("exec.cache.hits", 0) / cells if cells else 0.0
        phase_ok = cells > 0 and (ratio == 0 if phase == "miss" else ratio >= 0.99)
        result.op(phase_ok, f"{phase} phase: server hit ratio {ratio:.3f} over {cells:g} cells")
        return {
            "wall_s": wall,
            "latencies": [r[0] for r in records],
            "elapsed": [r[1].elapsed_s for r in records],
            "delta": delta,
            "hit_ratio": ratio,
        }

    def warm_hit_cell(self):
        """Compute the hit phase's cell once, outside any phase; returns the reply."""
        reply = self.sessions[0].run(cell_request(self.seed, "hit", 0, self.sessions[0].client))
        self.replies[("hit", 0)] = reply
        return reply

    def check_sample(self, result: harness.Result) -> None:
        """Compare sampled replies with an in-process, cache-less Session."""
        from repro.client import Session

        session = Session()
        for (phase, i), reply in sorted(self.replies.items()):
            local = session.run(cell_request(self.seed, phase, i))
            same = _canon(local.rows) == _canon(reply.rows)
            result.op(same, f"{phase}#{i}: served rows differ from in-process Session rows")


def _canon(rows: Any) -> str:
    return json.dumps(json.loads(json.dumps(list(rows), default=str)), sort_keys=True)


def _merge(blocks: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One phase's figures over all its blocks."""
    cells = sum(b["delta"].get("exec.cells", 0) for b in blocks)
    hits = sum(b["delta"].get("exec.cache.hits", 0) for b in blocks)
    return {
        "wall_s": sum(b["wall_s"] for b in blocks),
        "latencies": [v for b in blocks for v in b["latencies"]],
        "paced_wall_s": sum(b["wall_s"] * b["factor"] for b in blocks),
        "paced_latencies": [v * b["factor"] for b in blocks for v in b["latencies"]],
        "hit_ratio": hits / cells if cells else 0.0,
    }


def run(work: Path, seed: int, seconds: float, result: harness.Result) -> None:
    boots = []
    server = None
    for i in range(harness.SETUP_TRIALS):
        if server is not None:
            server.stop()
        server = Server(work, f"server-{i}")
        boots.append(server.boot_s)
    blocks: Dict[str, List[Dict[str, Any]]] = {"miss": [], "hit": []}
    try:
        load = Load(server.url, seed)
        load.warm_hit_cell()
        # miss and hit blocks alternate, so both phases sample the host over
        # the whole run rather than one part each; the probes run in this
        # process's main thread, which only waits on the client threads
        with harness.Pace() as pace:
            for _ in range(BLOCKS):
                for phase, share in (("miss", 0.1), ("hit", 0.05)):
                    mark = pace.mark()
                    blocks[phase].append(load.phase(phase, result, budget_s=share * seconds))
                    blocks[phase][-1]["factor"] = pace.factor(mark)
        rss = server.peak_rss_mb()
    finally:
        code = server.stop()
    result.op(code == 0, f"server exit code {code}")
    load.check_sample(result)
    phases = {phase: _merge(blocks[phase]) for phase in ("miss", "hit")}
    rps = {phase: len(p["latencies"]) / p["paced_wall_s"] for phase, p in phases.items()}
    result.metric("setup_s", harness.median(boots), "s")
    result.metric("peak_rss_mb", rss, "MB")
    result.metric("primary_per_s", rps["miss"], "1/s")
    result.metric("secondary_per_s", rps["hit"], "1/s")
    result.metric("primary_p50_ms", 1000 * harness.median(phases["miss"]["paced_latencies"]), "ms")
    result.metric("secondary_p50_ms", 1000 * harness.median(phases["hit"]["paced_latencies"]), "ms")
    result.note(harness.config_line())
    result.note(harness.pace_line(pace))
    for phase, p in phases.items():
        raw_rps = len(p["latencies"]) / p["wall_s"]
        result.note(
            f"{phase}_rps {rps[phase]:.3f} req/s at reference pace "
            f"(raw {raw_rps:.3f} req/s; server hit ratio {p['hit_ratio']:.3f})"
        )
        result.note(
            harness.latency_line(f"{phase}_p50_ms at reference pace", p["paced_latencies"])
            + "; "
            + harness.latency_line("raw", p["latencies"])
        )
