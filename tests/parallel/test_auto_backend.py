"""``REPRO_SIM=auto``: per-cell backend choice, logged in ``sim.*`` metrics.

The contract: ``auto`` never invents a third behaviour — every cell
still runs the event or the reference backend (which are byte-identical
by the differential suite) — it only *picks* per cell, and it must leave
an audit trail: one ``sim.backend.auto`` counter increment carrying the
cell name, the chosen backend, and the deciding reason.  These tests pin
the resolver's decision table branch by branch, the pass-through for
explicit settings, and the wiring into the two consumers
(:class:`BoxServer` and GLOBAL-LRU).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import metrics as M
from repro.paging.kernel import KERNEL_ENV, clear_kernel_cache, native_flavor
from repro.parallel.events import SIM_ENV, resolve_sim_backend, sim_backend
from repro.parallel.streaming import make_box_server, open_streaming
from repro.parallel.timestep import GlobalLRU
from repro.traces import write_store
from repro.workloads import ParallelWorkload

HAVE_NATIVE = native_flavor() is not None


@pytest.fixture(autouse=True)
def _fresh_kernel_cache():
    # kernels capture their backend at construction; don't let a kernel
    # built under one REPRO_KERNEL pin leak into the next test
    clear_kernel_cache()
    yield
    clear_kernel_cache()


class TestSimBackendParsing:
    def test_auto_is_a_valid_setting(self, monkeypatch):
        monkeypatch.setenv(SIM_ENV, "auto")
        assert sim_backend() == "auto"

    def test_invalid_setting_still_rejected(self, monkeypatch):
        monkeypatch.setenv(SIM_ENV, "adaptive")
        with pytest.raises(ValueError, match="REPRO_SIM"):
            sim_backend()


class TestPassThrough:
    def test_explicit_event_ignores_heuristic_inputs(self, monkeypatch):
        monkeypatch.setenv(SIM_ENV, "event")
        # inputs that would make auto pick reference must not matter
        monkeypatch.setenv(KERNEL_ENV, "reference")
        assert resolve_sim_backend("cell", streaming=True) == "event"

    def test_explicit_reference_passes_through(self, monkeypatch):
        monkeypatch.setenv(SIM_ENV, "reference")
        assert resolve_sim_backend("cell") == "reference"

    def test_pass_through_logs_nothing(self, monkeypatch):
        monkeypatch.setenv(SIM_ENV, "event")
        with M.collecting() as reg:
            resolve_sim_backend("cell")
        assert not any(
            k.startswith("sim.backend.auto") for k in reg.snapshot()["counters"]
        )


class TestAutoDecisionTable:
    """One test per branch of the heuristic, in resolver order."""

    @pytest.fixture(autouse=True)
    def _auto(self, monkeypatch):
        monkeypatch.setenv(SIM_ENV, "auto")

    def test_reference_kernel_forces_reference_sim(self, monkeypatch):
        # the event backend exists to batch kernel probes; under the
        # dict-LRU reference kernel there is nothing to batch
        monkeypatch.setenv(KERNEL_ENV, "reference")
        assert resolve_sim_backend("cell", streaming=True) == "reference"
        assert resolve_sim_backend("cell", streaming=False) == "reference"

    def test_batch_workloads_use_event(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "fast")
        assert resolve_sim_backend("cell", streaming=False) == "event"

    @pytest.mark.skipif(not HAVE_NATIVE, reason="no native flavor available")
    def test_streamed_native_kernel_uses_event(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "native")
        assert resolve_sim_backend("cell", streaming=True) == "event"

    def test_streamed_balanced_numpy_kernel_uses_event(self, monkeypatch):
        # streamed cells on the numpy kernel use the event backend too:
        # one window append per box keeps it no slower than the reference
        monkeypatch.setenv(KERNEL_ENV, "fast")
        assert resolve_sim_backend("cell", streaming=True) == "event"


class TestAutoMetrics:
    def test_choice_is_logged_with_cell_and_reason(self, monkeypatch):
        monkeypatch.setenv(SIM_ENV, "auto")
        monkeypatch.setenv(KERNEL_ENV, "fast")
        with M.collecting() as reg:
            resolve_sim_backend("box-server", streaming=True)
            resolve_sim_backend("global-lru", streaming=False)
        counters = reg.snapshot()["counters"]
        assert (
            counters[
                "sim.backend.auto{cell=box-server,choice=event,reason=streamed}"
            ]
            == 1
        )
        assert counters["sim.backend.auto{cell=global-lru,choice=event,reason=batch}"] == 1


class TestConsumerWiring:
    def workload(self):
        rng = np.random.default_rng(7)
        return ParallelWorkload(
            sequences=[rng.integers(0, 20, size=200) + 100 * i for i in range(3)],
            name="auto-wire",
        )

    def test_box_server_records_resolved_backend(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SIM_ENV, "auto")
        monkeypatch.setenv(KERNEL_ENV, "reference")
        store = write_store(tmp_path / "w.trc", self.workload())
        server = make_box_server(open_streaming(store), miss_cost=4)
        assert server.backend == "reference"

    def test_global_lru_runs_identically_under_auto(self, monkeypatch):
        wl = self.workload()
        algo = GlobalLRU(cache_size=16, miss_cost=4)
        monkeypatch.setenv(SIM_ENV, "event")
        expected = algo.run(wl)
        monkeypatch.setenv(SIM_ENV, "auto")
        with M.collecting() as reg:
            got = algo.run(wl)
        assert np.array_equal(got.completion_times, expected.completion_times)
        assert (
            reg.snapshot()["counters"][
                "sim.backend.auto{cell=global-lru,choice=event,reason=batch}"
            ]
            == 1
        )
