"""End-to-end: a traced functional solve emits the full event vocabulary,
stays clean under the sanitizer, and changes nothing about the physics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.levels import MachineConfig, SchedulerKind, SyncProtocol
from repro.core.solver import CellSweep3D
from repro.core.streaming import _command_path
from repro.sweep.input import small_deck
from repro.trace.bus import EVENT_NAMES, NULL_BUS, PPE_TRACK, TraceBus
from repro.trace.export import aggregate_stats, to_chrome_trace
from repro.trace.sanitizer import sanitize


def config(**overrides) -> MachineConfig:
    base = dict(
        aligned_rows=True, double_buffer=True, simd=True, dma_lists=True,
        bank_offsets=True, sync=SyncProtocol.LS_POKE, num_spes=2, trace=True,
    )
    base.update(overrides)
    return MachineConfig(**base)


@pytest.fixture(scope="module")
def traced_solver():
    deck = small_deck(n=6, sn=4, nm=1, iterations=1, mk=2)
    solver = CellSweep3D(deck, config())
    solver.solve()
    return solver


class TestTracedSolve:
    def test_bus_installed_and_populated(self, traced_solver):
        bus = traced_solver.trace
        assert isinstance(bus, TraceBus) and bus.enabled
        assert len(bus) > 0 and bus.now > 0

    def test_machine_info_stamped(self, traced_solver):
        info = traced_solver.trace.machine_info
        assert info["num_spes"] == 2
        assert info["ls_capacity"] > info["ls_code_bytes"] > 0

    def test_expected_tracks(self, traced_solver):
        tracks = set(traced_solver.trace.tracks())
        assert {PPE_TRACK, "SPE0", "MIC"} <= tracks
        assert tracks <= {PPE_TRACK, "SPE0", "SPE1", "MIC", "EIB"}

    def test_event_vocabulary(self, traced_solver):
        names = {ev.name for ev in traced_solver.trace.events}
        assert names <= EVENT_NAMES
        # the centralized LS-poke pipeline exercises this subset
        assert {
            "DmaEnqueue", "DmaComplete", "MicBankAccess", "KernelExec",
            "BufferSwap", "SyncDispatch", "SyncComplete", "WorkAssigned",
            "WorkDone",
        } <= names

    def test_default_config_is_hazard_free(self, traced_solver):
        assert sanitize(traced_solver.trace) == []

    def test_exports_without_error(self, traced_solver):
        doc = to_chrome_trace(traced_solver.trace)
        assert len(doc["traceEvents"]) > len(traced_solver.trace)
        stats = aggregate_stats(traced_solver.trace)
        for spe in stats["per_spe"].values():
            assert 0.0 <= spe["overlap_fraction"] <= 1.0
            assert spe["queue_depth_max"] <= 16  # MFC queue depth

    def test_flux_identical_to_untraced(self, traced_solver):
        untraced = CellSweep3D(traced_solver.deck, config(trace=False))
        assert untraced.trace is NULL_BUS
        res = untraced.solve()
        np.testing.assert_array_equal(
            res.flux, traced_solver.solve().flux
        )

    def test_timing_prediction_unaffected(self, traced_solver):
        deck = traced_solver.deck
        t_on = CellSweep3D(deck, config()).timing()
        t_off = CellSweep3D(deck, config(trace=False)).timing()
        assert t_on.seconds == t_off.seconds


class TestVariants:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(sync=SyncProtocol.MAILBOX),
            dict(scheduler=SchedulerKind.DISTRIBUTED),
            dict(double_buffer=False),
            dict(dma_lists=False),
            None,
        ],
        ids=["mailbox", "distributed", "single-buffer", "no-lists",
             "command-path"],
    )
    def test_variant_traces_clean(self, overrides):
        deck = small_deck(n=6, sn=4, nm=1, iterations=1, mk=2)
        if overrides is None:  # the default config, staged command by command
            with _command_path():
                solver = CellSweep3D(deck, config())
                solver.solve()
        else:
            solver = CellSweep3D(deck, config(**overrides))
            solver.solve()
        assert len(solver.trace) > 0
        assert sanitize(solver.trace) == []

    def test_mailbox_sync_emits_mailbox_events(self):
        deck = small_deck(n=6, sn=4, nm=1, iterations=1, mk=2)
        solver = CellSweep3D(deck, config(sync=SyncProtocol.MAILBOX))
        solver.solve()
        names = {ev.name for ev in solver.trace.events}
        assert {"MailboxSend", "MailboxRecv"} <= names
