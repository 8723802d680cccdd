"""Transfer-plan replay is invisible to the simulated machine.

A warm ``stage_in``/``stage_out`` replays a cached
:class:`~repro.core.streaming.TransferPlan` instead of enqueueing
commands, so everything the simulated Cell can observe -- the MFC
traffic and cycle counters, the trace stream, and of course the flux --
must be identical to the command path the plan was lowered from.  These
tests run the same solve both ways and compare; the full configuration
matrix lives in ``test_transfer_plan.py``.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np
import pytest

from repro.cell.dma import DMAKind
from repro.cell.mfc import MFC
from repro.core import streaming
from repro.core.levels import MachineConfig, SyncProtocol
from repro.core.solver import CellSweep3D
from repro.core.streaming import StagedLine
from repro.sweep.geometry import Grid
from repro.sweep.input import small_deck
from repro.sweep.moments import build_moment_source


def config(trace: bool = False) -> MachineConfig:
    return MachineConfig(
        aligned_rows=True, double_buffer=True, simd=True, dma_lists=True,
        bank_offsets=True, sync=SyncProtocol.LS_POKE, num_spes=3,
        trace=trace,
    )


def counted_solve(deck, planned: bool):
    """Full solve with every MFC enqueue/drain counted."""
    calls = {"enqueue": 0, "drain": 0}
    real_enqueue = MFC.enqueue
    real_drain_tag = MFC.drain_tag

    def enqueue(self, command):
        calls["enqueue"] += 1
        return real_enqueue(self, command)

    def drain_tag(self, tag):
        calls["drain"] += 1
        return real_drain_tag(self, tag)

    path = contextlib.nullcontext() if planned else streaming._command_path()
    with pytest.MonkeyPatch.context() as mp, path:
        mp.setattr(MFC, "enqueue", enqueue)
        mp.setattr(MFC, "drain_tag", drain_tag)
        solver = CellSweep3D(deck, config())
        result = solver.solve()
    return result, calls, [spe.mfc.stats for spe in solver.chip.spes]


def line(j: int, k: int = 0) -> StagedLine:
    return StagedLine(mm=0, kk=k, j_o=j, j_g=j, k_g=k, angle=0, reverse_i=False)


@pytest.fixture
def deck():
    return small_deck(n=8, sn=4, nm=2, iterations=2, mk=2)


class TestCacheTransparency:
    def test_cached_replay_is_machine_identical(self, deck):
        res_off, calls_off, stats_off = counted_solve(deck, planned=False)
        res_on, calls_on, stats_on = counted_solve(deck, planned=True)

        # the command path issues every command; replay issues none
        assert calls_off["enqueue"] == sum(s.commands for s in stats_off) > 0
        assert calls_off["drain"] > 0
        assert calls_on == {"enqueue": 0, "drain": 0}
        # accumulated per-SPE traffic and cycle counters, every field
        assert stats_on == stats_off
        # and the physics
        np.testing.assert_array_equal(res_on.flux, res_off.flux)
        assert res_on.tally.fixups == res_off.tally.fixups

    def test_simulated_timing_unaffected(self, deck):
        # the calibrated TimingReport depends only on deck + config levels,
        # never on how the host stages a chunk
        with streaming._command_path():
            t_off = CellSweep3D(deck, config()).timing()
        t_on = CellSweep3D(deck, config()).timing()
        assert t_on.seconds == t_off.seconds

    def test_trace_streams_byte_identical(self, deck):
        """Plan replay must be invisible to the trace bus too: the full
        exported event stream -- every timestamp, duration, LS region and
        queue depth, serialized -- is byte-identical either way."""
        from repro.trace.export import to_chrome_trace
        from repro.trace.sanitizer import sanitize

        def traced_stream() -> tuple[str, list]:
            solver = CellSweep3D(deck, config(trace=True))
            solver.solve()
            blob = json.dumps(to_chrome_trace(solver.trace), sort_keys=True)
            return blob, sanitize(solver.trace)

        with streaming._command_path():
            blob_off, hazards_off = traced_stream()
        blob_on, hazards_on = traced_stream()
        assert blob_on == blob_off
        assert hazards_on == hazards_off == []


class TestProgramMemoization:
    def test_repeat_chunk_reuses_program_objects(self, deck):
        solver = CellSweep3D(deck, config())
        bufs = solver.buffers[0]
        lines = [line(j) for j in range(2)]
        first = bufs._plan(solver.host, lines)
        assert bufs._plan(solver.host, lines) is first
        # every SPE lays its local store out alike, and a second solver
        # of the same deck lays main memory out alike: same plan
        assert solver.buffers[1]._plan(solver.host, lines) is first
        again = CellSweep3D(deck, config())
        assert again.buffers[2]._plan(again.host, lines) is first
        # a distinct working set misses
        other = [line(j, k=1) for j in range(2)]
        assert bufs._plan(solver.host, other) is not first

    def test_cache_disabled_rebuilds(self, deck):
        solver = CellSweep3D(deck, config())
        bufs = solver.buffers[0]
        lines = [line(0)]
        built = streaming.plan_cache_info()["built"]
        streaming.clear_plan_cache()
        with streaming._command_path():
            bufs.stage_in(solver.host, lines)
            bufs.stage_out(solver.host, lines)
        assert streaming.plan_cache_info()["built"] == built
        assert streaming.plan_cache_info()["entries"] == 0
        first = bufs._program(solver.host, lines, DMAKind.GET, 0, 2)
        again = bufs._program(solver.host, lines, DMAKind.GET, 0, 2)
        assert again is not first

    def test_new_host_state_invalidates(self, deck):
        """A plan holds row indices, not arrays: a fresh HostState of
        the same layout reuses it and still gets *its own* bytes, and a
        different layout never hits it."""
        solver = CellSweep3D(deck, config())
        bufs = solver.buffers[0]
        lines = [line(0)]
        msrc = build_moment_source(deck, np.ones((deck.nm, *deck.grid.shape)))
        solver.host.load_moment_source(msrc)
        bufs.stage_in(solver.host, lines)
        first = bufs._plan(solver.host, lines)
        np.testing.assert_array_equal(
            bufs.views(0)["msrc"][0, 0, : deck.grid.nx], msrc[0, :, 0, 0]
        )

        fresh = CellSweep3D(deck, config())
        fresh.host.load_moment_source(3.0 * msrc)
        bufs.stage_in(fresh.host, lines)
        assert bufs._plan(fresh.host, lines) is first
        np.testing.assert_array_equal(
            bufs.views(0)["msrc"][0, 0, : deck.grid.nx], 3.0 * msrc[0, :, 0, 0]
        )

        taller = CellSweep3D(deck.with_(grid=Grid(8, 10, 8)), config())
        assert taller.buffers[0]._plan(taller.host, lines) is not first
