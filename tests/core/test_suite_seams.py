"""The seams ``benchmarks/suite/tracer.py`` patches still exist.

The suite's outside-in tracer wraps layer boundaries by name, through
``owner.__dict__[attr]``: a renamed or inherited method would not fail
there, it would silently stop being measured (``--trace 1`` would read
zero calls and call that a speed-up).  The suite's own tests are not
part of tier-1, so the names are pinned here.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.cell import dma, mfc, mic
from repro.core import scheduler, solver, streaming
from repro.core.levels import MachineConfig, SyncProtocol
from repro.parallel import engine, pool, shm
from repro.sweep.input import small_deck

SEAMS = [
    (streaming.ChunkBuffers, ("stage_in", "stage_out", "rows_for_chunk")),
    (mfc.MFC, ("enqueue", "drain_tag", "drain_all")),
    (dma.DMACommand, ("execute",)),
    (dma.DMAListCommand, ("execute",)),
    (mic.MemoryTimingModel, ("cost",)),
    (solver.CellSweep3D, ("__init__", "solve", "sweep_once", "close",
                          "_execute_chunk", "_prepare_diagonal")),
    (solver, ("dd_line_block_solve", "simd_execute_blocks")),
    (scheduler.CentralizedScheduler, ("run_diagonal", "run_chunk")),
    (scheduler.DistributedScheduler, ("run_diagonal",)),
    (engine.ParallelEngine, ("sweep", "close")),
    # the tracer patches the name as bound in the engine module
    (engine, ("replay_flux",)),
    (pool.PersistentPool, ("lease", "acquire", "release")),
    (pool.WorkerSet, ("__init__", "bind")),
    (shm.SharedArrayPool, ("alloc", "close")),
    (shm.SegmentRegistry, ("lease", "park")),
]


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attrs in SEAMS for attr in attrs],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_seam_resolves_in_its_owner(owner, attr):
    assert callable(owner.__dict__[attr])


def test_engine_exposes_what_the_tracer_reads_after_sweep():
    """``parallel.engine.lane_seconds`` and ``.units`` come from the
    engine's ``workers`` and ``units`` attributes."""
    deck = small_deck(n=6, sn=4, nm=2, iterations=1, mk=3)
    with solver.CellSweep3D(deck, workers=2) as cell:
        cell.solve()
        assert cell._engine.workers == 2
        assert len(cell._engine.units) == cell.units_per_sweep() > 0


def test_traffic_statistics_are_current_at_close(monkeypatch):
    """The tracer reads each MFC's ``stats`` once per solver, when
    ``close()`` runs: whatever staged the chunks must have accounted
    all of it by then."""
    seen = []
    real_close = solver.CellSweep3D.__dict__["close"]

    def close(self):
        seen.append([
            (s.list_elements, s.bytes_get, s.bytes_put, s.cycles)
            for s in (spe.mfc.stats for spe in self.chip.spes)
        ])
        return real_close(self)

    monkeypatch.setattr(solver.CellSweep3D, "close", close)
    deck = small_deck(n=6, sn=4, nm=2, iterations=1, mk=3)
    config = MachineConfig(
        aligned_rows=True, double_buffer=True, simd=True, dma_lists=True,
        bank_offsets=True, sync=SyncProtocol.LS_POKE, num_spes=3,
    )
    for path in (contextlib.nullcontext(), streaming._command_path()):
        with path, solver.CellSweep3D(deck, config) as cell:
            cell.solve()
    planned_stats, command_stats = seen
    assert planned_stats == command_stats
    assert all(min(row) > 0 for row in planned_stats)
