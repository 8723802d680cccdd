"""Every chunk's GET program delivers the bytes the kernel consumed.

The line kernel reads one gather of the host arrays per jkm diagonal
(``TileSweeper._gather_diagonal``), not the local store, so a wrong GET
address for ``msrc``/``sigt``/``phii`` no longer corrupts the flux --
only ``flux``/``phij``/``phik`` still round-trip through the local
store.  The flux SHA therefore stopped refereeing the staging of the
read-only operands; this file does, chunk by chunk: after every
``stage_in`` of a full solve the local-store views must equal that
chunk's rows of the diagonal's gather, bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import solver as solver_mod
from repro.core import streaming
from repro.core.levels import MachineConfig, SchedulerKind, SyncProtocol
from repro.sweep import pipelining
from repro.sweep.geometry import Grid
from repro.sweep.input import InputDeck
from repro.sweep.serial import SerialSweep3D

CHUNK_LINES = MachineConfig().chunk_lines


def uniform_deck() -> InputDeck:
    """ny and nz leave a remainder against ``chunk_lines``: ragged last
    chunks on most diagonals."""
    deck = InputDeck(grid=Grid(6, 7, 5), sn=4, nm=2, mk=5, iterations=2)
    assert deck.grid.ny % CHUNK_LINES and deck.grid.nz % CHUNK_LINES
    return deck


def material_deck() -> InputDeck:
    """A material box: per-cell ``sigt`` rows are real data."""
    return InputDeck(
        grid=Grid(6, 7, 5), sn=4, nm=2, mk=5, iterations=1,
        scattering_ratio=0.9, source_box=(1, 4, 2, 5, 1, 4),
        material_box=(4, 6, 0, 7, 0, 5),
        material_sigma_t=8.0, material_scattering_ratio=0.1,
    )


def refereed_solve(deck: InputDeck, config: MachineConfig, monkeypatch):
    """Solve with the staging referee armed; returns ``(result, chunks
    checked, ragged chunks checked)``."""
    it = deck.grid.nx
    state = {"ix": None, "gather": None, "chunk": None, "checked": 0,
             "ragged": 0}
    S = solver_mod.CellSweep3D
    T = pipelining.TileSweeper
    real_gather = T.__dict__["_gather_diagonal"]
    real_execute = S.__dict__["_execute_chunk"]
    real_stage_in = streaming.ChunkBuffers.__dict__["stage_in"]

    def gather(self, ix):
        g = real_gather(self, ix)
        # the kernel updates phij/phik in place: keep what was gathered
        state["ix"] = ix
        state["gather"] = {
            k: None if v is None else v.copy() for k, v in g.items()
        }
        return g

    def execute(self, chunk):
        state["chunk"] = chunk
        return real_execute(self, chunk)

    def stage_in(self, host, ix, rows, s=0):
        real_stage_in(self, host, ix, rows, s)
        chunk, g = state["chunk"], state["gather"]
        # the chunk staged is the gathered diagonal's, at the chunk's rows
        assert ix is state["ix"]
        assert rows == chunk.rows
        L = chunk.num_lines
        lo = chunk.index * config.chunk_lines
        assert rows == slice(lo, lo + L)
        views = self.views(s)
        np.testing.assert_array_equal(
            views["msrc"][:, :L, :it], g["msrc"][:, rows]
        )
        np.testing.assert_array_equal(views["phij"][:L, :it], g["phij"][rows])
        np.testing.assert_array_equal(views["phik"][:L, :it], g["phik"][rows])
        np.testing.assert_array_equal(views["phii"][:L], g["phii"][rows])
        sigt = (
            deck.sigma_t if g["sigt"] is None else g["sigt"][rows]
        )
        np.testing.assert_array_equal(
            views["sigt"][:L, :it], np.broadcast_to(sigt, (L, it))
        )
        state["checked"] += 1
        state["ragged"] += L < config.chunk_lines

    monkeypatch.setattr(T, "_gather_diagonal", gather)
    monkeypatch.setattr(S, "_execute_chunk", execute)
    monkeypatch.setattr(streaming.ChunkBuffers, "stage_in", stage_in)
    with S(deck, config) as cell:
        result = cell.solve()
    return result, state["checked"], state["ragged"]


def config(aligned_rows, dma_lists, double_buffer, scheduler, num_spes):
    return MachineConfig(
        aligned_rows=aligned_rows, dma_lists=dma_lists,
        double_buffer=double_buffer, simd=True, bank_offsets=True,
        sync=SyncProtocol.LS_POKE, scheduler=scheduler, num_spes=num_spes,
    )


@pytest.fixture(scope="module")
def reference_flux():
    return {
        make.__name__: SerialSweep3D(make()).solve().flux
        for make in (uniform_deck, material_deck)
    }


@pytest.mark.parametrize("make_deck", [uniform_deck, material_deck])
@pytest.mark.parametrize("num_spes", [3, 8])
@pytest.mark.parametrize(
    "scheduler", list(SchedulerKind), ids=lambda kind: kind.value
)
def test_stage_in_delivers_the_gathered_rows(
    make_deck, num_spes, scheduler, reference_flux, monkeypatch
):
    deck = make_deck()
    for flags in itertools.product([False, True], repeat=3):
        with monkeypatch.context() as patch:
            result, checked, ragged = refereed_solve(
                deck, config(*flags, scheduler, num_spes), patch
            )
        assert checked > 0 and ragged > 0, flags
        np.testing.assert_array_equal(
            result.flux, reference_flux[make_deck.__name__]
        )


def test_command_path_delivers_the_gathered_rows(monkeypatch):
    """The MFC command path the transfer plans were lowered from."""
    with streaming._command_path():
        _result, checked, ragged = refereed_solve(
            material_deck(),
            config(True, True, True, SchedulerKind.CENTRALIZED, 3),
            monkeypatch,
        )
    assert checked > 0 and ragged > 0


def test_referee_notices_a_kernel_operand_that_was_not_staged(monkeypatch):
    """The referee is live: hand the kernel an I-inflow the GET program
    did not deliver and the first ``stage_in`` trips it."""
    real_gather = pipelining.TileSweeper.__dict__["_gather_diagonal"]

    def shifted(self, ix):
        g = real_gather(self, ix)
        g["phii"] = g["phii"] + 1.0
        return g

    monkeypatch.setattr(pipelining.TileSweeper, "_gather_diagonal", shifted)
    with pytest.raises(AssertionError):
        refereed_solve(
            material_deck(),
            config(True, True, True, SchedulerKind.CENTRALIZED, 3),
            monkeypatch,
        )
