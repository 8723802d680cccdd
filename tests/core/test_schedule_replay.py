"""Referee: a replayed unit schedule against the full machine.

The first (octant, angle-block) unit to sweep a shape in each J and K
direction simulates the machine chunk by chunk and records what it
added (per-SPE ``MFC.stats``, the scheduler, sync and atomic end
state); every later unit sweeping the same way -- the other angle
blocks of its octant, the octant mirrored in I, every unit of a later
sweep -- scatters each diagonal like the tile and replays the record.
The full machine path stays the referee: under ``streaming._command_path()``
every unit simulates, and nothing is recorded or replayed.

Generated decks (``test_equivalence_fuzz.decks``) x the machine factors
x ``workers in {1, 2}``, two iterations each, so the second sweep
replays: tier-1 draws 20 examples, ``-m slow`` runs the whole factor
matrix.  A pooled solve's parent accounts only the units it ran itself,
which the task queue decides, so its statistics are compared on
``workers=1`` only; flux, fixups and leakage on both.

The default memory timing prices every batch at a whole number of
cycles, whose float sums are exact in any order; a MIC bank weight of
0.3 prices them at fractions, so ``cycles`` also referees that the
replay adds them batch by batch, in the simulated order.
"""

from __future__ import annotations

import contextlib
import itertools
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cell.chip import CellBE
from repro.cluster.driver import default_cluster_config
from repro.core import streaming
from repro.core.cluster import CellClusterSweep3D
from repro.core.levels import MachineConfig, SchedulerKind, SyncProtocol
from repro.core.projections import cluster_projection
from repro.core.solver import CellSweep3D
from repro.sweep.flux import flux_digest
from repro.sweep.geometry import Grid
from repro.sweep.input import InputDeck, cube_deck, small_deck
from repro.sweep.serial import SerialSweep3D

from test_equivalence_fuzz import decks

FACTORS = (
    tuple(SchedulerKind),
    tuple(SyncProtocol),
    (True, False),   # double_buffer
    (True, False),   # dma_lists
    (1, 3, 4),       # chunk_lines
    (1, 3, 8),       # num_spes
    (1, 2),          # workers
)
MATRIX = list(itertools.product(*FACTORS))


def machine_state(solver) -> tuple:
    """Everything a sweep leaves in the simulated machine that the
    replay reproduces: per-SPE traffic statistics (``cycles`` bit for
    bit) and the scheduler, sync and atomic words."""
    stats = [spe.mfc.stats for spe in solver.chip.spes]
    return (
        stats,
        [s.cycles.hex() for s in stats],
        solver.scheduler.chunks_dispatched,
        [solver.sync.words(spe.spe_id) for spe in solver.chip.spes],
        solver.chip.atomics.values.get("work_head"),
    )


def solve(deck, config, workers, bank_weight, planned):
    path = contextlib.nullcontext() if planned else streaming._command_path()
    chip = CellBE(num_spes=config.num_spes)
    chip.memory_timing.bank_weight = bank_weight
    # a fresh pool forks inside the path, so its workers take it too
    with path, CellSweep3D(deck, config, chip, workers=workers) as solver:
        result = solver.solve()
    return solver, result


def check_replay_is_the_machine(deck: InputDeck, factors, bank_weight) -> None:
    scheduler, sync, double, lists, chunk, spes, workers = factors
    config = MachineConfig(
        aligned_rows=True, simd=True, bank_offsets=True,
        double_buffer=double, dma_lists=lists, chunk_lines=chunk,
        num_spes=spes, sync=sync, scheduler=scheduler,
    )
    deck = deck.with_(iterations=2)
    streaming.clear_schedule_cache()
    replayed, got = solve(deck, config, workers, bank_weight, planned=True)
    simulated, want = solve(deck, config, workers, bank_weight, planned=False)
    assert simulated.replayed_units == 0
    np.testing.assert_array_equal(got.flux, want.flux)
    assert got.tally.fixups == want.tally.fixups
    assert got.tally.leakage.hex() == want.tally.leakage.hex()
    if workers == 1:
        # one simulated unit per (J, K) direction, then every unit replays
        assert replayed.replayed_units == 2 * len(replayed.units) - 4
        assert machine_state(replayed) == machine_state(simulated)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(decks(), st.sampled_from(MATRIX), st.sampled_from([1.0, 0.3]))
def test_replay_is_the_machine_on_random_decks(deck, factors, bank_weight):
    check_replay_is_the_machine(deck, factors, bank_weight)


@pytest.mark.slow
@pytest.mark.parametrize("factors", MATRIX, ids=str)
def test_replay_is_the_machine_on_the_full_matrix(factors):
    """Every factor combination on a material-box deck with ragged
    chunks and three angles per block."""
    deck = InputDeck(
        grid=Grid(6, 7, 5), sn=4, nm=2, mk=5, iterations=1,
        scattering_ratio=0.9, source_box=(1, 4, 2, 5, 1, 4),
        material_box=(4, 6, 0, 7, 0, 5),
        material_sigma_t=8.0, material_scattering_ratio=0.1,
    )
    check_replay_is_the_machine(deck, factors, 0.3)


def test_decks_that_differ_only_in_quadrature_replay_by_sweep_direction():
    """S4 and S6 cubes share the host image, the machine and the sweep
    shape, but unit 2 is octant 2 at S4 and octant 1 at S6: a record is
    keyed by the J and K directions a unit sweeps, never by its index,
    so the S6 solve replays what units of its own directions staged.
    Each solve's machine state equals the same solve on the command
    path."""
    replayed, simulated = [], []
    for sn in (4, 6):
        deck = cube_deck(8, sn=sn, nm=2, iterations=2)
        assert deck.mmi == 3
        with CellSweep3D(deck) as solver:
            solver.solve()
        replayed.append(solver)
        with streaming._command_path(), CellSweep3D(deck) as solver:
            solver.solve()
        simulated.append(solver)
    s4, s6 = replayed
    # S4 records its four (J, K) directions in its first sweep and
    # replays their I mirrors; S6 (two angle blocks per octant)
    # simulates nothing
    assert (len(s4.units), s4.replayed_units) == (8, 12)
    assert (len(s6.units), s6.replayed_units) == (16, 32)
    for got, want in zip(replayed, simulated):
        assert machine_state(got) == machine_state(want)


def test_observed_solves_never_replay():
    """Traces and metrics come from the machine itself: a traced or
    metered solve simulates every unit, records nothing and replays
    nothing, even with a warm schedule."""
    deck = small_deck(n=6, sn=4, nm=2, iterations=2, mk=3)
    CellSweep3D(deck).solve()
    recorded = streaming.schedule_cache_info()["recorded"]
    for observed in (dict(trace=True), dict(metrics=True)):
        config = CellSweep3D(deck).config.with_(**observed)
        solver = CellSweep3D(deck, config)
        solver.solve()
        assert solver.replayed_units == 0
    assert streaming.schedule_cache_info()["recorded"] == recorded


def test_cap_clears_and_records_again(monkeypatch):
    deck = small_deck(n=6, sn=4, nm=2, iterations=2, mk=3)
    reference = SerialSweep3D(deck).solve()
    monkeypatch.setattr(streaming, "SCHEDULE_CACHE_MAX_ENTRIES", 3)
    before = streaming.schedule_cache_info()["recorded"]
    solver = CellSweep3D(deck)
    result = solver.solve()
    np.testing.assert_array_equal(result.flux, reference.flux)
    info = streaming.schedule_cache_info()
    assert info["entries"] <= 3 < info["recorded"] - before
    with streaming._command_path():
        referee = CellSweep3D(deck)
        referee.solve()
    assert machine_state(solver) == machine_state(referee)


def test_rank_threads_share_the_schedule_cache():
    """Two 2x2 Cell cluster solves in one process: the first records
    (four rank threads on fewer cores publishing into one cache, the
    interpreter switching threads every few microseconds), the second
    replays every unit on every rank.  Both land on the serial flux and
    send the projected face traffic."""
    deck = small_deck(n=8, sn=4, nm=2, iterations=2)
    serial = flux_digest(SerialSweep3D(deck).solve().flux)
    projection = cluster_projection(deck, default_cluster_config(), 2, 2)
    recorded = []
    before = streaming.schedule_cache_info()["recorded"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(2):
            cluster = CellClusterSweep3D(deck, 2, 2)
            result = cluster.solve()
            recorded.append(streaming.schedule_cache_info()["recorded"] - before)
            assert flux_digest(result.flux) == serial
            assert cluster.report.msgs_sent == projection.msgs_per_solve
            assert cluster.report.bytes_sent == projection.bytes_per_solve
    finally:
        sys.setswitchinterval(interval)
    first, second = recorded
    # every rank simulates a direction until some rank has published it
    assert 4 <= first <= 4 * 4
    assert second == first  # nothing simulated twice: every rank replayed
