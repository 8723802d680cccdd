"""Referee: transfer-plan replay against the MFC command path.

``ChunkBuffers`` stages a chunk by replaying a cached
:class:`~repro.core.streaming.TransferPlan`; the command path it was
lowered from (``rows_for_chunk`` -> ``_commands`` -> ``issue`` -> MFC ->
MIC) stays in the tree as the referee.  Two levels:

* **machine level**, over the whole configuration matrix (under
  ``-m slow``; tier-1 runs every value of every factor on every deck):
  the same diagonals staged in and out on two identical machines, one
  per path, must leave the same local-store bytes, the same host bytes,
  the same ``TagStats`` (``cycles`` bit for bit), the same trace events
  and the same metrics;
* **solver level**, on a few configurations per deck: the flux equals
  the serial reference and the exported trace is byte-identical (the
  full-size shield deck under ``-m slow``; tier-1 solves a smaller
  material-box deck in its place).

Plus the behaviour of the process-global cache itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import multiprocessing

import numpy as np
import pytest

from repro.cell.chip import CellBE
from repro.core import streaming
from repro.core.levels import MachineConfig, SyncProtocol
from repro.core.porting import HostState
from repro.core.solver import CellSweep3D
from repro.core.streaming import ChunkBuffers
from repro.core.worklist import assign_cyclic
from repro.metrics.registry import MetricsRegistry
from repro.parallel.pool import PersistentPool
from repro.sweep import SerialSweep3D
from repro.sweep.geometry import Grid
from repro.sweep.input import InputDeck, small_deck
from repro.sweep.pipelining import num_diagonals, sweep_shape
from repro.trace.bus import TraceBus
from repro.trace.export import to_chrome_trace
from repro.trace.sanitizer import sanitize


def shield_deck() -> InputDeck:
    """The benchmark suite's 20x14x10 source/shield deck (seed 0):
    ragged chunks and per-cell ``sigt`` rows."""
    return InputDeck(
        grid=Grid(20, 14, 10), mk=5, iterations=1, scattering_ratio=0.9,
        source=1.5, source_box=(8, 12, 5, 9, 3, 7),
        material_box=(14, 17, 0, 14, 0, 10),
        material_sigma_t=8.0, material_scattering_ratio=0.1,
    )


def material_deck() -> InputDeck:
    """6x7x5 with a material box (``test_diagonal_gather``'s shape):
    per-cell ``sigt`` rows at a tier-1 size."""
    return InputDeck(
        grid=Grid(6, 7, 5), sn=4, nm=2, mk=5, iterations=1,
        scattering_ratio=0.9, source_box=(1, 4, 2, 5, 1, 4),
        material_box=(4, 6, 0, 7, 0, 5),
        material_sigma_t=8.0, material_scattering_ratio=0.1,
    )


DECKS = {
    "cube": small_deck(n=6, sn=4, nm=2, iterations=1, mk=3),
    "shield": shield_deck(),
    "prime": InputDeck(grid=Grid(7, 5, 3), sn=4, nm=2, mk=3, iterations=1),
}
#: the solver-level decks: the machine-level ones plus the material box
SOLVE_DECKS = dict(DECKS, material=material_deck())


def path(planned: bool):
    return contextlib.nullcontext() if planned else streaming._command_path()


# -- machine level: the whole matrix ---------------------------------------------


class Machine:
    """A chip, a host image filled with noise, one ``ChunkBuffers`` per
    SPE, and a trace bus and metrics registry watching all of it."""

    def __init__(self, deck: InputDeck, config: MachineConfig) -> None:
        self.deck, self.config = deck, config
        self.chip = CellBE(num_spes=config.num_spes)
        self.trace, self.metrics = TraceBus(), MetricsRegistry()
        self.chip.install_trace(self.trace)
        self.chip.install_metrics(self.metrics)
        self.host = HostState(deck, config, self.chip)
        rng = np.random.default_rng(7)
        for array in self.chip.address_space.arrays():
            array.data[...] = rng.random(array.data.shape)
        self.buffers = [
            ChunkBuffers(spe, deck, config, self.host.row_len)
            for spe in self.chip.spes
        ]

    def stage_diagonals(self, octant: int, diagonals) -> list[str]:
        """Stage every chunk of ``diagonals`` in, scribble on the
        local store the way a kernel would, and stage it out; returns
        a digest of the local-store image after each ``stage_in``."""
        deck, config = self.deck, self.config
        g = deck.grid
        first_block = sweep_shape(g.ny, g.nz, deck.mk, deck.mmi).octant(octant)[0]
        images = []
        s = 0
        for d in diagonals:
            ix = first_block[d]
            for chunk in assign_cyclic(len(ix), config.chunk_lines, config.num_spes):
                bufs = self.buffers[chunk.spe]
                bufs.stage_in(self.host, ix, chunk.rows, s)
                store = bufs.spe.local_store._memory
                images.append(hashlib.sha1(store).hexdigest())
                for view in bufs.views(s).values():
                    view += 1.0
                bufs.stage_out(self.host, ix, chunk.rows, s)
                if config.double_buffer:
                    s ^= 1
        return images

    def host_bytes(self) -> list[bytes]:
        return [a.data.tobytes() for a in self.chip.address_space.arrays()]

    def stats(self) -> list:
        return [spe.mfc.stats for spe in self.chip.spes]

    def events(self) -> list[tuple]:
        return [(e.ts, e.dur, e.track, e.name, e.args) for e in self.trace.events]


FACTORS = (
    (True, False),   # dma_lists (off: 16-entry queue overflows mid-program)
    (True, False),   # double_buffer
    (True, False),   # aligned_rows
    (True, False),   # bank_offsets
    (1, 3, 8),       # num_spes
    (1, 3, 4),       # chunk_lines
)
MATRIX = list(itertools.product(*FACTORS))
#: every value of every factor at least once, in three machines
FACTOR_VALUES = [tuple(v[i % len(v)] for v in FACTORS) for i in range(3)]


def check_replay_is_the_command_path(deck_name, configs):
    deck = DECKS[deck_name]
    last = num_diagonals(deck.grid.ny, deck.mk, deck.mmi) - 1
    # the first diagonals (one short chunk), the widest, and the last
    diagonals = sorted({0, 1, 2, last // 2, last})
    for lists, double, aligned, offsets, spes, chunk in configs:
        config = MachineConfig(
            dma_lists=lists, double_buffer=double, aligned_rows=aligned,
            bank_offsets=offsets, num_spes=spes, chunk_lines=chunk,
        )
        label = f"{deck_name} {config}"
        machines = []
        for planned in (False, True):
            with path(planned):
                machine = Machine(deck, config)
                # octant 5 flips J and K, so global rows differ from oriented
                images = machine.stage_diagonals(5, diagonals)
                # twice: the second pass replays warm plans
                images += machine.stage_diagonals(5, diagonals)
            machines.append((machine, images))
        (ref, ref_images), (got, got_images) = machines
        assert got_images == ref_images, label
        assert got.host_bytes() == ref.host_bytes(), label
        assert got.stats() == ref.stats(), label
        assert [s.cycles.hex() for s in got.stats()] == [
            s.cycles.hex() for s in ref.stats()
        ], label
        assert got.events() == ref.events(), label
        assert got.metrics.to_dict() == ref.metrics.to_dict(), label


@pytest.mark.parametrize("deck_name", DECKS)
def test_replay_is_the_command_path_on_every_machine(deck_name):
    # every factor value; the full matrix runs under -m slow
    # (test_full_matrix_on_every_deck)
    check_replay_is_the_command_path(deck_name, FACTOR_VALUES)


@pytest.mark.slow
@pytest.mark.parametrize("deck_name", DECKS)
def test_full_matrix_on_every_deck(deck_name):
    check_replay_is_the_command_path(deck_name, MATRIX)


def test_command_path_is_taken_while_commands_are_in_flight():
    """A plan assumes an empty queue (depths, batch boundaries): with
    another program still in flight the stager must fall back to
    commands, and account the same traffic."""
    from repro.cell.dma import DMAKind
    from repro.core.streaming import GET_TAGS

    deck = DECKS["cube"]
    config = MachineConfig(aligned_rows=True, double_buffer=True, dma_lists=True,
                           num_spes=1)
    runs = []
    for planned in (False, True):
        with path(planned):
            m = Machine(deck, config)
            bufs = m.buffers[0]
            g = deck.grid
            diagonals = sweep_shape(g.ny, g.nz, deck.mk, deck.mmi).octant(0)[0]
            rows = slice(0, 2)
            built = streaming.plan_cache_info()["built"]
            bufs.issue(
                bufs._program(m.host, diagonals[1], rows, DMAKind.GET, 1,
                              GET_TAGS[1]),
                GET_TAGS[1],
            )
            # queue not empty on entry
            bufs.stage_in(m.host, diagonals[2], rows, 0)
            assert streaming.plan_cache_info()["built"] == built
            m.chip.spes[0].mfc.drain_tag(GET_TAGS[1])
            runs.append((m.stats(), m.events(),
                         bufs.spe.local_store._memory.tobytes()))
    assert runs[0] == runs[1]


# -- solver level ----------------------------------------------------------------


def solver_config(**overrides) -> MachineConfig:
    base = dict(
        aligned_rows=True, double_buffer=True, simd=True, dma_lists=True,
        bank_offsets=True, sync=SyncProtocol.LS_POKE, num_spes=3,
        trace=True, metrics=True,
    )
    base.update(overrides)
    return MachineConfig(**base)


def check_solve_is_observably_identical(deck_name, overrides):
    deck = SOLVE_DECKS[deck_name]
    reference = SerialSweep3D(deck).solve()
    seen = []
    for planned in (False, True):
        with path(planned):
            solver = CellSweep3D(deck, solver_config(**overrides))
            result = solver.solve()
        np.testing.assert_array_equal(result.flux, reference.flux)
        assert result.tally.fixups == reference.tally.fixups
        seen.append((
            [spe.mfc.stats for spe in solver.chip.spes],
            json.dumps(to_chrome_trace(solver.trace), sort_keys=True),
            sanitize(solver.trace),
            solver.metrics.to_dict(),
        ))
    (stats, blob, hazards, metrics), planned_run = seen
    assert planned_run[0] == stats
    assert planned_run[1] == blob
    assert planned_run[2] == hazards == []
    assert planned_run[3] == metrics


@pytest.mark.parametrize(
    "deck_name, overrides",
    [
        ("cube", dict()),
        ("cube", dict(dma_lists=False, num_spes=8, chunk_lines=3)),
        ("cube", dict(double_buffer=False, aligned_rows=False,
                      bank_offsets=False, num_spes=1, chunk_lines=1)),
        ("prime", dict(num_spes=8)),
        ("prime", dict(dma_lists=False, chunk_lines=3)),
        ("material", dict(num_spes=8)),
    ],
)
def test_solve_is_observably_identical(deck_name, overrides):
    check_solve_is_observably_identical(deck_name, overrides)


@pytest.mark.slow
def test_solve_is_observably_identical_on_the_shield_deck():
    check_solve_is_observably_identical("shield", dict(num_spes=8))


# -- the cache -------------------------------------------------------------------


def built() -> int:
    return streaming.plan_cache_info()["built"]


def plain_config(**overrides) -> MachineConfig:
    return solver_config(trace=False, metrics=False, **overrides)


class TestPlanCache:
    def test_second_solver_of_the_same_shape_builds_nothing(self):
        deck = DECKS["cube"]
        streaming.clear_plan_cache()
        before = built()
        CellSweep3D(deck, plain_config()).solve()
        cold = built() - before
        assert cold == streaming.plan_cache_info()["entries"] > 0
        # the seed moves cross sections and the source, never a shape
        again = deck.with_(sigma_t=1.3, scattering_ratio=0.4, source=2.0)
        result = CellSweep3D(again, plain_config()).solve()
        assert built() - before == cold
        np.testing.assert_array_equal(
            result.flux, SerialSweep3D(again).solve().flux
        )

    @pytest.mark.parametrize(
        "deck, plans",
        [
            # the benchmark suite's cell_ref deck (cross sections aside)
            (InputDeck(grid=Grid(16, 16, 16), sn=6, nm=4, mk=16,
                       iterations=1, fixup=True), 824),
            (shield_deck(), 480),
        ],
        ids=["cell_ref", "cell_shield"],
    )
    def test_plans_per_cold_operation(self, deck, plans):
        """One cold solve of a suite deck lowers one plan per distinct
        chunk working set: a diagonal's key and a chunk's rows name
        exactly the rows the chunk stages."""
        from repro.perf.processors import measured_cell_config

        streaming.clear_plan_cache()
        before = built()
        CellSweep3D(deck, measured_cell_config()).solve()
        assert built() - before == streaming.plan_cache_info()["entries"]
        assert built() - before == plans

    @pytest.mark.parametrize(
        "change",
        [
            dict(config=dict(bank_offsets=False)),       # other effective addresses
            dict(config=dict(aligned_rows=False)),       # other row stride
            dict(config=dict(dma_lists=False)),          # other batches
            dict(config=dict(chunk_lines=3)),            # other LS layout
            dict(deck=dict(grid=Grid(6, 7, 6))),         # other deck shape
            dict(chip=dict(spe_code_bytes=32 * 1024)),   # other LS offsets
        ],
        ids=["bank-offsets", "row-stride", "no-lists", "chunk-lines",
             "deck-shape", "ls-offsets"],
    )
    def test_another_layout_never_hits(self, change):
        """Same diagonals and rows, different layout: the first chunk of
        the first diagonal is staged by every solver here, so a key
        that ignored the changed part would replay a stale plan -- and
        the flux or the statistics would show it."""
        deck = DECKS["cube"]
        streaming.clear_plan_cache()
        CellSweep3D(deck, plain_config()).solve()
        warm = built()
        deck2 = deck.with_(**change.get("deck", {}))
        config2 = plain_config(**change.get("config", {}))
        chip = CellBE(num_spes=config2.num_spes, **change.get("chip", {}))
        solver = CellSweep3D(deck2, config2, chip=chip)
        result = solver.solve()
        assert built() > warm
        with streaming._command_path():
            referee = CellSweep3D(
                deck2, config2,
                chip=CellBE(num_spes=config2.num_spes, **change.get("chip", {})),
            )
            expected = referee.solve()
        np.testing.assert_array_equal(result.flux, expected.flux)
        assert [s.mfc.stats for s in solver.chip.spes] == [
            s.mfc.stats for s in referee.chip.spes
        ]

    def test_timing_model_is_part_of_the_key(self):
        """Two chips that differ in the MIC model only share every
        address: the costs must not be shared."""
        deck = DECKS["prime"]
        streaming.clear_plan_cache()
        cycles = []
        for weight in (1.0, 0.25):
            chip = CellBE(num_spes=3)
            chip.memory_timing.bank_weight = weight
            solver = CellSweep3D(deck, plain_config(bank_offsets=False), chip=chip)
            solver.solve()
            cycles.append(sum(s.mfc.stats.cycles for s in chip.spes))
        assert cycles[1] < cycles[0]

    def test_cap_clears_and_rebuilds(self, monkeypatch):
        deck = DECKS["prime"]
        reference = SerialSweep3D(deck).solve()
        monkeypatch.setattr(streaming, "PLAN_CACHE_MAX_ENTRIES", 5)
        streaming.clear_plan_cache()
        before = built()
        solver = CellSweep3D(deck, plain_config())
        result = solver.solve()
        np.testing.assert_array_equal(result.flux, reference.flux)
        info = streaming.plan_cache_info()
        assert info["entries"] <= 5 < built() - before
        with streaming._command_path():
            referee = CellSweep3D(deck, plain_config())
            referee.solve()
        assert [s.mfc.stats for s in solver.chip.spes] == [
            s.mfc.stats for s in referee.chip.spes
        ]

    def test_workers_forked_after_a_warm_parent_build_nothing(self, monkeypatch):
        """Plans are keyed by value, so the cache a worker inherits at
        fork is warm for the solver it builds on bind.  (An explicit
        persistent pool, which is what ``pool="keep"`` resolves to, so
        that the fork provably happens after the warm-up.)"""
        lowered = multiprocessing.Value("i", 0)
        real = ChunkBuffers._lower

        def counting(self, *args):
            with lowered.get_lock():
                lowered.value += 1
            return real(self, *args)

        monkeypatch.setattr(ChunkBuffers, "_lower", counting)
        deck = DECKS["cube"]
        streaming.clear_plan_cache()
        serial = CellSweep3D(deck, plain_config()).solve()
        assert lowered.value > 0
        lowered.value = 0
        with PersistentPool(persistent=True) as pool:
            with CellSweep3D(deck, plain_config(), workers=2, pool=pool) as solver:
                pooled = solver.solve()
            assert pool.metrics.get("parallel.pool.workers.forked") == 1
        np.testing.assert_array_equal(pooled.flux, serial.flux)
        assert lowered.value == 0
