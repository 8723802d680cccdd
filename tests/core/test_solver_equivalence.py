"""Experiment C1: the Cell-simulated solve equals the serial reference.

This is the reproduction's keystone: Sweep3D running through simulated
local stores, validated DMA programs, mailbox/LS-poke scheduling and the
MK/MMI pipelined loop structure must produce *bit-identical* fluxes to
the plain serial solver, under every machine configuration of the
Figure-5 ladder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.levels import MachineConfig, SchedulerKind, SyncProtocol
from repro.core.solver import CellSweep3D
from repro.errors import ConfigurationError, SweepError
from repro.sweep import SerialSweep3D, small_deck, verify


@pytest.fixture(scope="module")
def deck():
    return small_deck(n=6, sn=4, nm=2, iterations=2, mk=3)


@pytest.fixture(scope="module")
def reference(deck):
    return SerialSweep3D(deck).solve()


LADDER_CONFIGS = {
    "spe-offload": MachineConfig(),
    "aligned": MachineConfig(aligned_rows=True, structured_loops=True),
    "double-buffer": MachineConfig(
        aligned_rows=True, structured_loops=True, double_buffer=True
    ),
    "simd": MachineConfig(
        aligned_rows=True, structured_loops=True, double_buffer=True, simd=True
    ),
    "dma-lists": MachineConfig(
        aligned_rows=True, structured_loops=True, double_buffer=True,
        simd=True, dma_lists=True, bank_offsets=True,
    ),
    "ls-poke": MachineConfig(
        aligned_rows=True, structured_loops=True, double_buffer=True,
        simd=True, dma_lists=True, bank_offsets=True,
        sync=SyncProtocol.LS_POKE,
    ),
    "distributed": MachineConfig(
        aligned_rows=True, structured_loops=True, double_buffer=True,
        simd=True, dma_lists=True, bank_offsets=True,
        sync=SyncProtocol.LS_POKE, scheduler=SchedulerKind.DISTRIBUTED,
    ),
}


class TestEquivalence:
    @pytest.mark.parametrize("name", list(LADDER_CONFIGS))
    def test_ladder_config_bitwise_equal(self, deck, reference, name):
        result = CellSweep3D(deck, LADDER_CONFIGS[name]).solve()
        np.testing.assert_array_equal(result.flux, reference.flux)
        assert result.tally.fixups == reference.tally.fixups

    def test_leakage_matches(self, deck, reference):
        result = CellSweep3D(deck, LADDER_CONFIGS["ls-poke"]).solve()
        assert result.tally.leakage == pytest.approx(
            reference.tally.leakage, rel=1e-12
        )

    def test_history_matches(self, deck, reference):
        result = CellSweep3D(deck, LADDER_CONFIGS["simd"]).solve()
        np.testing.assert_allclose(result.history, reference.history, rtol=1e-13)

    def test_with_fixups_firing(self):
        """A point source in a thick medium exercises the fixup path end
        to end through the DMA-staged execution."""
        deck = small_deck(n=6, sn=4, nm=1, iterations=1, fixup=True, mk=2).with_(
            sigma_t=5.0, scattering_ratio=0.0
        )
        msrc = np.zeros((1, 6, 6, 6))
        msrc[0, 0, 0, 0] = 100.0
        ref_flux, ref_tally = SerialSweep3D(deck).sweep_once(msrc)
        cell = CellSweep3D(deck, LADDER_CONFIGS["ls-poke"])
        got_flux, got_tally = cell.sweep_once(msrc)
        assert ref_tally.fixups > 0
        assert got_tally.fixups == ref_tally.fixups
        np.testing.assert_array_equal(got_flux, ref_flux)

    def test_odd_sizes_and_partial_chunks(self):
        """Non-multiples of 4x8 lines exercise tail chunks."""
        deck = small_deck(n=5, sn=4, nm=1, iterations=1, mk=5)
        ref = SerialSweep3D(deck).solve()
        got = CellSweep3D(deck, MachineConfig(chunk_lines=3)).solve()
        np.testing.assert_array_equal(got.flux, ref.flux)

    def test_fewer_spes(self):
        deck = small_deck(n=5, sn=4, nm=1, iterations=1, mk=5)
        ref = SerialSweep3D(deck).solve()
        got = CellSweep3D(deck, MachineConfig(num_spes=3)).solve()
        np.testing.assert_array_equal(got.flux, ref.flux)

    def test_physics_invariants_hold(self, deck):
        result = CellSweep3D(deck, LADDER_CONFIGS["ls-poke"]).solve()
        assert verify.positivity_violation(result) == 0.0
        assert verify.symmetry_error(result, transpose=False) < 1e-12


class TestMachineAccounting:
    def test_dma_traffic_recorded(self, deck):
        solver = CellSweep3D(deck, LADDER_CONFIGS["ls-poke"])
        solver.solve()
        traffic = solver.chip.traffic()
        assert traffic.bytes_get > 0 and traffic.bytes_put > 0
        # small decks have short diagonals, so the cyclic assignment only
        # reaches the leading SPEs -- exactly the Figure 9 imbalance; at
        # least the first SPE always works.
        assert solver.chip.spes[0].mfc.stats.commands > 0

    def test_counted_bytes_match_functional_traffic(self, deck):
        """The closed-form byte count used by the timing model must match
        the bytes the functional simulation actually moved."""
        from repro.perf.counters import solve_dma_bytes

        config = LADDER_CONFIGS["ls-poke"]
        solver = CellSweep3D(deck, config)
        solver.solve()
        functional = solver.chip.traffic().total_bytes
        counted = solve_dma_bytes(deck, config)
        assert functional == pytest.approx(counted, rel=1e-12)

    def test_scheduler_stats(self, deck):
        solver = CellSweep3D(deck, LADDER_CONFIGS["ls-poke"])
        solver.solve()
        assert solver.scheduler.chunks_dispatched > 0

    def test_transfer_element_sizes_are_row_sized(self, deck):
        """Sec. 6 characterizes the implementation's traffic as lists of
        row-sized DMAs (512 B at 50-cubed); on this deck the dominant
        element must likewise be the aligned row."""
        solver = CellSweep3D(deck, LADDER_CONFIGS["ls-poke"])
        solver.solve()
        stats = solver.chip.spes[0].mfc.stats
        assert stats.dominant_element_size() == solver.host.row_bytes
        # at the paper's 50-cubed size, rows are exactly 512 bytes
        from repro.core.porting import HostState
        from repro.cell.chip import CellBE
        from repro.sweep.input import benchmark_deck

        host50 = HostState(
            benchmark_deck(fixup=False), LADDER_CONFIGS["ls-poke"], CellBE(num_spes=1)
        )
        assert host50.row_bytes == 512

    def test_ppe_only_config_rejected(self, deck):
        with pytest.raises(ConfigurationError):
            CellSweep3D(deck, MachineConfig(num_spes=0))

    def test_bad_moment_source_shape(self, deck):
        solver = CellSweep3D(deck, MachineConfig())
        with pytest.raises(SweepError):
            solver.sweep_once(np.zeros((deck.nm, 2, 2, 2)))

    def test_timing_bridge(self, deck):
        report = CellSweep3D(deck, LADDER_CONFIGS["ls-poke"]).timing()
        assert report.seconds > 0
        assert report.dma_bytes > 0


@pytest.mark.slow
def test_benchmark_deck_two_iterations_match_serial_reference():
    """The paper's 50-cubed deck, two iterations, through the measured
    Cell configuration: hundreds of lines per jkm diagonal instead of
    the test decks' tens.  The first sweep simulates one unit per J and
    K direction chunk by chunk and records its schedule; the other
    units and the whole second sweep replay, so the second sweep must
    add exactly the traffic the first one did, ``cycles`` bit for bit.  ``timing()`` is the analytic model (it reads no sweep or MFC
    state), so its pin guards the model, not the replay.  Seconds, not
    a fraction of one, so it runs under ``-m slow`` (its own CI step),
    not in the default selection."""
    import dataclasses

    from repro.core import streaming
    from repro.perf.processors import measured_cell_config
    from repro.serve.runner import flux_digest
    from repro.sweep.input import benchmark_deck

    deck = dataclasses.replace(benchmark_deck(fixup=False), iterations=2)
    recorded = streaming.schedule_cache_info()["recorded"]
    with CellSweep3D(deck, measured_cell_config()) as solver:
        traffic = []
        sweep_once = solver.sweep_once

        def counted(moment_source):
            out = sweep_once(moment_source)
            traffic.append([
                (s.commands, s.list_elements, s.bytes_get, s.bytes_put,
                 s.cycles)
                for s in (spe.mfc.stats for spe in solver.chip.spes)
            ])
            return out

        solver.sweep_once = counted
        result = solver.solve()
    units = len(solver.units)
    assert solver.replayed_units == 2 * units - 4
    assert streaming.schedule_cache_info()["recorded"] - recorded == 4
    assert flux_digest(result.flux) == flux_digest(
        SerialSweep3D(deck).solve().flux
    )
    assert solver.timing().seconds == 0.1694465036
    first, both = traffic
    # every batch costs whole cycles here, so the float deltas are exact
    assert [
        tuple(b - a for a, b in zip(one[:4], two[:4]))
        + ((two[4] - one[4]).hex(),)
        for one, two in zip(first, both)
    ] == [one[:4] + (one[4].hex(),) for one in first]
