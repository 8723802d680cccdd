"""Tests for the SIMDized SPE kernel: bitwise equivalence (the keystone
of the reproduction) and the Sec. 5.1 cycle properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spe_kernel import (
    LOGICAL_THREADS,
    cells_per_invocation,
    cycles_per_cell,
    kernel_cycle_report,
    simd_execute_block,
)
from repro.errors import ConfigurationError
from repro.sweep.kernel import dd_line_block_solve


def make_args(rng, L=11, it=6, fixup=True, thick=False) -> dict:
    """Random line-kernel arguments; ``thick`` makes fixups frequent."""
    scale = 0.05 if thick else 1.0
    return dict(
        source=rng.random((L, it)) * scale,
        sigma_t=8.0 if thick else 1.0,
        phi_i_in=rng.random(L) * (5.0 if thick else 1.0),
        phi_j=rng.random((L, it)),
        phi_k=rng.random((L, it)),
        cx=rng.random(L) + 0.1,
        cy=rng.random(L) + 0.1,
        cz=rng.random(L) + 0.1,
        fixup=fixup,
    )


def clone(args: dict) -> dict:
    """Own face buffers: every kernel writes its outflows into them."""
    return {**args, "phi_j": args["phi_j"].copy(), "phi_k": args["phi_k"].copy()}


class TestBitwiseEquivalence:
    """The SIMD kernel must reproduce the NumPy reference *bit for bit*:
    this is the link between the paper's hand-written SPU code and the
    verified transport solver."""

    @pytest.mark.parametrize("fixup,thick", [(False, False), (True, False), (True, True)])
    def test_matches_reference(self, rng, fixup, thick):
        ref = make_args(rng, fixup=fixup, thick=thick)
        simd = clone(ref)
        psi_ref, pi_ref, fx_ref = dd_line_block_solve(**ref)
        psi_simd, pi_simd, fx_simd = simd_execute_block(**simd)
        np.testing.assert_array_equal(psi_ref, psi_simd)
        np.testing.assert_array_equal(pi_ref, pi_simd)
        np.testing.assert_array_equal(ref["phi_j"], simd["phi_j"])
        np.testing.assert_array_equal(ref["phi_k"], simd["phi_k"])
        assert fx_ref == fx_simd

    @given(st.integers(min_value=1, max_value=17), st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_any_block_shape(self, L, it):
        """Padding to the 4-thread x 2-lane group must never leak into
        real lines."""
        rng = np.random.default_rng(L * 100 + it)
        ref = make_args(rng, L=L, it=it, fixup=True, thick=True)
        simd = clone(ref)
        psi_ref, pi_ref, fx_ref = dd_line_block_solve(**ref)
        psi_simd, pi_simd, fx_simd = simd_execute_block(**simd)
        np.testing.assert_array_equal(psi_ref, psi_simd)
        np.testing.assert_array_equal(pi_ref, pi_simd)
        assert fx_ref == fx_simd

    def test_full_solve_through_simd_executor(self):
        """A complete solve through the interpreted ISA kernel equals the
        reference tile solve (slow: smallest meaningful deck)."""
        from repro.core import CellSweep3D, MachineConfig
        from repro.sweep import SerialSweep3D, small_deck

        deck = small_deck(n=4, sn=2, nm=1, iterations=2, mk=2, mmi=1)
        ref = SerialSweep3D(deck, method="tile").solve()
        config = MachineConfig(simd=True, isa_kernel=True, compile_isa=False)
        simd = CellSweep3D(deck, config).solve()
        np.testing.assert_array_equal(ref.flux, simd.flux)


class TestCycleReports:
    """Sec. 5.1's quantitative claims as emergent model properties."""

    def test_dp_kernel_near_64_percent_of_peak(self):
        # "equivalent to 64% of the theoretical peak performance in the
        # do_fixup off case"
        report = kernel_cycle_report(nm=4, fixup=False, double=True)
        assert report.efficiency(double=True) == pytest.approx(0.64, abs=0.05)

    def test_sp_kernel_near_25_percent_of_peak(self):
        # "our efficiency reaches a still-respectable 25%"
        report = kernel_cycle_report(nm=4, fixup=False, double=False)
        assert report.efficiency(double=False) == pytest.approx(0.25, abs=0.04)

    def test_fixup_kernel_roughly_3x_slower(self):
        # paper: 1690 / 590 = 2.86x at the same useful flop count
        plain = kernel_cycle_report(nm=4, fixup=False)
        fixed = kernel_cycle_report(nm=4, fixup=True)
        ratio = fixed.cycles / plain.cycles
        assert 2.5 < ratio < 4.5

    def test_dual_issue_rate_is_low(self):
        # "roughly 5% of the cycles are successfully issuing two commands"
        report = kernel_cycle_report(nm=4, fixup=False)
        assert 0.02 < report.dual_issue_rate < 0.12

    def test_dp_gflops_per_spu_near_paper(self):
        # 64% of 1.83 Gflop/s per SPU = 1.17; x8 SPEs = 9.3 Gflop/s
        report = kernel_cycle_report(nm=4, fixup=False)
        assert report.gflops() * 8 == pytest.approx(9.3, rel=0.1)

    def test_sp_schedule_beats_dp(self):
        dp = kernel_cycle_report(nm=4, fixup=False, double=True)
        sp = kernel_cycle_report(nm=4, fixup=False, double=False)
        # SP advances 2x the cells in far fewer cycles
        assert sp.cycles < dp.cycles

    def test_logical_threads_hide_latency(self):
        """Four interleaved threads must use issue slots better than a
        single chain -- the pipeline-parallelism level's whole point."""
        one = kernel_cycle_report(nm=4, fixup=False, logical_threads=1)
        four = kernel_cycle_report(nm=4, fixup=False, logical_threads=4)
        assert four.cycles < 4 * one.cycles

    def test_invalid_thread_count(self):
        with pytest.raises(ConfigurationError):
            kernel_cycle_report(logical_threads=0)


class TestCyclesPerCell:
    def test_simd_advances_eight_cells_dp(self):
        assert cells_per_invocation(double=True) == 8
        assert cells_per_invocation(double=False) == 16

    def test_simd_faster_than_scalar(self):
        simd = cycles_per_cell(nm=4, fixup=False, simd=True)
        scalar = cycles_per_cell(nm=4, fixup=False, simd=False)
        assert simd < scalar / 2

    def test_pipelined_dp_faster(self):
        base = cycles_per_cell(nm=4, fixup=False)
        what_if = cycles_per_cell(nm=4, fixup=False, pipelined_dp=True)
        assert what_if < base

    def test_single_precision_fastest(self):
        dp = cycles_per_cell(nm=4, fixup=False, double=True)
        sp = cycles_per_cell(nm=4, fixup=False, double=False)
        assert sp < dp / 2
