"""Tests for reflective boundary conditions (extension beyond the
paper's vacuum-only benchmark).

Gold standard: a symmetric 2N-cube vacuum problem equals an N-cube with
reflective low faces restricted to the high-corner octant.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InputDeckError, SweepError
from repro.sweep import SerialSweep3D, TileSweeper, small_deck, verify
from repro.sweep.geometry import Grid


def half_deck(full, reflect=(True, True, True)):
    n = full.grid.nx // 2
    return full.with_(grid=Grid.cube(n), mk=min(full.mk, n), reflect_low=reflect)


class TestSymmetryEquivalence:
    @pytest.mark.parametrize("nm", [1, 2])
    def test_octant_equivalence_all_axes(self, nm):
        full = small_deck(n=8, sn=4, nm=nm, iterations=3, mk=2)
        half = half_deck(full)
        rf = SerialSweep3D(full).solve()
        rh = SerialSweep3D(half).solve()
        corner = rf.flux[:, 4:, 4:, 4:]
        np.testing.assert_allclose(rh.flux, corner, rtol=1e-12, atol=1e-14)

    def test_octant_leakage_is_one_eighth(self):
        full = small_deck(n=8, sn=4, nm=1, iterations=3, mk=2)
        half = half_deck(full)
        rf = SerialSweep3D(full).solve()
        rh = SerialSweep3D(half).solve()
        assert 8 * rh.tally.leakage == pytest.approx(rf.tally.leakage, rel=1e-12)

    def test_single_axis_reflection(self):
        """Reflecting only x: a 2N x N x N vacuum slab's high-x half."""
        full = small_deck(n=6, sn=4, nm=1, iterations=2, mk=3).with_(
            grid=Grid(12, 6, 6)
        )
        half = full.with_(grid=Grid.cube(6), reflect_low=(True, False, False))
        rf = SerialSweep3D(full).solve()
        rh = SerialSweep3D(half).solve()
        np.testing.assert_allclose(
            rh.flux, rf.flux[:, 6:, :, :], rtol=1e-12, atol=1e-14
        )

    def test_with_fixups(self):
        full = small_deck(n=8, sn=4, nm=1, iterations=2, mk=2, fixup=True).with_(
            sigma_t=5.0
        )
        half = half_deck(full)
        rf = SerialSweep3D(full).solve()
        rh = SerialSweep3D(half).solve()
        np.testing.assert_allclose(
            rh.flux, rf.flux[:, 4:, 4:, 4:], rtol=1e-12, atol=1e-14
        )


class TestPhysicsWithReflection:
    def test_balance_holds(self):
        deck = small_deck(n=6, sn=4, nm=1, iterations=1, fixup=False).with_(
            scattering_ratio=0.0, reflect_low=(True, True, True), mk=3
        )
        result = SerialSweep3D(deck).solve()
        assert verify.balance_residual(deck, result) < 1e-12

    def test_reflection_raises_flux(self):
        base = small_deck(n=6, sn=4, nm=1, iterations=4, mk=3)
        vac = SerialSweep3D(base).solve()
        ref = SerialSweep3D(
            base.with_(reflect_low=(True, True, True))
        ).solve()
        assert ref.total_scalar_flux() > vac.total_scalar_flux()

    def test_flux_peaks_at_reflective_corner(self):
        deck = small_deck(n=6, sn=4, nm=1, iterations=6, mk=3).with_(
            reflect_low=(True, True, True)
        )
        phi = SerialSweep3D(deck).solve().scalar_flux
        assert phi[0, 0, 0] == phi.max()
        assert phi[-1, -1, -1] == phi.min()


class TestValidationAndGuards:
    def test_deck_validation(self):
        with pytest.raises(InputDeckError):
            small_deck().with_(reflect_low=(1, 0, 0))
        with pytest.raises(InputDeckError):
            small_deck().with_(reflect_low=(True, True))

    def test_tile_sweeper_rejects_reflection(self):
        deck = small_deck(n=4, sn=2, nm=1, mk=2).with_(
            reflect_low=(True, False, False)
        )
        with pytest.raises(SweepError, match="hyperplane"):
            TileSweeper(deck).sweep(np.zeros((1, 4, 4, 4)))

    def test_cell_solver_rejects_reflection(self):
        from repro.core import CellSweep3D, MachineConfig

        deck = small_deck(n=4, sn=2, nm=1, mk=2).with_(
            reflect_low=(True, False, False)
        )
        with pytest.raises(SweepError, match="hyperplane"):
            CellSweep3D(deck, MachineConfig())

    def test_mirror_ordinate_involution(self):
        solver = SerialSweep3D(small_deck(n=4, sn=6, nm=1, mk=2))
        for m in range(solver.quad.num_ordinates):
            for axis in range(3):
                mm = solver._mirror_ordinate(m, axis)
                assert solver._mirror_ordinate(mm, axis) == m
                # mirrored ordinate flips exactly the one cosine
                comps = [solver.quad.mu, solver.quad.eta, solver.quad.xi]
                for ax2, comp in enumerate(comps):
                    if ax2 == axis:
                        assert comp[mm] == pytest.approx(-comp[m])
                    else:
                        assert comp[mm] == pytest.approx(comp[m])
