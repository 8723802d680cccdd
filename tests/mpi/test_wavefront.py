"""Experiment C2: the KBA wavefront solve equals the serial reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.mpi import KBASweep3D
from repro.mpi.wavefront import _tag
from repro.sweep import SerialSweep3D, small_deck, verify


@pytest.fixture(scope="module")
def deck():
    return small_deck(n=6, sn=4, nm=2, iterations=3, mk=3)


@pytest.fixture(scope="module")
def serial_result(deck):
    return SerialSweep3D(deck).solve()


class TestEquivalence:
    @pytest.mark.parametrize("P,Q", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
    def test_flux_matches_serial_exactly(self, deck, serial_result, P, Q):
        """Same cells, same upstream data, same operations: the parallel
        flux must be bitwise equal to the serial flux."""
        kba = KBASweep3D(deck, P=P, Q=Q).solve()
        np.testing.assert_array_equal(kba.flux, serial_result.flux)

    def test_tally_matches(self, deck, serial_result):
        kba = KBASweep3D(deck, P=2, Q=2).solve()
        assert kba.tally.fixups == serial_result.tally.fixups
        assert kba.tally.leakage == pytest.approx(
            serial_result.tally.leakage, rel=1e-12
        )

    def test_history_matches(self, deck, serial_result):
        kba = KBASweep3D(deck, P=2, Q=2).solve()
        np.testing.assert_allclose(kba.history, serial_result.history, rtol=1e-12)

    def test_uneven_partition(self):
        """7 cells over 3 columns exercises the remainder path."""
        deck = small_deck(n=7, sn=4, nm=1, iterations=2, mk=7)
        serial = SerialSweep3D(deck).solve()
        kba = KBASweep3D(deck, P=3, Q=2).solve()
        np.testing.assert_array_equal(kba.flux, serial.flux)

    def test_with_fixups_active(self):
        deck = small_deck(n=6, sn=4, nm=1, iterations=2, fixup=True, mk=2).with_(
            sigma_t=5.0
        )
        serial = SerialSweep3D(deck).solve()
        kba = KBASweep3D(deck, P=2, Q=2).solve()
        np.testing.assert_array_equal(kba.flux, serial.flux)
        assert kba.tally.fixups == serial.tally.fixups

    def test_physics_hold_in_parallel(self, deck):
        kba = KBASweep3D(deck, P=2, Q=2).solve()
        result = kba
        assert verify.positivity_violation(result) == 0.0
        assert verify.symmetry_error(result, transpose=False) < 1e-12


class TestValidation:
    def test_process_grid_cannot_exceed_cells(self):
        deck = small_deck(n=4, sn=2, nm=1, iterations=1, mk=2)
        with pytest.raises(CommunicatorError):
            KBASweep3D(deck, P=5, Q=1)
        # a half-given grid is an error, never a guessed 2x2
        with pytest.raises(TypeError):
            KBASweep3D(deck, P=4)

    def test_plan_covers_domain(self):
        deck = small_deck(n=7, sn=2, nm=1, iterations=1, mk=7)
        kba = KBASweep3D(deck, P=3, Q=2)
        cells = np.zeros((7, 7), dtype=int)
        for rank in range(kba.cart.size):
            plan = kba.plan(rank)
            cells[plan.x0 : plan.x0 + plan.nx, plan.y0 : plan.y0 + plan.ny] += 1
        assert (cells == 1).all()

    def test_tag_uniqueness(self):
        tags = {
            _tag(axis, octant, ablock, kb)
            for axis in (0, 1)
            for octant in range(8)
            for ablock in range(6)
            for kb in range(16)
        }
        assert len(tags) == 2 * 8 * 6 * 16
