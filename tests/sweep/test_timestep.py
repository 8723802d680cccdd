"""Tests for the time-dependent driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InputDeckError
from repro.sweep import small_deck
from repro.sweep.timestep import TimeDependentSweep3D


def transient_deck(n: int, sn: int):
    # a well-converged inner iteration per step
    return small_deck(n=n, sn=sn, nm=1, iterations=12, mk=n).with_(
        scattering_ratio=0.3
    )


@pytest.fixture(scope="module")
def deck():
    return transient_deck(4, 2)


class TestValidation:
    def test_velocity_positive(self, deck):
        with pytest.raises(InputDeckError):
            TimeDependentSweep3D(deck, velocity=0.0)

    def test_dt_positive(self, deck):
        with pytest.raises(InputDeckError):
            TimeDependentSweep3D(deck, dt=-1.0)

    def test_steps_positive(self, deck):
        with pytest.raises(InputDeckError):
            TimeDependentSweep3D(deck).run(0)

    def test_augmented_cross_section(self, deck):
        td = TimeDependentSweep3D(deck, velocity=2.0, dt=0.5)
        assert td.time_absorption == pytest.approx(1.0)
        assert td.step_deck.sigma_t == pytest.approx(deck.sigma_t + 1.0)


class TestTransientPhysics:
    def test_cold_start_rises_monotonically(self, deck):
        """Step response from zero flux: the total flux grows toward the
        steady state without overshoot (backward Euler is L-stable)."""
        td = TimeDependentSweep3D(deck, dt=0.5)
        transient = td.run(8)
        totals = transient.total_flux_history
        assert all(a < b for a, b in zip(totals, totals[1:]))
        steady_total = td.steady_state().total_scalar_flux()
        assert all(t < steady_total * 1.001 for t in totals)

    def test_converges_to_steady_state(self, deck):
        td = TimeDependentSweep3D(deck, dt=2.0)
        transient = td.run(30)
        steady = td.steady_state()
        final = transient.final.flux[0]
        rel = np.max(np.abs(final - steady.flux[0])) / np.max(steady.flux[0])
        assert rel < 5e-3

    def test_huge_dt_is_a_steady_solve(self, deck):
        """dt -> infinity removes the time terms entirely."""
        td = TimeDependentSweep3D(deck, dt=1e12)
        transient = td.run(1)
        steady = td.steady_state()
        np.testing.assert_allclose(
            transient.final.flux, steady.flux, rtol=1e-6
        )

    def test_smaller_dt_rises_slower(self, deck):
        fast = TimeDependentSweep3D(deck, dt=1.0).run(2)
        slow = TimeDependentSweep3D(deck, dt=0.25).run(2)
        assert slow.total_flux_history[-1] < fast.total_flux_history[-1]

    def test_warm_start_from_steady_state_stays_there(self, deck):
        td = TimeDependentSweep3D(deck, dt=0.5)
        steady = td.steady_state()
        transient = td.run(2, flux0=steady.flux)
        for step in transient.steps:
            rel = np.max(np.abs(step.flux[0] - steady.flux[0])) / np.max(
                steady.flux[0]
            )
            assert rel < 5e-3

    def test_velocity_scales_the_transient(self, deck):
        """Faster particles reach steady state in fewer time units."""
        fast = TimeDependentSweep3D(deck, velocity=10.0, dt=0.5).run(3)
        slow = TimeDependentSweep3D(deck, velocity=0.1, dt=0.5).run(3)
        assert slow.total_flux_history[-1] < fast.total_flux_history[-1]

    def test_result_bookkeeping(self, deck):
        transient = TimeDependentSweep3D(deck, dt=0.5).run(3)
        assert transient.times == pytest.approx([0.5, 1.0, 1.5])
        assert all(s.inner_iterations >= 1 for s in transient.steps)


@pytest.mark.slow
class TestTransientPhysicsFiveCubed(TestTransientPhysics):
    """The same physics on a 5^3 S4 deck (about 4x the sweeps' cost)."""

    @pytest.fixture(scope="class")
    def deck(self):
        return transient_deck(5, 4)
