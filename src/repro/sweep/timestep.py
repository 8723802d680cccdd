"""Time-dependent transport: the outer time-step loop of Sec. 3.

"The analysis computes the evolution of the flux of particles over
time, by computing the current state of a cell in a time-step as a
function of its state and the states of its neighbors in the previous
time-step ...  There are several iterations for each time step, until
the solution converges."

We implement the standard backward-Euler (implicit) time
discretisation of the transport equation

    (1/v) d(psi)/dt + L psi = S

which turns each time step into a *steady* problem with an augmented
total cross section and an extra source:

    sigma_t' = sigma_t + 1 / (v dt)
    q'       = q + psi_prev / (v dt)

The previous-step angular flux enters as a source.  Storing the full
angular flux (nm x cells x ordinates) is what the original code does;
here we use the common isotropic-closure economy: the time source is
carried through the flux *moments* (exact for the n=0 balance,
approximate for higher moments), documented as such.  Tests pin the two
exact limits: dt -> infinity recovers the steady solve, and the step
response rises monotonically to the steady state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InputDeckError
from .flux import SolveResult, SweepTally, source_iteration
from .input import InputDeck
from .moments import build_moment_source
from .serial import SerialSweep3D


@dataclass
class TimeStepResult:
    """State after one time step."""

    time: float
    flux: np.ndarray
    tally: SweepTally
    inner_iterations: int


@dataclass
class TransientResult:
    """The whole transient."""

    steps: list[TimeStepResult] = field(default_factory=list)

    @property
    def times(self) -> list[float]:
        return [s.time for s in self.steps]

    @property
    def total_flux_history(self) -> list[float]:
        return [float(s.flux[0].sum()) for s in self.steps]

    @property
    def final(self) -> TimeStepResult:
        if not self.steps:
            raise InputDeckError("transient has no steps")
        return self.steps[-1]


class TimeDependentSweep3D:
    """Backward-Euler transient driver over the steady solver.

    Parameters
    ----------
    deck:
        The spatial/angular problem (its ``iterations``/``epsilon``
        control the *inner* source iteration per time step, exactly as
        a steady solve: an unmet epsilon raises).
    velocity:
        Particle speed ``v`` in the ``1/(v dt)`` time-absorption term.
    dt:
        Time-step size.
    """

    def __init__(self, deck: InputDeck, velocity: float = 1.0, dt: float = 0.1):
        if velocity <= 0:
            raise InputDeckError(f"velocity must be > 0, got {velocity}")
        if dt <= 0:
            raise InputDeckError(f"dt must be > 0, got {dt}")
        self.deck = deck
        self.velocity = velocity
        self.dt = dt
        #: the augmented steady deck solved each step.  The scattering
        #: cross section is *absolute* physics and must not grow with the
        #: time-absorption term, so the ratio is rescaled to keep
        #: sigma_s' == sigma_s.
        aug = 1.0 / (velocity * dt)
        sigma_t_aug = deck.sigma_t + aug
        changes = dict(
            sigma_t=sigma_t_aug,
            scattering_ratio=deck.sigma_s / sigma_t_aug,
        )
        if deck.material_box is not None:
            m_aug = deck.material_sigma_t + aug
            changes["material_sigma_t"] = m_aug
            changes["material_scattering_ratio"] = (
                deck.material_sigma_t * deck.material_scattering_ratio / m_aug
            )
        self.step_deck = deck.with_(**changes)
        self._solver = SerialSweep3D(self.step_deck)

    @property
    def time_absorption(self) -> float:
        """The ``1/(v dt)`` augmentation of the total cross section."""
        return 1.0 / (self.velocity * self.dt)

    def _step(
        self, flux_prev: np.ndarray, psi_prev: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, SweepTally, int]:
        """One implicit step: inner source iteration with the previous
        step's *angular* flux feeding the time source -- the exact
        backward-Euler fixed point (a converged step with
        ``psi == psi_prev`` reproduces the steady equation exactly)."""
        solver = self._solver
        time_source = self.time_absorption * psi_prev
        psi = psi_prev

        def sweep(msrc: np.ndarray) -> tuple[np.ndarray, SweepTally]:
            nonlocal psi
            flux, tally, psi = solver.sweep_angular(
                msrc, angular_source=time_source
            )
            return flux, tally

        result = source_iteration(self.step_deck, sweep, flux=flux_prev)
        return result.flux, psi, result.tally, result.iterations

    def run(self, num_steps: int, flux0: np.ndarray | None = None) -> TransientResult:
        """Advance ``num_steps`` from ``flux0`` (default: cold start).

        When warm-starting from a flux, the initial angular flux is
        reconstructed by one steady sweep of that flux's sources (exact
        for a steady state)."""
        if num_steps < 1:
            raise InputDeckError(f"num_steps must be >= 1, got {num_steps}")
        deck = self.deck
        M = self._solver.quad.num_ordinates
        if flux0 is None:
            flux = np.zeros((deck.nm, *deck.grid.shape))
            psi = np.zeros((M, *deck.grid.shape))
        else:
            flux = flux0.copy()
            steady = SerialSweep3D(self.deck)
            _, _, psi = steady.sweep_angular(build_moment_source(deck, flux))
        out = TransientResult()
        t = 0.0
        for _ in range(num_steps):
            t += self.dt
            flux, psi, tally, inner = self._step(flux, psi)
            out.steps.append(TimeStepResult(t, flux, tally, inner))
        return out

    def steady_state(self) -> SolveResult:
        """The ``dt -> infinity`` reference: the plain steady solve."""
        return SerialSweep3D(self.deck).solve()
