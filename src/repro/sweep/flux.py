"""Flux containers, the convergence rule and the one source iteration.

:func:`source_iteration` is the driver loop of every engine (serial,
Cell-simulated, KBA rank, transient step, DSA): the engines are sweeps,
and Sweep3D's ``epsi`` iteration control lives here once, in
:class:`Convergence` -- which the cluster barrier reuses on the
max-allreduce of its ranks' ``(diff, scale)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConvergenceError
from . import moments


@dataclass
class SweepTally:
    """Per-sweep bookkeeping: fixups and boundary leakage."""

    fixups: int = 0
    leakage: float = 0.0


@dataclass
class SolveResult:
    """The outcome of a full source-iteration solve.

    Attributes
    ----------
    flux:
        Flux moments, shape ``(nm, nx, ny, nz)``; ``flux[0]`` is the
        scalar flux.
    iterations:
        Sweep iterations actually performed.
    history:
        Per-iteration relative change of the scalar flux.
    tally:
        Aggregated fixup count and final-iteration leakage.
    converged:
        True when an epsilon was set and met within the allowed
        iterations (always True in fixed-iteration mode); False for a
        cluster job drained at an iteration boundary.
    """

    flux: np.ndarray
    iterations: int
    history: list[float] = field(default_factory=list)
    tally: SweepTally = field(default_factory=SweepTally)
    converged: bool = True

    @property
    def scalar_flux(self) -> np.ndarray:
        return self.flux[0]

    def total_scalar_flux(self, cell_volume: float = 1.0) -> float:
        """Volume-integrated scalar flux (for balance checks)."""
        return float(self.flux[0].sum()) * cell_volume


def flux_digest(flux: np.ndarray) -> str:
    """SHA-256 over the flux array's exact bytes -- the bit-identity
    fingerprint every cross-engine and cross-transport referee compares."""
    return hashlib.sha256(np.ascontiguousarray(flux).tobytes()).hexdigest()


def relative_change(diff: float, scale: float) -> float:
    """Sweep3D's ``epsi`` convergence measure from its two max-norms:
    the largest pointwise change of the scalar flux over the largest new
    flux, 0 when the new flux is identically 0."""
    return diff / scale if scale else 0.0


@dataclass
class Convergence:
    """The iteration control of one solve: the per-iteration history and
    the one stop rule, ``relative change < epsilon``.

    Single-process solves feed it their own ``(diff, scale)``; a
    cluster job feeds it the max over ranks at the iteration barrier
    and also marks a drain there (:mod:`repro.cluster.driver`).
    """

    epsilon: float | None
    history: list[float] = field(default_factory=list)
    met: bool = False
    drained: bool = False

    def record(self, diff: float, scale: float) -> bool:
        """Log one iteration's change; True once it meets epsilon."""
        change = relative_change(diff, scale)
        self.history.append(change)
        self.met = self.epsilon is not None and change < self.epsilon
        return self.met

    def result(self, flux: np.ndarray, tally: SweepTally) -> SolveResult:
        """The solve's outcome; raises :class:`ConvergenceError` when an
        epsilon was set and the budget ran out before it was met (a
        drained job is returned unconverged instead)."""
        if self.epsilon is not None and not (self.met or self.drained):
            raise ConvergenceError(
                f"no convergence to {self.epsilon} within "
                f"{len(self.history)} iterations "
                f"(last change {self.history[-1]:.3e})"
            )
        return SolveResult(
            flux=flux,
            iterations=len(self.history),
            history=self.history,
            tally=tally,
            converged=not self.drained and (self.epsilon is None or self.met),
        )


def source_iteration(
    deck,
    sweep: Callable[[np.ndarray], tuple[np.ndarray, SweepTally]],
    flux: np.ndarray | None = None,
    correct: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    stop: Callable[[float, float], bool] | None = None,
) -> SolveResult:
    """Sweep3D's source iteration around any engine's ``sweep``.

    Each iteration builds the moment source of ``flux`` (cold start at
    zero unless given), sweeps it, sums fixups and keeps the last
    sweep's leakage.  ``correct(old0, new0)`` may replace the new scalar
    flux before the change is measured (DSA).  The loop stops after
    ``deck.iterations`` sweeps or once :class:`Convergence` meets
    ``deck.epsilon``.

    ``stop(diff, scale)`` hands the decision to an outside verdict --
    a cluster rank's barrier, which owns the job's history and
    convergence; the rank's own result then carries neither.
    """
    if flux is None:
        flux = np.zeros((deck.nm, *deck.grid.shape))
    control = Convergence(deck.epsilon)
    decide = stop or control.record
    total = SweepTally()
    for iterations in range(1, deck.iterations + 1):
        new_flux, tally = sweep(moments.build_moment_source(deck, flux))
        total.fixups += tally.fixups
        total.leakage = tally.leakage  # last sweep's boundary loss
        if correct is not None:
            new_flux[0] = correct(flux[0], new_flux[0])
        diff = float(np.max(np.abs(new_flux[0] - flux[0])))
        scale = float(np.max(np.abs(new_flux[0])))
        flux = new_flux
        if decide(diff, scale):
            break
    if stop is not None:
        return SolveResult(flux=flux, iterations=iterations, tally=total)
    return control.result(flux, total)
