"""Flux containers and convergence measures."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import SweepError


@dataclass
class SweepTally:
    """Per-sweep bookkeeping: fixups and boundary leakage."""

    fixups: int = 0
    leakage: float = 0.0

    def merge(self, other: "SweepTally") -> None:
        self.fixups += other.fixups
        self.leakage += other.leakage


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
        iterations (always True in fixed-iteration mode).
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


def relative_change(new: np.ndarray, old: np.ndarray) -> float:
    """Max-norm relative change of the scalar flux between iterations.

    This is Sweep3D's ``epsi`` convergence measure: the largest pointwise
    change normalised by the largest new flux.
    """
    if new.shape != old.shape:
        raise SweepError(f"flux shape mismatch: {new.shape} vs {old.shape}")
    scale = float(np.max(np.abs(new)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(new - old))) / scale
