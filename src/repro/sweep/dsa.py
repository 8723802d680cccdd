"""Diffusion synthetic acceleration (DSA) for source iteration.

Plain source iteration converges with spectral radius ~ c (the
scattering ratio): near c = 1 it crawls.  Production discrete-ordinates
codes -- including the Sweep3D lineage; the paper's reference [1]
describes the LANL implementation this benchmark descends from --
accelerate it by solving a cheap diffusion problem for the iteration
error after every transport sweep:

    -div( D grad f ) + sigma_a f = sigma_s (phi_new - phi_old)
    D = 1 / (3 sigma_t)

and correcting ``phi <- phi_new + f``.  The right-hand side is the
residual scattering source the next sweep would otherwise have to
propagate one mean free path at a time; diffusion transports it to
convergence in one sparse solve.

The diffusion operator is the standard cell-centred 7-point finite
difference with Marshak vacuum boundaries (a half-cell extrapolation,
``f = 0`` at distance ``2D`` beyond the boundary face).  The operator is
factorized once (``scipy.sparse.linalg.splu``) and reused every
iteration; a 50-cubed factorization is the only super-linear cost and
is paid once per deck.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .input import InputDeck


class DSAAccelerator:
    """A factorized diffusion operator for one deck."""

    def __init__(self, deck: InputDeck) -> None:
        # imported here, not at module level: ``import repro`` reaches
        # this module, and only a DSA solve should pay for SciPy
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        if deck.has_reflection:
            raise ConfigurationError(
                "DSA with reflective boundaries is not implemented; "
                "use vacuum decks"
            )
        if deck.heterogeneous:
            raise ConfigurationError(
                "DSA with a heterogeneous material box is not implemented"
            )
        self.deck = deck
        g = deck.grid
        self.shape = g.shape
        n = g.num_cells
        D = 1.0 / (3.0 * deck.sigma_t)
        sigma_a = deck.sigma_a

        def axis_coeffs(count: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
            """(coupling to the next cell, boundary extra removal) along
            one axis, per unit volume."""
            # interior face: D / delta^2 coupling between neighbours.
            couple = np.full(count - 1, D / delta**2) if count > 1 else np.empty(0)
            # Marshak vacuum: the boundary half cell sees f = 0 at
            # distance delta/2 + 2D beyond the face.
            edge = D / (delta * (delta / 2.0 + 2.0 * D))
            return couple, edge

        cx, ex = axis_coeffs(g.nx, g.dx)
        cy, ey = axis_coeffs(g.ny, g.dy)
        cz, ez = axis_coeffs(g.nz, g.dz)

        idx = np.arange(n).reshape(self.shape)
        diag = np.full(self.shape, sigma_a)
        rows, cols, vals = [], [], []

        def couple_axis(axis: int, coeffs: np.ndarray, edge: float) -> None:
            take = [slice(None)] * 3
            give = [slice(None)] * 3
            take[axis] = slice(None, -1)
            give[axis] = slice(1, None)
            a = idx[tuple(take)].ravel()
            b = idx[tuple(give)].ravel()
            shape_c = [1, 1, 1]
            shape_c[axis] = -1
            c = np.broadcast_to(
                coeffs.reshape(shape_c), idx[tuple(take)].shape
            ).ravel()
            rows.extend(a); cols.extend(b); vals.extend(-c)
            rows.extend(b); cols.extend(a); vals.extend(-c)
            np.add.at(diag, tuple(take), coeffs.reshape(shape_c))
            np.add.at(diag, tuple(give), coeffs.reshape(shape_c))
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[axis] = 0
            hi[axis] = -1
            diag[tuple(lo)] += edge
            diag[tuple(hi)] += edge

        couple_axis(0, cx, ex)
        couple_axis(1, cy, ey)
        couple_axis(2, cz, ez)
        rows.extend(range(n)); cols.extend(range(n)); vals.extend(diag.ravel())
        matrix = sp.csc_matrix(
            (np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
            shape=(n, n),
        )
        self._lu = spla.splu(matrix)

    def correct(self, phi_old0: np.ndarray, phi_new0: np.ndarray) -> np.ndarray:
        """The accelerated scalar flux ``phi_new0 + f``."""
        if phi_new0.shape != self.shape:
            raise ConfigurationError(
                f"flux shape {phi_new0.shape} != grid {self.shape}"
            )
        rhs = self.deck.sigma_s * (phi_new0 - phi_old0)
        f = self._lu.solve(rhs.ravel()).reshape(self.shape)
        return phi_new0 + f


def accelerated_solve(deck: InputDeck, epsilon: float = 1e-6,
                      max_iterations: int | None = None):
    """Source iteration with DSA, to tolerance.

    Returns ``(flux_moments, iterations, history)``; raises
    :class:`~repro.errors.ConvergenceError` when ``max_iterations``
    (default ``deck.iterations``) sweeps do not reach ``epsilon``.
    Compare with the unaccelerated
    :class:`~repro.sweep.serial.SerialSweep3D` at the same epsilon to
    see the spectral-radius collapse (tested).
    """
    from .flux import source_iteration
    from .serial import SerialSweep3D

    solver = SerialSweep3D(deck)
    run = deck.with_(
        epsilon=epsilon, iterations=max_iterations or deck.iterations
    )
    result = source_iteration(
        run, solver.sweep_once, correct=DSAAccelerator(deck).correct
    )
    return result.flux, result.iterations, result.history
