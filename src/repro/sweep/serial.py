"""Reference serial Sweep3D solver.

Two interchangeable sweep engines sit under one source-iteration driver:

* ``hyperplane`` -- the vectorised reference: for each octant and angle,
  cells on the wavefront hyperplane ``i + j + k = p`` are solved
  simultaneously.  Mathematically identical to any sweep ordering
  (upstream dependencies fully determine each cell), it is the fastest
  pure-NumPy formulation and serves as ground truth.
* ``tile`` -- the structured jkm-diagonal sweep of
  :class:`~repro.sweep.pipelining.TileSweeper`, i.e. the exact Figure 2
  loop structure the Cell implementation parallelises.

Tests assert both engines produce the same flux to near machine
precision; the Cell-simulated solver of :mod:`repro.core` is verified
against this module in turn.

The driver implements Sweep3D's two-step solution (Sec. 3): "the
streaming operator (i.e., result propagation), solved by sweeps, and the
scattering operator, solved iteratively".
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .flux import SolveResult, SweepTally, source_iteration
from .geometry import hyperplanes, oriented_view
from .input import InputDeck
from .kernel import dd_solve
from .moments import MomentBasis
from .pipelining import TileSweeper


class SerialSweep3D:
    """Single-process Sweep3D with selectable sweep engine."""

    def __init__(
        self,
        deck: InputDeck,
        method: str = "hyperplane",
    ) -> None:
        if method not in ("hyperplane", "tile"):
            raise ConfigurationError(
                f"unknown sweep method {method!r}; use 'hyperplane' or 'tile'"
            )
        self.deck = deck
        self.method = method
        self.quad = deck.quadrature()
        self.basis = MomentBasis(self.quad, deck.nm)
        self._sigma_s_n = self.basis.scattering_sigmas(
            deck.sigma_s, deck.anisotropy
        )
        #: per-cell total cross sections when a material box is present
        self._sigma_field = (
            deck.sigma_t_field() if deck.material_box is not None else None
        )
        self._tile = TileSweeper(deck) if method == "tile" else None

    # -- sweep engines ---------------------------------------------------------

    def _octant_order(self) -> list[int]:
        """Octant sweep order honouring reflective dependencies.

        A reflective low face hands the exit flux of a minus-direction
        octant to its plus-direction mirror, so octants with fewer plus
        signs on reflected axes must sweep first.  With vacuum everywhere
        any order works and we keep the canonical one.
        """
        if not self.deck.has_reflection:
            return list(range(8))
        from .quadrature import OCTANT_SIGNS

        def key(octant: int) -> int:
            signs = OCTANT_SIGNS[octant]
            return sum(
                1
                for axis in range(3)
                if self.deck.reflect_low[axis] and signs[axis] > 0
            )

        return sorted(range(8), key=key)

    def _mirror_ordinate(self, m: int, axis: int) -> int:
        """The ordinate with the same |cosines| and the given axis sign
        flipped (per-octant local index is preserved by construction)."""
        from .quadrature import OCTANT_SIGNS

        per = self.quad.per_octant
        octant, a = divmod(m, per)
        signs = list(OCTANT_SIGNS[octant])
        signs[axis] = -signs[axis]
        return OCTANT_SIGNS.index(tuple(signs)) * per + a

    def _sweep_hyperplane(
        self,
        moment_source: np.ndarray,
        angular_source: np.ndarray | None = None,
        capture_angular: bool = False,
    ) -> tuple[np.ndarray, SweepTally, np.ndarray | None]:
        """The reference sweep.

        ``angular_source`` optionally adds a per-ordinate source of shape
        ``(M, nx, ny, nz)`` (global orientation) -- the time-absorption
        source of :mod:`repro.sweep.timestep` needs the previous step's
        *angular* flux, not just its moments.  ``capture_angular``
        returns the swept angular flux in the same layout.
        """
        deck = self.deck
        g = deck.grid
        flux = np.zeros((deck.nm, *g.shape))
        angular = (
            np.zeros((self.quad.num_ordinates, *g.shape))
            if capture_angular
            else None
        )
        tally = SweepTally()
        planes = hyperplanes(*g.shape)
        vol = g.dx * g.dy * g.dz
        from .quadrature import OCTANT_SIGNS

        M = self.quad.num_ordinates
        # stored exit fluxes at reflective low faces, global (j,k)-style
        # indexing per ordinate.
        store = {
            0: np.zeros((M, g.ny, g.nz)) if deck.reflect_low[0] else None,
            1: np.zeros((M, g.nx, g.nz)) if deck.reflect_low[1] else None,
            2: np.zeros((M, g.nx, g.ny)) if deck.reflect_low[2] else None,
        }

        def orient_face(face: np.ndarray, flip_a: bool, flip_b: bool) -> np.ndarray:
            view = face
            if flip_a:
                view = view[::-1, :]
            if flip_b:
                view = view[:, ::-1]
            return view

        for octant in self._octant_order():
            sx, sy, sz = OCTANT_SIGNS[octant]
            src_o = oriented_view(moment_source, octant)
            flux_o = oriented_view(flux, octant)
            sig_o = (
                oriented_view(self._sigma_field, octant)
                if self._sigma_field is not None
                else None
            )
            base = octant * self.quad.per_octant
            for a in range(self.quad.per_octant):
                m = base + a
                cx = abs(self.quad.mu[m]) / g.dx
                cy = abs(self.quad.eta[m]) / g.dy
                cz = abs(self.quad.xi[m]) / g.dz
                ang_src = self.basis.angle_source(src_o, m)
                if angular_source is not None:
                    ang_src = ang_src + oriented_view(angular_source[m], octant)
                inx = np.zeros(g.shape)
                iny = np.zeros(g.shape)
                inz = np.zeros(g.shape)
                w = self.quad.weight[m]
                # reflective entries: the oriented entry face at a
                # reflected low boundary carries the mirror ordinate's
                # stored exit flux.
                if store[0] is not None and sx > 0:
                    face = store[0][self._mirror_ordinate(m, 0)]
                    inx[0, :, :] = orient_face(face, sy < 0, sz < 0)
                if store[1] is not None and sy > 0:
                    face = store[1][self._mirror_ordinate(m, 1)]
                    iny[:, 0, :] = orient_face(face, sx < 0, sz < 0)
                if store[2] is not None and sz > 0:
                    face = store[2][self._mirror_ordinate(m, 2)]
                    inz[:, :, 0] = orient_face(face, sx < 0, sy < 0)
                # exit-face collectors (oriented coordinates)
                exit_x = np.zeros((g.ny, g.nz))
                exit_y = np.zeros((g.nx, g.nz))
                exit_z = np.zeros((g.nx, g.ny))
                for ii, jj, kk in planes:
                    res = dd_solve(
                        ang_src[ii, jj, kk],
                        sig_o[ii, jj, kk] if sig_o is not None else deck.sigma_t,
                        inx[ii, jj, kk],
                        iny[ii, jj, kk],
                        inz[ii, jj, kk],
                        cx,
                        cy,
                        cz,
                        fixup=deck.fixup,
                    )
                    tally.fixups += res.fixups_applied
                    for n in range(deck.nm):
                        flux_o[n, ii, jj, kk] += self.basis.wpn[n, m] * res.psi_c
                    if angular is not None:
                        oriented_view(angular[m], octant)[ii, jj, kk] = res.psi_c
                    # propagate outflows downstream; collect boundary exits.
                    interior = ii + 1 < g.nx
                    inx[ii[interior] + 1, jj[interior], kk[interior]] = res.out_x[interior]
                    exit_x[jj[~interior], kk[~interior]] = res.out_x[~interior]
                    interior = jj + 1 < g.ny
                    iny[ii[interior], jj[interior] + 1, kk[interior]] = res.out_y[interior]
                    exit_y[ii[~interior], kk[~interior]] = res.out_y[~interior]
                    interior = kk + 1 < g.nz
                    inz[ii[interior], jj[interior], kk[interior] + 1] = res.out_z[interior]
                    exit_z[ii[~interior], jj[~interior]] = res.out_z[~interior]
                # route each exit face: reflective store or leakage.
                if store[0] is not None and sx < 0:
                    store[0][m] = orient_face(exit_x, sy < 0, sz < 0)
                else:
                    tally.leakage += w * cx * exit_x.sum() * vol
                if store[1] is not None and sy < 0:
                    store[1][m] = orient_face(exit_y, sx < 0, sz < 0)
                else:
                    tally.leakage += w * cy * exit_y.sum() * vol
                if store[2] is not None and sz < 0:
                    store[2][m] = orient_face(exit_z, sx < 0, sy < 0)
                else:
                    tally.leakage += w * cz * exit_z.sum() * vol
        return flux, tally, angular

    def sweep_once(self, moment_source: np.ndarray) -> tuple[np.ndarray, SweepTally]:
        """One transport sweep with the configured engine."""
        if self.method == "hyperplane":
            flux, tally, _ = self._sweep_hyperplane(moment_source)
        else:
            flux, tally, _ = self._tile.sweep(moment_source)
        return flux, tally

    def sweep_angular(
        self,
        moment_source: np.ndarray,
        angular_source: np.ndarray | None = None,
    ) -> tuple[np.ndarray, SweepTally, np.ndarray]:
        """One sweep that also returns the angular flux, optionally with
        an extra per-ordinate source (hyperplane engine only; the
        time-dependent driver is its customer)."""
        if self.method != "hyperplane":
            raise ConfigurationError(
                "angular capture is supported by the hyperplane engine only"
            )
        flux, tally, angular = self._sweep_hyperplane(
            moment_source,
            angular_source=angular_source,
            capture_angular=True,
        )
        return flux, tally, angular

    # -- source iteration ---------------------------------------------------------

    def solve(self) -> SolveResult:
        """Run source iteration per the deck's iteration control.

        Fixed-iteration mode (``epsilon is None``) performs exactly
        ``deck.iterations`` sweeps, mirroring the benchmark's negative-epsi
        input.  With an epsilon, iteration stops at convergence and raises
        :class:`ConvergenceError` if the budget is exhausted first.
        """
        return source_iteration(self.deck, self.sweep_once)
