"""MK/MMI pipelining and the structured (jkm-diagonal) tile sweep.

This module implements the exact loop structure of the paper's Figure 2:

.. code-block:: fortran

    DO iq=1,8                    ! Octant loop
    DO m=1,6/mmi                 ! Angle pipelining loop
     DO k=1,kt/mk                ! K-plane pipelining loop
      RECV W/E ; RECV N/S        ! I- and J-inflows
      DO jkm=1,jt+mk-1+mmi-1     ! JK-diagonals with MMI pipelining
       DO il=1,ndiag             ! I-lines on this diagonal
        ... solve Sn equation along the I-line ...
      SEND W/E ; SEND N/S        ! I- and J-outflows

and the property the whole Cell parallelization rests on (Sec. 3): "all
the I-lines for each jkm value can be processed in parallel, without any
data dependency".

:class:`TileSweeper` runs this structure over one rank's tile: each
diagonal's I-lines are gathered into the arrays of the one line-kernel
signature and solved by a single call of the vectorised NumPy
:func:`~repro.sweep.kernel.dd_line_block_solve`.  :mod:`repro.core`
solves the same working set, staged through simulated SPE local stores,
with that kernel or the SPU ISA kernels that share its signature.
Boundary traffic goes through a
:class:`BoundaryIO`, implemented here for the single-tile vacuum case and
by :mod:`repro.mpi.wavefront` for the KBA process grid.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Protocol, Sequence

import numpy as np

from ..errors import InputDeckError, SweepError
from .flux import SweepTally
from .geometry import oriented_view
from .input import InputDeck
from .kernel import dd_line_block_solve
from .moments import MomentBasis
from .quadrature import Quadrature


# ---------------------------------------------------------------------------
# Diagonal enumeration
# ---------------------------------------------------------------------------

def angle_blocks(per_octant: int, mmi: int) -> list[list[int]]:
    """Partition an octant's local angle indices into MMI-sized blocks."""
    if mmi < 1 or per_octant % mmi:
        raise InputDeckError(f"mmi={mmi} must factor angles/octant={per_octant}")
    return [
        list(range(b * mmi, (b + 1) * mmi)) for b in range(per_octant // mmi)
    ]


def k_blocks(kt: int, mk: int) -> list[int]:
    """Starting K-plane of each MK-sized block ("MK must factor KT")."""
    if mk < 1 or kt % mk:
        raise InputDeckError(f"mk={mk} must factor kt={kt}")
    return list(range(0, kt, mk))


def num_diagonals(jt: int, mk: int, mmi: int) -> int:
    """The jkm loop trip count: ``jt + mk - 1 + mmi - 1`` (Figure 2)."""
    return jt + mk + mmi - 2


def diagonal_lines(jt: int, mk: int, mmi: int, d: int) -> list[tuple[int, int, int]]:
    """The I-lines ``(j, kk, mm)`` on diagonal ``d`` (0-based).

    A line belongs to diagonal ``d`` when ``j + kk + mm == d``: angle
    ``mm`` processes its JK-diagonal ``d - mm``, which is the paper's
    Figure 3 picture ("the sixth JK diagonal for angle 1, the fifth
    diagonal for angle 2 and the fourth diagonal for angle 3").
    """
    if not 0 <= d < num_diagonals(jt, mk, mmi):
        raise SweepError(
            f"diagonal {d} outside 0..{num_diagonals(jt, mk, mmi) - 1}"
        )
    lines = []
    for mm in range(mmi):
        s = d - mm
        if not 0 <= s <= jt + mk - 2:
            continue
        for kk in range(max(0, s - jt + 1), min(mk - 1, s) + 1):
            lines.append((s - kk, kk, mm))
    return lines


@lru_cache(maxsize=256)
def diagonal_sizes(jt: int, mk: int, mmi: int) -> tuple[int, ...]:
    """Closed-form I-line count per jkm diagonal.

    The count is the discrete convolution of three uniform distributions
    of lengths ``jt``, ``mk`` and ``mmi``; its sum is ``jt * mk * mmi``
    (every line appears on exactly one diagonal).  The performance model
    iterates over *these* instead of enumerating 50-cubed work, which is
    what makes full-size timing runs cost milliseconds.
    """
    base = np.ones(jt, dtype=np.int64)
    conv = np.convolve(np.convolve(base, np.ones(mk, dtype=np.int64)),
                       np.ones(mmi, dtype=np.int64))
    return tuple(int(x) for x in conv)


# ---------------------------------------------------------------------------
# Boundary protocol
# ---------------------------------------------------------------------------

class BoundaryIO(Protocol):
    """Inflow/outflow exchange for one tile, in *oriented* coordinates.

    All arrays are indexed ``(angles_in_block, mk, ...)``; ``recv_i``
    supplies the west-face scalars per line (shape ``(na, mk, jt)``),
    ``recv_j`` the north-face rows per K-plane (shape ``(na, mk, it)``).
    """

    def recv_i(self, octant: int, angles: Sequence[int], k0: int, jt: int, it: int) -> np.ndarray: ...
    def recv_j(self, octant: int, angles: Sequence[int], k0: int, jt: int, it: int) -> np.ndarray: ...
    def send_i(self, octant: int, angles: Sequence[int], k0: int, data: np.ndarray) -> None: ...
    def send_j(self, octant: int, angles: Sequence[int], k0: int, data: np.ndarray) -> None: ...
    def finish_octant(self, octant: int, angles: Sequence[int], phik: np.ndarray) -> None: ...


class VacuumBoundary:
    """Single-tile boundary: zero inflows, outflows tallied as leakage."""

    def __init__(self, deck: InputDeck, quadrature: Quadrature) -> None:
        self.deck = deck
        self.quad = quadrature
        self.leakage = 0.0

    def _tally(self, contribution: float) -> None:
        # every leakage contribution funnels through here, one per
        # (send, angle), so subclasses can observe the exact summation
        # chain (repro.parallel refolds it for bit-identical reductions)
        self.leakage += contribution

    def recv_i(self, octant, angles, k0, jt, it):
        return np.zeros((len(angles), self.deck.mk, jt))

    def recv_j(self, octant, angles, k0, jt, it):
        return np.zeros((len(angles), self.deck.mk, it))

    def send_i(self, octant, angles, k0, data):
        # leakage through the east (oriented) face: |mu| * psi * dy * dz
        base = octant * self.quad.per_octant
        g = self.deck.grid
        for a_local, a in enumerate(angles):
            m = base + a
            self._tally(float(
                self.quad.weight[m]
                * abs(self.quad.mu[m])
                * data[a_local].sum()
                * g.dy
                * g.dz
            ))

    def send_j(self, octant, angles, k0, data):
        base = octant * self.quad.per_octant
        g = self.deck.grid
        for a_local, a in enumerate(angles):
            m = base + a
            self._tally(float(
                self.quad.weight[m]
                * abs(self.quad.eta[m])
                * data[a_local].sum()
                * g.dx
                * g.dz
            ))

    def finish_octant(self, octant, angles, phik):
        base = octant * self.quad.per_octant
        g = self.deck.grid
        for a_local, a in enumerate(angles):
            m = base + a
            self._tally(float(
                self.quad.weight[m]
                * abs(self.quad.xi[m])
                * phik[a_local].sum()
                * g.dx
                * g.dy
            ))


# ---------------------------------------------------------------------------
# The structured tile sweep
# ---------------------------------------------------------------------------

class TileSweeper:
    """Runs Figure 2's loop structure over one tile.

    Per octant and angle-block, K-plane blocks are processed in order;
    within a block the jkm diagonals advance a wavefront through
    (J, K-in-block, angle) space; the I-lines of each diagonal are
    gathered and solved by one :func:`dd_line_block_solve` call.
    """

    def __init__(self, deck: InputDeck) -> None:
        self.deck = deck
        self.quad = deck.quadrature()
        self.basis = MomentBasis(self.quad, deck.nm)
        self._sigma_field = (
            deck.sigma_t_field() if deck.material_box is not None else None
        )

    # -- single octant -------------------------------------------------------

    def _sweep_octant(
        self,
        octant: int,
        moment_source: np.ndarray,
        flux_out: np.ndarray,
        boundary: BoundaryIO,
        tally: SweepTally,
    ) -> None:
        deck = self.deck
        g = deck.grid
        it, jt, kt = g.nx, g.ny, g.nz
        src_o = oriented_view(moment_source, octant)
        flux_o = oriented_view(flux_out, octant)
        sig_o = (
            oriented_view(self._sigma_field, octant)
            if self._sigma_field is not None
            else None
        )
        base = octant * self.quad.per_octant

        for angles in angle_blocks(self.quad.per_octant, deck.mmi):
            globals_ = [base + a for a in angles]
            # per-angle sources for the block, oriented: (na, it, jt, kt)
            ang_src = np.stack(
                [self.basis.angle_source(src_o, m) for m in globals_]
            )
            cxs = np.abs(self.quad.mu[globals_]) / g.dx
            cys = np.abs(self.quad.eta[globals_]) / g.dy
            czs = np.abs(self.quad.xi[globals_]) / g.dz
            # K-face state persists across K-blocks: (na, jt, it)
            phik = np.zeros((len(angles), jt, it))
            for k0 in k_blocks(kt, deck.mk):
                phii = boundary.recv_i(octant, angles, k0, jt, it)
                phij = boundary.recv_j(octant, angles, k0, jt, it)
                i_out = np.zeros((len(angles), deck.mk, jt))
                for d in range(num_diagonals(jt, deck.mk, deck.mmi)):
                    lines = diagonal_lines(jt, deck.mk, deck.mmi, d)
                    if not lines:  # pragma: no cover - never for valid d
                        continue
                    src, sigma, pi, pj, pk, cx, cy, cz = self._gather(
                        lines, ang_src, phii, phij, phik, cxs, cys, czs,
                        k0, sig_o
                    )
                    psi_c, phi_i_out, fixups = dd_line_block_solve(
                        src, sigma, pi, pj, pk, cx, cy, cz,
                        fixup=deck.fixup,
                    )
                    tally.fixups += fixups
                    self._scatter(
                        lines, globals_, psi_c, phi_i_out, pj, pk,
                        flux_o, phij, phik, i_out, k0
                    )
                boundary.send_i(octant, angles, k0, i_out)
                boundary.send_j(octant, angles, k0, phij)
            boundary.finish_octant(octant, angles, phik)

    def _gather(
        self, lines, ang_src, phii, phij, phik, cxs, cys, czs, k0,
        sig_o=None
    ) -> tuple:
        """The diagonal's working set -- what the paper's SPE threads
        DMA into their local stores: per line the source row, the cross
        section (the deck's scalar for a single material, rows when a
        material box makes it spatial), the I-inflow, the J/K-inflow
        rows and the direction coefficients, in
        :func:`dd_line_block_solve`'s argument order."""
        it = self.deck.grid.nx
        L = len(lines)
        source = np.empty((L, it))
        pj = np.empty((L, it))
        pk = np.empty((L, it))
        pi = np.empty(L)
        cx = np.empty(L)
        cy = np.empty(L)
        cz = np.empty(L)
        sigma = np.empty((L, it)) if sig_o is not None else self.deck.sigma_t
        for l, (j, kk, mm) in enumerate(lines):
            source[l] = ang_src[mm, :, j, k0 + kk]
            pj[l] = phij[mm, kk]
            pk[l] = phik[mm, j]
            pi[l] = phii[mm, kk, j]
            cx[l], cy[l], cz[l] = cxs[mm], cys[mm], czs[mm]
            if sig_o is not None:
                sigma[l] = sig_o[:, j, k0 + kk]
        return source, sigma, pi, pj, pk, cx, cy, cz

    def _scatter(
        self, lines, globals_, psi_c, phi_i_out, pj, pk,
        flux_o, phij, phik, i_out, k0
    ) -> None:
        wpn = self.basis.wpn
        nm = self.deck.nm
        for l, (j, kk, mm) in enumerate(lines):
            m = globals_[mm]
            for n in range(nm):
                flux_o[n, :, j, k0 + kk] += wpn[n, m] * psi_c[l]
            phij[mm, kk] = pj[l]
            phik[mm, j] = pk[l]
            i_out[mm, kk, j] = phi_i_out[l]

    # -- full sweep ------------------------------------------------------------

    def sweep(
        self,
        moment_source: np.ndarray,
        boundary: BoundaryIO | None = None,
    ) -> tuple[np.ndarray, SweepTally, BoundaryIO]:
        """One full transport sweep: all octants, all angles.

        Returns the new flux moments ``(nm, nx, ny, nz)``, a tally, and
        the boundary object (whose leakage the caller may inspect).
        """
        deck = self.deck
        if deck.has_reflection:
            raise SweepError(
                "reflective boundaries are supported by the hyperplane "
                "reference solver only (the paper's benchmark is vacuum)"
            )
        if moment_source.shape != (deck.nm, *deck.grid.shape):
            raise SweepError(
                f"moment_source must be {(deck.nm, *deck.grid.shape)}, "
                f"got {moment_source.shape}"
            )
        if boundary is None:
            boundary = VacuumBoundary(deck, self.quad)
        flux = np.zeros((deck.nm, *deck.grid.shape))
        tally = SweepTally()
        for octant in range(8):
            self._sweep_octant(octant, moment_source, flux, boundary, tally)
        tally.leakage = getattr(boundary, "leakage", 0.0)
        return flux, tally, boundary
