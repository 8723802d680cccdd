"""MK/MMI pipelining and the one Figure-2 traversal.

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

:class:`TileSweeper` is that loop nest, once.  It enumerates the
(octant, angle-block) units in serial order; per unit it runs the K
blocks with their RECV; per jkm diagonal it enumerates the I-lines,
gathers their working set from a :class:`SweepState` with one fancy
index per array, solves them with one call of the line kernel
(:func:`~repro.sweep.kernel.dd_line_block_solve` or a kernel sharing its
signature) and runs one per-diagonal step; SEND and ``finish_octant``
close the blocks and the unit.  On its own the step scatters flux,
faces and I-outflows back with one fancy index per array;
:class:`repro.core.solver.CellSweep3D` is the same traversal over a
state allocated in the simulated chip's main memory, whose step hands
the diagonal's chunks to the simulated SPEs.  Boundary traffic goes
through a :class:`BoundaryIO`, implemented here for the single-tile
vacuum case and by :mod:`repro.mpi.wavefront` for the KBA process grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Protocol, Sequence

import numpy as np

from ..errors import InputDeckError, SweepError
from .flux import SweepTally
from .input import InputDeck
from .kernel import dd_line_block_solve
from .moments import MomentBasis
from .quadrature import OCTANT_SIGNS, Quadrature


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
# Work units and lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockUnit:
    """One independent (octant, angle-block) slice of a sweep."""

    index: int
    octant: int
    angles: tuple[int, ...]     # ordinate indices local to the octant
    ordinates: tuple[int, ...]  # the same ordinates, global


def enumerate_block_units(deck: InputDeck, quad: Quadrature) -> list[BlockUnit]:
    """All units of one sweep, in the serial execution order (octant
    ascending, angle block ascending)."""
    units: list[BlockUnit] = []
    for octant in range(8):
        base = octant * quad.per_octant
        for angles in angle_blocks(quad.per_octant, deck.mmi):
            units.append(BlockUnit(
                len(units), octant, tuple(angles),
                tuple(base + a for a in angles),
            ))
    return units


@dataclass(frozen=True)
class StagedLine:
    """One I-line's identity in both oriented and global coordinates."""

    mm: int        # angle index within the block
    kk: int        # K-plane within the block (oriented)
    j_o: int       # J row (oriented)
    j_g: int       # J row (global storage)
    k_g: int       # K plane (global storage)
    angle: int     # global ordinate index
    reverse_i: bool  # sweep direction along the row


def staged_lines_for_diagonal(
    deck: InputDeck, octant: int, globals_: Sequence[int], k0: int, d: int
) -> list[StagedLine]:
    """The :class:`StagedLine` descriptors of one jkm diagonal.

    Pure function of the deck geometry and the (octant, angle block,
    K block, diagonal) coordinates -- the property that lets
    :mod:`repro.parallel` worker processes rebuild a diagonal's work
    from a few integers instead of pickling line lists.
    """
    g = deck.grid
    jt, kt = g.ny, g.nz
    sx, sy, sz = OCTANT_SIGNS[octant]
    return [
        StagedLine(
            mm=mm,
            kk=kk,
            j_o=j,
            j_g=j if sy > 0 else jt - 1 - j,
            k_g=(k0 + kk) if sz > 0 else kt - 1 - (k0 + kk),
            angle=globals_[mm],
            reverse_i=sx < 0,
        )
        for (j, kk, mm) in diagonal_lines(jt, deck.mk, deck.mmi, d)
    ]


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

    def _leak(self, octant, angles, cosines, faces, d1, d2) -> None:
        # w * |cosine| * sum(psi) * face area, one contribution per angle
        base = octant * self.quad.per_octant
        for a_local, a in enumerate(angles):
            m = base + a
            self._tally(float(
                self.quad.weight[m] * abs(cosines[m]) * faces[a_local].sum()
                * d1 * d2
            ))

    def send_i(self, octant, angles, k0, data):
        # leakage through the east (oriented) face
        g = self.deck.grid
        self._leak(octant, angles, self.quad.mu, data, g.dy, g.dz)

    def send_j(self, octant, angles, k0, data):
        g = self.deck.grid
        self._leak(octant, angles, self.quad.eta, data, g.dx, g.dz)

    def finish_octant(self, octant, angles, phik):
        g = self.deck.grid
        self._leak(octant, angles, self.quad.xi, phik, g.dx, g.dy)


# ---------------------------------------------------------------------------
# The sweep's arrays
# ---------------------------------------------------------------------------

def _zeros(name: str, shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


class SweepState:
    """The arrays one sweep reads and writes, in the paper's layout.

    Flux and moment source use ``[moment][k][j][i]`` (Figure 6:
    ``Flux[n][k][j][i]``), one array per moment, so an I-line is a
    contiguous row; ``sigt`` holds the per-cell total cross sections as
    ``[k][j][i]`` rows.  Rows are ``row_len`` long, of which the first
    ``nx`` are cells.  The face scratch is oriented and reused per
    block: ``phij[angle-in-block][kk][i]``, ``phik[angle][j][i]`` and
    the ``phii``/``phii_out`` I-face scalars ``[angle][kk][j]`` (rows of
    ``phii_row``).  ``alloc(name, shape)`` makes each array, in this
    order.
    """

    def __init__(
        self, deck: InputDeck, row_len: int, phii_row: int,
        alloc: Callable[[str, tuple[int, ...]], np.ndarray] = _zeros,
    ) -> None:
        self.deck = deck
        self.row_len = row_len
        g = deck.grid
        plane = (g.nz, g.ny, row_len)
        self.flux_storage = [alloc(f"flux{n}", plane) for n in range(deck.nm)]
        self.msrc_storage = [alloc(f"msrc{n}", plane) for n in range(deck.nm)]
        self.phij = alloc("phij", (deck.mmi, deck.mk, row_len))
        self.phik = alloc("phik", (deck.mmi, g.ny, row_len))
        self.phii = alloc("phii", (deck.mmi, deck.mk, phii_row))
        #: I-outflows per line (east-face values: MPI payload / leakage)
        self.phii_out = alloc("phii_out", (deck.mmi, deck.mk, phii_row))
        # padding lanes hold the base material so partial rows stay benign
        self.sigt = alloc("sigt", plane)
        self.sigt[...] = deck.sigma_t
        self.sigt[..., : g.nx] = deck.sigma_t_field().transpose(2, 1, 0)
        # memset the big arrays (the Cell port's porting step 5)
        for arr in (*self.flux_storage, *self.msrc_storage,
                    self.phij, self.phik, self.phii, self.phii_out):
            arr[...] = 0.0

    def flux_logical(self) -> np.ndarray:
        """Flux moments as ``(nm, nx, ny, nz)`` (the solver's convention)."""
        g = self.deck.grid
        stack = np.stack([f[..., : g.nx] for f in self.flux_storage])
        return np.ascontiguousarray(stack.transpose(0, 3, 2, 1))

    def load_moment_source(self, msrc: np.ndarray) -> None:
        """Write a ``(nm, nx, ny, nz)`` moment source into the layout."""
        g = self.deck.grid
        if msrc.shape != (self.deck.nm, *g.shape):
            raise SweepError(
                f"moment_source must be {(self.deck.nm, *g.shape)}, "
                f"got {msrc.shape}"
            )
        for n, rows in enumerate(self.msrc_storage):
            rows[..., : g.nx] = msrc[n].transpose(2, 1, 0)

    def zero_flux(self) -> None:
        for f in self.flux_storage:
            f[...] = 0.0


# ---------------------------------------------------------------------------
# The traversal
# ---------------------------------------------------------------------------

class TileSweeper:
    """Figure 2's loop nest over one tile.

    Per (octant, angle-block) unit, K-plane blocks are processed in
    order; within a block the jkm diagonals advance a wavefront through
    (J, K-in-block, angle) space; the I-lines of each diagonal are
    gathered and solved by one kernel call, and one per-diagonal step
    writes the results back (:meth:`_diagonal_step`).
    """

    def __init__(self, deck: InputDeck) -> None:
        if deck.has_reflection:
            raise SweepError(
                "reflective boundaries are supported by the hyperplane "
                "reference solver only (the paper's benchmark is vacuum)"
            )
        self.deck = deck
        self.quad = deck.quadrature()
        self.basis = MomentBasis(self.quad, deck.nm)
        #: the (octant, angle-block) units of one sweep, in serial order
        self.units = enumerate_block_units(deck, self.quad)
        #: optional progress sink called once per completed unit: an
        #: object with a ``tick()`` method (e.g.
        #: :class:`repro.metrics.heartbeat.Heartbeat`, the solve
        #: server's per-job sink) or a plain zero-argument callable.
        self.progress = None
        self.host = self._allocate()

    def _allocate(self) -> SweepState:
        """The sweep's arrays: plain NumPy, rows exactly ``nx`` long."""
        g = self.deck.grid
        return SweepState(self.deck, g.nx, g.ny)

    def _kernel(self):
        """The line kernel, looked up in this module at call time."""
        return dd_line_block_solve

    # -- progress --------------------------------------------------------------

    def units_per_sweep(self) -> int:
        """(octant, angle-block) work units in one full sweep -- the
        denominator for progress reporting in every execution mode."""
        return len(self.units)

    def _progress_tick(self) -> None:
        """One completed work unit, forwarded to the progress sink."""
        sink = self.progress
        if sink is None:
            return
        tick = getattr(sink, "tick", None)
        if tick is not None:
            tick()
        else:
            sink()

    # -- one unit --------------------------------------------------------------

    def _sweep_unit(
        self, unit: BlockUnit, tally: SweepTally, boundary: BoundaryIO,
        psi_sink: np.ndarray | None = None,
    ) -> None:
        """Figure 2's loops for one (octant, angle-block) unit, RECV and
        SEND through ``boundary``.

        Given the moment source and the inflows, a unit touches only its
        own face state, so independent units can run in separate
        processes.  ``psi_sink``, when given, captures every line's
        cell-centred angular flux at ``psi_sink[angle, k_g, j_g, :nx]``
        (global coordinates) so the caller can replay the flux
        accumulation in the serial order.
        """
        deck, host, quad, basis = self.deck, self.host, self.quad, self.basis
        g = deck.grid
        it, jt = g.nx, g.ny
        octant, angles = unit.octant, list(unit.angles)
        na = len(angles)
        ordinates = list(unit.ordinates)
        cxs = np.abs(quad.mu[ordinates]) / g.dx
        cys = np.abs(quad.eta[ordinates]) / g.dy
        czs = np.abs(quad.xi[ordinates]) / g.dz
        kernel = self._kernel()
        host.phik[...] = 0.0  # vacuum at the oriented K entry
        for k0 in k_blocks(g.nz, deck.mk):
            # RECV W/E and N/S into the face scratch
            host.phii[...] = 0.0
            host.phii[:na, :, :jt] = boundary.recv_i(octant, angles, k0, jt, it)
            host.phij[...] = 0.0
            host.phij[:na, :, :it] = boundary.recv_j(octant, angles, k0, jt, it)
            host.phii_out[...] = 0.0
            for d in range(num_diagonals(jt, deck.mk, deck.mmi)):
                lines = staged_lines_for_diagonal(deck, octant, ordinates, k0, d)
                rev = slice(None, None, -1) if lines[0].reverse_i else slice(None)
                gd = self._gather_diagonal(lines)
                angle, mm = gd["angle"], gd["mm"]
                # the angular source from the moment rows, in the
                # reference's accumulation order (MomentBasis.combine)
                src = basis.combine(
                    basis.src_pn[:, angle][..., None], gd["msrc"][:, :, rev]
                )
                # the scalar when the material is uniform, so the
                # arithmetic is the reference kernel's scalar path
                sigma = (
                    deck.sigma_t if gd["sigt"] is None else gd["sigt"][:, rev]
                )
                line_fixups = np.zeros(len(lines), dtype=np.intp)
                psi_c, phi_i_out, fixups = kernel(
                    src, sigma, gd["phii"], gd["phij"], gd["phik"],
                    cxs[mm], cys[mm], czs[mm],
                    fixup=deck.fixup, line_fixups=line_fixups,
                )
                tally.fixups += fixups
                if psi_sink is not None:
                    psi_sink[angle, gd["k_g"], gd["j_g"], :it] = psi_c[:, rev]
                # w*Pn * Phi of Figure 6 for the whole diagonal
                wpsi = basis.wpn[:, angle][:, :, None] * psi_c
                self._diagonal_step(lines, gd, wpsi, phi_i_out, line_fixups)
            # SEND W/E and N/S
            boundary.send_i(octant, angles, k0, host.phii_out[:na, :, :jt].copy())
            boundary.send_j(octant, angles, k0, host.phij[:na, :, :it].copy())
        boundary.finish_octant(octant, angles, host.phik[:na, :, :it].copy())

    def _gather_diagonal(self, lines: list[StagedLine]) -> dict:
        """One fancy index per array: the working set of every line of a
        jkm diagonal, in storage orientation -- what the paper's SPE
        threads DMA into their local stores.

        A diagonal's lines are mutually independent and their working
        sets never alias: ``(j, kk)`` fixes ``mm = d - j - kk``, so the
        lines have distinct ``(mm, kk)`` phij rows, ``(mm, j_o)`` phik
        rows, ``(mm, kk, j_o)`` phii cells and ``(k_g, j_g)`` flux rows.
        """
        host, it = self.host, self.deck.grid.nx
        angle, mm, kk, j_o, j_g, k_g = np.array(
            [(ln.angle, ln.mm, ln.kk, ln.j_o, ln.j_g, ln.k_g) for ln in lines],
            dtype=np.intp,
        ).T
        return {
            "angle": angle, "mm": mm, "kk": kk, "j_o": j_o,
            "j_g": j_g, "k_g": k_g,
            "msrc": np.stack([m[k_g, j_g, :it] for m in host.msrc_storage]),
            # uniform decks hand the kernel the scalar instead
            "sigt": (host.sigt[k_g, j_g, :it]
                     if self.deck.material_box is not None else None),
            "phij": host.phij[mm, kk, :it],
            "phik": host.phik[mm, j_o, :it],
            "phii": host.phii[mm, kk, j_o],
        }

    def _diagonal_step(
        self, lines: list[StagedLine], gd: dict, wpsi: np.ndarray,
        phi_i_out: np.ndarray, line_fixups: np.ndarray,
    ) -> None:
        """Scatter the diagonal's results into the state, one fancy
        index per array: ``Flux[n] += w*Pn * Phi`` (the same per-element
        multiply-then-add as the reference), the outflow faces the
        kernel left in ``gd`` and the I-outflows."""
        host, it = self.host, self.deck.grid.nx
        k_g, j_g, mm, kk, j_o = (
            gd["k_g"], gd["j_g"], gd["mm"], gd["kk"], gd["j_o"]
        )
        if lines[0].reverse_i:
            wpsi = wpsi[:, :, ::-1]
        for flux, w in zip(host.flux_storage, wpsi):
            flux[k_g, j_g, :it] = w + flux[k_g, j_g, :it]
        host.phij[mm, kk, :it] = gd["phij"]
        host.phik[mm, j_o, :it] = gd["phik"]
        host.phii_out[mm, kk, j_o] = phi_i_out

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
        self.host.load_moment_source(moment_source)
        self.host.zero_flux()
        if boundary is None:
            boundary = VacuumBoundary(self.deck, self.quad)
        tally = SweepTally()
        for unit in self.units:
            self._sweep_unit(unit, tally, boundary)
            self._progress_tick()
        tally.leakage = getattr(boundary, "leakage", 0.0)
        return self.host.flux_logical(), tally, boundary
