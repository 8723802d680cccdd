"""KBA wavefront decomposition of Sweep3D over the 2-D process grid.

This is Figure 1: the I and J axes are block-distributed over a P x Q
process array; each rank owns an ``it_local x jt_local x kt`` tile.  A
sweep starts at the corner rank of the octant's direction and propagates
as a diagonal wave; MK/MMI pipelining keeps downstream ranks busy
("sweep() is coded to pipeline blocks of MK K-planes and MMI angles
through this two-dimensional process array for each octant", Sec. 3).

The tile-local loop structure is exactly
:class:`~repro.sweep.pipelining.TileSweeper`; this module contributes the
:class:`RankBoundary` that turns the sweeper's RECV/SEND hooks into
simulated MPI messages, and :class:`KBASweep3D`, the full multi-rank
source-iteration driver whose result must equal the serial solver's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import CommunicatorError
from ..sweep.flux import SolveResult, SweepTally
from ..sweep.geometry import Grid
from ..sweep.input import InputDeck
from ..sweep.pipelining import TileSweeper
from ..sweep.quadrature import Quadrature, OCTANT_SIGNS
from .comm import SimComm
from .runtime import run_ranks
from .topology import Cart2D, dims_create, split_extent

#: tag axes for boundary messages
_AXIS_I = 0
_AXIS_J = 1

#: field widths of the packed face-message tag; every field is validated
#: on encode, because an overflowing ``kblock`` would not grow the tag
#: past any global ceiling -- it would silently alias into the
#: neighbouring ``ablock`` field and route the face to the wrong unit.
TAG_AXES = 2
TAG_OCTANTS = 8
TAG_ABLOCKS = 16
TAG_KBLOCKS = 512

#: exclusive upper bound of the face-message tag space
TAG_LIMIT = TAG_AXES * TAG_OCTANTS * TAG_ABLOCKS * TAG_KBLOCKS


def _tag(axis: int, octant: int, ablock: int, kblock: int) -> int:
    """Unique tag per (axis, octant, angle block, K block)."""
    if not 0 <= axis < TAG_AXES:
        raise CommunicatorError(f"tag axis {axis} outside 0..{TAG_AXES - 1}")
    if not 0 <= octant < TAG_OCTANTS:
        raise CommunicatorError(
            f"tag octant {octant} outside 0..{TAG_OCTANTS - 1}"
        )
    if not 0 <= ablock < TAG_ABLOCKS:
        raise CommunicatorError(
            f"tag angle-block {ablock} exceeds the {TAG_ABLOCKS}-slot "
            f"field; reduce angles/mmi"
        )
    if not 0 <= kblock < TAG_KBLOCKS:
        raise CommunicatorError(
            f"tag K-block {kblock} exceeds the {TAG_KBLOCKS}-slot field; "
            f"reduce kt/mk"
        )
    return ((axis * TAG_OCTANTS + octant) * TAG_ABLOCKS + ablock) \
        * TAG_KBLOCKS + kblock


class RankBoundary:
    """BoundaryIO that exchanges tile faces with grid neighbours.

    Directions are resolved per octant: in oriented coordinates the
    sweeper always consumes a "west" I-inflow and a "north" J-inflow; for
    an octant sweeping -I those map to the *east* neighbour, and so on.
    Faces at the global domain edge are vacuum inflows / leakage outflows.
    """

    def __init__(
        self,
        deck: InputDeck,
        quad: Quadrature,
        comm: SimComm,
        cart: Cart2D,
        mmi: int,
        mk: int,
        metrics=None,
    ) -> None:
        self.deck = deck
        self.quad = quad
        self.comm = comm
        self.cart = cart
        self.mmi = mmi
        self.mk = mk
        self.leakage = 0.0
        #: optional per-rank registry: face sends count as ``cluster.*``
        #: (the in-process mailbox is both wire halves at once, hence
        #: sent == recv), matching ``core/projections.cluster_projection``
        self.metrics = metrics

    def _count_wire(self, data) -> None:
        if self.metrics is None:
            return
        nbytes = int(data.nbytes)
        self.metrics.count("cluster.msgs_sent")
        self.metrics.count("cluster.msgs_recv")
        self.metrics.count("cluster.bytes_sent", nbytes)
        self.metrics.count("cluster.bytes_recv", nbytes)

    def _tally(self, contribution: float) -> None:
        # single funnel for domain-edge leakage, one call per
        # (send, angle), mirroring VacuumBoundary._tally
        self.leakage += contribution

    # -- direction resolution -------------------------------------------------

    def _upstream_i(self, octant: int) -> int | None:
        sx = OCTANT_SIGNS[octant][0]
        return (
            self.cart.west(self.comm.rank)
            if sx > 0
            else self.cart.east(self.comm.rank)
        )

    def _downstream_i(self, octant: int) -> int | None:
        sx = OCTANT_SIGNS[octant][0]
        return (
            self.cart.east(self.comm.rank)
            if sx > 0
            else self.cart.west(self.comm.rank)
        )

    def _upstream_j(self, octant: int) -> int | None:
        sy = OCTANT_SIGNS[octant][1]
        return (
            self.cart.north(self.comm.rank)
            if sy > 0
            else self.cart.south(self.comm.rank)
        )

    def _downstream_j(self, octant: int) -> int | None:
        sy = OCTANT_SIGNS[octant][1]
        return (
            self.cart.south(self.comm.rank)
            if sy > 0
            else self.cart.north(self.comm.rank)
        )

    # -- BoundaryIO ----------------------------------------------------------

    def _blocks(self, angles: Sequence[int], k0: int) -> tuple[int, int]:
        return angles[0] // self.mmi, k0 // self.mk

    def recv_i(self, octant, angles, k0, jt, it):
        src = self._upstream_i(octant)
        if src is None:
            return np.zeros((len(angles), self.mk, jt))
        ablock, kb = self._blocks(angles, k0)
        return self.comm.recv(src, _tag(_AXIS_I, octant, ablock, kb))

    def recv_j(self, octant, angles, k0, jt, it):
        src = self._upstream_j(octant)
        if src is None:
            return np.zeros((len(angles), self.mk, it))
        ablock, kb = self._blocks(angles, k0)
        return self.comm.recv(src, _tag(_AXIS_J, octant, ablock, kb))

    def send_i(self, octant, angles, k0, data):
        dest = self._downstream_i(octant)
        ablock, kb = self._blocks(angles, k0)
        if dest is not None:
            self.comm.send(data, dest, _tag(_AXIS_I, octant, ablock, kb))
            self._count_wire(data)
            return
        g = self.deck.grid
        base = octant * self.quad.per_octant
        for a_local, a in enumerate(angles):
            m = base + a
            self._tally(float(
                self.quad.weight[m] * abs(self.quad.mu[m])
                * data[a_local].sum() * g.dy * g.dz
            ))

    def send_j(self, octant, angles, k0, data):
        dest = self._downstream_j(octant)
        ablock, kb = self._blocks(angles, k0)
        if dest is not None:
            self.comm.send(data, dest, _tag(_AXIS_J, octant, ablock, kb))
            self._count_wire(data)
            return
        g = self.deck.grid
        base = octant * self.quad.per_octant
        for a_local, a in enumerate(angles):
            m = base + a
            self._tally(float(
                self.quad.weight[m] * abs(self.quad.eta[m])
                * data[a_local].sum() * g.dx * g.dz
            ))

    def finish_octant(self, octant, angles, phik):
        # K is never decomposed: the top face is always a global boundary.
        g = self.deck.grid
        base = octant * self.quad.per_octant
        for a_local, a in enumerate(angles):
            m = base + a
            self._tally(float(
                self.quad.weight[m] * abs(self.quad.xi[m])
                * phik[a_local].sum() * g.dx * g.dy
            ))


@dataclass(frozen=True)
class TilePlan:
    """One rank's slice of the global grid."""

    p: int
    q: int
    x0: int
    nx: int
    y0: int
    ny: int

    def local_grid(self, global_grid: Grid) -> Grid:
        return Grid(
            self.nx, self.ny, global_grid.nz,
            global_grid.dx, global_grid.dy, global_grid.dz,
        )


class KBASweep3D:
    """Multi-rank Sweep3D: KBA wavefront over a simulated MPI job.

    ``sweeper_factory`` builds the per-rank tile solver from the rank's
    local deck; any object with the
    :meth:`~repro.sweep.pipelining.TileSweeper.sweep` contract (and
    ``quad``/``basis`` attributes) works.  The default is the NumPy
    :class:`~repro.sweep.pipelining.TileSweeper`;
    :class:`repro.core.cluster.CellClusterSweep3D` passes a factory that
    builds a full simulated Cell BE per rank -- the paper's levels 1-5
    all at once.
    """

    def __init__(
        self,
        deck: InputDeck,
        P: int | None = None,
        Q: int | None = None,
        sweeper_factory=None,
    ):
        if P is None or Q is None:
            P, Q = dims_create(P or Q or 4) if (P or Q) else dims_create(4)
        self.deck = deck
        self.sweeper_factory = sweeper_factory or TileSweeper
        #: when True, each rank's face sends count ``cluster.*`` wire
        #: metrics into its sweeper's registry (set by
        #: :class:`repro.core.cluster.CellClusterSweep3D`)
        self.count_wire = False
        self.cart = Cart2D(P, Q)
        if P > deck.grid.nx or Q > deck.grid.ny:
            raise CommunicatorError(
                f"process grid {P}x{Q} larger than cell grid "
                f"{deck.grid.nx}x{deck.grid.ny}"
            )
        self._x_split = split_extent(deck.grid.nx, P)
        self._y_split = split_extent(deck.grid.ny, Q)

    def plan(self, rank: int) -> TilePlan:
        p, q = self.cart.coords(rank)
        x0, nx = self._x_split[p]
        y0, ny = self._y_split[q]
        return TilePlan(p, q, x0, nx, y0, ny)

    # -- per-rank program ---------------------------------------------------------

    def _rank_program(self, comm: SimComm):
        deck = self.deck
        plan = self.plan(comm.rank)
        local_deck = deck.tile(
            (plan.x0, plan.y0, 0), plan.local_grid(deck.grid)
        )
        sweeper = self.sweeper_factory(local_deck)
        quad = sweeper.quad
        from ..sweep.moments import build_moment_source

        flux = np.zeros((deck.nm, *local_deck.grid.shape))
        history: list[float] = []
        total = SweepTally()
        for _ in range(deck.iterations):
            msrc = build_moment_source(local_deck, flux)
            boundary = RankBoundary(
                local_deck, quad, comm, self.cart, deck.mmi, deck.mk,
                metrics=(
                    getattr(sweeper, "metrics", None)
                    if self.count_wire else None
                ),
            )
            new_flux, tally, _ = sweeper.sweep(msrc, boundary=boundary)
            total.fixups += tally.fixups
            total.leakage = boundary.leakage
            diff = float(np.max(np.abs(new_flux[0] - flux[0])))
            scale = float(np.max(np.abs(new_flux[0])))
            gdiff = comm.allreduce(diff, max)
            gscale = comm.allreduce(scale, max)
            history.append(gdiff / gscale if gscale else 0.0)
            flux = new_flux
        fixups = comm.reduce(total.fixups, lambda a, b: a + b)
        leakage = comm.reduce(total.leakage, lambda a, b: a + b)
        tiles = comm.gather(flux)
        if comm.rank != 0:
            return None
        global_flux = np.zeros((deck.nm, *deck.grid.shape))
        for rank, tile_flux in enumerate(tiles):
            tile_plan = self.plan(rank)
            global_flux[
                :,
                tile_plan.x0 : tile_plan.x0 + tile_plan.nx,
                tile_plan.y0 : tile_plan.y0 + tile_plan.ny,
                :,
            ] = tile_flux
        return SolveResult(
            flux=global_flux,
            iterations=deck.iterations,
            history=history,
            tally=SweepTally(fixups=fixups, leakage=leakage),
            converged=True,
        )

    def solve(self) -> SolveResult:
        """Run the job and return the reassembled global solution."""
        results = run_ranks(self.cart.size, self._rank_program)
        return results[0]
