"""KBA wavefront decomposition of Sweep3D over the 2-D process grid.

This is Figure 1: the I and J axes are block-distributed over a P x Q
process array; each rank owns an ``it_local x jt_local x kt`` tile.  A
sweep starts at the corner rank of the octant's direction and propagates
as a diagonal wave; MK/MMI pipelining keeps downstream ranks busy
("sweep() is coded to pipeline blocks of MK K-planes and MMI angles
through this two-dimensional process array for each octant", Sec. 3).

The tile-local loop structure is exactly
:class:`~repro.sweep.pipelining.TileSweeper`; this module contributes the
face-message tag codec, the :class:`RankBoundary` that turns the
sweeper's RECV/SEND hooks into messages on a transport endpoint, and
:class:`KBASweep3D`, the rank-grid plan plus a solve on rank threads.
The per-rank source iteration itself is
:func:`repro.cluster.runtime.run_rank_solve`, the one rank program of
every cluster path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import CommunicatorError
from ..sweep.flux import SolveResult
from ..sweep.geometry import Grid
from ..sweep.input import InputDeck
from ..sweep.quadrature import Quadrature, OCTANT_SIGNS
from .topology import Cart2D, split_extent

if TYPE_CHECKING:
    from ..cluster.transport import Endpoint

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

    Two seams serve the wire: ``send_i`` only buffers, and ``send_j``
    closes the (octant, angle-block, K-block) step with the endpoint's
    coalescing ``flush`` (one frame per destination per step); and
    ``finish_octant`` stamps per-octant walls, the per-direction sweep
    timings a cluster report carries.
    """

    def __init__(
        self,
        deck: InputDeck,
        quad: Quadrature,
        endpoint: "Endpoint",
        cart: Cart2D,
        mmi: int,
        mk: int,
    ) -> None:
        self.deck = deck
        self.quad = quad
        self.endpoint = endpoint
        self.cart = cart
        self.mmi = mmi
        self.mk = mk
        self.leakage = 0.0
        self.octant_walls = [0.0] * 8
        self._stamp = time.perf_counter()

    def _tally(self, contribution: float) -> None:
        # single funnel for domain-edge leakage, one call per
        # (send, angle), mirroring VacuumBoundary._tally
        self.leakage += contribution

    # -- direction resolution -------------------------------------------------

    def _upstream_i(self, octant: int) -> int | None:
        sx = OCTANT_SIGNS[octant][0]
        rank = self.endpoint.rank
        return self.cart.west(rank) if sx > 0 else self.cart.east(rank)

    def _downstream_i(self, octant: int) -> int | None:
        sx = OCTANT_SIGNS[octant][0]
        rank = self.endpoint.rank
        return self.cart.east(rank) if sx > 0 else self.cart.west(rank)

    def _upstream_j(self, octant: int) -> int | None:
        sy = OCTANT_SIGNS[octant][1]
        rank = self.endpoint.rank
        return self.cart.north(rank) if sy > 0 else self.cart.south(rank)

    def _downstream_j(self, octant: int) -> int | None:
        sy = OCTANT_SIGNS[octant][1]
        rank = self.endpoint.rank
        return self.cart.south(rank) if sy > 0 else self.cart.north(rank)

    # -- BoundaryIO ----------------------------------------------------------

    def _blocks(self, angles: Sequence[int], k0: int) -> tuple[int, int]:
        return angles[0] // self.mmi, k0 // self.mk

    def recv_i(self, octant, angles, k0, jt, it):
        src = self._upstream_i(octant)
        if src is None:
            return np.zeros((len(angles), self.mk, jt))
        ablock, kb = self._blocks(angles, k0)
        return self.endpoint.recv(src, _tag(_AXIS_I, octant, ablock, kb))

    def recv_j(self, octant, angles, k0, jt, it):
        src = self._upstream_j(octant)
        if src is None:
            return np.zeros((len(angles), self.mk, it))
        ablock, kb = self._blocks(angles, k0)
        return self.endpoint.recv(src, _tag(_AXIS_J, octant, ablock, kb))

    def send_i(self, octant, angles, k0, data):
        dest = self._downstream_i(octant)
        ablock, kb = self._blocks(angles, k0)
        if dest is not None:
            self.endpoint.send(dest, _tag(_AXIS_I, octant, ablock, kb), data)
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
            self.endpoint.send(dest, _tag(_AXIS_J, octant, ablock, kb), data)
        else:
            g = self.deck.grid
            base = octant * self.quad.per_octant
            for a_local, a in enumerate(angles):
                m = base + a
                self._tally(float(
                    self.quad.weight[m] * abs(self.quad.eta[m])
                    * data[a_local].sum() * g.dx * g.dz
                ))
        # the step ends here: one frame per destination, eager on the wire
        self.endpoint.flush()

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
        now = time.perf_counter()
        self.octant_walls[octant] += now - self._stamp
        self._stamp = now


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
    """Multi-rank Sweep3D: the KBA wavefront of the NumPy tile sweeper
    over a P x Q rank grid.

    The object is the decomposition (:attr:`cart`, :meth:`plan`);
    :meth:`solve` is the cluster driver's in-process path with engine
    ``"tile"`` -- :func:`repro.cluster.runtime.run_rank_solve` on one
    :class:`~repro.cluster.transport.LocalFabric` thread per rank,
    refolded in serial rank order.
    """

    def __init__(self, deck: InputDeck, P: int, Q: int):
        self.deck = deck
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

    def solve(self) -> SolveResult:
        """Run the job and return the reassembled global solution."""
        from ..cluster.driver import run_cluster_solve

        return run_cluster_solve(
            self.deck, self.cart.P, self.cart.Q,
            transport="local", engine="tile",
        ).result
