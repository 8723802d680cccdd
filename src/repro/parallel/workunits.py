"""Self-contained work units and deterministic reductions.

The bit-identity guarantee of the host-parallel engine rests on two
facts about the staged solver:

* the cell-centred angular flux ``psi`` of a line depends on the moment
  source, the cross sections and the block's face state -- **not** on
  the flux accumulator.  An ``(octant, angle-block)`` unit can therefore
  run in any process, capture its ``psi`` rows into shared memory, and
  the parent *replays* ``Flux[n] = wpn[n,a] * psi[a] + Flux[n]`` over
  the whole grid in the serial nesting order (octant ascending, angle
  block ascending, angle ascending).  Each flux element then sees the
  exact multiply-add chain the serial solver performed, so the result
  is bit-identical -- not merely close -- for any worker count;
* floating-point leakage is a ``+=`` chain whose order matters, so the
  recording boundary below captures every per-(send, angle)
  contribution in execution order and the parent refolds them through
  the same ``_tally`` funnel, again in the serial order.

Fixup counts are integers; their sum is order-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sweep.input import InputDeck
from ..sweep.pipelining import VacuumBoundary, angle_blocks
from ..sweep.quadrature import Quadrature


@dataclass(frozen=True)
class BlockUnit:
    """One independent (octant, angle-block) slice of a sweep."""

    index: int
    octant: int
    angles: tuple[int, ...]  # ordinate indices local to the octant


def enumerate_block_units(deck: InputDeck, quad: Quadrature) -> list[BlockUnit]:
    """All units of one sweep, in the serial execution order."""
    units: list[BlockUnit] = []
    for octant in range(8):
        for angles in angle_blocks(quad.per_octant, deck.mmi):
            units.append(BlockUnit(len(units), octant, tuple(angles)))
    return units


@dataclass
class UnitResult:
    """What a worker sends back: a few scalars, never arrays."""

    index: int
    fixups: int
    leak_records: list[float]
    #: trace capture (block units under MachineConfig.trace)
    events: list | None = None
    start: float = 0.0
    span: float = 0.0
    #: metrics capture (block units under MachineConfig.metrics):
    #: the unit's registry delta as a ``MetricsRegistry.to_dict()``
    #: snapshot.  All-integer aggregates, so the parent's merge in
    #: serial unit order reproduces the serial registry bit for bit.
    metrics: dict | None = None
    #: compile-stats delta (:func:`repro.cell.isa_compile.stats_delta`)
    #: of the unit's execution, folded into the *pool* registry -- never
    #: the solver's, whose bits must not depend on the worker count.
    compile: dict | None = None


class RecordingVacuumBoundary(VacuumBoundary):
    """Vacuum boundary that remembers each leakage contribution in
    order, so the parent can refold the exact serial summation chain."""

    def __init__(self, deck: InputDeck, quadrature: Quadrature) -> None:
        super().__init__(deck, quadrature)
        self.records: list[float] = []

    def _tally(self, contribution: float) -> None:
        self.records.append(contribution)
        super()._tally(contribution)


def replay_flux(host, psi: np.ndarray, quad: Quadrature, basis, deck: InputDeck) -> None:
    """Accumulate the captured angular flux into ``host.flux_storage``
    in the serial order.

    ``psi[a, k, j, :it]`` holds angle ``a``'s cell-centred flux in
    global storage coordinates.  The serial solver updates each flux
    row once per angle, in (octant asc, angle-block asc, angle asc)
    order, with one elementwise multiply-add per visit; iterating
    angles in that order over the whole grid performs the identical
    chain, element for element."""
    it = deck.grid.nx
    wpn = basis.wpn
    for octant in range(8):
        base = octant * quad.per_octant
        for angles in angle_blocks(quad.per_octant, deck.mmi):
            for a_local in angles:
                a = base + a_local
                pa = psi[a, :, :, :it]
                for n in range(deck.nm):
                    fs = host.flux_storage[n]
                    fs[:, :, :it] = wpn[n, a] * pa + fs[:, :, :it]
