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
from ..sweep.pipelining import BlockUnit, VacuumBoundary
from ..sweep.quadrature import Quadrature


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


def replay_flux(host, psi: np.ndarray, units: list[BlockUnit], basis) -> None:
    """Accumulate the captured angular flux into ``host.flux_storage``
    in the serial order.

    ``psi[a, k, j, :it]`` holds angle ``a``'s cell-centred flux in
    global storage coordinates.  The serial solver updates each flux
    row once per angle, in unit order and angle order within a unit,
    with one elementwise multiply-add per visit; iterating ``units``
    (the sweep's serial enumeration) over the whole grid performs the
    identical chain, element for element."""
    it = host.deck.grid.nx
    wpn = basis.wpn
    for unit in units:
        for a in unit.ordinates:
            pa = psi[a, :, :, :it]
            for n, fs in enumerate(host.flux_storage):
                fs[:, :, :it] = wpn[n, a] * pa + fs[:, :, :it]
