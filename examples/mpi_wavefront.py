#!/usr/bin/env python
"""The process-level layer: KBA wavefront sweeps over a grid of ranks.

Reproduces Figure 1's picture: a 3x2 process grid sweeping a tile each,
exchanging I- and J-face fluxes with neighbours per octant, K-plane
block and angle block, then reassembling the global solution -- which
must equal the serial solve exactly.  Also demonstrates the in-process
fabric's exact deadlock detection on a deliberately wrong receive.

Usage:  python examples/mpi_wavefront.py
"""

from __future__ import annotations

import numpy as np

from repro.cluster.transport import LocalFabric
from repro.errors import DeadlockError
from repro.mpi import KBASweep3D
from repro.sweep import SerialSweep3D, small_deck


def wavefront_demo() -> None:
    deck = small_deck(n=9, sn=4, nm=2, iterations=3, mk=3)
    print(f"deck: {deck.grid.shape} cells, S{deck.sn}, "
          f"{deck.iterations} iterations")

    serial = SerialSweep3D(deck).solve()
    for P, Q in ((1, 1), (3, 2), (2, 3), (3, 3)):
        kba = KBASweep3D(deck, P=P, Q=Q)
        result = kba.solve()
        tiles = [kba.plan(r) for r in range(kba.cart.size)]
        shapes = {f"({t.nx}x{t.ny})" for t in tiles}
        equal = np.array_equal(result.flux, serial.flux)
        print(f"  {P}x{Q}: tiles {sorted(shapes)}, "
              f"bitwise equal to serial: {equal}")
        assert equal


def deadlock_demo() -> None:
    print("\nexact deadlock detection (no timeouts):")

    def broken(endpoint):
        # every rank receives from its right neighbour, nobody sends:
        # the classic reversed-octant wavefront bug.
        endpoint.recv((endpoint.rank + 1) % endpoint.size, 0)

    try:
        LocalFabric(4).run(broken)
    except DeadlockError as exc:
        print(f"  caught: {exc}")


if __name__ == "__main__":
    wavefront_demo()
    deadlock_demo()
