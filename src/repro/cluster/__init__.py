"""The rank runtime of the KBA face-message fabric, in one process or many.

The paper's Figs. 10-11 extrapolate Sweep3D from one Cell chip to large
Cell clusters, where the per-direction KBA face messages -- not the
kernel -- set the scaling curve.  This package runs the rank grid as
threads of one process or across OS processes and hosts, behind the
existing :class:`~repro.sweep.pipelining.BoundaryIO` face-message
interface:

* :mod:`repro.cluster.frames` -- length-prefixed wire frames with
  per-destination small-message coalescing;
* :mod:`repro.cluster.transport` -- the two rank-to-rank transports:
  the in-process :class:`~repro.cluster.transport.LocalFabric` (rank
  threads, fail-fast abort, exact deadlock detection) and a TCP socket
  transport with eager sends and lazy receives;
* :mod:`repro.cluster.runtime` -- the one per-rank solve program, run
  on a fabric thread or in a `repro cluster-rank` process that rebinds
  deck + config from a manifest;
* :mod:`repro.cluster.driver` -- the parent: rendezvous, rank process
  lifecycle, serial-rank-order refolds preserving the bit-identity
  contract, and serve-style drain on SIGTERM.

See ``docs/CLUSTER.md`` for the architecture walk-through.
"""

from __future__ import annotations

from .driver import ClusterReport, run_cluster_solve
from .transport import TransportStats

__all__ = [
    "ClusterReport",
    "run_cluster_solve",
    "TransportStats",
]
