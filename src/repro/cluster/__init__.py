"""Multi-host cluster transport for the KBA face-message fabric.

The paper's Figs. 10-11 extrapolate Sweep3D from one Cell chip to large
Cell clusters, where the per-direction KBA face messages -- not the
kernel -- set the scaling curve.  This package lets the rank grid span
OS processes and hosts behind the existing
:class:`~repro.sweep.pipelining.BoundaryIO` face-message interface:

* :mod:`repro.cluster.frames` -- length-prefixed wire frames with
  per-destination small-message coalescing;
* :mod:`repro.cluster.transport` -- the two rank-to-rank endpoints: an
  in-process reference transport (bit-identical to the queue path) and
  a TCP socket transport with eager sends and lazy receives;
* :mod:`repro.cluster.runtime` -- the per-rank solve program
  (`repro cluster-rank`) that rebinds deck + config from a manifest;
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
