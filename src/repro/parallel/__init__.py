"""Host-parallel execution of independent simulated work units.

The functional Cell solver spends its host time in numpy kernels that
model *independent* pieces of simulated hardware: the
``(octant, angle-block)`` slices of one chip's sweep.  This package
runs those units on a ``multiprocessing`` pool with the bulk arrays in
shared memory (:mod:`repro.parallel.shm`) and reduces their results in
the serial order (:mod:`repro.parallel.workunits`), so a parallel solve
is bit-identical to the serial engine for any worker count.  It is the
one host-parallel protocol of a single chip; a P x Q cluster is
host-parallelised by :mod:`repro.cluster` (ranks as processes over a
transport), not here.

Entry points: ``CellSweep3D(..., workers=N)`` (:class:`ParallelEngine`)
and ``repro solve --workers N`` on the command line.

Worker processes and shared-memory segments can outlive any one solver
through :class:`PersistentPool` (``pool="keep"`` / ``--pool keep``):
parked workers keep their warm compiled-ISA program caches, and the
:class:`SegmentRegistry` reuses segments across solves of the same
deck shape (:mod:`repro.parallel.pool`).
"""

from .engine import ParallelEngine
from .pool import PersistentPool, global_pool, resolve_pool
from .shm import AttachedArrays, SegmentRegistry, SharedArrayPool
from .workunits import (
    BlockUnit,
    RecordingVacuumBoundary,
    UnitResult,
    enumerate_block_units,
    replay_flux,
)

__all__ = [
    "ParallelEngine",
    "PersistentPool",
    "global_pool",
    "resolve_pool",
    "SharedArrayPool",
    "SegmentRegistry",
    "AttachedArrays",
    "BlockUnit",
    "RecordingVacuumBoundary",
    "UnitResult",
    "enumerate_block_units",
    "replay_flux",
]

