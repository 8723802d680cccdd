"""The paper's contribution: five-level parallelization of Sweep3D on
the (simulated) Cell Broadband Engine.

* :class:`~repro.core.levels.MachineConfig` -- one point in the
  five-level parallelization + tuning space;
* :class:`~repro.core.solver.CellSweep3D` -- the functional solve on the
  simulated chip, bit-identical to the serial reference;
* :mod:`~repro.core.spe_kernel` -- the SIMDized kernel (Figures 6-8) and
  its pipeline-simulated cycle counts (Sec. 5.1);
* :data:`~repro.core.optimizations.LADDER` -- the Figure-5 rungs;
* :mod:`~repro.core.projections` -- the Figure-10 what-ifs.
"""

from .levels import MachineConfig, Precision, SchedulerKind, SyncProtocol
from .optimizations import LADDER, OptimizationStage, ladder_times, stage
from .porting import HostState, RowSpec
from .projections import Projection, pipelined_dp_is_marginal, project, projection_series
from .scheduler import CentralizedScheduler, DistributedScheduler
from .solver import CellSweep3D
from .spe_kernel import (
    LOGICAL_THREADS,
    SimdKernel,
    cells_per_invocation,
    cycles_per_cell,
    kernel_cycle_report,
    simd_execute_block,
    simd_execute_blocks,
)
from .streaming import ChunkBuffers, StagedLine
from .sync import LSPokeSync, MailboxSync
from .worklist import Chunk, assign_cyclic, imbalance, make_chunks, makespan_lines, per_spe_line_counts

__all__ = [
    "CellSweep3D",
    "CentralizedScheduler",
    "Chunk",
    "ChunkBuffers",
    "DistributedScheduler",
    "HostState",
    "LADDER",
    "LOGICAL_THREADS",
    "LSPokeSync",
    "MachineConfig",
    "MailboxSync",
    "OptimizationStage",
    "Precision",
    "Projection",
    "RowSpec",
    "SchedulerKind",
    "SimdKernel",
    "StagedLine",
    "SyncProtocol",
    "assign_cyclic",
    "cells_per_invocation",
    "cycles_per_cell",
    "imbalance",
    "kernel_cycle_report",
    "ladder_times",
    "make_chunks",
    "makespan_lines",
    "per_spe_line_counts",
    "pipelined_dp_is_marginal",
    "project",
    "projection_series",
    "simd_execute_block",
    "simd_execute_blocks",
    "stage",
]
