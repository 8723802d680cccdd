"""The five levels of parallelism (paper Sec. 4, Figure 4).

The paper's central claim is that high performance on the Cell BE
requires exploiting *all five* levels simultaneously:

1. **Process-level** -- the existing MPI wavefront across chips
   (:mod:`repro.mpi.wavefront`);
2. **Thread-level** -- I-lines of each jkm diagonal fanned out across
   the eight SPEs;
3. **Data-streaming** -- double-buffered DMA staging of each chunk's
   working set through the 256 KB local stores;
4. **Vector** -- 2-way double-precision (4-way single-precision) SIMD;
5. **Pipeline** -- multiple logical threads of vectorization to keep
   both SPU issue pipes busy and hide dependency stalls ("our double
   precision implementation uses four different logical threads of
   vectorization").

:class:`MachineConfig` captures one point in this space plus the
orthogonal tuning knobs of Sec. 5 (alignment, DMA lists, memory-bank
offsets, synchronization protocol, scheduler).  The Figure-5 ladder in
:mod:`repro.core.optimizations` is a sequence of these configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from ..errors import ConfigurationError


class Precision(Enum):
    """Floating-point precision of the SPE kernel."""

    DOUBLE = "double"   # 2-way SIMD, partially pipelined (4 flops / 7 cycles)
    SINGLE = "single"   # 4-way SIMD, fully pipelined (8 flops / cycle)


class SyncProtocol(Enum):
    """PPE <-> SPE synchronization protocol (Sec. 5, final optimization)."""

    #: mailbox writes/reads; PPE side pays slow MMIO.
    MAILBOX = "mailbox"
    #: "a combination of DMAs and direct local store memory poking from
    #: the PPE" -- the protocol that brought 1.48 s down to 1.33 s.
    LS_POKE = "ls_poke"


class SchedulerKind(Enum):
    """Who hands out I-line chunks (Sec. 6 / Figure 10)."""

    #: the PPE farms chunks to SPEs (the paper's implementation).
    CENTRALIZED = "centralized"
    #: SPEs self-schedule via an atomic work counter (projected).
    DISTRIBUTED = "distributed"


@dataclass(frozen=True)
class MachineConfig:
    """One configuration of the Cell Sweep3D implementation."""

    #: SPEs used for thread-level parallelism (0 = PPE-only port).
    num_spes: int = 8
    #: I-lines per scheduled chunk ("farms chunks of four iterations to
    #: each SPE", Sec. 6).
    chunk_lines: int = 4
    #: porting step 3 / Sec. 5: 128-byte alignment of array rows.
    aligned_rows: bool = False
    #: Sec. 5: "modifying the inner loop to eliminate goto statements".
    #: Without it the scalar inner loop carries data-dependent branches
    #: the SPU's static branch hints cannot cover.
    structured_loops: bool = False
    #: data-streaming level: double-buffered DMA.
    double_buffer: bool = False
    #: vector + pipeline levels: the SIMDized kernel with four logical
    #: vectorization threads (False = scalar SPE code).
    simd: bool = False
    #: DMA-list coalescing of the working-set transfers.
    dma_lists: bool = False
    #: staggered bank offsets of row allocations.
    bank_offsets: bool = False
    #: PPE<->SPE synchronization protocol.
    sync: SyncProtocol = SyncProtocol.MAILBOX
    #: work distribution.
    scheduler: SchedulerKind = SchedulerKind.CENTRALIZED
    #: kernel precision.
    precision: Precision = Precision.DOUBLE
    #: Figure-10 architectural what-if: a fully pipelined DP unit.
    pipelined_dp: bool = False
    #: Sec. 6 projection: coalesce DMA into larger granularity than the
    #: 512-byte row lists of the measured implementation.
    large_dma_granularity: bool = False
    #: run the SPE kernel through the functional SPU ISA interpreter
    #: (:mod:`repro.cell.isa`) instead of the fused numpy reference: every
    #: line block is computed by executing the recorded instruction
    #: stream, so the arithmetic the solver performs *is* the arithmetic
    #: the pipeline model times.  Requires ``simd`` (the ISA kernel is
    #: the SIMDized kernel) and double precision.
    isa_kernel: bool = False
    #: host-simulator optimization (no simulated-machine effect): lower
    #: each recorded instruction stream once into a compiled program of
    #: whole-array numpy ops with a leading batch axis, and run every
    #: line of a jkm diagonal through one compiled call
    #: (:mod:`repro.cell.isa_compile`).  Replay performs the exact
    #: per-lane operation sequence of the interpreter, so results are
    #: bit-identical and simulated time is untouched.
    compile_isa: bool = True
    #: machine-wide event tracing (:mod:`repro.trace`): the solver builds
    #: a TraceBus and installs it chip-wide, and every instrumented unit
    #: (MFC, MIC, mailboxes, sync, schedulers, kernel) emits typed,
    #: timestamped events -- including when a chunk's DMA programs are
    #: replayed from a transfer plan (:mod:`repro.core.streaming`),
    #: which stays observable-transparent.  Off by default; the
    #: disabled hooks are single-branch no-ops.
    trace: bool = False
    #: always-cheap machine metrics (:mod:`repro.metrics`): the solver
    #: builds a MetricsRegistry and installs it chip-wide through the
    #: same seams the trace hooks use; counters/gauges/histograms are
    #: integer-valued so cross-process merges are bit-identical for any
    #: worker count.  Off by default; the disabled hooks hit the shared
    #: NULL_REGISTRY and cost one branch.
    metrics: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.num_spes <= 8:
            raise ConfigurationError(f"num_spes must be 0..8, got {self.num_spes}")
        if self.chunk_lines < 1:
            raise ConfigurationError(
                f"chunk_lines must be >= 1, got {self.chunk_lines}"
            )
        if self.num_spes == 0 and (self.simd or self.double_buffer):
            raise ConfigurationError(
                "PPE-only configuration cannot enable SPE-side levels"
            )
        if self.isa_kernel and not self.simd:
            raise ConfigurationError(
                "isa_kernel replays the SIMDized kernel and requires simd=True"
            )

    @property
    def uses_spes(self) -> bool:
        return self.num_spes > 0

    def with_(self, **changes) -> "MachineConfig":
        return replace(self, **changes)

    def levels_active(self) -> dict[str, bool]:
        """Which of the five parallelism levels this config exercises
        (process-level is owned by :mod:`repro.mpi` and always available)."""
        return {
            "process": True,
            "thread": self.uses_spes,
            "data_streaming": self.double_buffer,
            "vector": self.simd,
            "pipeline": self.simd,  # the four logical threads ride on SIMD
        }
