"""Published Cell Broadband Engine architectural parameters.

Every number here is taken from the paper (Sec. 2, "The Cell BE Processor")
or from the public Cell BE Architecture specification it cites.  These are
*inputs* to the simulator, not calibrated fudge factors; the calibrated
overheads live in :mod:`repro.perf.calibration`.
"""

from __future__ import annotations

from ..units import gb_per_s, ghz, kib

#: SPU / PPE clock frequency (Hz).  "The latest Cell processor, running at
#: 3.2 GHz" (Sec. 2).
CLOCK_HZ: float = ghz(3.2)

#: Number of Synergistic Processing Elements on the chip.
NUM_SPES: int = 8

#: Local-store capacity per SPE, bytes ("a 256 KB local scratchpad memory").
LOCAL_STORE_BYTES: int = kib(256)

#: SIMD register width in bytes (128-bit registers).
VECTOR_BYTES: int = 16

#: Number of 128-bit SIMD registers per SPU.
NUM_REGISTERS: int = 128

#: Double-precision lanes per vector (2 x 64-bit).
DP_LANES: int = 2

#: Single-precision lanes per vector (4 x 32-bit).
SP_LANES: int = 4

#: The DP unit is only partially pipelined: one 2-way DP vector operation
#: can issue every 7 SPU cycles ("two double-precision flops every seven
#: SPU clocks" -- with fused multiply-add that is 4 flops / 7 cycles).
DP_ISSUE_INTERVAL_CYCLES: int = 7

#: Flops per DP fused multiply-add vector instruction (2 lanes x mul+add).
DP_FLOPS_PER_FMA: int = 4

#: Flops per SP fused multiply-add vector instruction (4 lanes x mul+add).
SP_FLOPS_PER_FMA: int = 8

#: Theoretical peak, double precision, whole chip (flop/s):
#: 8 SPEs x 4 flops / 7 cycles x 3.2 GHz = 14.63 Gflop/s (Sec. 2).
DP_PEAK_FLOPS: float = NUM_SPES * DP_FLOPS_PER_FMA / DP_ISSUE_INTERVAL_CYCLES * CLOCK_HZ

#: Theoretical peak, single precision, whole chip (flop/s):
#: 8 SPEs x 8 flops/cycle x 3.2 GHz = 204.8 Gflop/s (Sec. 2).
SP_PEAK_FLOPS: float = NUM_SPES * SP_FLOPS_PER_FMA * CLOCK_HZ

#: Main-memory (MIC) peak bandwidth, bytes/s ("25.6 Gigabytes/second").
MIC_BANDWIDTH: float = gb_per_s(25.6)

#: Element Interconnect Bus aggregate peak bandwidth, bytes/s.  Quoted
#: only: the MIC saturates first (Sec. 6), so no model reads it.
EIB_BANDWIDTH: float = gb_per_s(204.8)

#: Number of interleaved main-memory banks (Sec. 5: "the 16 main memory
#: banks").
NUM_MEMORY_BANKS: int = 16

#: Granularity of one memory-bank interleave stride, bytes.  The Cell's
#: XDR memory interleaves on 128-byte naturally aligned blocks.
MEMORY_BANK_STRIDE: int = 128

#: Cache-line / peak-DMA alignment, bytes ("cache-line (128 bytes)
#: alignment ... to improve DMA performance", Sec. 5).
CACHE_LINE_BYTES: int = 128

#: Largest single DMA transfer, bytes.
DMA_MAX_BYTES: int = 16 * 1024

#: Small DMA sizes allowed below the 16-byte granularity rule.
DMA_SMALL_SIZES: tuple[int, ...] = (1, 2, 4, 8)

#: Quantum for large DMA transfers, bytes ("a multiple of 16-bytes").
DMA_QUANTUM: int = 16

#: Maximum number of elements in one DMA list ("up to 2,048 DMA transfers").
DMA_LIST_MAX_ELEMENTS: int = 2048

#: MFC command-queue depth per SPE (16 entries in the CBEA spec).
MFC_QUEUE_DEPTH: int = 16

#: SPU outbound / inbound mailbox depths (CBEA: 1 outbound entry,
#: 1 outbound-interrupt entry, 4 inbound entries).
MAILBOX_INBOUND_DEPTH: int = 4
MAILBOX_OUTBOUND_DEPTH: int = 1

#: Sustained SPE-to-SPE local-store transfer rate: 16 bytes read plus
#: 16 bytes written every SPU cycle per SPE port (Sec. 2 states 16+16 bytes
#: per cycle across the EIB).  Quoted only: the port moves no data
#: between local stores, so no model reads it.
LS_PORT_BYTES_PER_CYCLE: int = 16
