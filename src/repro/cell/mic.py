"""Memory-interface-controller (MIC) timing model: bandwidth and banks.

The MIC provides 25.6 GB/s of main-memory bandwidth for the whole chip
(Sec. 2) out of 16 interleaved banks of 128-byte blocks.  Three effects the
paper tunes for are modelled mechanistically:

* **block granularity** -- the controller moves whole 128-byte blocks, so
  an unaligned or ragged transfer pays for every block it touches.  This
  is why porting step 3 enforces 128-byte alignment and why aligning the
  rows of the flattened arrays (Sec. 5) bought 3.55 s -> 3.03 s.
* **per-command overhead** -- each individual MFC command costs fixed
  cycles to enqueue and process; a DMA list amortizes that cost over up to
  2,048 elements ("converting the individual DMA commands to DMA lists").
* **bank spread** -- when concurrent transfers hammer a subset of the 16
  banks, effective bandwidth drops by the ratio of the busiest bank to the
  mean ("adding offsets to the array allocation to more fairly spread the
  memory accesses across the 16 main memory banks").

``transfer_cycles`` is a throughput model (the quantity that matters for a
bandwidth-bound sweep); latency hiding across commands is the job of
:mod:`repro.core.streaming`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..metrics.registry import NULL_REGISTRY
from ..trace.bus import MIC_TRACK, NULL_BUS
from . import constants
from .dma import AnyDMACommand, DMACommand, DMAElement, DMAListCommand, LSToLSCommand

#: Cycles for the SPU to enqueue one MFC command (channel writes for EA,
#: LSA, size, tag, opcode) plus controller decode.  Order of 100 cycles on
#: real hardware.
COMMAND_OVERHEAD_CYCLES: int = 96

#: Extra cycles for the MFC to fetch and process one DMA-list element.
LIST_ELEMENT_OVERHEAD_CYCLES: int = 12

#: Aggregate main-memory bandwidth in bytes per SPU cycle:
#: 25.6 GB/s / 3.2 GHz = 8 bytes/cycle for the whole chip.
BYTES_PER_CYCLE: float = constants.MIC_BANDWIDTH / constants.CLOCK_HZ


def blocks_touched(elements: Iterable[DMAElement]) -> int:
    """Number of 128-byte memory blocks a set of transfer elements touches."""
    stride = constants.MEMORY_BANK_STRIDE
    total = 0
    for el in elements:
        first = el.ea // stride
        last = (el.ea + max(el.size, 1) - 1) // stride
        total += last - first + 1
    return total


def bank_histogram(elements: Iterable[DMAElement]) -> Counter[int]:
    """128-byte block count per memory bank."""
    hist: Counter[int] = Counter()
    for el in elements:
        for bank in el.banks():
            hist[bank] += 1
    return hist


def bank_spread_factor(elements: Sequence[DMAElement]) -> float:
    """Slowdown factor >= 1 from uneven bank utilisation.

    With perfectly even access the factor is 1.0; if every block lands in
    one bank the controller serialises on it and the factor approaches
    ``NUM_MEMORY_BANKS``.  The factor is the ratio of the busiest bank's
    load to the perfectly-even per-bank load.
    """
    hist = bank_histogram(elements)
    total = sum(hist.values())
    if total == 0:
        return 1.0
    even = total / constants.NUM_MEMORY_BANKS
    return max(hist.values()) / even if even > 0 else 1.0


@dataclass(frozen=True)
class TransferCost:
    """Cycle breakdown of a batch of DMA commands through the MIC."""

    payload_bytes: int
    touched_bytes: int
    command_overhead_cycles: float
    bandwidth_cycles: float
    bank_factor: float

    @property
    def total_cycles(self) -> float:
        return self.command_overhead_cycles + self.bandwidth_cycles * self.bank_factor

    def total_cycles_scaled(self, overhead_scale: float = 1.0) -> float:
        """Total cycles with the command/element overheads scaled -- used
        for granularity what-ifs that change command structure but not
        payload (Figure 10's "increasing the communication granularity")."""
        return (
            self.command_overhead_cycles * overhead_scale
            + self.bandwidth_cycles * self.bank_factor
        )

    @property
    def efficiency(self) -> float:
        """Achieved fraction of peak bandwidth for the payload bytes."""
        if self.total_cycles == 0:
            return 1.0
        ideal = self.payload_bytes / BYTES_PER_CYCLE
        return ideal / self.total_cycles


class MemoryTimingModel:
    """Computes transfer costs for batches of DMA commands.

    ``overlap_commands`` models the MFC's ability to pipeline queued
    commands: command overheads beyond the first are hidden behind data
    movement when the queue is kept non-empty (the MFC "accepts and
    processes DMA commands ... in parallel with the data transfer").
    """

    def __init__(self, overlap_commands: bool = True, bank_weight: float = 1.0) -> None:
        """``bank_weight`` scales how much of the raw bank-imbalance ratio
        is exposed as slowdown: the controller reorders across its open
        banks, so the histogram ratio is an upper bound.  1.0 exposes it
        fully; the calibrated application model uses a small weight (see
        ``repro.perf.calibration.BANK_CONFLICT_WEIGHT``)."""
        if not 0.0 <= bank_weight <= 1.0:
            raise ValueError(f"bank_weight must be in [0, 1], got {bank_weight}")
        self.overlap_commands = overlap_commands
        self.bank_weight = bank_weight
        #: trace bus (see ``CellBE.install_trace``); fed by :meth:`observe`
        #: once per costed batch, whether the batch was priced just now
        #: or replayed from a transfer plan (:mod:`repro.core.streaming`),
        #: so the event stream is independent of cache warmth.
        self.trace = NULL_BUS
        #: metrics registry (see ``CellBE.install_metrics``); fed by
        #: :meth:`observe`, like the trace hook.
        self.metrics = NULL_REGISTRY

    def cost(self, commands: Sequence[AnyDMACommand]) -> TransferCost:
        """Throughput cost of issuing and completing ``commands``,
        reported to the attached trace bus and metrics registry."""
        result = self.price(commands)
        self.observe(result, len(commands))
        return result

    def observe(self, result: TransferCost, commands: int) -> None:
        """Report one costed batch of ``commands`` commands."""
        if self.metrics.enabled:
            m = self.metrics
            m.count("mic.batches")
            m.count("mic.payload_bytes", result.payload_bytes)
            m.count("mic.touched_bytes", result.touched_bytes)
            # the bank-imbalance penalty alone, so `mic.bank_penalty_ticks
            # / spe*.dma_wait_ticks` reads off what uneven bank spread
            # costs -- the quantity the paper's bank offsets tune away.
            m.add_cycles(
                "mic.bank_penalty_ticks",
                result.bandwidth_cycles * (result.bank_factor - 1.0),
            )
        if self.trace.enabled:
            self.trace.instant(
                MIC_TRACK, "MicBankAccess",
                commands=commands, payload_bytes=result.payload_bytes,
                touched_bytes=result.touched_bytes,
                bank_factor=result.bank_factor,
            )

    def price(self, commands: Sequence[AnyDMACommand]) -> TransferCost:
        """The cost of ``commands`` as a pure function of their types,
        element sizes and effective addresses modulo the bank
        interleave (``bank_signature`` of each command): nothing is
        reported and nothing is remembered."""
        payload = 0
        elements: list[DMAElement] = []
        overhead = 0.0
        ls_to_ls_bytes = 0
        for cmd in commands:
            payload += cmd.total_bytes
            elements.extend(cmd.elements())
            if isinstance(cmd, DMAListCommand):
                overhead += COMMAND_OVERHEAD_CYCLES
                overhead += LIST_ELEMENT_OVERHEAD_CYCLES * len(cmd.elements_spec)
            elif isinstance(cmd, LSToLSCommand):
                # rides the EIB at the per-port rate; no memory banks.
                overhead += COMMAND_OVERHEAD_CYCLES
                ls_to_ls_bytes += cmd.total_bytes
            elif isinstance(cmd, DMACommand):
                overhead += COMMAND_OVERHEAD_CYCLES
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown DMA command type {type(cmd)!r}")
        touched = blocks_touched(elements) * constants.MEMORY_BANK_STRIDE
        bw_cycles = (
            touched / BYTES_PER_CYCLE
            + ls_to_ls_bytes / constants.LS_PORT_BYTES_PER_CYCLE
        )
        if self.overlap_commands and len(commands) > 1:
            # All overheads but the first hide behind earlier transfers,
            # to the extent the data movement is long enough to cover them.
            exposed = COMMAND_OVERHEAD_CYCLES + max(
                0.0, (overhead - COMMAND_OVERHEAD_CYCLES) - bw_cycles
            )
            overhead = exposed
        raw_factor = bank_spread_factor(elements)
        return TransferCost(
            payload_bytes=payload,
            touched_bytes=touched,
            command_overhead_cycles=overhead,
            bandwidth_cycles=bw_cycles,
            bank_factor=1.0 + (raw_factor - 1.0) * self.bank_weight,
        )
