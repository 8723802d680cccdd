"""Element Interconnect Bus (EIB) model.

The EIB connects the PPE, the eight SPEs, the MIC and the I/O controllers
with an aggregate peak of 204.8 GB/s (Sec. 2).  For Sweep3D the EIB is
never the bottleneck -- main-memory bandwidth (25.6 GB/s) saturates first
-- but the model keeps the bus in the loop so that LS-to-LS transfers and
the aggregate-bandwidth sanity check of Sec. 6 are first-class.

The model is a shared-capacity throughput model: each participant has a
port sustaining 16 bytes read + 16 bytes written per cycle (Sec. 2:
"SPE to SPE transfers can be sustained at a rate of 16 bytes (read) plus
16 bytes (write) every 16 SPU clock cycles" refers to concurrent streams;
the per-port peak is one quadword per cycle per direction), and the bus as
a whole sustains ``EIB_BANDWIDTH``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..trace.bus import EIB_TRACK, NULL_BUS
from . import constants

#: Aggregate EIB bandwidth, bytes per SPU cycle: 204.8 GB/s / 3.2 GHz = 64.
EIB_BYTES_PER_CYCLE: float = constants.EIB_BANDWIDTH / constants.CLOCK_HZ

#: Per-port bandwidth each direction, bytes per cycle (one quadword).
PORT_BYTES_PER_CYCLE: float = float(constants.LS_PORT_BYTES_PER_CYCLE)

#: Command/arbitration latency for starting one bus transaction, cycles.
ARBITRATION_CYCLES: int = 24


@dataclass(frozen=True)
class BusCost:
    """Cycle cost of a set of concurrent bus flows."""

    total_bytes: int
    cycles: float


class EIBModel:
    """Throughput model for concurrent point-to-point flows on the EIB."""

    def __init__(self) -> None:
        #: trace bus (see ``CellBE.install_trace``).
        self.trace = NULL_BUS

    def ls_to_ls_cycles(self, nbytes: int) -> float:
        """Cycles to move ``nbytes`` between two local stores.

        Limited by the per-port rate; the bus core is 4x faster than any
        single port so a single flow never sees aggregate contention.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        cycles = ARBITRATION_CYCLES + nbytes / PORT_BYTES_PER_CYCLE
        if self.trace.enabled:
            self.trace.instant(
                EIB_TRACK, "EibFlow", flows=1, bytes=nbytes, cycles=cycles
            )
        return cycles

    def concurrent_flows_cycles(self, flow_bytes: list[int]) -> BusCost:
        """Cycles for ``len(flow_bytes)`` concurrent flows to all finish.

        Each flow is limited by its port; the set is limited by the
        aggregate EIB capacity.  Returns the makespan under the tighter of
        the two constraints (a fluid model: flows share capacity evenly).
        """
        if any(b < 0 for b in flow_bytes):
            raise ValueError("negative flow size")
        total = sum(flow_bytes)
        if total == 0:
            return BusCost(0, 0.0)
        per_port_makespan = max(b / PORT_BYTES_PER_CYCLE for b in flow_bytes)
        aggregate_makespan = total / EIB_BYTES_PER_CYCLE
        cost = BusCost(
            total, ARBITRATION_CYCLES + max(per_port_makespan, aggregate_makespan)
        )
        if self.trace.enabled:
            self.trace.instant(
                EIB_TRACK, "EibFlow", flows=len(flow_bytes), bytes=total,
                cycles=cost.cycles,
            )
        return cost

    def mic_bound_check(self, nbytes: int, mic_cycles: float) -> bool:
        """True when main memory, not the EIB, limits a transfer of
        ``nbytes`` taking ``mic_cycles`` through the MIC (the Sec. 6
        situation: 17.6 GB through 25.6 GB/s dominates)."""
        eib_cycles = nbytes / EIB_BYTES_PER_CYCLE
        return eib_cycles <= mic_cycles
