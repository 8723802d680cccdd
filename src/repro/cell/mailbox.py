"""SPE mailboxes: short, low-latency, low-bandwidth messaging.

Each SPE has a 4-entry inbound mailbox (PPE -> SPU) and a 1-entry outbound
mailbox (SPU -> PPE) of 32-bit values (Sec. 2: "signals or mailboxes for
short, low-latency (but also low-bandwidth) communication").  The paper's
first synchronization protocol used mailboxes; replacing them with DMA +
local-store poking bought the final 1.48 s -> 1.33 s of Figure 5, because
PPE-side mailbox access goes through slow MMIO.

The model enforces the blocking semantics (a read from an empty mailbox
and a write to a full mailbox *stall* on hardware; here they raise unless
the caller uses the ``try_`` variants).  Each access returns its documented
cycle cost and reports it to the metrics registry and trace bus.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..errors import MailboxError
from ..metrics.registry import NULL_REGISTRY, spe_metric
from ..trace.bus import NULL_BUS, PPE_TRACK, spe_track
from . import constants

#: SPU-side channel access to its own mailbox, cycles.
SPU_MAILBOX_ACCESS_CYCLES: int = 12

#: PPE-side MMIO access to an SPE mailbox, in SPU-equivalent cycles.  MMIO
#: reads across the EIB cost hundreds of nanoseconds; this is the latency
#: the LS-poke protocol of :mod:`repro.core.sync` eliminates.
PPE_MAILBOX_MMIO_CYCLES: int = 1000


@dataclass
class Mailbox:
    """One direction of a mailbox pair, a bounded FIFO of 32-bit values."""

    name: str
    depth: int
    entries: deque[int] = field(default_factory=deque)

    def _check_value(self, value: int) -> None:
        if not 0 <= value < 2**32:
            raise MailboxError(f"{self.name}: mailbox values are 32-bit, got {value}")

    def try_write(self, value: int) -> bool:
        """Write if space is available; returns success."""
        self._check_value(value)
        if len(self.entries) >= self.depth:
            return False
        self.entries.append(value)
        return True

    def write(self, value: int) -> None:
        """Write; raises :class:`MailboxError` if the mailbox is full."""
        if not self.try_write(value):
            raise MailboxError(
                f"{self.name}: write to full mailbox (depth {self.depth}); "
                f"a hardware SPU would stall here"
            )

    def try_read(self) -> int | None:
        """Read the oldest entry, or ``None`` if empty."""
        if not self.entries:
            return None
        return self.entries.popleft()

    def read(self) -> int:
        """Read; raises :class:`MailboxError` if the mailbox is empty."""
        value = self.try_read()
        if value is None:
            raise MailboxError(
                f"{self.name}: read from empty mailbox; "
                f"a hardware reader would stall here"
            )
        return value


class MailboxPair:
    """The inbound/outbound mailbox set of one SPE."""

    def __init__(self, spe_id: int) -> None:
        self.spe_id = spe_id
        self.inbound = Mailbox(
            f"SPE{spe_id}.inbound", constants.MAILBOX_INBOUND_DEPTH
        )
        self.outbound = Mailbox(
            f"SPE{spe_id}.outbound", constants.MAILBOX_OUTBOUND_DEPTH
        )
        #: trace bus (see ``CellBE.install_trace``).  Mailbox events are
        #: instants (their cycle cost rides in the args); the sync
        #: protocol layer owns the timeline-advancing spans, so the two
        #: layers never double-charge the same cycles.
        self.trace = NULL_BUS
        #: metrics registry (see ``CellBE.install_metrics``).  SPU-side
        #: channel accesses feed the owning SPE's ``mailbox_wait``
        #: bucket; PPE-side MMIO feeds the PPE counters.  The sync
        #: protocols charge only what is *not* already counted here, so
        #: the attribution buckets never double-charge a cycle.
        self.metrics = NULL_REGISTRY

    # Convenience wrappers named for who performs the access, so call
    # sites read like the protocol descriptions in the paper.

    def ppe_send(self, value: int) -> int:
        """PPE writes the SPU's inbound mailbox over MMIO; returns cycles."""
        self.inbound.write(value)
        if self.metrics.enabled:
            self.metrics.add_cycles("ppe.mailbox_mmio_ticks",
                                    PPE_MAILBOX_MMIO_CYCLES)
            self.metrics.count("mailbox.ppe_ops")
        if self.trace.enabled:
            self.trace.instant(
                PPE_TRACK, "MailboxSend", spe=self.spe_id, value=value,
                mailbox="inbound", cycles=PPE_MAILBOX_MMIO_CYCLES,
            )
        return PPE_MAILBOX_MMIO_CYCLES

    def spu_receive(self) -> tuple[int, int]:
        """SPU reads its inbound mailbox; returns (value, cycles)."""
        value = self.inbound.read()
        if self.metrics.enabled:
            self.metrics.add_cycles(
                spe_metric(self.spe_id, "mailbox_wait_ticks"),
                SPU_MAILBOX_ACCESS_CYCLES,
            )
            self.metrics.count("mailbox.spu_ops")
        if self.trace.enabled:
            self.trace.instant(
                spe_track(self.spe_id), "MailboxRecv", value=value,
                mailbox="inbound", cycles=SPU_MAILBOX_ACCESS_CYCLES,
            )
        return value, SPU_MAILBOX_ACCESS_CYCLES

    def spu_send(self, value: int) -> int:
        """SPU writes its outbound mailbox; returns cycles."""
        self.outbound.write(value)
        if self.metrics.enabled:
            self.metrics.add_cycles(
                spe_metric(self.spe_id, "mailbox_wait_ticks"),
                SPU_MAILBOX_ACCESS_CYCLES,
            )
            self.metrics.count("mailbox.spu_ops")
        if self.trace.enabled:
            self.trace.instant(
                spe_track(self.spe_id), "MailboxSend", value=value,
                mailbox="outbound", cycles=SPU_MAILBOX_ACCESS_CYCLES,
            )
        return SPU_MAILBOX_ACCESS_CYCLES

    def ppe_receive(self) -> tuple[int, int]:
        """PPE reads the SPU's outbound mailbox over MMIO; returns
        (value, cycles)."""
        value = self.outbound.read()
        if self.metrics.enabled:
            self.metrics.add_cycles("ppe.mailbox_mmio_ticks",
                                    PPE_MAILBOX_MMIO_CYCLES)
            self.metrics.count("mailbox.ppe_ops")
        if self.trace.enabled:
            self.trace.instant(
                PPE_TRACK, "MailboxRecv", spe=self.spe_id, value=value,
                mailbox="outbound", cycles=PPE_MAILBOX_MMIO_CYCLES,
            )
        return value, PPE_MAILBOX_MMIO_CYCLES
