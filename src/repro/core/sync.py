"""PPE <-> SPE synchronization protocols (the last Figure-5 rung).

The paper's initial implementation used mailboxes for dispatch and
completion.  Mailboxes are cheap from the SPU side (channel reads) but
the PPE reaches them through slow MMIO -- with eight SPEs to poll, the
PPE becomes the bottleneck.  "Eliminating the use of mailboxes, and
using a combination of DMAs and direct local store memory poking from
the PPE", the paper cut 1.48 s to 1.33 s.

Both protocols are implemented *functionally* against the simulated
hardware (real mailbox FIFOs; real bytes poked into the local store;
real 8-byte DMA completion words) and report their documented cycle
costs per scheduled chunk to the chip's metrics registry and trace bus.
"""

from __future__ import annotations

import struct

import numpy as np

from ..cell.chip import CellBE
from ..cell.mailbox import PPE_MAILBOX_MMIO_CYCLES
from ..cell.ppe import PPE_LS_POKE_CYCLES
from ..cell.spe import SPE
from ..errors import SchedulerError
from ..metrics.registry import spe_metric
from ..trace.bus import PPE_TRACK

#: SPU-side poll of its own local store (a plain load).
SPU_LS_POLL_CYCLES: int = 6

#: SPE writes an 8-byte completion word to main memory; the PPE polls it
#: from its cache.  The small DMA retires off the critical path; the PPE
#: poll is a cached load most of the time.
SPE_COMPLETION_DMA_CYCLES: int = 64
PPE_CACHED_POLL_CYCLES: int = 40


class MailboxSync:
    """Dispatch via inbound mailbox, completion via outbound mailbox."""

    name = "mailbox"

    def __init__(self, chip: CellBE) -> None:
        self.chip = chip

    def dispatch(self, spe: SPE, work_id: int) -> int:
        """PPE hands ``work_id`` to the SPE.  Returns the *PPE-side*
        critical-path cycles (the dispatch loop is serialized on the
        PPE, which is why this number matters eight-fold)."""
        ppe_cycles = spe.mailboxes.ppe_send(work_id)
        value, _ = spe.mailboxes.spu_receive()
        if value != work_id:  # pragma: no cover - protocol invariant
            raise SchedulerError(f"mailbox delivered {value}, expected {work_id}")
        if self.chip.trace.enabled:
            self.chip.trace.span(
                PPE_TRACK, "SyncDispatch", ppe_cycles, spe=spe.spe_id,
                work_id=work_id, protocol=self.name,
            )
        return ppe_cycles

    def complete(self, spe: SPE, work_id: int) -> int:
        """SPE signals completion; PPE collects it.  Returns PPE cycles."""
        spe.mailboxes.spu_send(work_id)
        value, ppe_cycles = spe.mailboxes.ppe_receive()
        if value != work_id:  # pragma: no cover - protocol invariant
            raise SchedulerError(f"mailbox returned {value}, expected {work_id}")
        if self.chip.trace.enabled:
            self.chip.trace.span(
                PPE_TRACK, "SyncComplete", ppe_cycles, spe=spe.spe_id,
                work_id=work_id, protocol=self.name,
            )
        return ppe_cycles

    @property
    def dispatch_ppe_cycles(self) -> int:
        return PPE_MAILBOX_MMIO_CYCLES

    @property
    def complete_ppe_cycles(self) -> int:
        return PPE_MAILBOX_MMIO_CYCLES


class LSPokeSync:
    """Dispatch by poking the SPE local store; completion by SPE DMA.

    Each SPE reserves a 16-byte control block at the bottom of its data
    area: word 0 is the doorbell/work id, word 1 the completion slot in
    main memory is mirrored by an 8-byte DMA.
    """

    name = "ls_poke"

    def __init__(self, chip: CellBE) -> None:
        self.chip = chip
        self._control = {
            spe.spe_id: spe.local_store.alloc(16, alignment=16, label="sync-control")
            for spe in chip.spes
        }
        #: completion words in main memory, one cache line per SPE
        self._completion = chip.host_alloc(
            "sync-completion", (len(chip.spes), 16), dtype=np.uint64
        )

    def dispatch(self, spe: SPE, work_id: int) -> int:
        buf = self._control[spe.spe_id]
        ppe_cycles = self.chip.ppe.poke_ls(
            spe, buf.offset, struct.pack("<Q", work_id)
        )
        # SPU-side poll of the doorbell word: a local load.
        got = struct.unpack("<Q", bytes(buf.as_bytes()[:8].tobytes()))[0]
        if got != work_id:  # pragma: no cover - protocol invariant
            raise SchedulerError(f"LS doorbell held {got}, expected {work_id}")
        if self.chip.metrics.enabled:
            m = self.chip.metrics
            m.add_cycles(
                spe_metric(spe.spe_id, "sync_wait_ticks"), SPU_LS_POLL_CYCLES
            )
            m.add_cycles("ppe.sync_ticks", ppe_cycles)
        if self.chip.trace.enabled:
            self.chip.trace.span(
                PPE_TRACK, "SyncDispatch", ppe_cycles, spe=spe.spe_id,
                work_id=work_id, protocol=self.name,
            )
        return ppe_cycles

    def complete(self, spe: SPE, work_id: int) -> int:
        # SPE writes its completion word home (modelled cost only; the
        # actual store keeps the protocol honest for tests).
        self._completion[spe.spe_id, 0] = work_id
        if self.chip.metrics.enabled:
            m = self.chip.metrics
            m.add_cycles(
                spe_metric(spe.spe_id, "sync_wait_ticks"),
                SPE_COMPLETION_DMA_CYCLES,
            )
            m.add_cycles("ppe.sync_ticks", PPE_CACHED_POLL_CYCLES)
        if self.chip.trace.enabled:
            self.chip.trace.span(
                PPE_TRACK, "SyncComplete", PPE_CACHED_POLL_CYCLES,
                spe=spe.spe_id, work_id=work_id, protocol=self.name,
            )
        return PPE_CACHED_POLL_CYCLES

    @property
    def dispatch_ppe_cycles(self) -> int:
        return PPE_LS_POKE_CYCLES

    @property
    def complete_ppe_cycles(self) -> int:
        return PPE_CACHED_POLL_CYCLES
