"""SPE composition: one synergistic processing element.

An SPE = SPU core + 256 KB local store + MFC (Sec. 2).  This module wires
the per-SPE pieces together: the local-store allocator, the MFC with its
always-on DMA statistics, and the mailbox pair.  Kernel cycles come from
the pipeline model (:mod:`repro.cell.pipeline`) and simulated costs are
recorded in the chip's metrics registry and trace bus.
"""

from __future__ import annotations

from ..metrics.registry import NULL_REGISTRY
from ..trace.bus import NULL_BUS
from .local_store import LocalStore
from .mfc import MFC
from .mailbox import MailboxPair
from .mic import MemoryTimingModel
from . import constants


class SPE:
    """One synergistic processing element: LS + MFC + mailboxes."""

    def __init__(
        self,
        spe_id: int,
        timing: MemoryTimingModel | None = None,
        ls_capacity: int = constants.LOCAL_STORE_BYTES,
        code_bytes: int = 24 * 1024,
    ) -> None:
        """``code_bytes`` reserves local store for the SPU program image;
        24 KB is representative of the paper's compute kernel plus the
        runtime stub."""
        self.spe_id = spe_id
        self.local_store = LocalStore(ls_capacity, reserved_code_bytes=code_bytes)
        self.mfc = MFC(spe_id, timing=timing)
        self.mailboxes = MailboxPair(spe_id)
        #: trace bus shared chip-wide (see ``CellBE.install_trace``)
        self.trace = NULL_BUS
        #: metrics registry shared chip-wide (see ``CellBE.install_metrics``)
        self.metrics = NULL_REGISTRY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SPE(id={self.spe_id}, ls_used={self.local_store.used_bytes}, "
            f"dma_bytes={self.mfc.stats.total_bytes})"
        )
