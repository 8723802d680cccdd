"""Memory Flow Controller: per-SPE DMA command queue with tag groups.

Each SPE owns an MFC that queues DMA commands and executes them
asynchronously while the SPU keeps computing (Sec. 2: "DMA commands are
queued in the MFC, and the SPU or PPE ... can continue execution in
parallel with the data transfer").  Completion is tracked per *tag group*
(tags 0-31): the SPU waits on a tag mask to know a group of transfers has
finished.  Double buffering in :mod:`repro.core.streaming` is exactly the
discipline of keeping two tag groups in flight.

Functionally, commands copy bytes when :meth:`MFC.drain_tag` (or
``drain_all``) runs, so a kernel that forgets to wait reads stale local
store -- the same bug it would have on hardware.  The timing side charges
each command batch through the shared :class:`~repro.cell.mic.MemoryTimingModel`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import MutableSequence
from dataclasses import dataclass, field

from ..errors import MFCError
from ..metrics.registry import NULL_REGISTRY, spe_metric
from ..trace.bus import NULL_BUS, spe_track
from .dma import AnyDMACommand, DMAKind, DMAListCommand
from .mic import MemoryTimingModel, TransferCost
from . import constants


@dataclass
class TagStats:
    """Accumulated traffic statistics for one MFC (all tags)."""

    commands: int = 0
    list_elements: int = 0
    bytes_get: int = 0
    bytes_put: int = 0
    cycles: float = 0.0
    #: histogram of transfer-element sizes -- Sec. 6 characterizes the
    #: measured implementation as "lists of 512-byte DMAs (both for
    #: puts and gets)", and this is where that distribution shows up.
    element_sizes: Counter = field(default_factory=Counter)

    @property
    def total_bytes(self) -> int:
        return self.bytes_get + self.bytes_put

    def dominant_element_size(self) -> int | None:
        """Most common transfer-element size (by byte volume)."""
        if not self.element_sizes:
            return None
        return max(
            self.element_sizes, key=lambda s: s * self.element_sizes[s]
        )


def batch_delta(commands: list[AnyDMACommand]) -> tuple:
    """What one batch of commands adds to :class:`TagStats`:
    ``(commands, list elements, bytes got, bytes put, element sizes)``."""
    n_elements = 0
    bytes_get = 0
    bytes_put = 0
    sizes: Counter = Counter()
    for cmd in commands:
        if isinstance(cmd, DMAListCommand):
            n_elements += len(cmd.elements_spec)
            for _, size in cmd.elements_spec:
                sizes[size] += 1
        else:
            sizes[cmd.total_bytes] += 1
        if cmd.kind is DMAKind.GET:
            bytes_get += cmd.total_bytes
        else:
            bytes_put += cmd.total_bytes
    return len(commands), n_elements, bytes_get, bytes_put, sizes


class MFC:
    """One SPE's memory flow controller.

    The queue depth is finite (16 commands on real hardware); enqueueing
    into a full queue raises :class:`MFCError`, forcing callers to model
    the back-pressure a real SPU program experiences.
    """

    def __init__(
        self,
        spe_id: int,
        timing: MemoryTimingModel | None = None,
        queue_depth: int = constants.MFC_QUEUE_DEPTH,
    ) -> None:
        self.spe_id = spe_id
        self.timing = timing or MemoryTimingModel()
        self.queue_depth = queue_depth
        self._queue: dict[int, list[AnyDMACommand]] = {}
        self._pending = 0
        self.stats = TagStats()
        #: trace bus (chip-wide; see ``CellBE.install_trace``).  The
        #: shared null bus makes every hook a single-branch no-op.
        self.trace = NULL_BUS
        #: metrics registry (chip-wide; see ``CellBE.install_metrics``)
        self.metrics = NULL_REGISTRY
        #: when set, every retired batch appends its cycles to it (the
        #: owning solver records a unit's schedule through an ``array``)
        self.cycle_log: MutableSequence[float] | None = None

    # -- queue management --------------------------------------------------

    @property
    def pending(self) -> int:
        """Commands in flight across all tag groups."""
        return self._pending

    def enqueue(self, command: AnyDMACommand) -> None:
        """Queue one validated DMA command under its tag."""
        if self._pending >= self.queue_depth:
            raise MFCError(
                f"SPE {self.spe_id}: MFC queue full "
                f"({self.queue_depth} commands pending); wait on a tag first"
            )
        self._queue.setdefault(command.tag, []).append(command)
        self._pending += 1
        if self.metrics.enabled or self.trace.enabled:
            self.observe_enqueue(
                command.tag, command.kind.value, command.total_bytes,
                self._pending, command.ls_regions(),
            )

    def observe_enqueue(self, tag: int, kind: str, nbytes: int, depth: int,
                        regions) -> None:
        """Report one queued command of ``nbytes`` over the local-store
        ``regions`` that left ``depth`` commands in flight."""
        if self.metrics.enabled:
            self.metrics.gauge_max(
                spe_metric(self.spe_id, "mfc_queue_depth"), depth
            )
        if self.trace.enabled:
            self.trace.instant(
                spe_track(self.spe_id), "DmaEnqueue",
                tag=tag, kind=kind, bytes=nbytes, depth=depth,
                regions=[list(r) for r in regions],
            )

    def pending_tags(self) -> set[int]:
        """Tags with at least one command still in flight."""
        return {t for t, cmds in self._queue.items() if cmds}

    # -- completion ---------------------------------------------------------

    def _drain(self, commands: list[AnyDMACommand]) -> TransferCost:
        cost = self.timing.cost(commands)
        for cmd in commands:
            cmd.execute()
        self.retire(
            batch_delta(commands), cost, sorted({cmd.tag for cmd in commands})
        )
        return cost

    def retire(self, delta: tuple, cost: TransferCost, tags: list[int]) -> None:
        """Account one completed batch: ``delta`` (see :func:`batch_delta`)
        and ``cost`` go to :attr:`stats` and to the attached registry
        and bus.  The replay of a transfer plan
        (:mod:`repro.core.streaming`) ends here too, batch by batch, so
        ``stats.cycles`` is the same float sum either way."""
        stats = self.stats
        stats.commands += delta[0]
        stats.list_elements += delta[1]
        stats.bytes_get += delta[2]
        stats.bytes_put += delta[3]
        stats.element_sizes.update(delta[4])
        cycles = cost.total_cycles
        stats.cycles += cycles
        if self.cycle_log is not None:
            self.cycle_log.append(cycles)
        if self.metrics.enabled:
            m = self.metrics
            m.add_cycles(spe_metric(self.spe_id, "dma_wait_ticks"), cost.total_cycles)
            m.count("dma.commands", delta[0])
            m.count("dma.list_elements", delta[1])
            m.count("dma.bytes_get", delta[2])
            m.count("dma.bytes_put", delta[3])
            for size in sorted(delta[4]):
                m.observe("dma.element_bytes", size, delta[4][size])
        if self.trace.enabled:
            self.trace.span(
                spe_track(self.spe_id), "DmaComplete", cost.total_cycles,
                tags=tags,
                commands=delta[0], bytes_get=delta[2], bytes_put=delta[3],
                bank_factor=cost.bank_factor,
            )

    def drain_tag(self, tag: int) -> TransferCost:
        """Complete every command in one tag group (``mfc_write_tag_mask``
        + ``mfc_read_tag_status_all`` on hardware).

        Returns the modelled :class:`TransferCost` of the batch.  Waiting
        on a tag with nothing in flight is a protocol error: on hardware
        it returns instantly, but in every Sweep3D use it indicates a
        double-wait bug, so the model rejects it.
        """
        cmds = self._queue.pop(tag, [])
        if not cmds:
            raise MFCError(f"SPE {self.spe_id}: wait on empty tag group {tag}")
        self._pending -= len(cmds)
        return self._drain(cmds)

    def drain_all(self) -> TransferCost | None:
        """Complete every pending command across all tags (barrier)."""
        cmds: list[AnyDMACommand] = []
        for tag in sorted(self._queue):
            cmds.extend(self._queue.pop(tag))
        if not cmds:
            return None
        self._pending -= len(cmds)
        return self._drain(cmds)
