"""The trace bus: typed, timestamped events from the simulated machine.

The paper's surprises -- DMA latency dominating compute, the PPE
dispatch loop becoming the bottleneck, memory-bank conflicts -- were
found by *observing* the machine, not by reading end-of-run counters.
This module is the observability layer the reproduction was missing: a
:class:`TraceBus` that every instrumented unit (MFC, MIC, mailboxes,
sync protocols, schedulers, the solver) emits events into, with one
*track* per hardware unit (``PPE``, ``SPE0`` .. ``SPE7``, ``MIC``).

Timestamps are simulated SPU cycles on a single monotonic timeline: the
functional solver executes its staged program serially, and the bus
records that execution faithfully -- *span* events carry the modelled
cycle cost of the operation and advance the timeline; *instant* events
mark a point on it.  Exporters (:mod:`repro.trace.export`) turn the
stream into Chrome trace-event JSON for Perfetto, a per-track
utilization summary, and aggregate statistics; the sanitizer
(:mod:`repro.trace.sanitizer`) replays it hunting for DMA hazards.

Tracing is off by default.  Every hook is gated on ``bus.enabled``, and
the disabled path is a shared :data:`NULL_BUS` singleton whose only
cost is one attribute read (budget: <5 % of the host wall of a
functional solve).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Event names, fixed vocabulary (exporters and the sanitizer key on
#: these strings; new instrumentation should extend this table).
EVENT_NAMES: frozenset[str] = frozenset(
    {
        "DmaEnqueue",      # MFC command queued (instant; carries LS regions)
        "DmaComplete",     # tag-group drain through the MIC (span)
        "MicBankAccess",   # one costed batch at the memory controller (instant)
        "MailboxSend",     # mailbox write, either side (instant)
        "MailboxRecv",     # mailbox read, either side (instant)
        "SyncDispatch",    # PPE hands work to an SPE (span, PPE cycles)
        "SyncComplete",    # PPE collects a completion (span, PPE cycles)
        "BufferSwap",      # streaming layer selects a working-set buffer set
        "WorkAssigned",    # scheduler assigns a chunk (instant)
        "WorkDone",        # chunk retired by the scheduler (instant)
        "KernelExec",      # SPE kernel over one chunk (span, modelled cycles)
    }
)


@dataclass(frozen=True)
class TraceEvent:
    """One event on the bus.

    ``ts`` and ``dur`` are simulated SPU cycles; ``track`` names the
    emitting hardware unit; ``args`` is a small JSON-serializable dict
    of event-specific payload (tags, byte counts, LS regions, ...).
    """

    seq: int
    ts: float
    dur: float
    track: str
    name: str
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur


class TraceBus:
    """Collects :class:`TraceEvent` records on a monotonic cycle timeline."""

    enabled: bool = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        #: the timeline cursor, in simulated SPU cycles
        self.now: float = 0.0
        #: machine metadata stamped by :meth:`repro.cell.chip.CellBE.install_trace`
        #: (local-store capacity, reserved code bytes, SPE count) -- the
        #: sanitizer's capacity checks read it.
        self.machine_info: dict[str, Any] = {}

    def _emit(self, track: str, name: str, dur: float, args: dict) -> TraceEvent:
        ev = TraceEvent(
            seq=len(self.events), ts=self.now, dur=dur, track=track,
            name=name, args=args,
        )
        self.events.append(ev)
        return ev

    def instant(self, track: str, name: str, **args: Any) -> TraceEvent:
        """Record a zero-duration event at the current timeline position."""
        return self._emit(track, name, 0.0, args)

    def span(self, track: str, name: str, cycles: float, **args: Any) -> TraceEvent:
        """Record an operation of modelled ``cycles`` duration and advance
        the timeline past it."""
        if cycles < 0:
            raise ValueError(f"span duration must be >= 0, got {cycles}")
        ev = self._emit(track, name, float(cycles), args)
        self.now += float(cycles)
        return ev

    # -- inspection helpers -------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def by_name(self, name: str) -> list[TraceEvent]:
        return [ev for ev in self.events if ev.name == name]

    def by_track(self, track: str) -> list[TraceEvent]:
        return [ev for ev in self.events if ev.track == track]

    def tracks(self) -> list[str]:
        """Track names in order of first appearance."""
        seen: dict[str, None] = {}
        for ev in self.events:
            seen.setdefault(ev.track, None)
        return list(seen)


class NullTraceBus:
    """The disabled bus: every emit is a no-op and ``enabled`` is False,
    so instrumented hot paths pay one attribute read and one branch."""

    enabled: bool = False
    events: tuple = ()
    now: float = 0.0
    machine_info: dict[str, Any] = {}

    def instant(self, track: str, name: str, **args: Any) -> None:
        return None

    def span(self, track: str, name: str, cycles: float, **args: Any) -> None:
        return None

    def by_name(self, name: str) -> list:
        return []

    def by_track(self, track: str) -> list:
        return []

    def tracks(self) -> list[str]:
        return []

    def __len__(self) -> int:
        return 0


#: The shared disabled bus every instrumented unit points at by default.
NULL_BUS = NullTraceBus()


def spe_track(spe_id: int) -> str:
    """Canonical track name for one SPE."""
    return f"SPE{spe_id}"


#: Canonical non-SPE track names.
PPE_TRACK = "PPE"
MIC_TRACK = "MIC"
