"""Machine-wide event tracing for the simulated Cell BE.

``repro.trace`` is the observability layer: a :class:`TraceBus` of
typed, timestamped events emitted by every instrumented hardware unit
(MFC DMA queues, the memory controller, mailboxes, the sync
protocols, the schedulers, the kernel), Perfetto/Chrome-trace export, a
plain-text timeline summary, and a DMA-hazard sanitizer that replays
the stream checking the double-buffering discipline.

Enable it per run with ``MachineConfig(trace=True)`` (the solver builds
a bus and installs it chip-wide), or from the command line::

    python -m repro trace --cube 8 --out trace.json
    python -m repro solve --engine cell --trace trace.json ...

then load ``trace.json`` at https://ui.perfetto.dev.  See
``docs/TRACING.md`` for the event schema and sanitizer semantics.
"""

from .bus import (
    EVENT_NAMES,
    MIC_TRACK,
    NULL_BUS,
    PPE_TRACK,
    NullTraceBus,
    TraceBus,
    TraceEvent,
    spe_track,
)
from .export import (
    aggregate_stats,
    queue_depth_series,
    timeline_summary,
    to_chrome_trace,
    write_chrome_trace,
)
from .sanitizer import (
    KERNEL_TOUCH_IN_FLIGHT,
    LS_CAPACITY,
    REUSE_BEFORE_DRAIN,
    DmaHazardSanitizer,
    Hazard,
    format_hazards,
    sanitize,
)

__all__ = [
    "TraceBus",
    "TraceEvent",
    "NullTraceBus",
    "NULL_BUS",
    "EVENT_NAMES",
    "spe_track",
    "PPE_TRACK",
    "MIC_TRACK",
    "to_chrome_trace",
    "write_chrome_trace",
    "timeline_summary",
    "aggregate_stats",
    "queue_depth_series",
    "sanitize",
    "DmaHazardSanitizer",
    "Hazard",
    "format_hazards",
    "REUSE_BEFORE_DRAIN",
    "KERNEL_TOUCH_IN_FLIGHT",
    "LS_CAPACITY",
]
