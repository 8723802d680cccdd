"""Trace exporters: Perfetto JSON, text timelines, aggregate statistics.

Three consumers of one event stream:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  trace-event JSON format, loadable in `Perfetto <https://ui.perfetto.dev>`_
  (or ``chrome://tracing``).  Spans become complete (``"ph": "X"``)
  events, instants become thread-scoped instant events, and every track
  gets a named thread under one "Cell BE" process.
* :func:`timeline_summary` -- a plain-text per-track timeline report:
  event counts, busy cycles, utilization against the whole trace span.
* :func:`aggregate_stats` -- machine-readable aggregates: MFC queue
  depth over time, DMA vs compute cycles and their overlap fraction,
  per-track busy fractions.

Timestamps are converted from SPU cycles to microseconds at the chip
clock (3.2 GHz), so Perfetto's ruler reads simulated machine time.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter
from typing import Any

from ..cell import constants
from .bus import MIC_TRACK, PPE_TRACK, TraceBus, TraceEvent

#: SPU cycles per exported microsecond (3.2 GHz = 3200 cycles/us).
CYCLES_PER_US: float = constants.CLOCK_HZ / 1e6

#: Stable thread ids for the Chrome trace: PPE first, SPEs next, then
#: the shared units, so Perfetto renders the machine top-to-bottom.
_FIXED_TIDS = {PPE_TRACK: 0, MIC_TRACK: 100}


def _tid(track: str) -> int:
    if track in _FIXED_TIDS:
        return _FIXED_TIDS[track]
    if track.startswith("SPE"):
        try:
            return 1 + int(track[3:])
        except ValueError:
            pass
    return 200 + (hash(track) % 1000)


def _chrome_event(ev: TraceEvent, pid: int) -> dict[str, Any]:
    """One trace event as a Chrome record: spans become complete
    (``"X"``) events, instants thread-scoped instant events."""
    record: dict[str, Any] = {
        "name": ev.name,
        "cat": "cell",
        "pid": pid,
        "tid": _tid(ev.track),
        "ts": ev.ts / CYCLES_PER_US,
        "args": dict(ev.args, seq=ev.seq, cycles=ev.dur),
    }
    if ev.dur > 0:
        record["ph"] = "X"
        record["dur"] = ev.dur / CYCLES_PER_US
    else:
        record["ph"] = "i"
        record["s"] = "t"  # thread-scoped instant
    return record


def to_chrome_trace(bus: TraceBus) -> dict[str, Any]:
    """The full event stream as a Chrome trace-event JSON object."""
    trace_events: list[dict[str, Any]] = [
        {
            "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
            "args": {"name": "Cell BE (simulated)"},
        }
    ]
    for track in sorted(bus.tracks(), key=_tid):
        trace_events.append(
            {
                "ph": "M", "name": "thread_name", "pid": 0,
                "tid": _tid(track), "args": {"name": track},
            }
        )
    trace_events.extend(_chrome_event(ev, pid=0) for ev in bus.events)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": dict(bus.machine_info, total_cycles=bus.now),
    }


def write_chrome_trace(path: str | pathlib.Path, bus: TraceBus) -> pathlib.Path:
    """Serialize :func:`to_chrome_trace` to ``path`` (deterministic key
    order, so identical runs produce byte-identical files)."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(to_chrome_trace(bus), sort_keys=True) + "\n")
    return path


# -- aggregates ---------------------------------------------------------------


def _busy_cycles(events: list[TraceEvent]) -> float:
    return sum(ev.dur for ev in events)


def aggregate_stats(bus: TraceBus) -> dict[str, Any]:
    """Machine-readable aggregates over one trace.

    ``per_spe[track]["overlap_fraction"]`` is the double-buffering
    figure of merit: ``2 * min(dma, compute) / (dma + compute)``, the
    fraction of the SPE's busy cycles that perfect double buffering
    could overlap (1.0 = perfectly balanced transfer/compute, 0.0 =
    one side starves the other entirely).  See ``docs/TRACING.md``.
    """
    total = bus.now
    per_track: dict[str, dict[str, Any]] = {}
    for track in bus.tracks():
        events = bus.by_track(track)
        busy = _busy_cycles(events)
        per_track[track] = {
            "events": len(events),
            "busy_cycles": busy,
            "utilization": (busy / total) if total > 0 else 0.0,
            "by_name": dict(Counter(ev.name for ev in events)),
        }
    per_spe: dict[str, dict[str, Any]] = {}
    for track in bus.tracks():
        if not track.startswith("SPE"):
            continue
        events = bus.by_track(track)
        dma = _busy_cycles([ev for ev in events if ev.name == "DmaComplete"])
        compute = _busy_cycles([ev for ev in events if ev.name == "KernelExec"])
        depths = [
            ev.args["depth"]
            for ev in events
            if ev.name == "DmaEnqueue" and "depth" in ev.args
        ]
        per_spe[track] = {
            "dma_cycles": dma,
            "compute_cycles": compute,
            "overlap_fraction": (
                2.0 * min(dma, compute) / (dma + compute)
                if dma + compute > 0
                else 0.0
            ),
            "queue_depth_max": max(depths, default=0),
            "queue_depth_mean": (sum(depths) / len(depths)) if depths else 0.0,
            "enqueues": len(depths),
        }
    return {
        "total_cycles": total,
        "total_events": len(bus.events),
        "tracks": per_track,
        "per_spe": per_spe,
    }


def queue_depth_series(bus: TraceBus, track: str) -> list[tuple[float, int]]:
    """(cycle, MFC queue depth) samples for one SPE track -- depth after
    each enqueue and zero after each drain, i.e. the queue-depth-over-time
    curve Sec. 6's back-pressure discussion is about."""
    series: list[tuple[float, int]] = []
    for ev in bus.by_track(track):
        if ev.name == "DmaEnqueue" and "depth" in ev.args:
            series.append((ev.ts, int(ev.args["depth"])))
        elif ev.name == "DmaComplete":
            series.append((ev.end, 0))
    return series


def timeline_summary(bus: TraceBus, width: int = 32) -> str:
    """Plain-text per-track timeline/utilization report."""
    stats = aggregate_stats(bus)
    total = stats["total_cycles"]
    out = [
        f"trace: {stats['total_events']} events over "
        f"{total:.0f} cycles ({total / CYCLES_PER_US:.1f} us simulated)"
    ]
    header = f"{'track':>6s}  {'events':>7s}  {'busy cycles':>12s}  {'util':>6s}"
    out.append(header)
    for track, ts in sorted(
        stats["tracks"].items(), key=lambda kv: _tid(kv[0])
    ):
        bar = "#" * int(round(width * ts["utilization"]))
        out.append(
            f"{track:>6s}  {ts['events']:7d}  {ts['busy_cycles']:12.0f}  "
            f"{ts['utilization']:6.1%} |{bar}"
        )
    for track, spe in sorted(stats["per_spe"].items(), key=lambda kv: _tid(kv[0])):
        out.append(
            f"{track:>6s}  dma {spe['dma_cycles']:.0f}cy / compute "
            f"{spe['compute_cycles']:.0f}cy, overlap potential "
            f"{spe['overlap_fraction']:.1%}, queue depth max "
            f"{spe['queue_depth_max']} mean {spe['queue_depth_mean']:.2f}"
        )
    return "\n".join(out)
