"""Deterministic merges of per-process trace streams into one timeline.

Two merge problems, one invariant -- *determinism*:

* **Cluster ranks.**  Every rank runs its own
  :class:`~repro.trace.bus.TraceBus` from cycle 0 (ranks are peers on
  the simulated-cycle timeline; the MANIFEST/ADDRS rendezvous is the
  semantic epoch), so merging is pure interleaving-by-track: each
  rank's event stream becomes a ``rank{R}`` process with ``SPE{N}`` /
  ``PPE`` / ... threads in the Perfetto document.  Wall-clock offsets
  measured at the HELLO/ITER control rendezvous ride along as
  *metadata only* (``otherData.clock_offsets_s``), never as timestamp
  shifts -- that keeps every rank's exported stream bit-identical
  between the socket transport and the in-process LocalFabric
  reference for the same deck.
* **Arbitrary dumps.**  ``repro trace --merge`` folds several Chrome
  trace files (or flight-recorder dumps carrying trace tails) into one
  document, one process per input, for side-by-side inspection.

Event wire format (the TRACE control frame, flight tails): one row per
event, ``[seq, ts, dur, track, name, args]`` -- JSON-safe, order
preserving, and byte-stable under ``json.dumps(sort_keys=True)``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable, Sequence

from ..trace.bus import TraceEvent
from ..trace.export import _chrome_event, _tid

#: tid offset separating rank-process threads from metadata rows
_RANK_PROCESS_NAME = "rank{rank}"


def events_to_wire(events: Iterable[TraceEvent]) -> list[list[Any]]:
    """Serialize bus events into JSON-safe rows (order preserved)."""
    return [
        [ev.seq, ev.ts, ev.dur, ev.track, ev.name, dict(ev.args)]
        for ev in events
    ]


def events_from_wire(rows: Sequence[Sequence[Any]]) -> list[TraceEvent]:
    """Invert :func:`events_to_wire`."""
    return [
        TraceEvent(
            seq=int(seq), ts=float(ts), dur=float(dur),
            track=str(track), name=str(name), args=dict(args or {}),
        )
        for seq, ts, dur, track, name, args in rows
    ]


def rank_chrome_trace(
    rank_traces: dict[int, dict[str, Any]],
    clock_offsets: dict[int, float] | None = None,
) -> dict[str, Any]:
    """One Perfetto document over every rank's captured trace.

    ``rank_traces[R]`` is the TRACE-frame payload of rank ``R``:
    ``{"events": wire rows, "machine_info": ..., "total_cycles": ...}``.
    Each rank becomes a Chrome-trace *process* named ``rank{R}`` whose
    threads are that rank's hardware tracks, so Perfetto renders
    ``rank0/PPE``, ``rank0/SPE0``, ... ``rankN/SPE7`` top to bottom.

    Deterministic by construction: ranks in ascending order, each
    rank's events in capture order, timestamps untouched.  Wall-clock
    ``clock_offsets`` (rank wall minus driver wall, from the control
    rendezvous) land in ``otherData`` only.
    """
    trace_events: list[dict[str, Any]] = []
    total_cycles = 0.0
    machine_info: dict[str, Any] = {}
    for rank in sorted(rank_traces):
        payload = rank_traces[rank]
        events = events_from_wire(payload.get("events", []))
        trace_events.append(
            {
                "ph": "M", "name": "process_name", "pid": rank, "tid": 0,
                "args": {"name": _RANK_PROCESS_NAME.format(rank=rank)},
            }
        )
        tracks: dict[str, None] = {}
        for ev in events:
            tracks.setdefault(ev.track, None)
        for track in sorted(tracks, key=_tid):
            trace_events.append(
                {
                    "ph": "M", "name": "thread_name", "pid": rank,
                    "tid": _tid(track), "args": {"name": track},
                }
            )
        for ev in events:
            trace_events.append(_chrome_event(ev, pid=rank))
        total_cycles = max(total_cycles, float(payload.get("total_cycles", 0.0)))
        if not machine_info:
            machine_info = dict(payload.get("machine_info", {}))
    other: dict[str, Any] = dict(
        machine_info, total_cycles=total_cycles, ranks=len(rank_traces)
    )
    if clock_offsets:
        other["clock_offsets_s"] = {
            str(rank): clock_offsets[rank] for rank in sorted(clock_offsets)
        }
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def rank_stream_signature(payload: dict[str, Any]) -> bytes:
    """Byte-stable digest input for one rank's wire stream -- what the
    bit-identity tests compare between transports."""
    return json.dumps(payload.get("events", []), sort_keys=True).encode()


# -- `repro trace --merge` ----------------------------------------------------


def _doc_from_flight(dump: dict[str, Any]) -> dict[str, Any]:
    """A Chrome doc from a flight-recorder dump's trace tails."""
    trace_events: list[dict[str, Any]] = []
    for tail in dump.get("trace_tails", []):
        for ev in events_from_wire(tail.get("tail", [])):
            trace_events.append(_chrome_event(ev, pid=0))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "flight_reason": dump.get("reason"),
            "trace_id": dump.get("trace_id"),
            "identity": dump.get("identity"),
        },
    }


def load_trace_doc(path: str | pathlib.Path) -> dict[str, Any]:
    """Read one mergeable artifact: a Chrome trace JSON file or a
    flight-recorder dump (recognized by its ``flight`` marker)."""
    data = json.loads(pathlib.Path(path).read_text())
    if isinstance(data, dict) and data.get("flight"):
        return _doc_from_flight(data)
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError(f"{path}: neither a Chrome trace nor a flight dump")
    return data


def merge_chrome_docs(
    docs: Sequence[dict[str, Any]], labels: Sequence[str]
) -> dict[str, Any]:
    """Fold several Chrome trace documents into one: input ``i`` keeps
    its event stream verbatim but is re-homed to process ``i`` (named
    by ``labels[i]``), so overlapping pids never collide."""
    if len(docs) != len(labels):
        raise ValueError("one label per document")
    merged: list[dict[str, Any]] = []
    other: dict[str, Any] = {"merged_from": list(labels)}
    for i, (doc, label) in enumerate(zip(docs, labels)):
        pid_map: dict[Any, int] = {}
        for ev in doc.get("traceEvents", []):
            pid = ev.get("pid", 0)
            if pid not in pid_map:
                pid_map[pid] = len(pid_map)
            ev = dict(ev, pid=i * 1000 + pid_map[pid])
            if ev.get("ph") == "M" and ev.get("name") == "process_name":
                inner = ev["args"].get("name", "")
                ev["args"] = {"name": f"{label}/{inner}" if inner else label}
            merged.append(ev)
        if not any(
            ev.get("ph") == "M" and ev.get("name") == "process_name"
            and ev.get("pid") == i * 1000
            for ev in merged
        ):
            merged.insert(
                0,
                {
                    "ph": "M", "name": "process_name", "pid": i * 1000,
                    "tid": 0, "args": {"name": label},
                },
            )
        for key, value in (doc.get("otherData") or {}).items():
            other.setdefault(f"{label}.{key}", value)
    return {
        "traceEvents": merged,
        "displayTimeUnit": "ms",
        "otherData": other,
    }
