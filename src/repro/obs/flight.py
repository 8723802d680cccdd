"""The flight recorder: a bounded ring of recent observability state.

Like an aircraft's, this recorder is only read after something went
wrong: each process keeps a small ``deque`` of recent *notes* (explicit
breadcrumbs from the engines) and log records, plus weak references to
any live :class:`~repro.trace.bus.TraceBus`, and serializes the lot to
one JSON artifact when

* a :class:`~repro.errors.ParallelError` aborts a parallel sweep,
* a served job fails (the dump rides the job snapshot and
  ``GET /jobs/{id}/flight``),
* a cluster rank crashes (the dump ships back in the CRASH control
  frame),
* or ``SIGUSR2`` arrives (a live peek at a long solve, no restart).

The disabled path mirrors :data:`~repro.trace.bus.NULL_BUS`: the
module-level :func:`flight` accessor returns the shared
:data:`NULL_FLIGHT` singleton whose every method is a no-op behind one
``enabled`` attribute read, so nothing is paid until
:func:`enable_flight` is called (the CLI and serve daemon do; library
use stays free).
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import signal
import time
import weakref
from collections import deque
from typing import Any

from .context import current_context
from .log import ROOT_LOGGER, record_fields
from .merge import events_to_wire

#: ring capacity (notes + log records), per process
DEFAULT_CAPACITY = 512

#: trace-bus events included in a dump (the *tail* of each attached bus;
#: reading them costs nothing until dump time)
DEFAULT_EVENT_TAIL = 256


class FlightRecorder:
    """Per-process ring buffer of notes, log records and bus tails."""

    enabled: bool = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        event_tail: int = DEFAULT_EVENT_TAIL,
        dump_dir: str | os.PathLike | None = None,
    ) -> None:
        self.entries: deque[dict[str, Any]] = deque(maxlen=int(capacity))
        self.event_tail = int(event_tail)
        self.dump_dir = pathlib.Path(dump_dir) if dump_dir is not None else None
        self._buses: list[weakref.ref] = []
        self._dumps = 0

    # -- feeding the ring ------------------------------------------------------

    def note(self, name: str, **fields: Any) -> None:
        """One explicit breadcrumb (engines call this at coarse
        boundaries: sweep start, bind, rendezvous, abort)."""
        self.entries.append(
            {"kind": "note", "ts": time.time(), "name": name, **fields}
        )

    def record_log(self, record: logging.LogRecord) -> None:
        self.entries.append(
            {
                "kind": "log",
                "ts": record.created,
                "level": record.levelname.lower(),
                "logger": record.name,
                "msg": record.getMessage(),
                **record_fields(record),
            }
        )

    def attach_bus(self, bus: Any) -> None:
        """Remember a live TraceBus (weakly); its event tail is read at
        dump time only, so the solve hot path never sees the recorder."""
        self._buses = [r for r in self._buses if r() is not None]
        if getattr(bus, "enabled", False) and all(
            r() is not bus for r in self._buses
        ):
            self._buses.append(weakref.ref(bus))

    # -- dumping ---------------------------------------------------------------

    def dump(self, reason: str) -> dict[str, Any]:
        """The ring's contents as one JSON-serializable artifact."""
        ctx = current_context()
        tails = []
        for ref in self._buses:
            bus = ref()
            if bus is None or not getattr(bus, "events", None):
                continue
            tail = list(bus.events)[-self.event_tail:]
            tails.append(
                {
                    "total_events": len(bus.events),
                    "now_cycles": bus.now,
                    "tail": events_to_wire(tail),
                }
            )
        return {
            "flight": 1,
            "reason": reason,
            "pid": os.getpid(),
            "wall_time": time.time(),
            "trace_id": ctx.trace_id if ctx else None,
            "identity": ctx.identity if ctx else None,
            "context_fields": dict(ctx.fields) if ctx else {},
            "entries": list(self.entries),
            "trace_tails": tails,
        }

    def dump_to_file(
        self, reason: str, path: str | os.PathLike | None = None
    ) -> pathlib.Path:
        """Serialize :meth:`dump` to ``path`` (or an auto-named file in
        ``dump_dir`` / the current directory) and return the path."""
        if path is None:
            self._dumps += 1
            base = self.dump_dir if self.dump_dir is not None else pathlib.Path(".")
            path = base / f"flight-{os.getpid()}-{self._dumps}-{reason}.json"
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = self.dump(reason)
        path.write_text(json.dumps(payload, sort_keys=True, default=repr) + "\n")
        return path


class NullFlightRecorder:
    """The disabled recorder: one attribute read, no state, no cost."""

    enabled: bool = False
    entries: tuple = ()

    def note(self, name: str, **fields: Any) -> None:
        return None

    def record_log(self, record: logging.LogRecord) -> None:
        return None

    def attach_bus(self, bus: Any) -> None:
        return None

    def dump(self, reason: str) -> dict[str, Any]:
        return {"flight": 1, "reason": reason, "enabled": False, "entries": []}

    def dump_to_file(self, reason: str, path=None):
        return None


#: the shared disabled recorder (cf. NULL_BUS)
NULL_FLIGHT = NullFlightRecorder()

_RECORDER: FlightRecorder | NullFlightRecorder = NULL_FLIGHT


def flight() -> FlightRecorder | NullFlightRecorder:
    """This process's recorder (:data:`NULL_FLIGHT` until enabled)."""
    return _RECORDER


class _FlightLogHandler(logging.Handler):
    """Feeds every ``repro.*`` log record into the ring, whatever
    handlers/levels the visible logging config uses."""

    def __init__(self, recorder: FlightRecorder) -> None:
        super().__init__(level=logging.DEBUG)
        self.recorder = recorder

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self.recorder.record_log(record)
        except Exception:  # pragma: no cover - never break the caller
            pass


def enable_flight(
    capacity: int = DEFAULT_CAPACITY,
    event_tail: int = DEFAULT_EVENT_TAIL,
    dump_dir: str | os.PathLike | None = None,
) -> FlightRecorder:
    """Install a real recorder as this process's :func:`flight` (idempotent:
    an already-enabled recorder is kept, its dump_dir updated)."""
    global _RECORDER
    if isinstance(_RECORDER, FlightRecorder):
        if dump_dir is not None:
            _RECORDER.dump_dir = pathlib.Path(dump_dir)
        return _RECORDER
    recorder = FlightRecorder(
        capacity=capacity, event_tail=event_tail, dump_dir=dump_dir
    )
    _RECORDER = recorder
    root = logging.getLogger(ROOT_LOGGER)
    if not any(isinstance(h, _FlightLogHandler) for h in root.handlers):
        root.addHandler(_FlightLogHandler(recorder))
    # the ring wants every record; visible handlers carry their own
    # thresholds (see obs.log.configure_logging)
    root.setLevel(logging.DEBUG)
    return recorder


def disable_flight() -> None:
    """Back to :data:`NULL_FLIGHT` (tests use this to isolate state)."""
    global _RECORDER
    root = logging.getLogger(ROOT_LOGGER)
    for handler in list(root.handlers):
        if isinstance(handler, _FlightLogHandler):
            root.removeHandler(handler)
    if not any(getattr(h, "_repro_obs", False) for h in root.handlers):
        root.setLevel(logging.NOTSET)
    _RECORDER = NULL_FLIGHT


def install_sigusr2(dump_dir: str | os.PathLike | None = None) -> None:
    """Dump the flight recorder to a file on ``SIGUSR2`` -- a live peek
    at a long-running solve without stopping it."""
    recorder = enable_flight(dump_dir=dump_dir)

    def _handler(signum, frame):  # pragma: no cover - exercised in CI smoke
        try:
            path = recorder.dump_to_file("sigusr2")
            print(f"flight recorder dumped to {path}", flush=True)
        except Exception:
            pass

    signal.signal(signal.SIGUSR2, _handler)
