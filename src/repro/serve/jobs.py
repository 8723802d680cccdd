"""The job store: submitted solves, their lifecycle, and their results.

A job moves through exactly one path of

    ``queued`` -> ``running`` -> ``done`` | ``failed``

(plus ``queued -> failed`` when a deck that passed admission turns out
to be unbuildable).  The store is written from two worlds at once --
the asyncio event loop (submission, HTTP reads) and the solver threads
(progress ticks, completion) -- so every mutation goes through one
lock, and reads hand out plain-dict snapshots instead of live objects.

Progress is an event log: every state change and every progress
heartbeat appends a JSON-serializable event with a monotonically
increasing ``seq``, which is what ``GET /jobs/{id}/events`` streams as
NDJSON (a reader remembers the last ``seq`` it saw and the store hands
it everything after).  Progress ticks are throttled at ingestion
(at most one event per percent of total units) so a 50^3 deck's tens of
thousands of ticks do not turn the log into a memory leak.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import ReproError

#: job lifecycle states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: states a job can never leave
TERMINAL = (DONE, FAILED)

#: failure tracebacks are truncated to this many characters in the store
MAX_TRACEBACK_CHARS = 4000


class UnknownJobError(ReproError):
    """Lookup of a job id the store has never issued."""


@dataclass
class Job:
    """One submitted solve and everything the server knows about it."""

    id: str
    tenant: str
    deck_text: str  #: canonical deck-file text (rebuilt from the request)
    label: str  #: human-readable deck description, e.g. ``16^3 S4 nm=2``
    cost: float  #: estimated work units, the fair-queue service demand
    isa: bool  #: run the SPE kernel through the compiled SPU ISA
    metrics: bool  #: collect the per-SPE cycle-attribution registry
    trace: bool = False  #: capture the machine trace (Perfetto via /trace)
    trace_id: str = ""  #: distributed-trace id of the submitting request
    state: str = QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    progress_done: int = 0
    progress_total: int = 0
    result: Optional[dict] = None  #: flux summary + caches, when DONE
    error: Optional[str] = None  #: failure message, when FAILED
    error_type: Optional[str] = None  #: exception class name, when FAILED
    traceback: Optional[str] = None  #: truncated traceback, when FAILED
    trace_doc: Optional[dict] = None  #: Perfetto document (trace jobs, DONE)
    flight: Optional[dict] = None  #: flight-recorder dump (FAILED jobs)
    events: list[dict] = field(default_factory=list)
    _seq: "itertools.count" = field(default_factory=itertools.count)

    def snapshot(self) -> dict[str, Any]:
        """The JSON the HTTP layer serves for this job (no live refs)."""
        doc: dict[str, Any] = {
            "id": self.id,
            "tenant": self.tenant,
            "label": self.label,
            "deck": self.deck_text,
            "state": self.state,
            "cost": self.cost,
            "isa": self.isa,
            "metrics": self.metrics,
            "trace": self.trace,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": {
                "done": self.progress_done,
                "total": self.progress_total,
            },
        }
        if self.trace_id:
            doc["trace_id"] = self.trace_id
        if self.state == DONE:
            doc["result"] = self.result
            doc["has_trace"] = self.trace_doc is not None
        if self.state == FAILED:
            doc["error"] = self.error
            if self.error_type:
                doc["error_type"] = self.error_type
            if self.traceback:
                doc["traceback"] = self.traceback
            doc["has_flight"] = self.flight is not None
        if self.started_at is not None:
            end = self.finished_at
            doc["queue_seconds"] = self.started_at - self.submitted_at
            if end is not None:
                doc["solve_seconds"] = end - self.started_at
        return doc


class JobStore:
    """Thread-safe registry of every job this server has accepted."""

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)

    # -- submission ----------------------------------------------------------

    def create(
        self,
        tenant: str,
        deck_text: str,
        label: str,
        cost: float,
        isa: bool,
        metrics: bool,
        trace: bool = False,
        trace_id: str = "",
    ) -> Job:
        with self._lock:
            job = Job(
                id=f"job-{next(self._ids)}",
                tenant=tenant,
                deck_text=deck_text,
                label=label,
                cost=cost,
                isa=isa,
                metrics=metrics,
                trace=trace,
                trace_id=trace_id,
                submitted_at=self._clock(),
            )
            self._jobs[job.id] = job
            self._append_event(job, {"state": QUEUED})
            return job

    # -- lifecycle transitions ----------------------------------------------

    def mark_running(self, job_id: str, total_units: int) -> None:
        with self._lock:
            job = self._get(job_id)
            job.state = RUNNING
            job.started_at = self._clock()
            job.progress_total = int(total_units)
            self._append_event(job, {"state": RUNNING,
                                     "total_units": int(total_units)})

    def tick(self, job_id: str) -> None:
        """One completed solver work unit.  Called from the solve thread
        once per (octant, angle-block) unit; appends an event at most
        once per percent so the log stays bounded."""
        with self._lock:
            job = self._get(job_id)
            job.progress_done += 1
            total = max(job.progress_total, 1)
            step = max(total // 100, 1)
            if job.progress_done % step == 0 or job.progress_done == total:
                self._append_event(job, {
                    "progress": job.progress_done, "total": total,
                })

    def mark_done(self, job_id: str, result: dict) -> None:
        with self._lock:
            job = self._get(job_id)
            job.state = DONE
            job.finished_at = self._clock()
            job.result = result
            self._append_event(job, {"state": DONE})

    def mark_failed(
        self,
        job_id: str,
        error: str,
        error_type: Optional[str] = None,
        tb: Optional[str] = None,
        flight: Optional[dict] = None,
    ) -> None:
        with self._lock:
            job = self._get(job_id)
            job.state = FAILED
            job.finished_at = self._clock()
            job.error = str(error)
            job.error_type = error_type
            if tb:
                # keep the tail: the raising frame is the useful part
                job.traceback = tb[-MAX_TRACEBACK_CHARS:]
            job.flight = flight
            self._append_event(job, {"state": FAILED, "error": str(error)})

    # -- observability artifacts ---------------------------------------------

    def attach_trace(self, job_id: str, doc: dict) -> None:
        """Attach the solve's Perfetto document (``GET /jobs/{id}/trace``)."""
        with self._lock:
            self._get(job_id).trace_doc = doc

    def get_trace(self, job_id: str) -> Optional[dict]:
        with self._lock:
            return self._get(job_id).trace_doc

    def get_flight(self, job_id: str) -> Optional[dict]:
        with self._lock:
            return self._get(job_id).flight

    # -- reads ---------------------------------------------------------------

    def get(self, job_id: str) -> dict[str, Any]:
        with self._lock:
            return self._get(job_id).snapshot()

    def list(self) -> list[dict[str, Any]]:
        """Compact snapshots of every job, submission order."""
        with self._lock:
            return [
                {"id": j.id, "tenant": j.tenant, "label": j.label,
                 "state": j.state,
                 "progress": {"done": j.progress_done,
                              "total": j.progress_total}}
                for j in self._jobs.values()
            ]

    def events_after(self, job_id: str, seq: int) -> tuple[list[dict], bool]:
        """Events of ``job_id`` with ``seq`` greater than the given one,
        plus whether the job has reached a terminal state (the NDJSON
        streamer's stop condition)."""
        with self._lock:
            job = self._get(job_id)
            fresh = [e for e in job.events if e["seq"] > seq]
            return fresh, job.state in TERMINAL

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    # -- internals ------------------------------------------------------------

    def _get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job id {job_id!r}") from None

    def _append_event(self, job: Job, payload: dict) -> None:
        event = {"seq": next(job._seq), "job": job.id,
                 "t": self._clock(), **payload}
        job.events.append(event)
