"""The solve server: asyncio front end over the shared solve runner.

``repro serve`` turns the one-shot CLI solve into a standing service
(ROADMAP: "Solve-as-a-service").  Layout of one request's life:

1. ``POST /jobs`` lands in :meth:`ServeApp.submit` on the event loop.
   Admission control runs *first* -- payload size at the HTTP layer,
   queue depth and deck size here -- and a rejection is answered with
   429/413/400/503 before a job object or any pool state exists.
2. An admitted job enters the :class:`~repro.serve.queueing.FairQueue`
   with its estimated cost and size class, and the scheduler wakes.
3. The scheduler (one asyncio task) dispatches the smallest virtual
   finish tag whenever a concurrency slot is free, running
   :meth:`SolveRunner.run_job` in a worker thread via
   ``asyncio.to_thread`` -- solves are synchronous CPU-bound work and
   must not block the loop.
4. Progress ticks flow from the solver's ``progress`` seam into the
   job's event log; ``GET /jobs/{id}/events`` streams that log as
   NDJSON until the job reaches a terminal state.
5. ``GET /metrics`` renders the server's
   :class:`~repro.metrics.registry.MetricsRegistry` (the ``serve.*``
   names below plus the runner's ``serve.isa.*`` compile counters) in
   Prometheus text exposition format.

Metric names (see ``docs/SERVING.md``):

=====================================  ====================================
``serve.jobs_accepted``                jobs admitted to the queue
``serve.jobs_rejected.*``              rejections by cause (``queue_full``,
                                       ``payload``, ``deck``, ``invalid``,
                                       ``draining``)
``serve.jobs_completed`` / ``_failed`` terminal transitions
``serve.queue_depth``                  high-water queued jobs (gauge)
``serve.running``                      high-water concurrent solves (gauge)
``serve.queue_wait_ms``                time-in-queue histogram
``serve.solve_wall_ms``                solve wall-clock histogram
``serve.http_requests``                requests served, any route
``serve.isa.*``                        compiled-ISA cache traffic
=====================================  ====================================
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import time
import traceback

from .. import __version__
from ..errors import InputDeckError
from ..metrics.export import PROMETHEUS_CONTENT_TYPE, to_prometheus_text
from ..obs.context import (
    ContextError,
    current_context,
    mint_context,
    parse_traceparent,
    reset_context,
    set_context,
)
from ..obs.flight import flight
from ..obs.log import get_logger, log_event
from ..sweep.deckfile import format_deck
from .decks import deck_cost, deck_from_request, deck_label, example_decks
from .httpd import (
    HttpError,
    Request,
    Response,
    read_request,
    start_ndjson,
    write_ndjson_line,
    write_response,
)
from .jobs import JobStore, UnknownJobError
from .queueing import (
    AdmissionPolicy,
    DeckTooLargeError,
    DrainingError,
    FairQueue,
    QueueFullError,
    ServeLimits,
    size_class,
)
from .runner import SolveRunner

#: millisecond histogram bounds for queue-wait and solve-wall
MS_BUCKETS = (1, 10, 100, 1000, 10_000, 60_000)

#: seconds between event-log polls while streaming NDJSON
EVENT_POLL_SECONDS = 0.05

_access = get_logger("serve.access")
_log = get_logger("serve")


class ServeApp:
    """Everything behind one ``repro serve`` endpoint."""

    def __init__(
        self,
        runner: SolveRunner | None = None,
        limits: ServeLimits | None = None,
        weights: dict[str, float] | None = None,
    ) -> None:
        self.limits = limits or ServeLimits()
        self.runner = runner or SolveRunner()
        self.registry = self.runner.registry
        self.admission = AdmissionPolicy(self.limits)
        self.store = JobStore()
        self.queue = FairQueue(weights)
        self.draining = False
        self._running = 0
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._scheduler_task: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None

    # -- submission (event loop) ----------------------------------------------

    def submit(self, doc: dict) -> dict:
        """Admit one ``POST /jobs`` body; returns the job snapshot.

        Raises the queueing module's admission errors (mapped to HTTP
        statuses by the handler) without touching the pool or building
        solver state -- the 429 path must stay O(1).
        """
        if self.draining:
            self.registry.count("serve.jobs_rejected.draining")
            raise DrainingError("server is draining; not accepting jobs")
        if not isinstance(doc, dict):
            self.registry.count("serve.jobs_rejected.invalid")
            raise InputDeckError("job request body must be a JSON object")
        try:
            self.admission.check_queue(len(self.queue))
        except QueueFullError:
            self.registry.count("serve.jobs_rejected.queue_full")
            raise
        try:
            deck = deck_from_request(doc)
        except InputDeckError:
            self.registry.count("serve.jobs_rejected.invalid")
            raise
        try:
            self.admission.check_deck(deck.grid.num_cells)
        except DeckTooLargeError:
            self.registry.count("serve.jobs_rejected.deck")
            raise
        ctx = current_context()
        job = self.store.create(
            tenant=str(doc.get("tenant", "default")),
            deck_text=format_deck(deck),
            label=deck_label(deck),
            cost=deck_cost(deck),
            isa=bool(doc.get("isa", True)),
            metrics=bool(doc.get("metrics", False)),
            trace=bool(doc.get("trace", False)),
            trace_id=ctx.trace_id if ctx is not None else "",
        )
        klass = size_class(deck.grid.num_cells)
        self.queue.push(job, job.cost, klass)
        self.registry.count("serve.jobs_accepted")
        self.registry.gauge_max("serve.queue_depth", len(self.queue))
        self._wake.set()
        return self.store.get(job.id)

    # -- scheduler (event loop) -----------------------------------------------

    async def _scheduler(self) -> None:
        """Dispatch queued jobs into concurrency slots, WFQ order."""
        while True:
            while self.queue and self._running < self.limits.max_concurrent:
                job = self.queue.pop()
                self._running += 1
                self._idle.clear()
                self.registry.gauge_max("serve.running", self._running)
                asyncio.get_running_loop().create_task(self._run(job))
            self._wake.clear()
            await self._wake.wait()

    async def _run(self, job) -> None:
        waited = time.monotonic() - job.submitted_at
        self.registry.observe(
            "serve.queue_wait_ms", int(waited * 1000), bounds=MS_BUCKETS
        )
        try:
            result = await asyncio.to_thread(
                self.runner.run_job, job, self.store
            )
        except Exception as exc:
            fl = flight()
            dump = fl.dump(f"job-failed:{job.id}") if fl.enabled else None
            self.store.mark_failed(
                job.id,
                f"{type(exc).__name__}: {exc}",
                error_type=type(exc).__name__,
                tb=traceback.format_exc(),
                flight=dump,
            )
            self.registry.count("serve.jobs_failed")
            log_event(
                _log, logging.ERROR, "job failed",
                job_id=job.id, error=f"{type(exc).__name__}: {exc}",
            )
        else:
            self.store.mark_done(job.id, result)
            self.registry.count("serve.jobs_completed")
            self.registry.observe(
                "serve.solve_wall_ms",
                int(result["solve_wall_seconds"] * 1000),
                bounds=MS_BUCKETS,
            )
        finally:
            self._running -= 1
            if self._running == 0 and not self.queue:
                self._idle.set()
            self._wake.set()

    async def drain(self, timeout: float = 30.0) -> None:
        """Stop admitting, let queued + running jobs finish (bounded)."""
        self.draining = True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:  # pragma: no cover - hung solve
            pass

    # -- HTTP routing (event loop) --------------------------------------------

    def _route(self, request: Request) -> Response:
        path, method = request.path.rstrip("/") or "/", request.method
        if path == "/" and method == "GET":
            return Response.json({
                "service": "repro serve",
                "version": __version__,
                "endpoints": [
                    "GET /healthz", "GET /version", "GET /metrics",
                    "GET /decks", "POST /jobs", "GET /jobs",
                    "GET /jobs/{id}", "GET /jobs/{id}/events",
                    "GET /jobs/{id}/trace", "GET /jobs/{id}/flight",
                ],
            })
        if path == "/healthz" and method == "GET":
            state = "draining" if self.draining else "ok"
            return Response.json({
                "status": state,
                "queued": len(self.queue),
                "running": self._running,
            }, status=200 if state == "ok" else 503)
        if path == "/version" and method == "GET":
            return Response.json({"version": __version__})
        if path == "/metrics" and method == "GET":
            self.registry.gauge_max("serve.queue_depth", len(self.queue))
            return Response.text(
                to_prometheus_text(self.registry),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        if path == "/decks" and method == "GET":
            return Response.json({"examples": sorted(example_decks())})
        if path == "/jobs" and method == "POST":
            try:
                snapshot = self.submit(request.json())
            except QueueFullError as exc:
                return Response.error(429, str(exc))
            except DeckTooLargeError as exc:
                return Response.error(400, str(exc))
            except DrainingError as exc:
                return Response.error(503, str(exc))
            except InputDeckError as exc:
                return Response.error(400, str(exc))
            response = Response.json(snapshot, status=202)
            response.job_id = snapshot["id"]  # for the access log
            return response
        if path == "/jobs" and method == "GET":
            return Response.json({"jobs": self.store.list()})
        if path.startswith("/jobs/"):
            parts = path.split("/")
            if len(parts) == 3 and method == "GET":
                try:
                    return Response.json(self.store.get(parts[2]))
                except UnknownJobError as exc:
                    return Response.error(404, str(exc))
            if len(parts) == 4 and parts[3] == "events":
                # handled by the connection loop (streaming); reaching
                # here means the method was wrong
                return Response.error(405, "events endpoint is GET-only")
            if len(parts) == 4 and parts[3] == "trace" and method == "GET":
                try:
                    doc = self.store.get_trace(parts[2])
                except UnknownJobError as exc:
                    return Response.error(404, str(exc))
                if doc is None:
                    return Response.error(
                        404,
                        "no trace for this job; submit with "
                        '{"trace": true} and wait for completion',
                    )
                # sorted-keys + trailing newline: byte-identical to
                # trace.export.write_chrome_trace of a direct solve
                return Response(
                    status=200,
                    body=(json.dumps(doc, sort_keys=True) + "\n").encode(),
                    content_type="application/json",
                )
            if len(parts) == 4 and parts[3] == "flight" and method == "GET":
                try:
                    dump = self.store.get_flight(parts[2])
                except UnknownJobError as exc:
                    return Response.error(404, str(exc))
                if dump is None:
                    return Response.error(
                        404, "no flight-recorder dump for this job"
                    )
                return Response(
                    status=200,
                    body=(json.dumps(dump, sort_keys=True, default=repr)
                          + "\n").encode(),
                    content_type="application/json",
                )
        return Response.error(404, f"no route for {method} {request.path}")

    def _is_event_stream(self, request: Request) -> str | None:
        parts = (request.path.rstrip("/")).split("/")
        if (request.method == "GET" and len(parts) == 4
                and parts[1] == "jobs" and parts[3] == "events"):
            return parts[2]
        return None

    async def _stream_events(self, writer, request: Request, job_id: str):
        try:
            seq = int(request.query.get("since", "-1"))
        except ValueError:
            seq = -1
        try:
            self.store.get(job_id)
        except UnknownJobError as exc:
            await write_response(writer, Response.error(404, str(exc)))
            return
        await start_ndjson(writer)
        while True:
            events, terminal = self.store.events_after(job_id, seq)
            for event in events:
                seq = event["seq"]
                await write_ndjson_line(writer, event)
            if terminal:
                return
            await asyncio.sleep(EVENT_POLL_SECONDS)

    def _request_context(self, request: Request):
        """Continue the caller's trace from a ``traceparent`` header, or
        start a fresh one; either way every request gets an identity."""
        header = request.headers.get("traceparent", "")
        if header:
            try:
                return parse_traceparent(header, identity="serve")
            except ContextError:
                pass  # malformed header: start a fresh trace
        return mint_context(identity="serve")

    def _access_log(self, request: Request, status: int,
                    job_id: str, elapsed: float) -> None:
        log_event(
            _access, logging.INFO, "request",
            method=request.method, path=request.path, status=status,
            duration_ms=round(elapsed * 1000, 3), job_id=job_id,
        )

    async def handle_connection(self, reader, writer) -> None:
        """One connection, one request, one response (or NDJSON stream)."""
        t0 = time.monotonic()
        request = None
        status = 0
        log_job_id = ""
        token = None
        try:
            try:
                request = await read_request(
                    reader, self.limits.max_body_bytes
                )
            except HttpError as exc:
                if exc.status == 413:
                    self.registry.count("serve.jobs_rejected.payload")
                status = exc.status
                await write_response(
                    writer, Response.error(exc.status, exc.message)
                )
                return
            if request is None:
                return
            ctx = self._request_context(request)
            token = set_context(ctx)
            self.registry.count("serve.http_requests")
            job_id = self._is_event_stream(request)
            if job_id is not None:
                status, log_job_id = 200, job_id
                await self._stream_events(writer, request, job_id)
                return
            try:
                response = self._route(request)
            except HttpError as exc:
                response = Response.error(exc.status, exc.message)
            except Exception as exc:  # pragma: no cover - handler bug
                response = Response.error(
                    500, f"{type(exc).__name__}: {exc}"
                )
            response.headers.setdefault("x-request-id", ctx.span_id)
            response.headers.setdefault("x-trace-id", ctx.trace_id)
            status = response.status
            log_job_id = getattr(response, "job_id", "")
            await write_response(writer, response)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            if request is not None:
                if not log_job_id:
                    parts = request.path.rstrip("/").split("/")
                    if len(parts) >= 3 and parts[1] == "jobs":
                        log_job_id = parts[2]
                self._access_log(
                    request, status, log_job_id, time.monotonic() - t0
                )
            if token is not None:
                reset_context(token)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    # -- lifecycle -------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Bind the listening socket and start the scheduler; returns
        the ``asyncio`` server (its sockets carry the bound port)."""
        self._scheduler_task = asyncio.get_running_loop().create_task(
            self._scheduler()
        )
        self._server = await asyncio.start_server(
            self.handle_connection, host, port
        )
        return self._server

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def stop(self, drain_timeout: float = 30.0) -> None:
        """Graceful shutdown: drain, close the socket, stop the
        scheduler.  Idempotent."""
        await self.drain(drain_timeout)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
            self._scheduler_task = None


async def serve_forever(
    app: ServeApp,
    host: str,
    port: int,
    ready=None,
) -> None:
    """Run ``app`` until SIGTERM/SIGINT, then drain and exit cleanly.

    ``ready`` -- optional callable invoked with the bound port once the
    socket is listening (the CLI prints it; tests grab it).
    """
    server = await app.start(host, port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread or exotic platform: CLI handles ^C
    if ready is not None:
        ready(app.port)
    async with server:
        await stop.wait()
        await app.stop()
