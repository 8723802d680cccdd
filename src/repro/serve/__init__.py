"""Solve-as-a-service: the async batched solve server (``repro serve``).

The standing front door the ROADMAP's millions-of-users story needs:
an asyncio HTTP/JSON daemon (stdlib only) that accepts deck
submissions, schedules them with weighted fair queueing onto a shared
:class:`~repro.parallel.pool.PersistentPool` so compiled-ISA and DMA
program caches stay warm across tenants, streams per-job progress as
NDJSON, and exposes the metrics registry in Prometheus text format.
See ``docs/SERVING.md`` for the API and ``tests/serve/`` for the
referee: a server-solved flux is bit-identical to running
:class:`~repro.core.solver.CellSweep3D` directly.
"""

from ..sweep.deckfile import format_deck as deck_to_text
from ..sweep.flux import flux_digest
from .app import ServeApp, serve_forever
from .client import ServeClient, ServeClientError
from .decks import deck_cost, deck_from_request, example_decks
from .jobs import DONE, FAILED, QUEUED, RUNNING, Job, JobStore
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

__all__ = [
    "AdmissionPolicy",
    "DONE",
    "DeckTooLargeError",
    "DrainingError",
    "FAILED",
    "FairQueue",
    "Job",
    "JobStore",
    "QUEUED",
    "QueueFullError",
    "RUNNING",
    "ServeApp",
    "ServeClient",
    "ServeClientError",
    "ServeLimits",
    "SolveRunner",
    "deck_cost",
    "deck_from_request",
    "deck_to_text",
    "example_decks",
    "flux_digest",
    "serve_forever",
    "size_class",
]
