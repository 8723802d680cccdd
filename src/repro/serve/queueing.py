"""Weighted fair queueing and admission control for the solve server.

The workload the ROADMAP names is heterogeneous by construction: many
small 16^3 decks (interactive users) mixed with the occasional 50^3
paper benchmark (a batch tenant).  A plain FIFO starves the small jobs
behind the big one; a plain shortest-job-first starves the big one
forever.  :class:`FairQueue` implements classic virtual-time weighted
fair queueing over *service classes*:

* every job carries a ``cost`` -- its estimated service demand (the
  deck's cell x angle x iteration count, normalized);
* jobs are grouped into classes (by default the deck's size class:
  ``small`` / ``medium`` / ``large``; a tenant id works too);
* on arrival a job gets a virtual **finish tag**
  ``max(V, last_finish[class]) + cost / weight``; dispatch always picks
  the smallest finish tag and advances the virtual clock ``V`` to the
  picked job's start tag.

Within a class the tags are strictly increasing, so a class's own jobs
run FIFO; across classes each class receives service proportional to
its weight no matter how lopsided the demand -- a stream of small jobs
cannot starve one large job (its tag only grows with *completed
virtual service*, not wall time), and one large job cannot block the
small stream (its huge cost pushes only its *own* next tag far out).
Everything is deterministic: no wall clock, no randomness -- ties break
by arrival sequence -- which is what makes the starvation tests in
``tests/serve/test_queueing.py`` exact rather than statistical.

:class:`AdmissionPolicy` is the front door's bouncer, checked *before*
a job object is built or the pool is touched: queue depth and deck
size each map to a distinct HTTP status (429 / 400), and a draining
server answers 503.  An oversize body never gets this far:
:func:`repro.serve.httpd.read_request` answers 413 before reading it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from ..errors import ReproError

#: default WFQ weights per deck size class.  Small jobs get the larger
#: weight (latency-sensitive interactive traffic); large jobs still own
#: a guaranteed fraction of service (1 / sum(weights) per unit cost).
DEFAULT_WEIGHTS = {"small": 4.0, "medium": 2.0, "large": 1.0}

#: deck size-class boundaries in cells (16^3 = 4096 is "small";
#: anything above 32^3 is "large")
SMALL_MAX_CELLS = 20 ** 3
MEDIUM_MAX_CELLS = 32 ** 3


class QueueFullError(ReproError):
    """Admission refused: the queue is at its depth limit (HTTP 429)."""


class DeckTooLargeError(ReproError):
    """Admission refused: the deck exceeds the cell budget (HTTP 400)."""


class DrainingError(ReproError):
    """Admission refused: the server is shutting down (HTTP 503)."""


def size_class(cells: int) -> str:
    """Deck size class for WFQ purposes (``small``/``medium``/``large``)."""
    if cells <= SMALL_MAX_CELLS:
        return "small"
    if cells <= MEDIUM_MAX_CELLS:
        return "medium"
    return "large"


@dataclass(frozen=True)
class ServeLimits:
    """Admission-control knobs (CLI flags ``--max-queue`` etc.)."""

    #: queued (not yet running) jobs beyond which POST /jobs answers 429
    max_queue_depth: int = 64
    #: solves running concurrently (the scheduler's slot count)
    max_concurrent: int = 2
    #: request-body byte ceiling (413 above it, read is aborted early)
    max_body_bytes: int = 1 << 20
    #: largest admissible deck in cells (a 10^6-cell deck would pin a
    #: worker for hours; reject it at the door instead)
    max_cells: int = 64 ** 3


class AdmissionPolicy:
    """Stateless checks each submission passes before a job exists."""

    def __init__(self, limits: ServeLimits) -> None:
        self.limits = limits

    def check_deck(self, cells: int) -> None:
        if cells > self.limits.max_cells:
            raise DeckTooLargeError(
                f"deck has {cells} cells, over the admissible "
                f"{self.limits.max_cells}"
            )

    def check_queue(self, queued: int) -> None:
        if queued >= self.limits.max_queue_depth:
            raise QueueFullError(
                f"queue depth {queued} at the {self.limits.max_queue_depth} "
                f"limit; retry later"
            )


@dataclass
class _Entry:
    finish: float
    seq: int
    item: object = field(compare=False)

    def __lt__(self, other: "_Entry") -> bool:
        return (self.finish, self.seq) < (other.finish, other.seq)


class FairQueue:
    """Virtual-time weighted fair queue of ``(cost, class)`` items.

    Pure data structure: no clock, no locks (the server serializes
    access through the asyncio loop; the property tests drive it
    directly).  ``push`` never rejects -- admission is the
    :class:`AdmissionPolicy`'s job, *before* the queue is touched.
    """

    def __init__(self, weights: dict[str, float] | None = None) -> None:
        self.weights = dict(DEFAULT_WEIGHTS if weights is None else weights)
        self._heap: list[_Entry] = []
        self._seq = itertools.count()
        self._vtime = 0.0
        self._last_finish: dict[str, float] = {}
        self._start: dict[int, float] = {}

    def weight(self, klass: str) -> float:
        return self.weights.get(klass, 1.0)

    def push(self, item, cost: float, klass: str) -> float:
        """Enqueue ``item``; returns its virtual finish tag."""
        start = max(self._vtime, self._last_finish.get(klass, 0.0))
        finish = start + max(float(cost), 1e-9) / self.weight(klass)
        self._last_finish[klass] = finish
        seq = next(self._seq)
        self._start[seq] = start
        heapq.heappush(self._heap, _Entry(finish, seq, item))
        return finish

    def pop(self):
        """Dequeue the item with the smallest virtual finish tag and
        advance the virtual clock to its start tag."""
        if not self._heap:
            raise IndexError("pop from an empty FairQueue")
        entry = heapq.heappop(self._heap)
        self._vtime = max(self._vtime, self._start.pop(entry.seq))
        return entry.item

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
