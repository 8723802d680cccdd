"""Persistent worker pool: processes and shared memory that outlive one solver.

Forking a pool and mapping shared memory per solve is pure overhead
once the solver is warm -- and worse, every fresh worker process starts
with a cold :data:`repro.cell.isa_compile._PROGRAM_CACHE`, so a
compiled-ISA solve re-traces its kernels in every lane of every solve.
This module keeps both hot:

* :class:`WorkerSet` -- a set of forked worker processes plus the
  synchronization objects they were born with (task/result queues and
  the rebind barrier).  ``multiprocessing`` barriers can only be
  shared by inheritance, so the set owns them from fork time; solvers
  come and go via *rebind* messages carrying ``(deck, config, shared-
  memory manifest)``, from which each worker builds its own attached
  solver (:class:`repro.parallel.engine._BoundBlockState`).  A worker
  process that survives a rebind keeps its warm per-process
  ``CompiledProgram`` cache -- that is the whole point.
* :class:`PersistentPool` -- hands out worker sets keyed by worker
  count and parks them on release instead of stopping them; owns the
  :class:`~repro.parallel.shm.SegmentRegistry`
  shared-memory parking lot; aggregates pool-side observability
  (worker reuse, segment reuse, ISA compile hits/misses) in its own
  :class:`~repro.metrics.registry.MetricsRegistry` -- *not* the
  solver's, whose contents must stay bit-identical to a serial run.

``CellSweep3D(..., pool="keep")`` routes through the process-wide
:func:`global_pool`; ``pool="fresh"`` (the default) gives the solver a
private pool torn down on ``close()`` -- the pre-pool semantics.
Passing a :class:`PersistentPool` instance pins the lifetime explicitly
(tests do this to keep global state out of the picture).
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing as mp
import threading

from ..errors import ConfigurationError, ParallelError
from ..metrics.registry import MetricsRegistry
from ..obs.log import get_logger, log_event
from .shm import SegmentRegistry

import logging

#: structured lifecycle log (silent until obs.log.configure_logging)
_log = get_logger("pool")

#: seconds the parent waits for workers to acknowledge a rebind
_BIND_TIMEOUT = 120.0

#: CompileStats fields folded into the pool registry
COMPILE_KEYS = (
    "streams_compiled", "cache_hits", "batched_calls",
    "batched_blocks", "batched_lines",
    "ops_before", "ops_after", "slots_reused",
)


class WorkerSet:
    """Forked worker processes plus their fork-inherited sync objects."""

    def __init__(self, workers: int) -> None:
        self.workers = int(workers)
        self.ctx = mp.get_context("fork")
        self.procs: list = []
        self._seq = 0
        self._stopped = False
        self.tasks = self.ctx.Queue()
        self.results = self.ctx.Queue()
        self.bind_barrier = self.ctx.Barrier(self.workers)
        # lazy import: engine.py imports this module for PersistentPool
        from . import engine as _engine

        for lane in range(1, self.workers):
            p = self.ctx.Process(
                target=_engine._queue_pool_worker, args=(self, lane),
                daemon=True, name=f"repro-pool-queue-lane{lane}",
            )
            p.start()
            self.procs.append(p)

    # -- parent-side protocol --------------------------------------------------

    def next_seq(self) -> int:
        """A fresh work-batch sequence number (monotonic across every
        engine this set ever serves, so stale queue items are skipped)."""
        self._seq += 1
        return self._seq

    def bind(self, payload: dict) -> None:
        """Point every worker at a new solver.

        ``payload`` carries ``(deck, config, shared-memory
        manifest)``; each worker builds its own attached solver from
        it and acknowledges through the bind barrier, so when this
        returns no worker still touches the previous solver's state.
        """
        if self._stopped:
            raise ParallelError("worker set already stopped")
        if self.workers == 1:
            return
        try:
            for _ in range(self.workers - 1):
                self.tasks.put(("bind", payload))
            self.bind_barrier.wait(timeout=_BIND_TIMEOUT)
        except ParallelError:
            raise
        except Exception as exc:  # pragma: no cover - dead/hung worker
            raise ParallelError(
                f"worker set failed to acknowledge rebind within "
                f"{_BIND_TIMEOUT:.0f}s: {exc!r}"
            ) from None

    def healthy(self) -> bool:
        """Every worker process is still alive (a parked set that lost a
        process cannot be reused -- barriers would hang)."""
        return not self._stopped and all(p.is_alive() for p in self.procs)

    def stop(self) -> None:
        """Terminate the workers."""
        if self._stopped:
            return
        self._stopped = True
        for _ in self.procs:
            self.tasks.put(("stop",))
        for p in self.procs:
            p.join(timeout=5.0)
            if p.is_alive():  # pragma: no cover - hung worker
                p.terminate()
                p.join(timeout=5.0)
        self.procs = []


class PersistentPool:
    """Worker sets and shared-memory segments reused across solvers.

    ``persistent=True`` parks released worker sets and segments for the
    next acquisition; ``persistent=False`` gives the classic
    solver-scoped lifetime (everything stops at ``close``).  Either
    way the pool's :attr:`metrics` registry aggregates what happened:

    * ``parallel.pool.workers.forked`` / ``.reused`` / ``.parked`` /
      ``.stopped`` -- worker-set lifecycle;
    * ``parallel.pool.binds`` -- solver rebinds shipped to live sets;
    * ``parallel.shm.created`` / ``.reused`` / ``.parked`` /
      ``.unlinked`` -- segment-registry traffic;
    * ``parallel.isa.*`` -- :data:`~repro.cell.isa_compile.STATS`
      deltas folded from every process that executed work (the
      hit-rate counters the warm-pool acceptance check reads).

    These live outside the solver's registry on purpose: per-process
    compile counts depend on the worker count, and the solver registry
    must stay bit-identical to a serial run.
    """

    def __init__(self, persistent: bool = False) -> None:
        self.persistent = bool(persistent)
        self.metrics = MetricsRegistry()
        self.segments = SegmentRegistry(
            counter=lambda event, n=1: self.metrics.count(
                f"parallel.shm.{event}", n
            )
        )
        self._parked: dict[int, WorkerSet] = {}
        self._closed = False
        self._active_leases = 0
        #: serializes park/unpark/shutdown across threads: the solve
        #: server leases one pool to several solver threads at once,
        #: and two threads acquiring the same worker count must
        #: not both pop the same parked set or double-park on release.
        self._lock = threading.RLock()
        atexit.register(self.shutdown)

    # -- worker sets -----------------------------------------------------------

    def acquire(self, workers: int) -> WorkerSet:
        """A worker set of ``workers`` lanes: a parked healthy one when
        available, a freshly forked one otherwise."""
        with self._lock:
            if self._closed:
                raise ParallelError("persistent pool already shut down")
            ws = self._parked.pop(int(workers), None)
            if ws is not None:
                if ws.healthy():
                    self.metrics.count("parallel.pool.workers.reused")
                    log_event(
                        _log, logging.INFO, "worker set reused",
                        workers=int(workers),
                    )
                    return ws
                ws.stop()  # pragma: no cover - a parked set lost a process
            self.metrics.count("parallel.pool.workers.forked")
            log_event(
                _log, logging.INFO, "worker set forked",
                workers=int(workers),
            )
            return WorkerSet(workers)

    def release(self, ws: WorkerSet, discard: bool = False) -> None:
        """Park ``ws`` for reuse (persistent pools, healthy sets) or
        stop it.  ``discard`` forces a stop -- an engine that aborted a
        sweep may have left stale items in the set's queues, so its
        workers must not serve another solver."""
        with self._lock:
            key = ws.workers
            if (
                not discard
                and self.persistent
                and not self._closed
                and ws.healthy()
                and key not in self._parked
            ):
                self._parked[key] = ws
                self.metrics.count("parallel.pool.workers.parked")
                log_event(
                    _log, logging.INFO, "worker set parked",
                    workers=ws.workers,
                )
            else:
                ws.stop()
                self.metrics.count("parallel.pool.workers.stopped")
                log_event(
                    _log, logging.INFO, "worker set stopped",
                    workers=ws.workers, discarded=bool(discard),
                )

    @contextlib.contextmanager
    def lease(self, tenant: str = "default"):
        """Mark one tenant's solve window on a shared pool.

        The sharing seam the solve server uses: each job takes a lease
        around its solver's lifetime, so pool-side observability can
        tell *how many* tenants rode the same warm caches
        (``parallel.pool.leases``, ``parallel.pool.active_leases``
        high-water).  Purely observational -- worker-set handout is
        already serialized by the pool's lock -- but it gives shutdown
        ordering a contract: :meth:`shutdown` during an active lease is
        a caller bug, reported as :class:`ParallelError` at the next
        acquire rather than a hung barrier.
        """
        with self._lock:
            if self._closed:
                raise ParallelError("persistent pool already shut down")
            self.metrics.count("parallel.pool.leases")
            self._active_leases += 1
            self.metrics.gauge_max(
                "parallel.pool.active_leases", self._active_leases
            )
        try:
            yield self
        finally:
            with self._lock:
                self._active_leases -= 1

    # -- observability ---------------------------------------------------------

    def count_bind(self) -> None:
        self.metrics.count("parallel.pool.binds")
        log_event(_log, logging.DEBUG, "solver bound to worker set")

    def count_compile(self, delta: dict) -> None:
        """Fold a :func:`repro.cell.isa_compile.stats_delta` (or the
        equivalent dict) into the ``parallel.isa.*`` counters."""
        for key in COMPILE_KEYS:
            value = int(delta.get(key, 0))
            if value:
                self.metrics.count(f"parallel.isa.{key}", value)

    def compile_hit_rate(self, since: dict | None = None) -> float | None:
        """Cache hits / program lookups, or ``None`` before any
        compiled-ISA work ran.  ``since`` -- an earlier
        ``metrics.to_dict()["counters"]`` snapshot -- restricts the rate
        to the work folded after it; ``1.0`` over the window of a
        rebound solve is the warm-pool acceptance bar: it recompiled
        nothing."""
        hits = self.metrics.get("parallel.isa.cache_hits")
        misses = self.metrics.get("parallel.isa.streams_compiled")
        if since is not None:
            hits -= since.get("parallel.isa.cache_hits", 0)
            misses -= since.get("parallel.isa.streams_compiled", 0)
        if hits + misses == 0:
            return None
        return hits / (hits + misses)

    @property
    def parked_worker_sets(self) -> int:
        return len(self._parked)

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every parked worker set and unlink every parked
        segment.  Idempotent; also runs at interpreter exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            parked = list(self._parked.values())
            self._parked = {}
        if parked:
            log_event(
                _log, logging.INFO, "pool shutdown",
                parked_sets=len(parked),
            )
        for ws in parked:
            ws.stop()
        self.segments.close()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


_GLOBAL_POOL: PersistentPool | None = None


def global_pool() -> PersistentPool:
    """The process-wide persistent pool behind ``pool="keep"``."""
    global _GLOBAL_POOL
    if _GLOBAL_POOL is None or _GLOBAL_POOL._closed:
        _GLOBAL_POOL = PersistentPool(persistent=True)
    return _GLOBAL_POOL


def resolve_pool(pool: "str | PersistentPool") -> PersistentPool:
    """Map a ``pool=`` argument (``"keep"``, ``"fresh"``, or an
    explicit :class:`PersistentPool`) to the pool instance to use."""
    if isinstance(pool, PersistentPool):
        return pool
    if pool == "keep":
        return global_pool()
    if pool == "fresh":
        return PersistentPool(persistent=False)
    raise ConfigurationError(
        f"pool must be 'keep', 'fresh' or a PersistentPool, got {pool!r}"
    )
