"""Execute admitted jobs on the shared persistent pool.

One :class:`SolveRunner` per server.  It owns the process-wide warm
state every tenant shares:

* the :class:`~repro.parallel.pool.PersistentPool` (worker processes +
  shared-memory segments, when the server runs solver ``workers > 1``);
* the in-process compiled-ISA program cache
  (:data:`repro.cell.isa_compile._PROGRAM_CACHE` is keyed by stream
  signature, so two tenants submitting the same deck shape share
  programs automatically);
* the per-solver DMA program caches (rebuilt per solve, but cheap; the
  expensive caches above are what the daemon exists to keep warm).

Solves are synchronous CPU-bound work; the asyncio app runs
:meth:`run_job` in a worker thread, so everything here must be
thread-safe.  Compile accounting is the subtle part: the global
:data:`~repro.cell.isa_compile.STATS` counter is process-wide, so
per-job deltas are exact only while solves do not overlap (the CI
smoke's case); the server-wide ``serve.isa.*`` counters are folded
under a lock from one shared snapshot and are exact regardless of
overlap.
"""

from __future__ import annotations

import threading
import time

from ..cell.isa_compile import STATS, stats_delta
from ..core.solver import CellSweep3D
from ..metrics.registry import MetricsRegistry
from ..obs.context import (
    TraceContext,
    mint_context,
    reset_context,
    set_context,
)
from ..parallel.pool import PersistentPool, resolve_pool
from ..sweep.deckfile import parse_deck
from ..sweep.flux import flux_digest
from .jobs import Job, JobStore


class _ProgressSink:
    """Adapter from the solver's ``progress.tick()`` seam to the store."""

    def __init__(self, store: JobStore, job_id: str) -> None:
        self._store = store
        self._job_id = job_id

    def tick(self, done=None) -> None:
        self._store.tick(self._job_id)


class SolveRunner:
    """Runs one job at a time per calling thread on shared warm caches."""

    def __init__(
        self,
        pool: "str | PersistentPool" = "keep",
        workers: int = 1,
        registry: MetricsRegistry | None = None,
        config=None,
    ) -> None:
        from ..perf.processors import measured_cell_config

        self.pool = resolve_pool(pool)
        self.workers = int(workers)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._base_config = config or measured_cell_config()
        self._stats_lock = threading.Lock()
        self._stats_mark = STATS.snapshot()

    # -- accounting -----------------------------------------------------------

    def _fold_compile_stats(self) -> dict[str, int]:
        """Fold everything :data:`STATS` accumulated since the last fold
        into the server registry (exact under concurrency) and return
        that server-wide delta."""
        with self._stats_lock:
            now = STATS.snapshot()
            delta = {k: now[k] - self._stats_mark.get(k, 0) for k in now}
            self._stats_mark = now
        for key, value in delta.items():
            if value:
                self.registry.count(f"serve.isa.{key}", value)
        return delta

    # -- execution ------------------------------------------------------------

    def run_job(self, job: Job, store: JobStore) -> dict:
        """Solve ``job``'s deck; returns the result payload.

        Called from a scheduler-owned worker thread.  Raises on solver
        failure -- the scheduler marks the job failed with the message.
        """
        # continue the submitting request's trace in this solve thread
        # (the scheduler task does not carry the request context), so
        # pool bind payloads and worker logs correlate to the job
        ctx = mint_context(identity="runner", job_id=job.id)
        if job.trace_id:
            ctx = TraceContext(
                trace_id=job.trace_id, span_id=ctx.span_id,
                identity="runner", fields=dict(ctx.fields),
            )
        token = set_context(ctx)
        try:
            return self._run_job(job, store)
        finally:
            reset_context(token)

    def _run_job(self, job: Job, store: JobStore) -> dict:
        deck = parse_deck(job.deck_text)
        isa = job.isa and deck.material_box is None
        config = self._base_config.with_(isa_kernel=isa)
        if job.metrics:
            config = config.with_(metrics=True)
        if job.trace:
            config = config.with_(trace=True)
        job_mark = STATS.snapshot()
        t0 = time.perf_counter()
        with self.pool.lease(job.tenant):
            solver = CellSweep3D(
                deck, config, workers=self.workers,
                pool=self.pool if self.workers > 1 else "fresh",
            )
            store.mark_running(
                job.id, solver.units_per_sweep() * deck.iterations
            )
            solver.progress = _ProgressSink(store, job.id)
            try:
                result = solver.solve()
            finally:
                solver.close()
        wall = time.perf_counter() - t0
        self._fold_compile_stats()
        job_delta = stats_delta(job_mark)
        flux = result.flux
        phi = result.scalar_flux
        payload = {
            "flux": {
                "total": float(phi.sum()),
                "max": float(phi.max()),
                "min": float(phi.min()),
                "sha256": flux_digest(flux),
                "shape": list(flux.shape),
                "dtype": str(flux.dtype),
            },
            "leakage": float(result.tally.leakage),
            "fixups": int(result.tally.fixups),
            "iterations": int(result.iterations),
            "last_flux_change": (result.history[-1] if result.history
                                 else None),
            "solve_wall_seconds": wall,
            "isa": isa,
            "compile": {
                # exact while solves do not overlap; see module docstring
                "streams_compiled": job_delta.get("streams_compiled", 0),
                "cache_hits": job_delta.get("cache_hits", 0),
                "batched_calls": job_delta.get("batched_calls", 0),
                "ops_before": job_delta.get("ops_before", 0),
                "ops_after": job_delta.get("ops_after", 0),
                "slots_reused": job_delta.get("slots_reused", 0),
            },
            "pool": {
                "workers": self.workers,
                "compile_hit_rate": self.pool.compile_hit_rate(),
                "parked_worker_sets": self.pool.parked_worker_sets,
            },
        }
        if job.metrics:
            attribution = solver.cycle_attribution()
            attribution.verify()
            payload["cycle_attribution"] = attribution.to_dict()
            payload["registry"] = solver.metrics.to_dict()
        if job.trace:
            from ..trace.export import to_chrome_trace

            # byte-identical to a direct solve's trace file: the doc
            # carries no job/request identity, only machine events
            store.attach_trace(job.id, to_chrome_trace(solver.trace))
        return payload

    def close(self) -> None:
        self.pool.shutdown()
