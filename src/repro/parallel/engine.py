"""The host-parallel execution engine for one simulated Cell chip.

The work unit is one ``(octant, angle-block)`` slice of the sweep.
Workers build their own attached solver from the rebind payload (deck,
config, shared-memory manifest), read the moment source from shared
memory, execute the unit with the complete staged machinery (scheduler,
sync protocol, DMA staging, kernel -- the diagonal-batched compiled
executor included, when ``compile_isa`` is on) against their private
face/flux arrays, and capture the unit's angular flux into a shared
``psi`` array.  The parent then *replays* the flux accumulation and
refolds leakage in the serial order (see :mod:`.workunits`), so the
reduction is deterministic by construction.  Per-unit trace-event
buffers merge back into the parent's :class:`~repro.trace.bus.TraceBus`
in unit order, cycle cursor and all, so tracing and the DMA-hazard
sanitizer keep working.

Worker processes come from a :class:`~repro.parallel.pool.
PersistentPool` and outlive the engine when the pool is kept: the task
and result queues belong to the pool's :class:`~repro.parallel.pool.
WorkerSet`, and each engine *binds* the set to its solver on first use.
A rebound worker keeps its warm per-process compiled-program cache,
which is what makes the second solve on a kept pool recompile nothing.

Work distribution is a shared task queue: the parent enqueues every
unit, workers pull, and the parent itself drains the queue between
collecting results, so a lone straggler never idles the pool ("any
lane may execute any unit").
"""

from __future__ import annotations

import queue
import traceback
from dataclasses import replace

import numpy as np

from ..cell.isa_compile import STATS, stats_delta
from ..errors import ParallelError
from ..obs.flight import flight as _flight
from ..sweep.flux import SweepTally
from ..sweep.pipelining import VacuumBoundary
from .shm import AttachedArrays, SharedArrayPool
from .workunits import (
    BlockUnit,
    RecordingVacuumBoundary,
    UnitResult,
    enumerate_block_units,
    replay_flux,
)

#: host arrays that live in shared memory (name prefixes; everything
#: else stays process-private in each worker's attached solver)
_SHARED_PREFIXES = ("msrc",)

#: seconds the parent waits for a result from live workers before
#: declaring the pool hung (a *dead* worker is noticed within a second)
_RESULT_TIMEOUT = 600.0

#: seconds between worker-liveness checks while the parent is blocked
#: on the result queue
_HEALTH_POLL = 1.0


class ParallelEngine:
    """Runs one :class:`~repro.core.solver.CellSweep3D`'s sweeps on a
    pool of forked worker processes."""

    @staticmethod
    def prepare_chip(chip, pool=None) -> None:
        """Install the shared-memory allocator on ``chip`` *before* the
        solver builds its :class:`~repro.core.porting.HostState`, so the
        shared arrays land in shared memory (leased from ``pool``'s
        segment registry when one is given)."""
        registry = pool.segments if pool is not None else None
        shm = SharedArrayPool(registry=registry)
        chip.host_array_factory = shm.factory(
            lambda name: name.startswith(_SHARED_PREFIXES)
        )
        chip._parallel_pool = shm

    def __init__(self, solver, workers: int, pool=None) -> None:
        from .pool import PersistentPool

        self.solver = solver
        self.workers = int(workers)
        self.pool = pool if pool is not None else PersistentPool()
        self.shm: SharedArrayPool = solver.chip._parallel_pool
        self._ws = None
        self._closed = False
        self._dirty = False  # an aborted sweep poisons queues/segments
        g = solver.deck.grid
        self.units: list[BlockUnit] = enumerate_block_units(
            solver.deck, solver.quad
        )
        num_angles = 8 * solver.quad.per_octant
        self.psi = self.shm.alloc(
            "parallel-psi", (num_angles, g.nz, g.ny, solver.host.row_len)
        )

    # -- worker-set plumbing ---------------------------------------------------

    def _bind_payload(self) -> dict:
        from ..obs.context import current_context

        ctx = current_context()
        return {
            "deck": self.solver.deck,
            "config": self.solver.config,
            "manifest": self.shm.manifest(),
            # trace context for the workers' logs/flight dumps; absent
            # when no caller minted one (bits of the solve never depend
            # on it)
            "obs": ctx.to_payload() if ctx is not None else None,
        }

    def _ensure_started(self) -> None:
        """Acquire a worker set from the pool and bind it to this
        solver (lazily, on the first sweep)."""
        if self._ws is not None:
            return
        if self._closed:
            raise ParallelError("engine already closed")
        ws = self.pool.acquire(self.workers)
        try:
            ws.bind(self._bind_payload())
            self.pool.count_bind()
        except BaseException:
            ws.stop()
            raise
        self._ws = ws

    def close(self) -> None:
        """Return the workers to the pool (or stop them) and release
        the shared-memory segments (parked for reuse when the pool is
        persistent)."""
        if self._closed:
            return
        self._closed = True
        keep = self.pool.persistent and not self._dirty
        if self._ws is not None:
            self.pool.release(self._ws, discard=self._dirty)
            self._ws = None
        self.shm.close(park=keep)
        if not self.pool.persistent:
            self.pool.shutdown()

    # -- sweeping --------------------------------------------------------------

    def sweep(self, moment_source: np.ndarray, boundary):
        """One parallel sweep, or ``None`` to make the solver fall back
        to its serial path (a caller-supplied boundary: the unit
        decomposition owns the boundary protocol)."""
        if boundary is not None:
            return None
        solver = self.solver
        self._ensure_started()
        solver.host.load_moment_source(moment_source)
        seq = self._ws.next_seq()
        for unit in self.units:
            self._ws.tasks.put(("unit", seq, unit.index))
        bus = solver.trace
        base_idx = len(bus.events) if bus.enabled else 0
        base_now = bus.now
        try:
            results = drive_units(self, seq, len(self.units))
        except ParallelError as exc:
            self._dirty = True
            fl = _flight()
            if fl.enabled:
                fl.note(
                    "parallel-error", error=str(exc), units=len(self.units),
                    workers=self.workers,
                )
                fl.attach_bus(bus)
                fl.dump_to_file("parallel-error")
            raise

        # deterministic reduction, strictly in serial unit order
        tally = SweepTally()
        boundary = VacuumBoundary(solver.deck, solver.quad)
        if bus.enabled:
            # rebuild the sweep's stretch of the trace from the
            # per-unit captures: unit order restores the serial stream
            del bus.events[base_idx:]
            bus.now = base_now
        for unit in self.units:
            r = results[unit.index]
            tally.fixups += r.fixups
            for contribution in r.leak_records:
                boundary._tally(contribution)
            if r.compile is not None:
                # pool-side observability only -- never the solver's
                # registry, whose bits must not depend on worker count
                self.pool.count_compile(r.compile)
            if r.metrics is not None:
                # integer aggregates make any merge order exact; serial
                # unit order is kept anyway, mirroring the flux replay
                solver.metrics.merge(r.metrics)
            if bus.enabled and r.events is not None:
                # replay the cycle cursor instead of shifting captured
                # timestamps: each event lands at the parent's `now` and
                # advances it by its own span, the exact recurrence the
                # serial emit path runs -- so the merged stream is
                # byte-identical to a serial trace, timestamps included
                # (a `ts + offset` rebase is not float-exact)
                for ev in r.events:
                    bus.events.append(
                        replace(ev, seq=len(bus.events), ts=bus.now)
                    )
                    if ev.dur:
                        bus.now += ev.dur
        solver.host.zero_flux()
        replay_flux(solver.host, self.psi, solver.quad, solver.basis, solver.deck)
        tally.leakage = boundary.leakage
        return solver.host.flux_logical(), tally, boundary


# -- worker-side solver construction (runs in pool worker processes) ----------


def _attach_solver(deck, config, attached: AttachedArrays):
    """A worker's own solver over the parent's shared host arrays."""
    from ..cell.chip import CellBE
    from ..core.solver import CellSweep3D

    chip = CellBE(num_spes=config.num_spes)
    chip.host_array_factory = attached.factory()
    return CellSweep3D(deck, config, chip=chip)


class _BoundBlockState:
    """A pool worker's execution context: its own solver attached to
    the parent's shared arrays."""

    def __init__(self, payload: dict) -> None:
        self.attached = AttachedArrays(payload["manifest"])
        self.solver = _attach_solver(
            payload["deck"], payload["config"], self.attached
        )
        self.units = enumerate_block_units(self.solver.deck, self.solver.quad)
        self.psi = self.attached.get("parallel-psi")

    def execute(self, index: int) -> UnitResult:
        return _execute_block_unit(self.solver, self.units[index], self.psi)

    def close(self) -> None:
        self.attached.close()


# -- work-unit execution (parent or worker) -----------------------------------


def _execute_block_unit(solver, unit: BlockUnit, psi: np.ndarray) -> UnitResult:
    """One (octant, angle-block) unit through the full staged machinery,
    against this process's private faces and flux, capturing psi."""
    boundary = RecordingVacuumBoundary(solver.deck, solver.quad)
    tally = SweepTally()
    bus = solver.trace
    start_idx = len(bus.events) if bus.enabled else 0
    start_now = bus.now
    metrics_delta = None
    prev_metrics = capture_unit_metrics(solver)
    compile_before = STATS.snapshot()
    try:
        solver._sweep_block(
            unit.octant, list(unit.angles), tally, boundary, psi_sink=psi
        )
    finally:
        metrics_delta = release_unit_metrics(solver, prev_metrics)
    events = list(bus.events[start_idx:]) if bus.enabled else None
    return UnitResult(
        index=unit.index,
        fixups=tally.fixups,
        leak_records=boundary.records,
        events=events,
        start=start_now,
        span=bus.now - start_now,
        metrics=metrics_delta,
        compile=stats_delta(compile_before),
    )


def capture_unit_metrics(solver):
    """Install a fresh registry on ``solver`` for one work unit's
    execution (parent inline or worker alike) and return the previous
    one, or ``None`` when metrics are off.  Pair with
    :func:`release_unit_metrics`."""
    if not solver.metrics.enabled:
        return None
    from ..metrics.registry import MetricsRegistry

    prev = solver.metrics
    solver._set_metrics(MetricsRegistry())
    return prev


def release_unit_metrics(solver, prev) -> dict | None:
    """Undo :func:`capture_unit_metrics`: restore ``prev`` and return the
    unit's registry delta (``None`` when metrics are off)."""
    if prev is None:
        return None
    delta = solver.metrics.to_dict()
    solver._set_metrics(prev)
    return delta


def drive_units(engine, seq: int, total: int) -> dict[int, UnitResult]:
    """The parent's participation loop: execute queued units inline when
    the task queue has work, otherwise collect worker results.

    The blocking wait is sliced so a worker that died (OOM kill, stray
    signal) fails the sweep within about a second; only live-but-silent
    workers get the full :data:`_RESULT_TIMEOUT`."""
    ws = engine._ws
    solver = engine.solver
    results: dict[int, UnitResult] = {}
    waited = 0.0
    while len(results) < total:
        task = None
        try:
            task = ws.tasks.get_nowait()
        except queue.Empty:
            pass
        if task is not None:
            if task[0] != "unit":  # pragma: no cover - stale bind/stop
                continue
            _, tseq, index = task
            if tseq != seq:  # pragma: no cover - stale after an abort
                continue
            results[index] = _execute_block_unit(
                solver, engine.units[index], engine.psi
            )
            solver._progress_tick()
            continue
        try:
            kind, rseq, index, payload = ws.results.get(timeout=_HEALTH_POLL)
        except queue.Empty:
            dead = [p.name for p in ws.procs if not p.is_alive()]
            if dead:
                raise ParallelError(
                    f"pool worker died mid-sweep: {', '.join(dead)} "
                    f"({len(results)}/{total} units done)"
                ) from None
            waited += _HEALTH_POLL
            if waited >= _RESULT_TIMEOUT:  # pragma: no cover - hung pool
                raise ParallelError(
                    f"no worker result within {_RESULT_TIMEOUT:.0f}s "
                    f"({len(results)}/{total} units done)"
                ) from None
            continue
        waited = 0.0
        if rseq != seq:  # pragma: no cover - stale after an abort
            continue
        if kind == "err":
            raise ParallelError(f"worker unit failed:\n{payload}")
        results[index] = payload
        solver._progress_tick()
    return results


# -- worker processes (pool workers, forked by WorkerSet) ---------------------


def _adopt_bind_context(payload: dict, lane: int) -> None:
    """Install the bind payload's trace context (if any) as this worker
    process's own, under a ``worker{lane}`` identity, so the worker's
    log lines and flight dumps correlate with the parent's trace."""
    from ..obs.context import adopt_payload

    adopt_payload(payload.get("obs"), identity=f"worker{lane}")


def _queue_pool_worker(ws, lane: int) -> None:
    """Pool worker loop: take bind payloads and unit indices from the
    shared task queue, execute against the currently bound state,
    return scalars."""
    state = None
    try:
        while True:
            task = ws.tasks.get()
            if task[0] == "stop":
                break
            if task[0] == "bind":
                if state is not None:
                    state.close()
                    state = None
                _adopt_bind_context(task[1], lane)
                try:
                    state = _BoundBlockState(task[1])
                except BaseException:  # pragma: no cover - surfaced per unit
                    traceback.print_exc()
                try:
                    ws.bind_barrier.wait(timeout=_RESULT_TIMEOUT)
                except Exception:  # pragma: no cover - parent died
                    break
                continue
            _, seq, index = task
            try:
                if state is None:
                    raise ParallelError("worker has no bound solver")
                ws.results.put(("ok", seq, index, state.execute(index)))
            except BaseException:
                ws.results.put(("err", seq, index, traceback.format_exc()))
    finally:
        if state is not None:
            state.close()
