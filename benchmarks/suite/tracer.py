"""Outside-in tracer: spans and counts at each layer's public boundary.

Nothing under ``src/`` knows about this module.  For the duration of a
traced run :func:`install` replaces the public entry points of every
layer (module = layer) with wrappers that record

* one **span** ``[id, parent, op, layer, name, t0, t1]`` per call at the
  coarse boundaries (solve, sweep, diagonal, chunk, stage_in/out, kernel
  call, drain, pool lease/bind, job), and
* one **aggregate** ``(count, seconds)`` per parent span at the
  per-command boundaries (``DMACommand.execute``, ``MemoryTimingModel.
  cost``, ``MFC.enqueue``, ``JobStore.tick`` -- tens of thousands of
  calls per solve), so the tracer does not dominate what it measures,
* exact **counters** (commands, bytes, visits, fixups, simulated
  cycles) at the same boundaries, so ratios are measured where the
  work happens.

A span's *self time* is its duration minus what its child spans and
aggregates cover; a layer's ``self_s`` is the sum over its spans and
aggregates.  Each thread keeps its own span stack; a served job's
``run_job`` span (solve thread) is adopted by the job's root span
(client thread) once the client has seen the terminal state.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import multiprocessing
import os
import threading
import time
import weakref
from collections import Counter, defaultdict

#: layer of the benchmark's own root spans (one per operation)
ROOT_LAYER = "bench"

_clock = time.perf_counter

# slots of an open span's record, and of a finished span's row
_ID, _PARENT, _OP, _LAYER, _NAME, _T0, _T1, _AGG, _CHILD = range(9)
_WIDTH = 8


class Tracer:
    """Finished spans live in one flat list of atoms (``_WIDTH`` slots
    per span), not as objects: ~10^5 retained containers would make the
    garbage collector a third of the tracing overhead."""

    def __init__(self) -> None:
        self._spans: list = []   # id, parent, op, layer, name, t0, t1, child
        self._aggs: list = []    # parent, layer, name, count, seconds
        self.counters: Counter = Counter()
        #: served jobs: job id -> finished run_job span, awaiting adoption
        self.jobs: dict[str, list] = {}
        #: applied at export: job id -> the adopting root's op, and
        #: adopted span id -> the root's id
        self.alias: dict[str, str] = {}
        self.reparent: dict[int, int] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def begin(self, layer: str, name: str, op: str | None = None) -> list:
        try:
            stack = self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
        parent = stack[-1] if stack else None
        rec = [
            next(self._ids),
            parent[_ID] if parent else None,
            op if op is not None else (parent[_OP] if parent else None),
            layer, name, _clock(), None, None, 0.0,
        ]
        stack.append(rec)
        return rec

    def root(self, op: str) -> list:
        """Open the root span of one benchmark operation."""
        return self.begin(ROOT_LAYER, "operation", op)

    def end(self, rec: list) -> None:
        rec[_T1] = t1 = _clock()
        stack = self._tls.stack
        stack.pop()
        if stack:
            stack[-1][_CHILD] += t1 - rec[_T0]
        # one extend per row: atomic under the GIL, so rows of different
        # threads never interleave
        self._spans.extend((rec[_ID], rec[_PARENT], rec[_OP], rec[_LAYER],
                            rec[_NAME], rec[_T0], t1, rec[_CHILD]))
        if rec[_AGG]:
            for (layer, name), (n, seconds) in rec[_AGG].items():
                self._aggs.extend((rec[_ID], layer, name, n, seconds))

    def adopt(self, root: list, job_id: str, submit_s: float) -> None:
        """Hang the solve thread's ``run_job`` span of ``job_id`` under
        the client-side ``root`` span of the same job, with the wait
        between the submit reply and its start as a ``serve.queueing``
        span known only by its end points."""
        self.alias[job_id] = root[_OP]
        rec = self.jobs.pop(job_id, None)
        if rec is not None:
            self.reparent[rec[_ID]] = root[_ID]
            self._spans.extend((
                next(self._ids), root[_ID], root[_OP], "serve.queueing",
                "queue_wait", root[_T0] + submit_s, rec[_T0], 0.0,
            ))

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, layer: str, name: str | None = None,
             count=None) -> None:
        """Record a span around every call of ``owner.attr``;
        ``count(counters, args, result)`` adds exact counts."""
        orig = owner.__dict__[attr]
        name = name or attr
        begin, end, counters = self.begin, self.end, self.counters

        def traced(*args, **kwargs):
            rec = begin(layer, name)
            try:
                result = orig(*args, **kwargs)
            finally:
                end(rec)
            if count is not None:
                count(counters, args, result)
            return result

        self.patch(owner, attr, traced)

    def wrap_leaf(self, owner, attr: str, layer: str, count=None) -> None:
        """Aggregate ``(count, seconds)`` of ``owner.attr`` calls onto
        the innermost open span of the calling thread (dropped when the
        thread has none, e.g. the server's event loop).  For leaves
        only: the wrapped function must not call another wrapped one.
        Kept tight -- these are the ~10^5 calls per solve."""
        orig = owner.__dict__[attr]
        key = (layer, attr)
        tls, counters, clock = self._tls, self.counters, _clock

        def traced(*args, **kwargs):
            t0 = clock()
            result = orig(*args, **kwargs)
            dt = clock() - t0
            try:
                parent = tls.stack[-1]
            except (AttributeError, IndexError):
                pass
            else:
                agg = parent[_AGG]
                if agg is None:
                    parent[_AGG] = {key: [1, dt]}
                elif key in agg:
                    cell = agg[key]
                    cell[0] += 1
                    cell[1] += dt
                else:
                    agg[key] = [1, dt]
                parent[_CHILD] += dt
            if count is not None:
                count(counters, args, result)
            return result

        self.patch(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reading ---------------------------------------------------------------

    def spans(self):
        """Finished spans as ``(id, parent, op, layer, name, t0, t1,
        child seconds)`` rows."""
        flat = self._spans
        return (flat[i:i + _WIDTH] for i in range(0, len(flat), _WIDTH))

    def aggregates(self):
        """``(parent span, layer, name, count, seconds)`` rows."""
        flat = self._aggs
        return (flat[i:i + 5] for i in range(0, len(flat), 5))

    def layer_times(self):
        """``(self seconds per layer, self seconds per (layer, name),
        total seconds per (layer, name), calls per (layer, name))``
        over everything recorded."""
        layer_self: dict[str, float] = defaultdict(float)
        name_self: dict[tuple, float] = defaultdict(float)
        total: dict[tuple, float] = defaultdict(float)
        calls: dict[tuple, int] = defaultdict(int)
        for _id, _parent, _op, layer, name, t0, t1, child in self.spans():
            layer_self[layer] += t1 - t0 - child
            name_self[layer, name] += t1 - t0 - child
            total[layer, name] += t1 - t0
            calls[layer, name] += 1
        for _parent, layer, name, n, seconds in self.aggregates():
            layer_self[layer] += seconds
            name_self[layer, name] += seconds
            total[layer, name] += seconds
            calls[layer, name] += n
        return layer_self, name_self, total, calls

    def export(self, path, header: dict) -> None:
        """Write every span and aggregate kept in memory."""
        alias, reparent = self.alias, self.reparent
        doc = dict(header)
        doc["columns"] = ["id", "parent", "op", "layer", "name", "t0", "t1"]
        doc["spans"] = [
            [i, reparent.get(i, parent), alias.get(op, op), layer, name, t0, t1]
            for i, parent, op, layer, name, t0, t1, _child in self.spans()
        ]
        doc["aggregate_columns"] = ["parent", "layer", "name", "count", "seconds"]
        doc["aggregates"] = list(self.aggregates())
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


# -- what is wrapped where --------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    """utime + stime of one process from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (see the README's
    per-layer table for the metric each boundary feeds)."""
    from repro.cell import dma, isa_compile, mfc, mic
    from repro.core import scheduler, solver, streaming
    from repro.parallel import engine, pool, shm
    from repro.serve import client, jobs, queueing, runner
    from repro.sweep import moments

    c = tracer.counters
    S = solver.CellSweep3D

    # core.solver / sweep.moments
    tracer.wrap(S, "__init__", "core.solver", "construct")
    tracer.wrap(S, "solve", "core.solver")
    tracer.wrap(S, "sweep_once", "core.solver")
    # the schedulers call back into these two: without spans of their
    # own, the solver's per-chunk glue (source combine, flux
    # accumulation, batched-ISA gather) would read as scheduler time
    tracer.wrap(S, "_execute_chunk", "core.solver")
    tracer.wrap(S, "_prepare_diagonal", "core.solver")

    counted = weakref.WeakSet()

    def count_traffic(counters, args, _result):
        # the solver's own per-MFC traffic accounting, read once per
        # solver instead of once per command
        solver_ = args[0]
        if solver_ in counted:
            return
        counted.add(solver_)
        for spe in solver_.chip.spes:
            stats = spe.mfc.stats
            counters["cell.dma.list_elements"] += stats.list_elements
            counters["cell.dma.bytes_get"] += stats.bytes_get
            counters["cell.dma.bytes_put"] += stats.bytes_put
            counters["cell.mic.sim_cycles"] += stats.cycles

    tracer.wrap(S, "close", "core.solver", count=count_traffic)
    tracer.wrap(moments, "build_moment_source", "sweep.moments")

    # core.scheduler
    for cls in (scheduler.CentralizedScheduler, scheduler.DistributedScheduler):
        tracer.wrap(cls, "run_diagonal", "core.scheduler")
    tracer.wrap(scheduler.CentralizedScheduler, "run_chunk", "core.scheduler")

    # core.streaming
    B = streaming.ChunkBuffers
    # (``issue`` runs inside these spans and calls nothing but the
    # aggregated ``MFC.enqueue``; its time is this layer's self time
    # with or without a span of its own)
    for attr in ("stage_in", "stage_out", "rows_for_chunk"):
        tracer.wrap(B, attr, "core.streaming")

    # cell.mfc / cell.dma / cell.mic (per-command boundaries: aggregated)
    tracer.wrap_leaf(mfc.MFC, "enqueue", "cell.mfc")
    tracer.wrap(mfc.MFC, "drain_tag", "cell.mfc")
    tracer.wrap(mfc.MFC, "drain_all", "cell.mfc")

    tracer.wrap_leaf(dma.DMACommand, "execute", "cell.dma")
    tracer.wrap_leaf(dma.DMAListCommand, "execute", "cell.dma")
    tracer.wrap_leaf(mic.MemoryTimingModel, "cost", "cell.mic")

    # sweep.kernel (the solver binds the name at import: patch it there)
    def count_kernel(counters, args, result):
        arrays = [a for a in args if hasattr(a, "nbytes")]
        counters["sweep.kernel.visits"] += args[0].size
        counters["sweep.kernel.fixups"] += int(result[2])
        counters["sweep.kernel.bytes_computed"] += (
            sum(a.nbytes for a in arrays)            # operands read
            + result[0].nbytes + result[1].nbytes    # psi_c, phi_i_out
            + args[3].nbytes + args[4].nbytes        # phi_j/phi_k in place
        )

    tracer.wrap(solver, "dd_line_block_solve", "sweep.kernel",
                count=count_kernel)

    # core.spe_kernel / cell.isa_compile
    tracer.wrap(solver, "simd_execute_blocks", "core.spe_kernel")
    tracer.wrap(isa_compile, "compiled_program", "cell.isa_compile")
    tracer.wrap(isa_compile.CompiledProgram, "run", "cell.isa_compile")

    # parallel.engine
    E = engine.ParallelEngine
    orig_sweep = E.__dict__["sweep"]

    def sweep(self, moment_source, boundary):
        rec = tracer.begin("parallel.engine", "sweep")
        pids = [p.pid for p in multiprocessing.active_children()]
        cpu0 = time.thread_time()
        workers0 = sum(map(_proc_cpu_seconds, pids))
        try:
            return orig_sweep(self, moment_source, boundary)
        finally:
            c["parallel.engine.parent_cpu_s"] += time.thread_time() - cpu0
            c["parallel.engine.worker_cpu_s"] += (
                sum(map(_proc_cpu_seconds, pids)) - workers0
            )
            c["parallel.engine.lane_seconds"] += self.workers * (
                _clock() - rec[_T0]
            )
            c["parallel.engine.units"] += len(getattr(self, "units", ()))
            tracer.end(rec)

    tracer.patch(E, "sweep", sweep)
    tracer.wrap(E, "close", "parallel.engine")
    tracer.wrap(engine, "replay_flux", "parallel.engine")

    # parallel.pool
    P = pool.PersistentPool
    orig_lease = P.__dict__["lease"]

    @contextlib.contextmanager
    def lease(self, tenant="default"):
        rec = tracer.begin("parallel.pool", "lease")
        with orig_lease(self, tenant) as leased:
            tracer.end(rec)
            yield leased

    tracer.patch(P, "lease", lease)
    tracer.wrap(P, "acquire", "parallel.pool")
    tracer.wrap(P, "release", "parallel.pool")
    tracer.wrap(pool.WorkerSet, "bind", "parallel.pool")
    tracer.wrap(pool.WorkerSet, "__init__", "parallel.pool", "spawn")

    # parallel.shm
    def count_alloc(counters, _args, array):
        counters["parallel.shm.bytes"] += array.nbytes

    tracer.wrap(shm.SharedArrayPool, "alloc", "parallel.shm", count=count_alloc)
    tracer.wrap(shm.SharedArrayPool, "close", "parallel.shm")
    tracer.wrap(shm.SegmentRegistry, "lease", "parallel.shm")
    tracer.wrap(shm.SegmentRegistry, "park", "parallel.shm")

    # serve.* (client side of the HTTP surface, and the solve thread)
    tracer.wrap(client.ServeClient, "submit", "serve.app")

    orig_run_job = runner.SolveRunner.__dict__["run_job"]

    def run_job(self, job, store):
        rec = tracer.begin("serve.runner", "run_job", op=job.id)
        try:
            return orig_run_job(self, job, store)
        finally:
            tracer.end(rec)
            tracer.jobs[job.id] = rec

    tracer.patch(runner.SolveRunner, "run_job", run_job)

    def count_depth(counters, args, _result):
        depth = len(args[0])
        if depth > counters["serve.queueing.depth_max"]:
            counters["serve.queueing.depth_max"] = depth

    tracer.wrap_leaf(queueing.FairQueue, "push", "serve.queueing",
                     count=count_depth)
    tracer.wrap_leaf(queueing.FairQueue, "pop", "serve.queueing")

    J = jobs.JobStore
    tracer.wrap_leaf(J, "tick", "serve.jobs")
    for attr in ("mark_running", "mark_done", "mark_failed"):
        tracer.wrap_leaf(J, attr, "serve.jobs")
