"""One repeatable benchmark over four solve paths (see README.md).

    python3 benchmarks/suite/run.py --workload W --seed S \\
        [--seconds T] [--trace 0|1] [--out DIR] [--smoke]

Runs one workload as a closed loop from this process, checks every
operation's flux SHA-256 against the serial reference solver, prints
every metric by name with its unit, writes a result file (with a host
fingerprint) under ``--out`` and prints one JSON object as the last line
of standard output.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs a fixed number of operations under the
outside-in tracer (``tracer.py``) and reports the per-layer metrics.

Each number names its clock: *host* time is what the simulator costs to
run (noisy, bounded), *simulated* time is the paper's quantity (a pure
function of deck + ``MachineConfig``, must repeat exactly).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from multiprocessing import resource_tracker

SUITE = pathlib.Path(__file__).resolve().parent
REPO = SUITE.parents[1]
for _path in (REPO / "benchmarks", REPO / "src"):
    sys.path.insert(0, str(_path))

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())

#: fresh-interpreter set-up probes per untraced run (median reported)
SETUP_PROBES = 3
#: operations of a ``--smoke`` run and of each set-up probe
SMOKE_OPS = 3
#: traced operations per workload kind, and the untraced ones timed just
#: before them that ``trace.overhead_ratio`` is measured against; the
#: served counts are whole rounds of the three-job catalogue per client
TRACED_OPS = {1: 5, 2: 12}
BASELINE_OPS = {1: 3, 2: 12}

#: units whose metrics are counted, not timed: they must repeat exactly
EXACT_UNITS = {"count", "B", "cycles", "flop", "sim_s"}
#: layers that also run inside pool workers, which are not traced (they
#: are accounted by CPU time): on ``serve_pool`` their counts cover the
#: parent lane's share of the units, which the shared task queue decides
PARENT_LANE_LAYERS = ("core.scheduler.", "core.streaming.", "cell.mfc.",
                      "cell.dma.", "cell.mic.", "sweep.kernel.")
#: counts that depend on when a poll or a submit happens to land
TIMING_DEPENDENT = {"serve.app.http_requests", "serve.app.poll_requests",
                    "serve.app.result_bytes", "serve.queueing.depth_max"}


class Refused(Exception):
    """The run cannot produce an honest number on this host."""


def exact_metrics(workload: str) -> set[str]:
    """Per-layer metrics that must repeat bit for bit on ``workload``."""
    names = {m["name"] for m in BENCHMARK["per_layer"]
             if m["unit"] in EXACT_UNITS}
    if workload == "serve_pool":
        names = {n for n in names
                 if not n.startswith(PARENT_LANE_LAYERS)} - TIMING_DEPENDENT
    return names


# -- host ------------------------------------------------------------------------


def fingerprint(args, argv) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "argv": list(argv),
        "seed": args.seed,
        "window_seconds": args.seconds,
    }


def child_pids() -> list[int]:
    """Live processes whose parent is this process."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leftovers(shm_before: set[str], workers: list[int]) -> list[str]:
    """What the run left behind that it should not have."""
    # multiprocessing's resource tracker would otherwise outlive this
    # process by a moment; every segment it watched is unlinked by now
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + 5.0
    while child_pids() and time.monotonic() < deadline:
        time.sleep(0.05)
    found = []
    if child_pids():
        found.append(f"orphan processes after the run: {child_pids()} "
                     f"(pool workers were {workers})")
    leaked = shm_segments() - shm_before
    if leaked:
        found.append(f"/dev/shm segments left behind: {sorted(leaked)}")
    return found


def peak_rss_mib(worker_pids) -> float:
    """``ru_maxrss`` of this process plus ``VmHWM`` of each pool worker."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
    return kib / 1024.0


# -- references --------------------------------------------------------------------


def reference_digest(deck) -> str:
    """SHA-256 of the serial reference solver's flux: the referee every
    operation's digest must equal bit for bit."""
    from repro.serve import flux_digest
    from repro.sweep import SerialSweep3D

    return flux_digest(SerialSweep3D(deck).solve().flux)


def simulated_seconds(catalogue) -> float:
    """Predicted Cell time summed over the catalogue (simulated clock)."""
    from repro.core.solver import CellSweep3D
    from repro.perf.processors import measured_cell_config

    base = measured_cell_config()
    return sum(
        CellSweep3D(item.deck, base.with_(isa_kernel=item.isa))
        .timing().seconds
        for item in catalogue
    )


# -- set-up probes -----------------------------------------------------------------


def setup_seconds(workload: str, seed: int, probes: int) -> tuple[float, list[float]]:
    """Median over fresh interpreters of (exec -> first operation
    complete) minus the median of the second and third operation."""
    samples = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(SUITE / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(
            (doc["first_done"] - t0) - statistics.median(doc["walls"][1:])
        )
    return statistics.median(samples), samples


# -- the closed loop ---------------------------------------------------------------


def run_ops(session, orders, stop=lambda: False, tracer=None) -> list:
    """Closed loop: client ``n`` runs the catalogue indices of
    ``orders[n]`` one after the other, each operation sent only after
    the previous one completed, until its order is exhausted or
    ``stop()`` is true between two whole operations."""
    results = []
    serial = itertools.count()

    def client(order) -> None:
        for index in order:
            if stop():
                break
            if tracer is None:
                results.append(session.run(index))
                continue
            root = tracer.root(f"op-{next(serial)}")
            res = session.run(index)
            tracer.end(root)
            if "job_id" in res.extra:  # a served job: see Tracer.adopt
                tracer.adopt(root, res.extra["job_id"], res.extra["submit_s"])
            results.append(res)

    if len(orders) == 1:
        client(orders[0])
    else:
        threads = [threading.Thread(target=client, args=(order,),
                                    name=f"suite-client-{n}")
                   for n, order in enumerate(orders)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return results


def counted(workload, session, seed: int, total: int) -> list:
    """Orders for ``total`` operations split evenly over the clients."""
    share = -(-total // session.clients)
    return [itertools.islice(workload.order(seed, n), share)
            for n in range(session.clients)]


def check(results, references) -> int:
    """Fail every operation whose digest is not the reference's;
    returns the number of failed operations."""
    for res in results:
        if res.error is None and res.digest != references[res.index]:
            res.error = (f"flux digest {res.digest} != serial reference "
                         f"{references[res.index]}")
    return sum(res.error is not None for res in results)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(tracer, delta, results, baseline, catalogue, session) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json from the traced
    operations: times from the tracer's spans, counts from its counters
    and from the program's own registries (``delta``)."""
    from repro.cell.isa_compile import STATS
    from repro.sweep.kernel import flops_per_cell
    from tracer import ROOT_LAYER

    self_s, name_self_s, total_s, calls = tracer.layer_times()
    c = tracer.counters
    ok = [r for r in results if r.error is None]
    served = [r.extra for r in ok if "job_id" in r.extra]
    roots = total_s[ROOT_LAYER, "operation"]

    def ratio(num, den):
        return num / den if den else 0.0

    stage_calls = calls["core.streaming", "stage_in"] + calls["core.streaming", "stage_out"]
    builds = calls["core.streaming", "rows_for_chunk"]
    # single-process runs read the process-wide compile counters, pooled
    # ones the pool registry, which folds every lane (parent included)
    isa = {key: delta.get(f"pool.{key}", delta[key])
           for key in ("streams_compiled", "cache_hits",
                       "batched_calls", "batched_lines")}
    # the decks of one workload that reach sweep.kernel share nm
    kernel_flops = max(
        (flops_per_cell(item.deck.nm, item.deck.fixup)
         for item in catalogue if not item.isa), default=0)
    sweep_s = total_s["parallel.engine", "sweep"]
    parent_cpu = c["parallel.engine.parent_cpu_s"]
    worker_cpu = c["parallel.engine.worker_cpu_s"]
    job_walls = sorted(r.wall for r in ok)

    m = {
        "core.solver.self_s": self_s["core.solver"],
        "core.solver.construct_s": total_s["core.solver", "construct"],
        "core.solver.sweeps": calls["core.solver", "sweep_once"],
        "sweep.moments.self_s": self_s["sweep.moments"],
        "sweep.moments.calls": calls["sweep.moments", "build_moment_source"],
        "core.scheduler.self_s": self_s["core.scheduler"],
        "core.scheduler.diagonals": calls["core.scheduler", "run_diagonal"],
        "core.scheduler.chunks": calls["core.scheduler", "run_chunk"],
        "core.streaming.self_s": self_s["core.streaming"],
        "core.streaming.stage_calls": stage_calls,
        "core.streaming.program_builds": builds,
        "core.streaming.program_hit_ratio": ratio(stage_calls - builds, stage_calls),
        "cell.mfc.self_s": self_s["cell.mfc"],
        "cell.mfc.commands": calls["cell.mfc", "enqueue"],
        "cell.mfc.drains": calls["cell.mfc", "drain_tag"] + calls["cell.mfc", "drain_all"],
        "cell.dma.self_s": self_s["cell.dma"],
        "cell.dma.executes": calls["cell.dma", "execute"],
        "cell.dma.list_elements": c["cell.dma.list_elements"],
        "cell.dma.bytes_get": c["cell.dma.bytes_get"],
        "cell.dma.bytes_put": c["cell.dma.bytes_put"],
        "cell.mic.self_s": self_s["cell.mic"],
        "cell.mic.cost_calls": calls["cell.mic", "cost"],
        "cell.mic.sim_cycles": c["cell.mic.sim_cycles"],
        "sweep.kernel.self_s": self_s["sweep.kernel"],
        "sweep.kernel.calls": calls["sweep.kernel", "dd_line_block_solve"],
        "sweep.kernel.visits": c["sweep.kernel.visits"],
        "sweep.kernel.fixups": c["sweep.kernel.fixups"],
        "sweep.kernel.flops": c["sweep.kernel.visits"] * kernel_flops,
        "sweep.kernel.bytes_computed": c["sweep.kernel.bytes_computed"],
        "core.spe_kernel.self_s": self_s["core.spe_kernel"],
        "core.spe_kernel.batched_calls": isa["batched_calls"],
        "core.spe_kernel.batched_lines": isa["batched_lines"],
        "cell.isa_compile.replay_s": total_s["cell.isa_compile", "run"],
        "cell.isa_compile.compile_s": name_self_s["cell.isa_compile", "compiled_program"],
        "cell.isa_compile.streams_compiled": isa["streams_compiled"],
        "cell.isa_compile.cache_hits": isa["cache_hits"],
        "cell.isa_compile.hit_ratio": ratio(
            isa["cache_hits"], isa["cache_hits"] + isa["streams_compiled"]),
        # numpy ops per compiled program after optimisation, summed over
        # the streams this process compiled (all before the traced run)
        "cell.isa_compile.ops_after": STATS.ops_after,
        "parallel.engine.sweep_s": sweep_s,
        "parallel.engine.refold_s": total_s["parallel.engine", "replay_flux"],
        "parallel.engine.units": c["parallel.engine.units"],
        "parallel.engine.parent_cpu_s": parent_cpu,
        "parallel.engine.worker_cpu_s": worker_cpu,
        "parallel.engine.wait_s": sweep_s - parent_cpu,
        "parallel.engine.busy_ratio": ratio(
            parent_cpu + worker_cpu, c["parallel.engine.lane_seconds"]),
        "parallel.pool.lease_wait_s": total_s["parallel.pool", "lease"],
        "parallel.pool.acquire_s": total_s["parallel.pool", "acquire"],
        "parallel.pool.bind_s": total_s["parallel.pool", "bind"],
        "parallel.pool.binds": delta.get("pool.binds", 0),
        "parallel.pool.worker_spawns": delta.get("pool.worker_spawns", 0),
        "parallel.shm.alloc_s": total_s["parallel.shm", "alloc"],
        "parallel.shm.segments_created": delta.get("pool.segments_created", 0),
        "parallel.shm.segments_reused": delta.get("pool.segments_reused", 0),
        "parallel.shm.bytes": c["parallel.shm.bytes"],
        "serve.app.submit_s": median([e["submit_s"] for e in served]),
        "serve.app.http_requests": delta.get("serve.http_requests", 0),
        "serve.app.poll_requests": delta.get("serve.polls", 0),
        "serve.app.rejected": delta.get("serve.rejected", 0),
        "serve.app.result_bytes": delta.get("serve.result_bytes", 0),
        "serve.queueing.queue_wait_s": median([e["queue_wait_s"] for e in served]),
        "serve.queueing.depth_max": c["serve.queueing.depth_max"],
        "serve.runner.solve_s": median([e["solve_s"] for e in served]),
        "serve.runner.self_s": name_self_s["serve.runner", "run_job"],
        "serve.runner.isa_jobs": sum(e["isa"] for e in served),
        "serve.runner.fallback_jobs": sum(not e["isa"] for e in served),
        "serve.jobs.ticks": calls["serve.jobs", "tick"],
        "serve.jobs.events": sum(
            session.event_count(e["job_id"]) for e in served),
        "serve.job_p75_s": (statistics.quantiles(job_walls, n=4)[2]
                            if served and len(job_walls) > 1 else 0.0),
        "trace.coverage": ratio(
            sum(v for layer, v in self_s.items() if layer != ROOT_LAYER),
            roots),
        "trace.overhead_ratio": ratio(
            median([r.wall for r in ok]),
            median([r.wall for r in baseline if r.error is None])),
    }
    return m


# -- one run -----------------------------------------------------------------------


def run(args, argv) -> tuple[dict, int]:
    name = args.workload
    if name == "serve_pool" and len(os.sched_getaffinity(0)) < 2:
        raise Refused(
            "serve_pool runs a two-lane pool behind an event loop; with "
            f"{len(os.sched_getaffinity(0))} CPU in the affinity mask it "
            "would measure oversubscription -- not running it"
        )
    from _bench_utils import assert_obs_quiet
    from repro.cell.isa_compile import STATS

    import tracer as tracing
    import workloads

    assert_obs_quiet()
    workload = workloads.WORKLOADS[name]
    host = fingerprint(args, argv)
    shm_before = shm_segments()
    metrics: dict[str, float] = {}
    notes: dict = {}
    problems: list[str] = []

    catalogue = workload.catalogue(args.seed, args.smoke)
    if not args.trace:
        metrics["setup_s"], notes["setup_samples_s"] = setup_seconds(
            name, args.seed, 1 if args.smoke else SETUP_PROBES
        )
    references = [reference_digest(item.deck) for item in catalogue]
    sim_seconds = simulated_seconds(catalogue)

    with workload.session(catalogue) as session:
        # untimed: every catalogue deck once in this process -- which
        # compiles each ISA stream before any pool forks, so every lane
        # starts warm whichever one the task queue hands a unit to --
        # then once through the session, so the pipeline memo and the
        # pool's parked workers and shared segments are warm too
        for item, reference in zip(catalogue, references):
            if workloads.solve_direct(item) != reference:
                problems.append(f"warm-up of {item.label} is not the "
                                "serial reference bit for bit")
        idle = [[] for _ in range(session.clients - 1)]
        warm = run_ops(session, [range(len(catalogue))] + idle)
        if check(warm, references):
            problems.append(f"warm-up operations failed: "
                            f"{[r.error for r in warm if r.error][:3]}")

        def counters():
            return {**STATS.snapshot(), **session.counters()}

        def limited(total):
            return counted(workload, session, args.seed,
                           SMOKE_OPS if args.smoke else total)

        tracer = baseline = None
        if args.trace:
            baseline = run_ops(session, limited(BASELINE_OPS[session.clients]))
            check(baseline, references)
            tracer = tracing.Tracer()
            tracing.install(tracer)
        before = counters()
        try:
            if args.trace:
                results = run_ops(session,
                                  limited(TRACED_OPS[session.clients]),
                                  tracer=tracer)
            elif args.smoke:
                results = run_ops(session, limited(SMOKE_OPS))
            else:
                deadline = time.perf_counter() + args.seconds
                results = run_ops(
                    session,
                    [workload.order(args.seed, n)
                     for n in range(session.clients)],
                    stop=lambda: time.perf_counter() >= deadline,
                )
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = counters()
        workers = session.worker_pids()
        failed = check(results, references)
        if args.trace:
            metrics.update(layer_metrics(
                tracer, {k: after[k] - before[k] for k in after},
                results, baseline, catalogue, session))
        else:
            metrics["peak_rss_mb"] = peak_rss_mib(workers)

    # guards: nothing compiled, forked or mapped inside the warm window,
    # and nothing left behind after it
    for key in ("streams_compiled", "pool.streams_compiled",
                "pool.worker_spawns", "pool.segments_created"):
        if after.get(key, 0) != before.get(key, 0):
            problems.append(f"{key} moved by {after[key] - before[key]} "
                            "inside the warm window")
    problems += leftovers(shm_before, workers)

    ok = [r for r in results if r.error is None]
    walls = [r.wall for r in ok]
    if args.trace:
        metrics["sim_seconds"] = sim_seconds
        metrics["failed_share"] = failed / len(results)
        tracer.export(pathlib.Path(args.out) / f"trace_{name}.json",
                      {"workload": name, "seed": args.seed, "host": host})
    else:
        visits = sum(catalogue[r.index].deck.cell_visits for r in ok)
        metrics["visits_per_s"] = visits / sum(walls) if walls else 0.0
        metrics["solve_p50_s"] = median(walls)

    host["loadavg_end"] = os.getloadavg()
    units = {m["name"]: m["unit"]
             for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    correct = bool(results) and failed == 0 and not problems
    doc = {
        "workload": name,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": f"closed, {session.clients} client(s)",
        "catalogue": [
            {"label": item.label, "cell_visits": item.deck.cell_visits}
            for item in catalogue
        ],
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "problems": problems,
        "errors": [r.error for r in results if r.error][:10],
        "samples": len(walls),
        "walls_s": walls,
        "sim_seconds": sim_seconds,
        "exact": sorted(exact_metrics(name)) if args.trace else [],
        "seed_dependent": (["sweep.kernel.fixups"]
                           if name == "cell_shield" else []),
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
        "notes": notes,
        "host": host,
    }
    return doc, 0 if correct else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(BENCHMARK["run_seconds"]),
                        help="length of the timed window (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(SUITE / "out"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny decks, 3 operations, same code path")
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        doc, code = run(args, argv)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    path = out / (f"{args.workload}_seed{args.seed}_trace{args.trace}"
                  f"{'_smoke' if args.smoke else ''}.json")
    path.write_text(json.dumps(doc, indent=1) + "\n")

    print(f"workload {doc['workload']}  seed {args.seed}  trace {args.trace}"
          f"  loop: {doc['loop']}")
    for item in doc["catalogue"]:
        print(f"  deck {item['label']}: {item['cell_visits']} visits/op")
    for key, cell in doc["metrics"].items():
        extra = f"  (n={doc['samples']})" if key == "solve_p50_s" else ""
        print(f"{key:42s} {cell['value']:<22.10g} {cell['unit']}{extra}")
    print(f"attempted {doc['attempted']}  failed {doc['failed']}  "
          f"sim_seconds {doc['sim_seconds']!r} (simulated clock)")
    for problem in doc["problems"] + doc["errors"]:
        print(f"PROBLEM: {problem}")
    print(f"[written to {path}]")
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
