"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one to the paper's experiments plus the functional
solvers, so a user can reproduce any number in EXPERIMENTS.md without
writing code:

=============  ===========================================================
``solve``      run a cubic problem through a chosen engine
``serve``      the async solve server (see ``docs/SERVING.md``)
``trace``      traced Cell solve: Perfetto export + DMA-hazard sanitizer
``metrics``    metrics-instrumented Cell solve: per-SPE cycle attribution
``ladder``     Figure 5: the optimization ladder
``kernel``     Sec. 5.1: SPE kernel pipeline statistics
``grind``      Figure 9: grind time vs cube size
``projections``Figure 10: planned optimizations / what-ifs
``processors`` Figure 11: cross-processor comparison
``bounds``     Sec. 6: traffic and lower bounds
``cluster``    multi-chip Cell cluster scaling model (extension); with
               ``--transport {local,socket}`` a functional P x Q solve,
               ranks as threads (local) or processes (socket)
``cluster-rank`` one cluster rank worker process (see ``docs/CLUSTER.md``)
=============  ===========================================================

``solve`` and ``kernel`` take ``--json`` for machine-readable output;
``solve --engine cell --trace out.json`` exports the event trace of the
functional run (see ``docs/TRACING.md``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _deck_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--deck", type=str, default=None,
                        help="deck file (overrides the other deck options)")
    parser.add_argument("--cube", type=int, default=50,
                        help="cube edge in cells (default 50)")
    parser.add_argument("--sn", type=int, default=6, choices=(2, 4, 6, 8),
                        help="Sn quadrature order (default 6)")
    parser.add_argument("--nm", type=int, default=4,
                        help="scattering/flux moments (default 4)")
    parser.add_argument("--iterations", type=int, default=12,
                        help="sweep iterations (default 12)")
    parser.add_argument("--fixup", action="store_true",
                        help="enable negative-flux fixups")


def _obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log-format", choices=("ndjson", "text"),
                        default=None,
                        help="emit structured logs on stderr: 'ndjson' "
                             "(one JSON object per line, with trace ids) "
                             "or 'text' (human-readable); silent unless "
                             "given (see docs/TRACING.md)")
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        help="log threshold (debug/info/warning/error); "
                             "implies --log-format ndjson")


def _configure_obs(args) -> None:
    """Install the structured-log handler when either obs flag is set
    (commands without the flags are unaffected)."""
    fmt = getattr(args, "log_format", None)
    level = getattr(args, "log_level", None)
    if fmt is None and level is None:
        return
    from .obs.log import configure_logging

    configure_logging(fmt=fmt or "ndjson", level=level or "info")


def _build_deck(args):
    if getattr(args, "deck", None):
        from .sweep.deckfile import load_deck

        return load_deck(args.deck)
    from .sweep.input import cube_deck

    return cube_deck(
        args.cube, fixup=args.fixup, sn=args.sn, nm=args.nm,
        iterations=args.iterations,
    )


def _attach_heartbeat(solver, deck, args):
    """Hook a live ``done/total units`` line to the solver's progress
    seam: always under ``--progress``, automatically when stderr is an
    interactive terminal and the output is not machine-readable (long
    functional solves -- minutes at 50^3 -- otherwise print nothing)."""
    auto = sys.stderr.isatty() and not getattr(args, "json", False)
    if not (getattr(args, "progress", False) or auto):
        return None
    from .metrics.heartbeat import Heartbeat

    heartbeat = Heartbeat(
        total=solver.units_per_sweep() * deck.iterations, label="solve"
    )
    solver.progress = heartbeat
    return heartbeat


def cmd_solve(args) -> int:
    import os
    import time

    from .core.solver import CellSweep3D
    from .mpi.wavefront import KBASweep3D
    from .obs.flight import install_sigusr2
    from .perf.processors import measured_cell_config
    from .sweep.serial import SerialSweep3D

    # SIGUSR2 dumps the flight recorder of a live solve to disk
    install_sigusr2()
    deck = _build_deck(args)
    if args.trace and args.engine != "cell":
        print("error: --trace requires --engine cell (only the simulated "
              "machine emits events)", file=sys.stderr)
        return 2
    if args.workers > 1 and args.engine != "cell":
        print("error: --workers requires --engine cell (the host-parallel "
              "engine runs the functional Cell solver)", file=sys.stderr)
        return 2
    if args.isa and args.engine != "cell":
        print("error: --isa requires --engine cell (the functional SPU "
              "ISA kernel runs on the simulated machine)", file=sys.stderr)
        return 2
    if args.metrics and args.engine != "cell":
        print("error: --metrics requires --engine cell (only the simulated "
              "machine feeds the metrics registry)", file=sys.stderr)
        return 2
    if args.progress and args.engine != "cell":
        print("error: --progress requires --engine cell (the progress seam "
              "counts the Cell solver's work units)", file=sys.stderr)
        return 2
    if deck.grid.num_cells > 30**3 and args.engine != "serial":
        print("note: functional engines other than 'serial' are slow above "
              "~30^3; consider --cube 16", file=sys.stderr)
    solver = None
    start = time.perf_counter()
    if args.engine == "serial":
        result = SerialSweep3D(deck).solve()
    elif args.engine == "tile":
        result = SerialSweep3D(deck, method="tile").solve()
    elif args.engine == "kba":
        result = KBASweep3D(deck, P=args.p, Q=args.q).solve()
    elif args.engine == "cell":
        from .cell.isa_compile import STATS, stats_delta
        from .cell.pipeline import SIMULATE_STATS

        config = measured_cell_config()
        if args.trace:
            config = config.with_(trace=True)
        if args.isa:
            config = config.with_(isa_kernel=True)
        if args.metrics:
            config = config.with_(metrics=True)
        compile_before = STATS.snapshot()
        sim_before = SIMULATE_STATS.snapshot()
        solver = CellSweep3D(
            deck, config, workers=args.workers, pool=args.pool
        )
        heartbeat = _attach_heartbeat(solver, deck, args)
        try:
            result = solver.solve()
        finally:
            if heartbeat is not None:
                heartbeat.close()
            solver.close()
        compile_stats = stats_delta(compile_before)
        sim_after = SIMULATE_STATS.snapshot()
        compile_stats["pipeline_reports"] = {
            k: sim_after[k] - sim_before[k] for k in sim_after
        }
        compile_stats["isa_kernel"] = config.isa_kernel
        compile_stats["compile_isa"] = config.compile_isa
        from .cell.isa_compile import cache_info

        compile_stats["cache"] = cache_info()
    else:  # pragma: no cover - argparse enforces choices
        raise ValueError(args.engine)
    wall = time.perf_counter() - start
    phi = result.scalar_flux
    if args.json:
        from .perf.report import Row, format_json

        rows = [
            Row("flux total", float(phi.sum()), unit=""),
            Row("flux max", float(phi.max()), unit=""),
            Row("flux min", float(phi.min()), unit=""),
            Row("leakage", float(result.tally.leakage), unit=""),
            Row("fixups", float(result.tally.fixups), unit=""),
        ]
        extra = {
            "engine": args.engine,
            "deck": {"shape": list(deck.grid.shape), "sn": deck.sn,
                     "nm": deck.nm, "iterations": result.iterations},
            "last_flux_change": (result.history[-1] if result.history
                                 else None),
            "perf": {
                "host_wall_seconds": wall,
                "workers": args.workers,
                "host_cpus": os.cpu_count(),
            },
        }
        if args.engine == "cell":
            extra["compile"] = compile_stats
            if args.workers > 1 and solver._pool is not None:
                extra["pool"] = {
                    "mode": args.pool,
                    "compile_hit_rate": solver._pool.compile_hit_rate(),
                    "counters": solver._pool.metrics.to_dict()["counters"],
                }
            if args.metrics:
                attribution = solver.cycle_attribution()
                attribution.verify()
                extra["metrics"] = {
                    "registry": solver.metrics.to_dict(),
                    "cycle_attribution": attribution.to_dict(),
                }
        print(format_json("solve", rows, extra))
    else:
        print(f"engine={args.engine} deck={deck.grid.shape} S{deck.sn} "
              f"nm={deck.nm} iters={result.iterations}")
        print(f"scalar flux: total={phi.sum():.6f} max={phi.max():.6f} "
              f"min={phi.min():.6f}")
        print(f"leakage={result.tally.leakage:.6f} fixups={result.tally.fixups}")
        if result.history:
            print(f"last flux change: {result.history[-1]:.3e}")
        print(f"host wall: {wall:.3f}s (workers={args.workers})")
        if args.engine == "cell" and args.isa:
            print(f"isa: streams_compiled={compile_stats['streams_compiled']} "
                  f"cache_hits={compile_stats['cache_hits']} "
                  f"batched_calls={compile_stats['batched_calls']}")
            print(f"isa optimizer: ops {compile_stats['ops_before']}->"
                  f"{compile_stats['ops_after']} "
                  f"slots_reused={compile_stats['slots_reused']} "
                  f"cache {compile_stats['cache']['entries']}/"
                  f"{compile_stats['cache']['capacity']}")
        if args.engine == "cell" and args.workers > 1 and solver._pool is not None:
            pm = solver._pool.metrics
            hit = solver._pool.compile_hit_rate()
            print(f"pool: mode={args.pool} "
                  f"workers_forked={pm.get('parallel.pool.workers.forked')} "
                  f"workers_reused={pm.get('parallel.pool.workers.reused')} "
                  f"shm_created={pm.get('parallel.shm.created')} "
                  f"shm_reused={pm.get('parallel.shm.reused')} "
                  f"isa_hit_rate="
                  f"{'n/a' if hit is None else f'{hit:.3f}'}")
        if args.engine == "cell" and args.metrics:
            attribution = solver.cycle_attribution()
            attribution.verify()
            print()
            print(attribution.table())
    if args.trace and solver is not None:
        from .trace.export import write_chrome_trace

        write_chrome_trace(args.trace, solver.trace)
        print(f"trace: {len(solver.trace)} events -> {args.trace}",
              file=sys.stderr)
    return 0


def _trace_merge(args) -> int:
    """Merge trace documents / flight dumps into one Perfetto file."""
    import json
    import os

    from .obs.merge import load_trace_doc, merge_chrome_docs

    docs, labels = [], []
    for path in args.merge:
        docs.append(load_trace_doc(path))
        labels.append(os.path.splitext(os.path.basename(path))[0])
    merged = merge_chrome_docs(docs, labels)
    out = args.out or "merged-trace.json"
    with open(out, "w") as fh:
        fh.write(json.dumps(merged, sort_keys=True) + "\n")
    print(f"merged {len(docs)} documents, "
          f"{len(merged['traceEvents'])} events -> {out} "
          f"(open in https://ui.perfetto.dev)")
    return 0


def cmd_trace(args) -> int:
    """Traced functional solve on the simulated Cell: export the event
    stream as Chrome-trace/Perfetto JSON, print the per-track timeline
    summary, and run the DMA-hazard sanitizer over the stream.  With
    ``--merge``, skip the solve and merge existing trace documents or
    flight-recorder dumps into one timeline instead."""
    if args.merge:
        return _trace_merge(args)
    from .core.solver import CellSweep3D
    from .perf.processors import measured_cell_config
    from .trace.export import timeline_summary, write_chrome_trace
    from .trace.sanitizer import format_hazards, sanitize

    deck = _build_deck(args)
    if deck.grid.num_cells > 16**3:
        print("note: tracing a functional solve above ~16^3 is slow and "
              "produces very large traces; consider --cube 8",
              file=sys.stderr)
    config = measured_cell_config().with_(trace=True)
    solver = CellSweep3D(deck, config)
    solver.solve()
    bus = solver.trace
    if args.out:
        write_chrome_trace(args.out, bus)
        print(f"wrote {len(bus)} events to {args.out} "
              f"(open in https://ui.perfetto.dev)")
        print()
    print(timeline_summary(bus))
    hazards = sanitize(bus)
    print()
    print(format_hazards(hazards))
    return 1 if hazards else 0


def cmd_metrics(args) -> int:
    """Metrics-instrumented functional Cell solve: print the per-SPE
    "where the cycles went" attribution table, the %-of-DP-peak figure
    and the hot registry counters (``--json`` for the full registry,
    ``--format prometheus`` for the text exposition a scraper reads)."""
    from .core.solver import CellSweep3D
    from .perf.processors import measured_cell_config

    deck = _build_deck(args)
    if deck.grid.num_cells > 30**3:
        print("note: the functional metrics solve is slow above ~30^3; "
              "consider --cube 16", file=sys.stderr)
    from .cell.isa_compile import STATS, cache_info, stats_delta

    config = measured_cell_config().with_(metrics=True)
    solver = CellSweep3D(deck, config, workers=args.workers)
    heartbeat = _attach_heartbeat(solver, deck, args)
    compile_before = STATS.snapshot()
    try:
        solver.solve()
    finally:
        if heartbeat is not None:
            heartbeat.close()
        solver.close()
    compile_stats = stats_delta(compile_before)
    compile_stats["cache"] = cache_info()
    attribution = solver.cycle_attribution()
    attribution.verify()
    if args.format == "prometheus":
        from .metrics.export import to_prometheus_text

        print(to_prometheus_text(solver.metrics), end="")
        return 0
    if args.json:
        from .perf.report import Row, format_json

        rows = [
            Row(f"{name} ticks", float(total), unit="tk")
            for name, total in attribution.bucket_totals.items()
        ]
        extra = {
            "deck": {"shape": list(deck.grid.shape), "sn": deck.sn,
                     "nm": deck.nm, "iterations": deck.iterations},
            "workers": args.workers,
            "registry": solver.metrics.to_dict(),
            "cycle_attribution": attribution.to_dict(),
            "compile": compile_stats,
        }
        print(format_json("metrics", rows, extra))
        return 0
    print(attribution.table())
    print()
    print("hot counters")
    for name in sorted(solver.metrics.counters):
        if name.startswith("spe"):
            continue  # already in the table above
        print(f"  {name:28s} {solver.metrics.counters[name]:>16,d}")
    for name, value in sorted(solver.metrics.gauges.items()):
        print(f"  {name:28s} {value:>16,d} (max)")
    print()
    cache = compile_stats["cache"]
    print("isa compile")
    print(f"  streams_compiled={compile_stats['streams_compiled']} "
          f"cache_hits={compile_stats['cache_hits']} "
          f"ops {compile_stats['ops_before']}->{compile_stats['ops_after']} "
          f"slots_reused={compile_stats['slots_reused']}")
    print(f"  program cache: {cache['entries']}/{cache['capacity']} entries "
          f"({cache['compiled']} compiled, {cache['hits']} hits lifetime)")
    return 0


def cmd_serve(args) -> int:
    """Run the async solve server until SIGTERM/SIGINT (then drain and
    exit cleanly).  See ``docs/SERVING.md`` for the HTTP API."""
    import asyncio

    from .obs.flight import install_sigusr2
    from .serve.app import ServeApp, serve_forever
    from .serve.queueing import ServeLimits
    from .serve.runner import SolveRunner

    # failed jobs attach a flight dump; SIGUSR2 dumps the live ring
    install_sigusr2()
    limits = ServeLimits(
        max_queue_depth=args.max_queue,
        max_concurrent=args.max_concurrent,
        max_body_bytes=args.max_body_bytes,
    )
    runner = SolveRunner(pool=args.pool, workers=args.workers)
    app = ServeApp(runner=runner, limits=limits)

    def ready(port: int) -> None:
        print(f"repro serve listening on http://{args.host}:{port} "
              f"(pool={args.pool}, solver workers={args.workers}, "
              f"{limits.max_concurrent} concurrent solves, queue depth "
              f"{limits.max_queue_depth})", flush=True)

    try:
        asyncio.run(serve_forever(app, args.host, args.port, ready=ready))
    except KeyboardInterrupt:  # pragma: no cover - ^C without handler
        pass
    return 0


def cmd_ladder(args) -> int:
    from .core.optimizations import ladder_times
    from .perf.report import Row, format_table

    deck = _build_deck(args)
    rows = [
        Row(s.key, t, s.paper_seconds if args.cube == 50 else None)
        for s, t in ladder_times(deck)
    ]
    print(format_table(f"Figure 5 - optimization ladder ({args.cube}^3)", rows))
    return 0


def cmd_kernel(args) -> int:
    from .cell.isa_compile import STATS, stats_delta
    from .cell.pipeline import SIMULATE_STATS
    from .core.spe_kernel import cells_per_invocation, kernel_cycle_report

    compile_before = STATS.snapshot()
    sim_before = SIMULATE_STATS.snapshot()
    variants = []
    for name, fixup, double in (
        ("DP", False, True), ("DP+fixup", True, True), ("SP", False, False),
    ):
        r = kernel_cycle_report(nm=args.nm, fixup=fixup, double=double)
        variants.append((name, cells_per_invocation(double), r,
                         r.efficiency(double)))
    if args.json:
        from .perf.report import Row, format_json

        rows = [
            Row(f"{name} cycles/invocation", float(r.cycles), unit="cy")
            for name, _, r, _ in variants
        ]
        sim_after = SIMULATE_STATS.snapshot()
        compile_stats = stats_delta(compile_before)
        compile_stats["pipeline_reports"] = {
            k: sim_after[k] - sim_before[k] for k in sim_after
        }
        extra = {
            "nm": args.nm,
            "variants": [
                {"name": name, "cells": cells, "cycles": r.cycles,
                 "flops": r.flops, "dual_issues": r.dual_issues,
                 "efficiency": eff}
                for name, cells, r, eff in variants
            ],
            "compile": compile_stats,
        }
        print(format_json("Sec. 5.1 kernel statistics", rows, extra))
        return 0
    print(f"{'kernel':14s} {'cells':>5s} {'cycles':>7s} {'flops':>6s} "
          f"{'dual':>5s} {'eff':>7s}")
    for name, cells, r, eff in variants:
        print(f"{name:14s} {cells:5d} {r.cycles:7d} "
              f"{r.flops:6d} {r.dual_issues:5d} {eff:7.1%}")
    return 0


def cmd_grind(args) -> int:
    from .perf.grind import grind_curve, plateau

    cubes = list(range(args.min_cube, args.max_cube + 1))
    curve = grind_curve(cubes=cubes)
    level = plateau(curve) if any(p.cube > 25 for p in curve) else None
    peak = max(p.grind_ns for p in curve)
    for p in curve:
        bar = "#" * int(round(40 * p.grind_ns / peak))
        print(f"{p.cube:4d} {p.grind_ns:8.1f} ns |{bar}")
    if level is not None:
        print(f"plateau (>25): {level:.1f} ns/visit")
    return 0


def cmd_projections(args) -> int:
    from .core.projections import project
    from .perf.processors import measured_cell_config
    from .perf.report import Row, format_table

    deck = _build_deck(args)
    rows = [
        Row(p.key, t, p.paper_seconds if args.cube == 50 else None)
        for p, t in project(deck, measured_cell_config())
    ]
    print(format_table(f"Figure 10 - projections ({args.cube}^3)", rows))
    return 0


def cmd_processors(args) -> int:
    from .perf.processors import comparison_table
    from .perf.report import ascii_bars

    deck = _build_deck(args)
    rows = comparison_table(deck)
    print(ascii_bars([n for n, _, _ in rows], [t for _, t, _ in rows]))
    for name, _, speedup in rows[1:]:
        print(f"Cell is {speedup:5.1f}x faster than {name}")
    return 0


def cmd_bounds(args) -> int:
    from .perf.model import bandwidth_bound, compute_bound, predict
    from .perf.processors import measured_cell_config

    deck = _build_deck(args)
    cfg = measured_cell_config()
    r = predict(deck, cfg)
    print(f"DMA traffic      {r.dma_bytes / 1e9:8.2f} GB")
    print(f"bandwidth bound  {bandwidth_bound(deck, cfg):8.3f} s")
    print(f"compute bound    {compute_bound(deck, cfg):8.3f} s")
    print(f"predicted time   {r.seconds:8.3f} s")
    print(f"  compute {r.compute_seconds:.3f}  dma {r.dma_seconds:.3f}  "
          f"scheduling {r.scheduling_seconds:.3f}  barriers {r.barrier_seconds:.3f}")
    return 0


def cmd_roofline(args) -> int:
    from .core.levels import Precision
    from .perf.processors import measured_cell_config
    from .perf.roofline import analyze

    deck = _build_deck(args)
    if args.host:
        from .perf.host_roofline import format_host_bounds, host_bounds

        print(format_host_bounds(deck, host_bounds(deck)))
        return 0
    cfg = measured_cell_config()
    for label, config in (
        ("DP", cfg),
        ("SP", cfg.with_(precision=Precision.SINGLE)),
    ):
        p = analyze(deck, config, label=label)
        regime = "memory-bound" if p.memory_bound else "compute-bound"
        print(f"{p.label}: intensity {p.intensity:.3f} flop/B "
              f"(ridge {p.ridge_intensity:.3f}) -> {regime}; "
              f"{p.achieved_flops / 1e9:.2f} Gflop/s = "
              f"{p.roof_fraction:.0%} of the roof")
    return 0


def cmd_transient(args) -> int:
    from .sweep.timestep import TimeDependentSweep3D

    deck = _build_deck(args)
    if deck.grid.num_cells > 12**3:
        print("note: the transient driver is functional; use a small cube",
              file=sys.stderr)
    td = TimeDependentSweep3D(deck, velocity=args.velocity, dt=args.dt)
    steady = td.steady_state().total_scalar_flux()
    result = td.run(args.steps)
    print(f"steady-state total flux: {steady:.4f}")
    for step, total in zip(result.steps, result.total_flux_history):
        print(f"t={step.time:8.3f}  total={total:12.4f}  "
              f"({total / steady:6.1%} of steady)")
    return 0


def cmd_cluster(args) -> int:
    from .core.cluster import cluster_speedup, cluster_time
    from .perf.processors import measured_cell_config

    if args.transport:
        return _cluster_transport_solve(args)
    if args.trace:
        print("error: cluster --trace requires --transport (the model "
              "table runs no ranks to trace)",
              file=sys.stderr)
        return 2
    deck = _build_deck(args)
    cfg = measured_cell_config()
    print(f"{'chips':>7s} {'time':>9s} {'speedup':>8s}")
    for p, q in ((1, 1), (2, 1), (2, 2), (4, 2), (4, 4), (8, 4)):
        if p > deck.grid.nx or q > deck.grid.ny:
            continue
        t = cluster_time(deck, cfg, p, q)
        s = cluster_speedup(deck, cfg, p, q)
        print(f"{p:3d}x{q:<3d} {t:8.3f}s {s:8.2f}x")
    return 0


def _cluster_transport_solve(args) -> int:
    """Multi-process P x Q solve over a cluster transport fabric."""
    import json

    from .cluster.driver import ClusterDriver, default_cluster_config

    deck = _build_deck(args)
    if deck.grid.num_cells > 30**3 and args.cluster_engine == "cell":
        print("note: the functional cluster solve is slow above ~30^3; "
              "consider --cube 16", file=sys.stderr)
    config = None
    if args.trace:
        if args.cluster_engine != "cell":
            print("error: --trace requires --engine cell (only the "
                  "simulated machine emits events)", file=sys.stderr)
            return 2
        config = default_cluster_config().with_(trace=True)
    driver = ClusterDriver(
        deck, args.p, args.q,
        transport=args.transport, engine=args.cluster_engine,
        spawn=args.spawn, config=config,
    )
    with driver:
        driver.install_signal_drain()
        driver.start()
        report = driver.solve()
    if args.trace:
        doc = report.chrome_trace()
        with open(args.trace, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
        print(f"trace: {len(doc['traceEvents'])} events over "
              f"{len(report.traces)} ranks -> {args.trace}",
              file=sys.stderr)
    result = report.result
    phi = result.scalar_flux
    if args.json:
        from .perf.report import Row, format_json

        rows = [
            Row("flux total", float(phi.sum()), unit=""),
            Row("flux max", float(phi.max()), unit=""),
            Row("flux min", float(phi.min()), unit=""),
            Row("leakage", float(result.tally.leakage), unit=""),
            Row("fixups", float(result.tally.fixups), unit=""),
        ]
        extra = {
            "cluster": report.to_dict(),
            "deck": {"shape": list(deck.grid.shape), "sn": deck.sn,
                     "nm": deck.nm, "iterations": result.iterations},
            "last_flux_change": (result.history[-1] if result.history
                                 else None),
        }
        print(format_json("cluster", rows, extra))
    else:
        print(f"cluster {args.p}x{args.q} transport={report.transport} "
              f"engine={report.engine} deck={deck.grid.shape} S{deck.sn} "
              f"nm={deck.nm} iters={result.iterations}"
              + (" (drained)" if report.drained else ""))
        print(f"scalar flux: total={phi.sum():.6f} max={phi.max():.6f} "
              f"min={phi.min():.6f}")
        print(f"leakage={result.tally.leakage:.6f} "
              f"fixups={result.tally.fixups}")
        print(f"flux sha256: {report.flux_digest}")
        print(f"messages: {report.msgs_sent} sent, "
              f"{report.bytes_sent} payload bytes, "
              f"overlap ratio {report.overlap_ratio:.3f}")
        walls = " ".join(f"{w:.3f}" for w in report.octant_walls)
        print(f"octant walls (s): {walls}")
        print(f"host wall: {report.wall_seconds:.3f}s "
              f"({report.size} rank processes)")
    return 0


def cmd_cluster_rank(args) -> int:
    from .cluster.runtime import rank_main

    return rank_main(args.connect, args.rank, timeout=args.timeout)


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sweep3D-on-Cell-BE reproduction (IPDPS 2007)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a problem through a solver engine")
    _deck_args(p)
    p.add_argument("--engine", choices=("serial", "tile", "kba", "cell"),
                   default="serial")
    p.add_argument("-p", type=int, default=2, help="KBA process columns")
    p.add_argument("-q", type=int, default=2, help="KBA process rows")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="export a Chrome-trace/Perfetto JSON of the run "
                        "(requires --engine cell)")
    p.add_argument("--isa", action="store_true",
                   help="run the SPE kernel through the functional SPU "
                        "ISA, trace-compiled to batched numpy programs "
                        "(requires --engine cell)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="host worker processes for the cell engine "
                        "(bit-identical to serial for any N; default 1)")
    p.add_argument("--pool", choices=("keep", "fresh"), default="fresh",
                   help="worker-pool lifetime with --workers: 'keep' "
                        "parks workers, their warm compiled-ISA caches "
                        "and the shared-memory segments in a process-"
                        "wide pool for the next solve; 'fresh' (default) "
                        "tears everything down with the solver")
    p.add_argument("--metrics", action="store_true",
                   help="collect the machine-wide metrics registry and "
                        "print the per-SPE cycle attribution "
                        "(requires --engine cell)")
    p.add_argument("--progress", action="store_true",
                   help="live done/total heartbeat on stderr (automatic "
                        "on a TTY; requires --engine cell)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    _obs_args(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser(
        "metrics",
        help="metrics-instrumented Cell solve: per-SPE cycle attribution",
    )
    _deck_args(p)
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="host worker processes (the registry is "
                        "identical for any N)")
    p.add_argument("--progress", action="store_true",
                   help="live done/total heartbeat on stderr")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    p.add_argument("--format", choices=("table", "prometheus"),
                   default="table",
                   help="output format: the attribution table (default) "
                        "or the registry in Prometheus text exposition "
                        "format (the offline twin of the serve "
                        "subsystem's GET /metrics)")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "serve",
        help="async batched solve server (see docs/SERVING.md)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8272,
                   help="bind port (default 8272; 0 picks a free port, "
                        "printed on startup)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="host worker processes per solve (shared "
                        "persistent pool; default 1)")
    p.add_argument("--pool", choices=("keep", "fresh"), default="keep",
                   help="worker-pool lifetime across jobs: 'keep' "
                        "(default -- the warm-cache point of the daemon) "
                        "parks workers and shared memory between solves")
    p.add_argument("--max-queue", type=int, default=64, metavar="N",
                   help="queued jobs beyond which POST /jobs answers "
                        "429 (default 64)")
    p.add_argument("--max-concurrent", type=int, default=2, metavar="N",
                   help="solves running concurrently (default 2)")
    p.add_argument("--max-body-bytes", type=int, default=1 << 20,
                   metavar="B",
                   help="request-body byte limit, 413 above it "
                        "(default 1 MiB)")
    _obs_args(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "trace",
        help="traced Cell solve: Perfetto export + DMA-hazard sanitizer",
    )
    _deck_args(p)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the Chrome-trace/Perfetto JSON here")
    p.add_argument("--merge", nargs="+", metavar="FILE", default=None,
                   help="skip the solve: merge these trace documents "
                        "and/or flight-recorder dumps into one Perfetto "
                        "timeline (written to --out, default "
                        "merged-trace.json)")
    p.set_defaults(fn=cmd_trace)

    for name, fn, help_ in (
        ("ladder", cmd_ladder, "Figure 5"),
        ("projections", cmd_projections, "Figure 10"),
        ("processors", cmd_processors, "Figure 11"),
        ("bounds", cmd_bounds, "Sec. 6 bounds"),
        ("roofline", cmd_roofline, "roofline position (extension)"),
    ):
        p = sub.add_parser(name, help=help_)
        _deck_args(p)
        p.set_defaults(fn=fn)
    sub.choices["roofline"].add_argument(
        "--host", action="store_true",
        help="measure this host's bound on the line kernel instead: "
             "numpy dispatch floor and many-array triad at a jkm "
             "diagonal's operand sizes, both kernels as a share of it")

    p = sub.add_parser("cluster", help="multi-chip scaling (extension)")
    _deck_args(p)
    p.add_argument("-p", type=int, default=2, help="chip grid columns")
    p.add_argument("-q", type=int, default=2, help="chip grid rows")
    p.add_argument("--transport", choices=("local", "socket"),
                   default=None,
                   help="run a functional P x Q cluster solve over this "
                        "rank-to-rank transport (see docs/CLUSTER.md; "
                        "default: print the timing model)")
    p.add_argument("--engine", dest="cluster_engine",
                   choices=("cell", "tile"), default="cell",
                   help="per-rank sweep engine for --transport solves")
    p.add_argument("--spawn", choices=("fork", "cli"), default="fork",
                   help="how --transport solves start rank processes")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="with --transport: capture each rank's trace, "
                        "merge into one Perfetto timeline with per-rank "
                        "tracks, write it here (requires --engine cell)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output (--transport only)")
    _obs_args(p)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser(
        "cluster-rank",
        help="one cluster rank worker (spawned by `repro cluster`)",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="driver rendezvous address")
    p.add_argument("--rank", type=int, required=True,
                   help="this process's rank in the P x Q grid")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="control/data receive timeout in seconds")
    p.set_defaults(fn=cmd_cluster_rank)

    p = sub.add_parser("transient", help="time-dependent solve (extension)")
    _deck_args(p)
    p.add_argument("--dt", type=float, default=0.5)
    p.add_argument("--velocity", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10)
    p.set_defaults(fn=cmd_transient)

    p = sub.add_parser("kernel", help="Sec. 5.1 kernel statistics")
    p.add_argument("--nm", type=int, default=4)
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("grind", help="Figure 9 grind-time curve")
    p.add_argument("--min-cube", type=int, default=5)
    p.add_argument("--max-cube", type=int, default=60)
    p.set_defaults(fn=cmd_grind)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_obs(args)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
