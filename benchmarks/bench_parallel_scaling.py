"""Host wall-clock scaling of the parallel engine vs ``--workers``.

Times the functional Cell solve on 16^3 and 24^3 decks (one iteration
each) for workers in {1, 2, 4} and writes ``BENCH_parallel.json`` at the
repository root, recording wall times, speedups over the 1-worker run,
the verified bit-identity of every parallel result, and the host CPU
budget the numbers were measured under.

A third record is the ISA matrix: ``compile_isa`` on/off x workers in
{1, 2, 4} x pool keep/fresh on a small 6^3 deck -- interpreted rows run the per-element
ISA interpreter, so a deck the 16^3 rows use would take minutes per
cell.  ``keep`` cells solve twice through one
:class:`~repro.parallel.pool.PersistentPool` and record the warm second
solve next to the cold first one, plus the warm window's ISA recompile
count -- the pool's acceptance bar is zero recompiles (100% program-
cache hit rate) on the rebound solve.

The engine is started (workers forked, shared memory mapped) *before*
the timed region, so the numbers measure steady-state sweep throughput,
not pool spin-up.  Speedup is meaningful only when the host actually
has cores to scale onto, so worker counts exceeding the CPU affinity
mask (``len(os.sched_getaffinity(0))``) are **skipped** and marked as
such in the JSON -- an oversubscribed run measures scheduler thrash,
not the engine, and a "speedup" below 1 from such a row reads like a
regression that never happened.  Pass ``--force`` (or set
``BENCH_PARALLEL_FORCE=1``) to measure oversubscribed counts anyway.

Run directly (``PYTHONPATH=src python benchmarks/bench_parallel_scaling.py``)
or through pytest (``python -m pytest benchmarks/bench_parallel_scaling.py``).
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import sys
import time

import numpy as np

from repro.core.solver import CellSweep3D
from repro.perf.processors import measured_cell_config
from repro.sweep.input import cube_deck

WORKER_COUNTS = (1, 2, 4)


def _affinity_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _force_requested() -> bool:
    return "--force" in sys.argv or os.environ.get("BENCH_PARALLEL_FORCE") == "1"


def _deck(n: int):
    return dataclasses.replace(cube_deck(n), iterations=1)


def _bench_deck(n: int, label: str, force: bool) -> dict:
    config = measured_cell_config()
    cpus = _affinity_cpus()
    runs = []
    reference = None
    for workers in WORKER_COUNTS:
        if workers > cpus and not force:
            runs.append({
                "workers": workers,
                "skipped": True,
                "reason": f"workers={workers} exceeds affinity_cpus={cpus} "
                          "(pass --force to measure oversubscribed)",
            })
            continue
        solver = CellSweep3D(_deck(n), config, workers=workers)
        try:
            if solver._engine is not None:
                solver._engine._ensure_started()
            t0 = time.perf_counter()
            result = solver.solve()
            wall = time.perf_counter() - t0
        finally:
            solver.close()
        if reference is None:
            reference = result
        runs.append({
            "workers": workers,
            "skipped": False,
            "wall_seconds": round(wall, 4),
            "bit_identical": bool(
                np.array_equal(reference.flux, result.flux)
                and reference.tally.leakage == result.tally.leakage
                and reference.tally.fixups == result.tally.fixups
            ),
        })
    measured = [r for r in runs if not r["skipped"]]
    base = measured[0]["wall_seconds"]
    for run in measured:
        run["speedup"] = round(base / run["wall_seconds"], 3)
    return {"deck": label, "cube": n, "runs": runs}


#: cube edge of the ISA-matrix deck; interpreted rows are ~25x slower
#: than compiled ones, so the full matrix needs a small deck
ISA_MATRIX_CUBE = 6


def _bench_isa_matrix(n: int, label: str, force: bool) -> dict:
    """The compiled-ISA x workers x pool matrix.

    Every cell solves the same deck with ``isa_kernel`` on; speedups
    are relative to the first cell (compiled, 1 worker, fresh pool), so
    the compile-off rows read as the cost of falling back to the
    interpreter and the workers>1 rows as host scaling of the batched
    path.  Bit-identity is checked against that same first result --
    the executors must agree to the bit across every axis.
    """
    from repro.cell.isa_compile import STATS
    from repro.parallel.pool import PersistentPool

    cpus = _affinity_cpus()
    runs = []
    reference = None
    base = None
    for compile_isa in (True, False):
        config = measured_cell_config().with_(
            isa_kernel=True, compile_isa=compile_isa
        )
        for workers in WORKER_COUNTS:
            for pool_mode in ("fresh", "keep"):
                row = {
                    "compile_isa": compile_isa,
                    "workers": workers,
                    "pool": pool_mode,
                }
                if workers > cpus and not force:
                    row.update(
                        skipped=True,
                        reason=f"workers={workers} exceeds affinity_cpus="
                               f"{cpus} (pass --force to measure "
                               "oversubscribed)",
                    )
                    runs.append(row)
                    continue
                row["skipped"] = False
                pool = PersistentPool(persistent=(pool_mode == "keep"))
                walls = []
                try:
                    for solve_index in range(2 if pool_mode == "keep" else 1):
                        pool_before = pool.metrics.to_dict()["counters"]
                        stats_before = STATS.snapshot()
                        solver = CellSweep3D(
                            _deck(n), config, workers=workers, pool=pool,
                        )
                        try:
                            if solver._engine is not None:
                                solver._engine._ensure_started()
                            t0 = time.perf_counter()
                            result = solver.solve()
                            walls.append(time.perf_counter() - t0)
                        finally:
                            solver.close()
                        if solve_index == 1:
                            if workers > 1:
                                after = pool.metrics.to_dict()["counters"]
                                key = "parallel.isa.streams_compiled"
                                row["warm_recompiles"] = (
                                    after.get(key, 0) - pool_before.get(key, 0)
                                )
                                rate = pool.compile_hit_rate(since=pool_before)
                                if rate is not None:
                                    row["warm_hit_rate"] = round(rate, 4)
                            else:
                                # no engine at workers=1: the warm state
                                # is the in-process program cache
                                row["warm_recompiles"] = (
                                    STATS.snapshot()["streams_compiled"]
                                    - stats_before["streams_compiled"]
                                )
                finally:
                    pool.shutdown()
                if reference is None:
                    reference = result
                    base = walls[0]
                row["wall_seconds"] = round(walls[0], 4)
                row["speedup"] = round(base / walls[0], 3)
                if len(walls) > 1:
                    row["warm_wall_seconds"] = round(walls[1], 4)
                    row["warm_speedup"] = round(base / walls[1], 3)
                row["bit_identical"] = bool(
                    np.array_equal(reference.flux, result.flux)
                    and reference.tally.leakage == result.tally.leakage
                    and reference.tally.fixups == result.tally.fixups
                )
                runs.append(row)
    return {
        "deck": label,
        "cube": n,
        "axes": ["compile_isa", "workers", "pool"],
        "runs": runs,
    }


def run_benchmarks(force: bool | None = None) -> dict:
    if force is None:
        force = _force_requested()
    return {
        "bench": "parallel host scaling",
        "host_cpus": os.cpu_count(),
        "affinity_cpus": _affinity_cpus(),
        "worker_counts": list(WORKER_COUNTS),
        "oversubscribed_forced": force,
        "records": [
            _bench_deck(16, "16^3 x 1 iter", force),
            _bench_deck(24, "24^3 x 1 iter", force),
            _bench_isa_matrix(
                ISA_MATRIX_CUBE,
                f"{ISA_MATRIX_CUBE}^3 x 1 iter isa matrix", force,
            ),
        ],
    }


def write_json(payload: dict) -> pathlib.Path:
    from _bench_utils import write_bench_json

    return write_bench_json("BENCH_parallel.json", payload)


def _report(payload: dict) -> None:
    for rec in payload["records"]:
        for run in rec["runs"]:
            tag = ""
            if "compile_isa" in run:
                tag = (f" compile={'on' if run['compile_isa'] else 'off'}"
                       f" pool={run['pool']}")
            if run["skipped"]:
                print(f"{rec['deck']}: workers={run['workers']}{tag} "
                      f"SKIPPED ({run['reason']})")
            else:
                line = (
                    f"{rec['deck']}: workers={run['workers']}{tag} "
                    f"{run['wall_seconds']:.2f}s "
                    f"speedup={run['speedup']:.2f}x "
                    f"identical={run['bit_identical']}"
                )
                if "warm_wall_seconds" in run:
                    line += f" warm={run['warm_wall_seconds']:.2f}s"
                if "warm_recompiles" in run:
                    line += f" warm_recompiles={run['warm_recompiles']}"
                print(line)


def test_parallel_scaling():
    payload = run_benchmarks()
    path = write_json(payload)
    _report(payload)
    print(f"[written to {path}]")
    for rec in payload["records"]:
        for run in rec["runs"]:
            if run["skipped"]:
                continue
            assert run["bit_identical"], (
                f"{rec['deck']} workers={run['workers']}: parallel result "
                "diverged from the 1-worker run"
            )
    cores = payload["affinity_cpus"]
    big = next(
        rec for rec in payload["records"] if rec["deck"] == "24^3 x 1 iter"
    )
    four = next(r for r in big["runs"] if r["workers"] == 4)
    if four["skipped"]:
        assert cores < 4, "4-worker run must only be skipped when the " \
                          "affinity mask is smaller than 4 CPUs"
    elif cores >= 4:
        assert four["speedup"] >= 2.0, (
            f"24^3 at 4 workers reached only {four['speedup']:.2f}x on a "
            f"{cores}-core host (>= 2x required)"
        )
    else:
        # forced oversubscription cannot speed up; just bound the
        # overhead of running through the pool machinery at all.
        assert four["speedup"] >= 0.2, (
            f"24^3 at 4 workers is {four['speedup']:.2f}x of serial on a "
            f"{cores}-core host: pool overhead is out of hand"
        )
    matrix = next(
        rec for rec in payload["records"] if "isa matrix" in rec["deck"]
    )
    compiled_keep = [
        r for r in matrix["runs"]
        if not r["skipped"] and r["compile_isa"] and r["pool"] == "keep"
    ]
    assert compiled_keep, "no compiled keep-pool cell was measured"
    for run in compiled_keep:
        assert run["warm_recompiles"] == 0, (
            f"workers={run['workers']}: warm solve on a kept pool "
            f"recompiled {run['warm_recompiles']} ISA streams (expected 0)"
        )
        if "warm_hit_rate" in run:
            assert run["warm_hit_rate"] == 1.0


if __name__ == "__main__":
    payload = run_benchmarks()
    out = write_json(payload)
    _report(payload)
    print(f"[written to {out}]")
