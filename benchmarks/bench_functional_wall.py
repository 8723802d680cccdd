"""Host wall-clock of the *functional* Cell solve (the fast-path referee).

Unlike the other benches, this one times nothing from the paper: the
simulated machine's cycle counts are host-speed-independent (see
``docs/PERFORMANCE.md``).  What it measures is how long the functional
simulation itself takes to run on the host -- the quantity the fused
kernel, the DMA transfer plans and the vectorized chunk executor exist
to improve.  It emits a machine-readable ``BENCH_functional.json`` so
CI (and future optimization rounds) can track the host wall time and
throughput without scraping logs.

Deck tiers:

* ``16^3 x 1 iter`` -- always run; the CI perf smoke.  A generous
  ceiling (``BENCH_WALL_CEILING`` seconds, default 60) guards against
  order-of-magnitude regressions without flaking on slow runners.
* ``24^3 x 1 iter`` -- always run; big enough that transfer-plan reuse
  across k-blocks dominates.
* ``50^3 x 12 iter`` -- the paper's full benchmark deck; minutes of
  host time, so it only runs when ``BENCH_FULL=1``.

Run directly (``PYTHONPATH=src python benchmarks/bench_functional_wall.py``)
or through pytest (``python -m pytest benchmarks/bench_functional_wall.py``).
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import time

from repro.core.solver import CellSweep3D
from repro.sweep.input import benchmark_deck, cube_deck

#: seconds the 16^3 single-iteration solve may take before the smoke
#: test fails.  Deliberately ~30x above the measured time so only real
#: regressions (e.g. the fast path silently falling back to per-cell
#: Python loops) trip it.
DEFAULT_WALL_CEILING = 60.0


def _solve_timed(deck, label: str) -> dict:
    solver = CellSweep3D(deck)
    t0 = time.perf_counter()
    result = solver.solve()
    wall = time.perf_counter() - t0
    g = deck.grid
    cells = g.nx * g.ny * g.nz
    # one "solve step" = one cell-angle-iteration unit, the natural
    # throughput for comparing decks of different size and Sn order.
    work = cells * deck.iterations * 8 * solver.quad.per_octant
    return {
        "deck": label,
        "grid": [g.nx, g.ny, g.nz],
        "sn": deck.sn,
        "iterations": deck.iterations,
        "wall_seconds": round(wall, 4),
        "cells": cells,
        "cells_per_second": round(cells * deck.iterations / wall, 1),
        "cell_angles_per_second": round(work / wall, 1),
        "fixups": result.tally.fixups,
        "converged": result.converged,
    }


def run_benchmarks(full: bool = False) -> list[dict]:
    from _bench_utils import assert_obs_quiet

    assert_obs_quiet()
    smoke = _solve_timed(
        dataclasses.replace(cube_deck(16), iterations=1), "16^3 x 1 iter"
    )
    # A second, separately timed 16^3 solve with the obs state asserted
    # quiet again: ``obs_off_wall_seconds`` commits the trace-off +
    # log-off wall next to ``wall_seconds`` so ``perf/baseline.py`` can
    # pin that disabled observability stays within noise of the solve.
    assert_obs_quiet()
    smoke["obs_off_wall_seconds"] = _solve_timed(
        dataclasses.replace(cube_deck(16), iterations=1), "16^3 x 1 iter"
    )["wall_seconds"]
    records = [
        smoke,
        _solve_timed(
            dataclasses.replace(cube_deck(24), iterations=1), "24^3 x 1 iter"
        ),
    ]
    if full:
        records.append(_solve_timed(benchmark_deck(), "50^3 x 12 iter (paper)"))
    return records


def write_json(records: list[dict]) -> pathlib.Path:
    from _bench_utils import write_bench_json

    return write_bench_json("BENCH_functional.json", records)


def test_functional_wall(out_dir):
    ceiling = float(os.environ.get("BENCH_WALL_CEILING", DEFAULT_WALL_CEILING))
    full = os.environ.get("BENCH_FULL", "") not in ("", "0")
    records = run_benchmarks(full=full)
    path = write_json(records)
    for rec in records:
        print(
            f"{rec['deck']}: {rec['wall_seconds']:.2f}s host wall, "
            f"{rec['cells_per_second']:.0f} cells/s"
        )
    print(f"[written to {path}]")
    smoke = records[0]
    assert smoke["wall_seconds"] < ceiling, (
        f"16^3 functional solve took {smoke['wall_seconds']:.1f}s "
        f"(ceiling {ceiling:.0f}s): the fast path has regressed"
    )


if __name__ == "__main__":
    full = os.environ.get("BENCH_FULL", "") not in ("", "0")
    recs = run_benchmarks(full=full)
    out = write_json(recs)
    for rec in recs:
        print(
            f"{rec['deck']}: {rec['wall_seconds']:.2f}s host wall, "
            f"{rec['cells_per_second']:.0f} cells/s, fixups={rec['fixups']}"
        )
    print(f"[written to {out}]")
