"""The host-parallel engine is bit-identical to the serial engine.

The whole value of :mod:`repro.parallel` rests on one promise: for any
worker count, a parallel solve returns the *same bits* as the serial
solve -- flux, leakage, fixups, history -- and the same merged metrics
registry and trace bytes.  These tests pin that promise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.levels import MachineConfig
from repro.core.solver import CellSweep3D
from repro.errors import ConfigurationError
from repro.sweep import SerialSweep3D, small_deck


def make_deck():
    return small_deck(n=6, sn=4, nm=2, iterations=2, mk=3)


CFG = MachineConfig(
    aligned_rows=True, structured_loops=True, double_buffer=True,
    simd=True, dma_lists=True, bank_offsets=True,
)


@pytest.fixture(scope="module")
def serial_result():
    return CellSweep3D(make_deck(), CFG).solve()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_block_granularity_bit_identical(serial_result, workers):
    with CellSweep3D(make_deck(), CFG, workers=workers) as solver:
        result = solver.solve()
    np.testing.assert_array_equal(serial_result.flux, result.flux)
    assert serial_result.tally.leakage == result.tally.leakage
    assert serial_result.tally.fixups == result.tally.fixups
    assert serial_result.history == result.history


def test_parallel_matches_plain_serial_sweeper(serial_result):
    """Transitively: parallel == Cell-serial == SerialSweep3D."""
    reference = SerialSweep3D(make_deck()).solve()
    np.testing.assert_array_equal(reference.flux, serial_result.flux)


def test_fixup_deck_bit_identical():
    """Fixup counts are summed across workers; flux stays exact."""
    deck = small_deck(n=6, sn=4, nm=2, iterations=3, mk=3, fixup=True)
    serial = CellSweep3D(deck, CFG).solve()
    with CellSweep3D(
        small_deck(n=6, sn=4, nm=2, iterations=3, mk=3, fixup=True),
        CFG, workers=2,
    ) as solver:
        parallel = solver.solve()
    np.testing.assert_array_equal(serial.flux, parallel.flux)
    assert serial.tally.fixups == parallel.tally.fixups
    assert serial.tally.leakage == parallel.tally.leakage


def test_material_box_deck_bit_identical_with_fixups_live():
    """Workers capture each diagonal's angular flux with one store into
    ``psi_sink``; a source/shield deck drives that store with per-cell
    cross sections streamed and the fixup branch firing (~2k cells)."""
    from repro.sweep.geometry import Grid
    from repro.sweep.input import InputDeck

    deck = InputDeck(
        grid=Grid(10, 7, 5), mk=5, iterations=2, scattering_ratio=0.9,
        source=1.5, source_box=(3, 6, 2, 5, 1, 4),
        material_box=(7, 9, 0, 7, 0, 5),
        material_sigma_t=8.0, material_scattering_ratio=0.1,
    )
    reference = SerialSweep3D(deck).solve()
    serial = CellSweep3D(deck, CFG).solve()
    with CellSweep3D(deck, CFG, workers=2) as solver:
        parallel = solver.solve()
    assert serial.tally.fixups > 1000
    np.testing.assert_array_equal(reference.flux, parallel.flux)
    np.testing.assert_array_equal(serial.flux, parallel.flux)
    assert serial.tally.fixups == parallel.tally.fixups
    assert serial.tally.leakage == parallel.tally.leakage
    assert serial.history == parallel.history


def test_solve_is_repeatable_across_sweeps():
    """The pool persists across iterations; a second solve on the same
    engine still matches (exercises queue reuse and psi rewrites)."""
    with CellSweep3D(make_deck(), CFG, workers=2) as solver:
        first = solver.solve()
        second = solver.solve()
    np.testing.assert_array_equal(first.flux, second.flux)


def test_custom_boundary_falls_back_to_serial():
    """Block units assume vacuum boundaries; a custom boundary routes
    through the serial path instead of returning wrong answers."""
    from repro.sweep.pipelining import VacuumBoundary

    deck = make_deck()
    boundary = VacuumBoundary(deck, deck.quadrature())
    with CellSweep3D(make_deck(), CFG, workers=2) as solver:
        flux, tally, bnd = solver.sweep(
            np.zeros((deck.nm, *deck.grid.shape)), boundary=boundary
        )
    assert bnd is boundary


def test_bad_worker_count_rejected():
    with pytest.raises(ConfigurationError):
        CellSweep3D(make_deck(), CFG, workers=0)


# -- metrics determinism ------------------------------------------------------

MCFG = CFG.with_(metrics=True)


@pytest.fixture(scope="module")
def serial_metrics():
    solver = CellSweep3D(make_deck(), MCFG)
    solver.solve()
    return solver.metrics.to_dict()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_metrics_registry_identical_across_workers(serial_metrics, workers):
    """The acceptance bar of the metrics subsystem: the merged registry
    -- every counter, gauge and histogram bucket -- is bit-identical to
    the serial registry for any worker count, exactly like flux."""
    with CellSweep3D(make_deck(), MCFG, workers=workers) as solver:
        solver.solve()
        assert solver.metrics.to_dict() == serial_metrics


@pytest.mark.parametrize("workers", [1, 2])
def test_metrics_attribution_exact_across_workers(workers):
    """Cycle attribution buckets sum exactly -- in integer ticks -- to
    num_spes x span, whatever process executed the work."""
    with CellSweep3D(make_deck(), MCFG, workers=workers) as solver:
        solver.solve()
        att = solver.cycle_attribution()
    att.verify()
    assert sum(att.bucket_totals.values()) == att.total_ticks
    assert att.total_ticks == att.num_spes * att.span_ticks


# -- compiled-ISA determinism -------------------------------------------------
#
# The fused path of the persistent-pool engine: with ``isa_kernel`` +
# ``compile_isa`` on, the parent and every worker route their units'
# diagonals through the compiled batch executor, pooled or fresh -- and
# the bits must never move.

ICFG = CFG.with_(isa_kernel=True)
IMCFG = ICFG.with_(metrics=True)


@pytest.fixture(scope="module")
def serial_isa():
    return CellSweep3D(make_deck(), ICFG).solve()


@pytest.fixture(scope="module")
def isa_pool():
    from repro.parallel.pool import PersistentPool

    with PersistentPool(persistent=True) as pool:
        yield pool


@pytest.mark.parametrize("pooled", [False, True], ids=["fresh", "pooled"])
@pytest.mark.parametrize("workers", [1, 2, 4], ids="{}-block".format)
def test_compiled_isa_bit_identical(serial_isa, isa_pool, workers, pooled):
    pool = isa_pool if pooled else "fresh"
    with CellSweep3D(make_deck(), ICFG, workers=workers, pool=pool) as solver:
        result = solver.solve()
    np.testing.assert_array_equal(serial_isa.flux, result.flux)
    assert serial_isa.tally.leakage == result.tally.leakage
    assert serial_isa.tally.fixups == result.tally.fixups
    assert serial_isa.history == result.history


def test_compiled_isa_diagonal_uses_batch_executor(isa_pool):
    """Block units batch-solve every jkm diagonal through the compiled
    executor, in the parent and in the workers alike -- never line by
    line through the interpreter."""
    before = isa_pool.metrics.to_dict()["counters"]
    with CellSweep3D(make_deck(), ICFG, workers=2, pool=isa_pool) as solver:
        solver.solve()
    after = isa_pool.metrics.to_dict()["counters"]
    batched = after.get("parallel.isa.batched_lines", 0) - before.get(
        "parallel.isa.batched_lines", 0
    )
    assert batched > 0
    # every staged line of the sweep was batch-solved (parent and
    # workers combined)
    deck = make_deck()
    quad = deck.quadrature()
    lines_per_sweep = 8 * quad.per_octant * deck.grid.ny * deck.grid.nz
    assert batched == deck.iterations * lines_per_sweep


@pytest.fixture(scope="module")
def serial_isa_metrics():
    solver = CellSweep3D(make_deck(), IMCFG)
    solver.solve()
    return solver.metrics.to_dict()


@pytest.mark.parametrize("workers", [1, 2, 4], ids="{}-block".format)
def test_compiled_isa_metrics_identical(serial_isa_metrics, isa_pool, workers):
    """Pool-side compile counters stay out of the solver registry: the
    merged metrics match serial bit for bit, pooled, for any workers."""
    with CellSweep3D(
        make_deck(), IMCFG, workers=workers, pool=isa_pool
    ) as solver:
        solver.solve()
        assert solver.metrics.to_dict() == serial_isa_metrics


def test_compiled_isa_trace_stream_identical(isa_pool):
    """Trace byte-stream (track, name, dur, args) is unchanged by
    pooled compiled-ISA execution."""
    tcfg = ICFG.with_(trace=True)
    serial = CellSweep3D(make_deck(), tcfg)
    serial.solve()
    with CellSweep3D(
        make_deck(), tcfg, workers=2, pool=isa_pool
    ) as parallel:
        parallel.solve()
        assert [
            (e.track, e.name, e.dur, sorted((e.args or {}).items()))
            for e in serial.trace.events
        ] == [
            (e.track, e.name, e.dur, sorted((e.args or {}).items()))
            for e in parallel.trace.events
        ]


# -- trace byte-identity ------------------------------------------------------
#
# Stronger than stream equivalence: the parent replays each unit's cycle
# cursor instead of rebasing timestamps, so the *serialized Perfetto
# document* -- timestamps included -- is the same bytes for any worker
# count.  This is what lets `GET /jobs/{id}/trace` and the cluster
# merge promise bit-identical artifacts.


def _trace_bytes(bus) -> bytes:
    import json

    from repro.trace.export import to_chrome_trace

    return json.dumps(to_chrome_trace(bus), sort_keys=True).encode()


@pytest.mark.parametrize("workers", [2, 4])
def test_chrome_trace_byte_identical_across_workers(workers):
    tcfg = CFG.with_(trace=True)
    serial = CellSweep3D(make_deck(), tcfg)
    serial.solve()
    expected = _trace_bytes(serial.trace)
    with CellSweep3D(make_deck(), tcfg, workers=workers) as solver:
        solver.solve()
        assert _trace_bytes(solver.trace) == expected


def test_compiled_isa_chrome_trace_byte_identical(isa_pool):
    tcfg = ICFG.with_(trace=True)
    serial = CellSweep3D(make_deck(), tcfg)
    serial.solve()
    expected = _trace_bytes(serial.trace)
    with CellSweep3D(
        make_deck(), tcfg, workers=2, pool=isa_pool
    ) as solver:
        solver.solve()
        assert _trace_bytes(solver.trace) == expected
