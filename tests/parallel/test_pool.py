"""Lifecycle of the persistent worker pool.

The pool's promises, pinned here: worker sets and shared-memory
segments survive ``CellSweep3D.close()`` and serve the next solver
(different decks included); a rebound worker's warm compiled-program
cache makes the second solve recompile nothing; an aborted sweep never
parks its (possibly poisoned) workers or segments; and every segment
the registry leased comes back -- parked or unlinked -- by shutdown.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.core.levels import MachineConfig
from repro.core.solver import CellSweep3D
from repro.errors import ConfigurationError, ParallelError
from repro.parallel.pool import PersistentPool, resolve_pool
from repro.sweep import small_deck

CFG = MachineConfig(
    aligned_rows=True, structured_loops=True, double_buffer=True,
    simd=True, dma_lists=True, bank_offsets=True,
)
ICFG = CFG.with_(isa_kernel=True)


def deck_a():
    return small_deck(n=6, sn=4, nm=2, iterations=2, mk=3)


def deck_b():
    return small_deck(n=8, sn=4, nm=2, iterations=1, mk=2)


def pool_children():
    return [p for p in mp.active_children() if p.name.startswith("repro-pool-")]


def test_pool_reuse_across_different_decks():
    """Two consecutive solves with different decks share one worker set;
    both stay bit-identical to their serial counterparts."""
    serial_a = CellSweep3D(deck_a(), CFG).solve()
    serial_b = CellSweep3D(deck_b(), CFG).solve()
    with PersistentPool(persistent=True) as pool:
        with CellSweep3D(deck_a(), CFG, workers=2, pool=pool) as solver:
            first = solver.solve()
        with CellSweep3D(deck_b(), CFG, workers=2, pool=pool) as solver:
            second = solver.solve()
        np.testing.assert_array_equal(serial_a.flux, first.flux)
        np.testing.assert_array_equal(serial_b.flux, second.flux)
        m = pool.metrics
        assert m.get("parallel.pool.workers.forked") == 1
        assert m.get("parallel.pool.workers.reused") == 1
        assert m.get("parallel.pool.binds") == 2


def test_warm_pool_zero_recompiles_and_shm_reuse():
    """The acceptance bar: a second compiled-ISA solve on a kept pool
    performs zero recompiles (hit rate 100%) and re-creates no
    shared-memory segment for the unchanged deck shape."""
    with PersistentPool(persistent=True) as pool:
        with CellSweep3D(deck_a(), ICFG, workers=2, pool=pool) as solver:
            solver.solve()
        cold = pool.metrics.to_dict()["counters"]
        assert cold.get("parallel.isa.batched_calls", 0) > 0, (
            "block units did not route through the compiled batch executor"
        )
        with CellSweep3D(deck_a(), ICFG, workers=2, pool=pool) as solver:
            solver.solve()
        warm = pool.metrics.to_dict()["counters"]
        assert warm.get("parallel.isa.streams_compiled", 0) == cold.get(
            "parallel.isa.streams_compiled", 0
        ), "warm pool recompiled an ISA stream"
        assert warm.get("parallel.shm.created") == cold.get(
            "parallel.shm.created"
        ), "warm pool re-created a shared-memory segment"
        assert warm.get("parallel.shm.reused", 0) > cold.get(
            "parallel.shm.reused", 0
        )
        assert warm.get("parallel.pool.workers.reused") == 1
        assert pool.compile_hit_rate(since=cold) == 1.0


def test_parallel_error_shuts_down_cleanly(monkeypatch):
    """A failing worker unit surfaces as ParallelError, and the engine's
    close() neither parks the poisoned worker set nor leaks segments."""
    from repro.parallel import engine as engine_mod

    parent = os.getpid()
    original = engine_mod._execute_block_unit

    def exploding(solver, unit, psi):
        if os.getpid() != parent:
            raise RuntimeError("injected worker failure")
        return original(solver, unit, psi)

    monkeypatch.setattr(engine_mod, "_execute_block_unit", exploding)
    with PersistentPool(persistent=True) as pool:
        with CellSweep3D(deck_a(), CFG, workers=2, pool=pool) as solver:
            with pytest.raises(ParallelError):
                solver.solve()
        assert pool.parked_worker_sets == 0
        assert pool.metrics.get("parallel.pool.workers.stopped") == 1
        assert pool.segments.leased_count == 0
        assert pool.segments.parked_count == 0  # discarded, not parked
        assert not pool_children()


def test_killed_worker_fails_fast_and_pool_recovers():
    """SIGKILL a pool worker mid-sweep: the parent raises ParallelError
    naming the dead lane within seconds (not after the 600-s result
    timeout), discards the set and its segments, and the *same* pool
    serves the next solve from a freshly forked set."""
    import signal
    import time
    from pathlib import Path

    deck = small_deck(n=12, sn=6, nm=2, iterations=1, mk=3)
    serial = CellSweep3D(deck, CFG).solve()
    shm_before = set(Path("/dev/shm").iterdir())
    killed = []

    def kill_worker():
        # first completed unit: the set is bound and mid-sweep
        if not killed:
            killed.extend(p.pid for p in pool_children())
            os.kill(killed[0], signal.SIGKILL)

    with PersistentPool(persistent=True) as pool:
        with CellSweep3D(deck, CFG, workers=2, pool=pool) as solver:
            solver.progress = kill_worker
            t0 = time.monotonic()
            with pytest.raises(ParallelError, match="repro-pool-queue-lane1"):
                solver.solve()
            assert time.monotonic() - t0 < 5.0
        assert len(killed) == 1
        assert pool.parked_worker_sets == 0
        assert pool.metrics.get("parallel.pool.workers.stopped") == 1
        assert pool.segments.leased_count == 0
        assert pool.segments.parked_count == 0  # discarded, not parked
        assert not pool_children()
        assert set(Path("/dev/shm").iterdir()) <= shm_before
        # a failed solve never poisons the pool for the next one
        with CellSweep3D(deck, CFG, workers=2, pool=pool) as solver:
            again = solver.solve()
        np.testing.assert_array_equal(serial.flux, again.flux)
        assert pool.metrics.get("parallel.pool.workers.forked") == 2


def test_no_leaked_segments_across_lifecycle():
    """Every lease returns: parked after close(), unlinked by shutdown()."""
    pool = PersistentPool(persistent=True)
    with CellSweep3D(deck_a(), CFG, workers=2, pool=pool) as solver:
        solver.solve()
        assert pool.segments.leased_count > 0
    assert pool.segments.leased_count == 0
    assert pool.segments.parked_count > 0
    parked = pool.segments.parked_count
    pool.shutdown()
    assert pool.segments.parked_count == 0
    assert pool.metrics.get("parallel.shm.unlinked") == parked
    assert not pool_children()


def test_fresh_pool_tears_down_with_the_solver():
    """pool='fresh' keeps the pre-pool semantics: nothing survives
    close() -- no parked workers, no parked segments, no processes."""
    with CellSweep3D(deck_a(), CFG, workers=2, pool="fresh") as solver:
        solver.solve()
        pool = solver._pool
    assert pool.parked_worker_sets == 0
    assert pool.segments.parked_count == 0
    assert pool.metrics.get("parallel.pool.workers.stopped") == 1
    assert not pool_children()


def test_resolve_pool_arguments():
    assert isinstance(resolve_pool("fresh"), PersistentPool)
    assert not resolve_pool("fresh").persistent
    keep = resolve_pool("keep")
    assert keep.persistent
    assert resolve_pool("keep") is keep
    explicit = PersistentPool()
    assert resolve_pool(explicit) is explicit
    with pytest.raises(ConfigurationError):
        resolve_pool("sometimes")
    explicit.shutdown()
