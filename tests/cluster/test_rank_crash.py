"""A crashed rank fails the job fast and leaves no process behind."""

from __future__ import annotations

import multiprocessing as mp
import time

import pytest

from repro.cluster import runtime
from repro.cluster.driver import run_cluster_solve
from repro.errors import ClusterError
from repro.sweep.input import small_deck


def test_crashed_rank_raises_fast_and_reaps_the_survivor(monkeypatch):
    """Rank 0 dies inside its solve; rank 1 is then blocked in a face
    ``recv`` on it (for ``recv_timeout``, 600 s by default) and ignores
    SIGTERM.  The driver must surface the CRASH report with the rank's
    flight dump and SIGKILL the survivor, not wait it out."""
    real = runtime.run_rank_solve

    def crash_rank0(manifest, endpoint, barrier):
        if endpoint.rank == 0:
            raise RuntimeError("injected rank failure")
        return real(manifest, endpoint, barrier)

    # patched before the fork, so every rank process inherits it
    monkeypatch.setattr(runtime, "run_rank_solve", crash_rank0)
    deck = small_deck(n=8, sn=4, nm=2, iterations=2)
    t0 = time.monotonic()
    with pytest.raises(ClusterError, match="injected rank failure") as info:
        run_cluster_solve(
            deck, 1, 2, transport="socket", engine="tile", spawn="fork"
        )
    assert time.monotonic() - t0 < 10.0
    dump = info.value.flight_dump
    assert dump["reason"] == "rank-crash" and dump["entries"]
    assert not [
        p for p in mp.active_children() if p.name.startswith("cluster-rank-")
    ]
