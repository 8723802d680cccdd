"""A crashed rank fails the job fast and leaves no process or thread
behind, on either transport."""

from __future__ import annotations

import multiprocessing as mp
import threading
import time

import pytest

from repro.cluster import runtime
from repro.cluster.driver import run_cluster_solve
from repro.errors import ClusterError
from repro.sweep.input import small_deck


def _crash_rank0(monkeypatch):
    real = runtime.run_rank_solve

    def crash_rank0(manifest, endpoint, barrier):
        if endpoint.rank == 0:
            raise RuntimeError("injected rank failure")
        return real(manifest, endpoint, barrier)

    monkeypatch.setattr(runtime, "run_rank_solve", crash_rank0)


def test_crashed_rank_raises_fast_and_reaps_the_survivor(monkeypatch):
    """Rank 0 dies inside its solve; rank 1 is then blocked in a face
    ``recv`` on it (for ``recv_timeout``, 600 s by default) and ignores
    SIGTERM.  The driver must surface the CRASH report with the rank's
    flight dump and SIGKILL the survivor, not wait it out."""
    # patched before the fork, so every rank process inherits it
    _crash_rank0(monkeypatch)
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


def test_local_rank_crash_fails_fast(monkeypatch):
    """The same failure on rank threads, at the default 600-s
    ``recv_timeout``: the fabric aborts on the first failure, so rank 1
    stops waiting on its dead upstream at once."""
    _crash_rank0(monkeypatch)
    deck = small_deck(n=8, sn=4, nm=2, iterations=2)
    t0 = time.monotonic()
    with pytest.raises(ClusterError, match="rank 0 failed.*injected"):
        run_cluster_solve(deck, 1, 2, transport="local", engine="tile")
    assert time.monotonic() - t0 < 10.0
    assert not [
        t for t in threading.enumerate()
        if t.name.startswith("cluster-local-")
    ]
