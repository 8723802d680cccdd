"""Cluster metrics: exact tick attribution and registry counters."""

from __future__ import annotations

import pytest

from repro.metrics.attribution import (
    TICKS_PER_SECOND,
    ClusterAttribution,
    cluster_attribution,
    ingest_rank_transport,
    rank_metric,
)
from repro.metrics.registry import MetricsRegistry


def _stats(msgs=4, nbytes=512, send=0.25, recv=1.0):
    return {
        "msgs_sent": msgs, "msgs_recv": msgs,
        "bytes_sent": nbytes, "bytes_recv": nbytes,
        "frames_sent": 2, "frames_recv": 2,
        "send_wait_s": send, "recv_wait_s": recv,
    }


def test_ingest_is_exact_in_integer_ticks():
    reg = MetricsRegistry()
    ingest_rank_transport(reg, 0, _stats(), span_s=2.0)
    assert reg.get(rank_metric(0, "span_ticks")) == 2 * TICKS_PER_SECOND
    assert reg.get(rank_metric(0, "send_wait_ticks")) == 250_000
    assert reg.get(rank_metric(0, "recv_wait_ticks")) == 1_000_000
    assert reg.get("cluster.msgs_sent") == 4
    assert reg.get("cluster.bytes_sent") == 512


def test_waits_clamped_to_span():
    """A rank can never wait longer than it existed: single clamp at
    ingestion keeps compute = span - send - recv non-negative."""
    reg = MetricsRegistry()
    ingest_rank_transport(reg, 1, _stats(send=5.0, recv=5.0), span_s=1.0)
    att = cluster_attribution(reg.counters, size=2)
    att.verify()
    r = att.per_rank[1]
    assert r.send_wait == TICKS_PER_SECOND
    assert r.recv_wait == 0
    assert r.compute == 0


def test_attribution_sums_exactly():
    reg = MetricsRegistry()
    ingest_rank_transport(reg, 0, _stats(send=0.1, recv=0.3), span_s=1.7)
    ingest_rank_transport(reg, 1, _stats(send=0.2, recv=0.6), span_s=2.3)
    att = cluster_attribution(reg.counters, size=2)
    att.verify()
    spans = sum(
        reg.get(rank_metric(r, "span_ticks")) for r in range(2)
    )
    assert att.total_ticks == spans
    assert sum(att.bucket_totals.values()) == spans
    for r in att.per_rank:
        assert r.send_wait + r.recv_wait + r.compute == (
            reg.get(rank_metric(r.rank, "span_ticks"))
        )


def test_verify_rejects_negative_compute():
    att = ClusterAttribution.__new__(ClusterAttribution)
    from repro.metrics.attribution import RankTransportTicks

    object.__setattr__(att, "per_rank", (
        RankTransportTicks(rank=0, send_wait=10, recv_wait=10, compute=-1),
    ))
    with pytest.raises(AssertionError):
        att.verify()


def test_cluster_solve_feeds_registry():
    """A real local-transport solve lands exact counters in the
    driver's registry, and the attribution verifies."""
    from repro.cluster.driver import run_cluster_solve
    from repro.sweep.input import small_deck

    deck = small_deck(n=8, sn=4, nm=2, iterations=2)
    report = run_cluster_solve(deck, 2, 2, transport="local", engine="tile")
    reg = report.registry
    assert reg.get("cluster.msgs_sent") == report.msgs_sent
    assert reg.get("cluster.msgs_recv") == report.msgs_sent
    assert reg.get("cluster.bytes_sent") == report.bytes_sent
    att = cluster_attribution(reg.counters, size=report.size)
    att.verify()
    assert att.total_ticks > 0


def test_threaded_cluster_counts_messages():
    """The in-process threaded runtime counts the same cluster.*
    registry names, and exactly what the analytic projection predicts."""
    from repro.core.cluster import CellClusterSweep3D
    from repro.core.projections import cluster_projection
    from repro.cluster.driver import default_cluster_config
    from repro.sweep.input import small_deck

    deck = small_deck(n=8, sn=4, nm=2, iterations=2)
    cfg = default_cluster_config().with_(metrics=True)
    with CellClusterSweep3D(deck, P=2, Q=2, config=cfg) as cluster:
        cluster.solve()
        counts = cluster.aggregate_metrics().to_dict()["counters"]
        cluster.cycle_attribution().verify()
    projection = cluster_projection(deck, default_cluster_config(), 2, 2)
    assert counts["cluster.msgs_sent"] == projection.msgs_per_solve
    assert counts["cluster.msgs_recv"] == projection.msgs_per_solve
    assert counts["cluster.bytes_sent"] == projection.bytes_per_solve
    assert counts["cluster.bytes_recv"] == projection.bytes_per_solve
