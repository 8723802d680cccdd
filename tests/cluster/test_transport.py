"""Transport endpoints: coalescing, stats, ordering, timeouts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.transport import (
    LocalFabric,
    SocketEndpoint,
    TransportStats,
)
from repro.errors import ClusterError


def test_local_fabric_round_trip(rng):
    fabric = LocalFabric(2)
    a, b = fabric.endpoint(0), fabric.endpoint(1)
    msg = rng.standard_normal((3, 2, 4))
    a.send(1, 7, msg)
    a.flush()
    got = b.recv(0, 7)
    np.testing.assert_array_equal(msg, got)
    assert a.stats.msgs_sent == 1
    assert a.stats.bytes_sent == msg.nbytes
    assert b.stats.msgs_recv == 1
    assert b.stats.bytes_recv == msg.nbytes


def test_local_send_copies_at_send(rng):
    """The sweeper may overwrite its buffer right after send()."""
    fabric = LocalFabric(2)
    a, b = fabric.endpoint(0), fabric.endpoint(1)
    msg = rng.standard_normal((2, 2))
    want = msg.copy()
    a.send(1, 0, msg)
    msg[:] = -1.0  # mutate before flush: must not reach the receiver
    a.flush()
    np.testing.assert_array_equal(want, b.recv(0, 0))


def test_local_coalesces_one_frame_per_destination(rng):
    fabric = LocalFabric(3)
    a = fabric.endpoint(0)
    fabric.endpoint(1), fabric.endpoint(2)
    for tag in range(4):
        a.send(1, tag, rng.standard_normal((2,)))
    a.send(2, 0, rng.standard_normal((2,)))
    a.flush()
    assert a.stats.msgs_sent == 5
    assert a.stats.frames_sent == 2  # one per destination, not per message


def test_local_recv_timeout():
    fabric = LocalFabric(2)
    fabric.endpoint(0)
    b = fabric.endpoint(1)
    b.recv_timeout = 0.05
    with pytest.raises(ClusterError):
        b.recv(0, 3)


def _wire_pair(recv_timeout=30.0):
    a = SocketEndpoint(0, 2, recv_timeout=recv_timeout)
    b = SocketEndpoint(1, 2, recv_timeout=recv_timeout)
    addrs = {0: ("127.0.0.1", a.port), 1: ("127.0.0.1", b.port)}
    a.wire(addrs)
    b.wire(addrs)
    return a, b


def test_socket_round_trip_bit_exact(rng):
    a, b = _wire_pair()
    try:
        msg = rng.standard_normal((3, 4, 5))
        a.send(1, 42, msg)
        a.flush()
        got = b.recv(0, 42)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(msg, got)
    finally:
        a.close()
        b.close()


def test_socket_out_of_order_tags(rng):
    """The mailbox matches (src, tag), not arrival order."""
    a, b = _wire_pair()
    try:
        msgs = {tag: rng.standard_normal((2, 2)) for tag in (5, 1, 9)}
        for tag, msg in msgs.items():
            a.send(1, tag, msg)
        a.flush()
        for tag in (9, 5, 1):  # ask in a different order than sent
            np.testing.assert_array_equal(msgs[tag], b.recv(0, tag))
    finally:
        a.close()
        b.close()


def test_socket_duplex_and_stats(rng):
    a, b = _wire_pair()
    try:
        out = rng.standard_normal((4,))
        back = rng.standard_normal((6,))
        a.send(1, 0, out)
        a.flush()
        b.send(0, 0, back)
        b.flush()
        np.testing.assert_array_equal(out, b.recv(0, 0))
        np.testing.assert_array_equal(back, a.recv(1, 0))
        assert a.stats.msgs_sent == 1 and a.stats.msgs_recv == 1
        assert a.stats.bytes_sent == out.nbytes
        assert a.stats.bytes_recv == back.nbytes
        # framing overhead is accounted separately from payload bytes
        d = a.stats.to_dict()
        assert d["bytes_sent"] == out.nbytes
        assert 0.0 <= d["overlap_ratio"] <= 1.0
    finally:
        a.close()
        b.close()
        assert a.stats.wire_bytes > a.stats.bytes_sent


def test_socket_coalescing_batches_frames(rng):
    a, b = _wire_pair()
    try:
        for tag in range(6):
            a.send(1, tag, rng.standard_normal((3,)))
        a.flush()
        for tag in range(6):
            b.recv(0, tag)
        assert a.stats.msgs_sent == 6
        assert b.stats.frames_recv == 1  # one coalesced frame on the wire
    finally:
        a.close()
        b.close()


def test_socket_recv_timeout():
    a, b = _wire_pair(recv_timeout=0.05)
    try:
        with pytest.raises(ClusterError):
            b.recv(0, 1)
    finally:
        a.close()
        b.close()


def test_socket_rejects_unknown_destination(rng):
    a = SocketEndpoint(0, 2)
    try:
        with pytest.raises(ClusterError):
            a.send(5, 0, rng.standard_normal((2,)))
    finally:
        a.close()


def test_socket_close_is_prompt_and_idempotent():
    import time

    a, b = _wire_pair()
    t0 = time.perf_counter()
    a.close()
    b.close()
    a.close()  # second close is a no-op
    assert time.perf_counter() - t0 < 5.0


def test_overlap_ratio_degenerate_cases():
    assert TransportStats().overlap_ratio == 1.0
    s = TransportStats(wire_s=2.0, send_wait_s=0.5)
    assert s.overlap_ratio == 0.75
    s = TransportStats(wire_s=1.0, send_wait_s=3.0)
    assert s.overlap_ratio == 0.0

