"""Fuzz tests for the in-process rank fabric (``LocalFabric.run``).

Property: any traffic pattern in which every receive has a matching send
(and vice versa) completes without deadlock and delivers payloads
correctly; any pattern with an unmatched receive deadlocks exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError
from repro.cluster.transport import LocalFabric


@st.composite
def traffic(draw, max_ranks=4, max_msgs=12):
    """A random matched traffic pattern: a list of (src, dst, tag)."""
    size = draw(st.integers(min_value=2, max_value=max_ranks))
    n = draw(st.integers(min_value=1, max_value=max_msgs))
    msgs = [
        (
            draw(st.integers(0, size - 1)),
            draw(st.integers(0, size - 1)),
            draw(st.integers(0, 5)),
            i,  # unique payload id
        )
        for i in range(n)
    ]
    msgs = [(s, d, t, i) for s, d, t, i in msgs if s != d]
    return size, msgs


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(traffic())
def test_matched_traffic_never_deadlocks(pattern):
    size, msgs = pattern

    def program(ep):
        # sends first (buffered), then receives in arrival-agnostic order
        for s, d, t, i in msgs:
            if s == ep.rank:
                ep.send(d, t, np.array([float(i)]))
        ep.flush()
        got = []
        for s, d, t, i in msgs:
            if d == ep.rank:
                payload = ep.recv(s, t)
                got.append((s, t, float(payload[0])))
        return got

    results = LocalFabric(size).run(program)
    # every message delivered exactly once with the right payload
    delivered = [item for sub in results if sub for item in sub]
    assert len(delivered) == len(msgs)
    by_id = {i: (s, t) for s, d, t, i in msgs}
    for s, t, payload in delivered:
        assert by_id[int(payload)] == (s, t)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(traffic(), st.data())
def test_dropping_one_send_deadlocks(pattern, data):
    size, msgs = pattern
    if not msgs:
        return
    dropped = data.draw(st.integers(0, len(msgs) - 1))

    def program(ep):
        for idx, (s, d, t, i) in enumerate(msgs):
            if s == ep.rank and idx != dropped:
                ep.send(d, t, np.array([float(i)]))
        ep.flush()
        for s, d, t, i in msgs:
            if d == ep.rank:
                ep.recv(s, t)

    with pytest.raises(DeadlockError):
        LocalFabric(size).run(program)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=4))
def test_ring_rotations_complete(size, rounds):
    """Classic ring exchange, many rounds: each rank's value travels the
    whole ring and returns."""

    def program(ep):
        value = np.array([float(ep.rank)])
        right = (ep.rank + 1) % ep.size
        left = (ep.rank - 1) % ep.size
        for r in range(rounds * ep.size):
            ep.send(right, r, value)
            ep.flush()
            value = ep.recv(left, r)
        return float(value[0])

    results = LocalFabric(size).run(program)
    assert results == [float(r) for r in range(size)]
