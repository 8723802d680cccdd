"""The in-process rank fabric: matching, ordering, exact deadlock.

Rank programs run under :meth:`repro.cluster.transport.LocalFabric.run`,
one thread per rank, on the endpoint surface every transport shares:
buffered ``send(dest, tag, array)``, a ``flush`` that delivers, and a
blocking ``recv(src, tag)``.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.cluster.transport import LocalFabric
from repro.errors import ClusterError, DeadlockError


def run(size, program):
    return LocalFabric(size).run(program)


class TestPointToPoint:
    def test_send_recv_array(self):
        def program(ep):
            if ep.rank == 0:
                ep.send(1, 7, np.arange(5.0))
                ep.flush()
                return None
            return ep.recv(0, 7)

        results = run(2, program)
        np.testing.assert_array_equal(results[1], np.arange(5.0))

    def test_payload_is_snapshotted(self):
        """Mutating the send buffer after send must not corrupt the
        message (MPI buffered-send semantics)."""

        def program(ep):
            if ep.rank == 0:
                data = np.ones(4)
                ep.send(1, 0, data)
                data[:] = -1.0
                ep.flush()
                return None
            return ep.recv(0, 0)

        results = run(2, program)
        np.testing.assert_array_equal(results[1], np.ones(4))

    def test_tag_matching_selects_message(self):
        def program(ep):
            if ep.rank == 0:
                ep.send(1, 10, np.array([1.0]))
                ep.send(1, 20, np.array([2.0]))
                ep.flush()
                return None
            second = ep.recv(0, 20)
            first = ep.recv(0, 10)
            return float(first[0]), float(second[0])

        results = run(2, program)
        assert results[1] == (1.0, 2.0)

    def test_non_overtaking_same_tag(self):
        def program(ep):
            if ep.rank == 0:
                for v in range(5):
                    ep.send(1, 3, np.array([float(v)]))
                    if v % 2:
                        ep.flush()  # order holds within and across frames
                ep.flush()
                return None
            return [float(ep.recv(0, 3)[0]) for _ in range(5)]

        results = run(2, program)
        assert results[1] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_bad_destination_rejected(self):
        def program(ep):
            ep.send(5, 0, np.zeros(1))

        with pytest.raises(ClusterError, match="destination 5"):
            run(2, program)


class TestDeadlockDetection:
    """Every case runs at the default 600-s ``recv_timeout``: the fabric
    must raise at once, by rule, not by waiting."""

    def test_mutual_recv_detected(self):
        def program(ep):
            ep.recv(1 - ep.rank, 0)

        with pytest.raises(DeadlockError):
            run(2, program)

    def test_recv_from_finished_rank_detected(self):
        def program(ep):
            if ep.rank == 1:
                ep.recv(0, 42)

        with pytest.raises(DeadlockError):
            run(2, program)

    def test_wrong_tag_detected(self):
        def program(ep):
            if ep.rank == 0:
                ep.send(1, 1, np.zeros(1))
                ep.flush()
            else:
                ep.recv(0, 2)

        with pytest.raises(DeadlockError):
            run(2, program)

    def test_no_false_positive_under_load(self):
        def program(ep):
            for round_ in range(20):
                if ep.rank == 0:
                    ep.send(1, round_, np.array([float(round_)]))
                    ep.flush()
                else:
                    ep.recv(0, round_)
            return True

        assert run(2, program) == [True, True]

    def test_no_false_positive_under_switch_churn(self):
        """Eight ranks (more than cores) pass a face round a ring while
        the interpreter switches threads every microsecond: a race in
        the deadlock rule would raise DeadlockError here."""
        rounds = 203

        def program(ep):
            value = np.array([float(ep.rank)])
            for r in range(rounds):
                ep.send((ep.rank + 1) % ep.size, r, value)
                ep.flush()
                value = ep.recv((ep.rank - 1) % ep.size, r)
            return float(value[0])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = LocalFabric(8, recv_timeout=30.0).run(program)
        finally:
            sys.setswitchinterval(old)
        assert results == [float((r - rounds) % 8) for r in range(8)]


class TestFabricValidation:
    def test_bad_size(self):
        with pytest.raises(ClusterError):
            LocalFabric(0)

    def test_bad_rank(self):
        with pytest.raises(ClusterError):
            LocalFabric(2).endpoint(3)

    def test_rank_exception_propagates(self):
        def program(ep):
            if ep.rank == 1:
                raise ValueError("boom")
            return True

        with pytest.raises(ClusterError, match="rank 1 failed") as info:
            run(2, program)
        assert isinstance(info.value.__cause__, ValueError)

    def test_failure_aborts_blocked_receives(self):
        """The first failure aborts the job: a rank blocked on the dead
        rank raises at once, although a third rank, busy outside the
        fabric, keeps the deadlock rule from firing."""
        released = threading.Event()

        def program(ep):
            if ep.rank == 0:
                raise ValueError("boom")
            if ep.rank == 1:
                try:
                    ep.recv(0, 0)
                finally:
                    released.set()
            else:
                released.wait(10.0)

        t0 = time.monotonic()
        with pytest.raises(ClusterError, match="rank 0 failed"):
            run(3, program)
        assert time.monotonic() - t0 < 5.0
