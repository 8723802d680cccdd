"""Fair-queueing and admission-control properties (deterministic, no sockets).

The fair queue is pure virtual-time arithmetic -- no wall clock, no
threads -- so these are exact properties, not statistical ones: a
saturated queue must 429 *without touching the pool*, and interleaved
small/large job streams must both make progress under any adversarial
arrival pattern the tests can construct.
"""

from __future__ import annotations

import pytest

from repro.serve.jobs import JobStore
from repro.serve.queueing import (
    AdmissionPolicy,
    DeckTooLargeError,
    FairQueue,
    QueueFullError,
    ServeLimits,
    size_class,
)


class FakeClock:
    """A deterministic manual clock for store timestamps."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestSizeClass:
    def test_boundaries(self):
        assert size_class(16 ** 3) == "small"
        assert size_class(20 ** 3) == "small"
        assert size_class(24 ** 3) == "medium"
        assert size_class(32 ** 3) == "medium"
        assert size_class(50 ** 3) == "large"


class TestFairQueue:
    def test_fifo_within_a_class(self):
        q = FairQueue()
        for i in range(10):
            q.push(f"job{i}", cost=1.0, klass="small")
        assert [q.pop() for _ in range(10)] == [f"job{i}" for i in range(10)]

    def test_large_job_not_starved_by_small_stream(self):
        """An endless arrival stream of small jobs cannot hold one
        large job back forever: the smalls' virtual finish tags grow
        with every job served, the large job's tag is fixed."""
        q = FairQueue(weights={"small": 4.0, "large": 1.0})
        q.push("LARGE", cost=8.0, klass="large")  # finish tag 8.0
        popped = []
        for i in range(200):
            q.push(f"s{i}", cost=1.0, klass="small")
            popped.append(q.pop())
            if "LARGE" in popped:
                break
        assert "LARGE" in popped, "large job starved behind small stream"
        # it must run once the small class has consumed its fair share:
        # smalls accumulate 0.25 virtual units each, so the large tag
        # (8.0) is reached after at most 32 smalls.
        assert popped.index("LARGE") <= 33

    def test_small_jobs_not_starved_by_large_backlog(self):
        """A backlog of huge jobs cannot block the small stream: only
        one large job's cost is charged to the virtual clock at a time."""
        q = FairQueue(weights={"small": 4.0, "large": 1.0})
        for i in range(5):
            q.push(f"L{i}", cost=50.0, klass="large")
        for i in range(5):
            q.push(f"s{i}", cost=1.0, klass="small")
        order = [q.pop() for _ in range(10)]
        # every small job is dispatched before the *second* large one
        assert order.index("L1") > max(order.index(f"s{i}") for i in range(5))

    def test_interleaved_classes_share_by_weight(self):
        """With equal per-job cost and weights 2:1, a backlogged pair of
        classes is served ~2:1 over any window."""
        q = FairQueue(weights={"a": 2.0, "b": 1.0})
        for i in range(30):
            q.push(("a", i), cost=1.0, klass="a")
            q.push(("b", i), cost=1.0, klass="b")
        first12 = [q.pop()[0] for _ in range(12)]
        assert first12.count("a") == 8 and first12.count("b") == 4

    def test_deterministic_replay(self):
        """Identical push/pop sequences produce identical dispatch
        orders -- there is no hidden wall-clock or randomness."""
        def run():
            q = FairQueue()
            out = []
            for i in range(20):
                q.push(("small", i), cost=1.0 + (i % 3), klass="small")
                if i % 2:
                    q.push(("large", i), cost=30.0, klass="large")
                if i % 4 == 3:
                    out.append(q.pop())
            while q:
                out.append(q.pop())
            return out

        assert run() == run()

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FairQueue().pop()

    def test_unknown_class_defaults_to_weight_one(self):
        q = FairQueue(weights={"small": 4.0})
        q.push("x", cost=1.0, klass="mystery")
        assert q.pop() == "x"


class TestAdmission:
    def test_queue_depth_limit(self):
        policy = AdmissionPolicy(ServeLimits(max_queue_depth=2))
        policy.check_queue(0)
        policy.check_queue(1)
        with pytest.raises(QueueFullError):
            policy.check_queue(2)

    def test_deck_limit(self):
        policy = AdmissionPolicy(ServeLimits(max_cells=16 ** 3))
        policy.check_deck(16 ** 3)
        with pytest.raises(DeckTooLargeError):
            policy.check_deck(17 ** 3)


class TestSaturatedQueueNeverTouchesThePool:
    """The 429 path must be O(1): no job object, no pool traffic."""

    def test_submit_rejects_without_pool_traffic(self):
        from repro.parallel.pool import PersistentPool
        from repro.serve.app import ServeApp
        from repro.serve.runner import SolveRunner

        with PersistentPool(persistent=True) as pool:
            app = ServeApp(
                runner=SolveRunner(pool=pool, workers=1),
                limits=ServeLimits(max_queue_depth=2, max_concurrent=1),
            )
            # the scheduler is not running: submissions stay queued
            doc = {"cube": 6, "sn": 4, "nm": 2, "iterations": 1}
            app.submit(dict(doc))
            app.submit(dict(doc))
            before = dict(pool.metrics.counters)
            with pytest.raises(QueueFullError):
                app.submit(dict(doc))
            assert dict(pool.metrics.counters) == before
            assert pool.parked_worker_sets == 0
            assert app.registry.get("serve.jobs_rejected.queue_full") == 1
            assert app.registry.get("serve.jobs_accepted") == 2
            assert len(app.store) == 2, "rejected job must not enter the store"

    def test_draining_rejects_with_503_semantics(self):
        from repro.serve.app import ServeApp
        from repro.serve.queueing import DrainingError
        from repro.serve.runner import SolveRunner
        from repro.parallel.pool import PersistentPool

        with PersistentPool(persistent=True) as pool:
            app = ServeApp(runner=SolveRunner(pool=pool, workers=1))
            app.draining = True
            with pytest.raises(DrainingError):
                app.submit({"cube": 6})
            assert app.registry.get("serve.jobs_rejected.draining") == 1


class TestJobStoreWithFakeClock:
    def test_lifecycle_timestamps(self):
        clock = FakeClock()
        store = JobStore(clock=clock)
        job = store.create("t", "nx = 4\nny = 4\nnz = 4\n", "tiny",
                           cost=1.0, isa=False, metrics=False)
        clock.advance(2.0)
        store.mark_running(job.id, total_units=10)
        clock.advance(3.0)
        store.mark_done(job.id, {"flux": {}})
        doc = store.get(job.id)
        assert doc["queue_seconds"] == 2.0
        assert doc["solve_seconds"] == 3.0
        assert doc["state"] == "done"

    def test_event_log_sequencing_and_throttle(self):
        clock = FakeClock()
        store = JobStore(clock=clock)
        job = store.create("t", "", "tiny", cost=1.0,
                           isa=False, metrics=False)
        store.mark_running(job.id, total_units=1000)
        for _ in range(1000):
            store.tick(job.id)
        store.mark_done(job.id, {})
        events, terminal = store.events_after(job.id, -1)
        assert terminal
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        progress = [e for e in events if "progress" in e]
        # throttled to ~1 per percent, not one per tick
        assert 90 <= len(progress) <= 110
        assert progress[-1]["progress"] == 1000
        # incremental reads resume exactly after the last seen seq
        later, _ = store.events_after(job.id, seqs[-2])
        assert [e["seq"] for e in later] == [seqs[-1]]

    def test_unknown_job(self):
        from repro.serve.jobs import UnknownJobError

        with pytest.raises(UnknownJobError):
            JobStore().get("job-999")
