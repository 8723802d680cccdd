"""The simulated communicator and its shared fabric.

:class:`Fabric` is the transport shared by all ranks of one job: a
per-destination list of pending envelopes guarded by one condition
variable.  Ranks run in real threads (:mod:`repro.mpi.runtime`); a
blocking receive waits on the condition.

Deadlock is detected *exactly*, not by timeout: when every live rank is
blocked in a receive and no pending message matches any of them, no
progress is possible, so the fabric raises :class:`DeadlockError` in
every blocked rank.  This catches the classic wavefront bug -- receiving
from the wrong neighbour for a reversed-direction octant -- determinis-
tically in tests.

:class:`SimComm` exposes the MPI subset Sweep3D uses (blocking and
non-blocking point-to-point, barrier, broadcast, reduce, allreduce,
gather) with the spellings of the usual Python MPI bindings.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import CommunicatorError, DeadlockError
from .datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    Envelope,
    Status,
    freeze_payload,
    payload_count,
)


class Fabric:
    """Shared in-process transport for one simulated job."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise CommunicatorError(f"job size must be >= 1, got {size}")
        self.size = size
        self._pending: dict[int, list[Envelope]] = {r: [] for r in range(size)}
        self._cond = threading.Condition()
        #: ranks currently blocked in recv, with their (source, tag) want
        self._blocked: dict[int, tuple[int, int]] = {}
        #: ranks that have finished their program
        self._done: set[int] = set()
        self._dead = False
        # collectives bookkeeping
        self._barrier_gen = 0
        self._barrier_count = 0

    # -- deadlock bookkeeping -------------------------------------------------

    def _progress_possible(self) -> bool:
        """Can any blocked rank be satisfied by a pending message?"""
        for rank, (src, tag) in self._blocked.items():
            if any(env.matches(src, tag) for env in self._pending[rank]):
                return True
        return False

    def _check_deadlock(self) -> None:
        live = self.size - len(self._done)
        if (
            live > 0
            and len(self._blocked) == live
            and not self._progress_possible()
        ):
            self._dead = True
            self._cond.notify_all()

    def mark_done(self, rank: int) -> None:
        with self._cond:
            self._done.add(rank)
            self._check_deadlock()

    # -- point to point ---------------------------------------------------------

    def post(self, env: Envelope) -> None:
        if not 0 <= env.dest < self.size:
            raise CommunicatorError(
                f"destination {env.dest} outside job of size {self.size}"
            )
        with self._cond:
            if self._dead:
                raise DeadlockError("communication fabric is dead")
            self._pending[env.dest].append(env)
            self._cond.notify_all()

    def take(self, rank: int, source: int, tag: int) -> Envelope:
        with self._cond:
            while True:
                if self._dead:
                    raise DeadlockError(
                        f"deadlock: rank {rank} waiting on (source={source}, "
                        f"tag={tag}) with no sender able to satisfy it"
                    )
                box = self._pending[rank]
                match = next((e for e in box if e.matches(source, tag)), None)
                if match is not None:
                    box.remove(match)
                    return match
                self._blocked[rank] = (source, tag)
                self._check_deadlock()
                if self._dead:
                    continue
                self._cond.wait()
                self._blocked.pop(rank, None)

    def probe(self, rank: int, source: int, tag: int) -> bool:
        with self._cond:
            return any(e.matches(source, tag) for e in self._pending[rank])

    # -- barrier -----------------------------------------------------------------

    def barrier(self, rank: int) -> None:
        with self._cond:
            gen = self._barrier_gen
            self._barrier_count += 1
            if self._barrier_count == self.size - len(self._done):
                self._barrier_count = 0
                self._barrier_gen += 1
                # waiters of this generation are released *now*; drop them
                # from the blocked set so a racing mark_done cannot count
                # a released-but-not-yet-scheduled waiter as deadlocked.
                want = (ANY_SOURCE, -barrier_tag(gen))
                self._blocked = {
                    r: w for r, w in self._blocked.items() if w != want
                }
                self._cond.notify_all()
                return
            self._blocked[rank] = (ANY_SOURCE, -barrier_tag(gen))
            self._check_deadlock()
            while self._barrier_gen == gen and not self._dead:
                self._cond.wait()
            self._blocked.pop(rank, None)
            if self._barrier_gen == gen and self._dead:
                raise DeadlockError(f"deadlock at barrier (rank {rank})")


def barrier_tag(gen: int) -> int:
    """Pseudo-tag used only for deadlock bookkeeping of barriers."""
    return 1_000_000 + gen


#: User point-to-point tags must stay below this; each collective call
#: consumes one tag above it.
COLLECTIVE_TAG_BASE: int = 10_000_000


@dataclass
class Request:
    """Handle for a non-blocking operation."""

    _resolve: Callable[[], tuple[Any, Status | None]]
    _result: tuple[Any, Status | None] | None = None
    _done: bool = False

    def wait(self) -> Any:
        """Complete the operation and return its value (None for sends)."""
        if not self._done:
            self._result = self._resolve()
            self._done = True
        return self._result[0]

    def test(self) -> bool:
        """True once the operation has been completed by :meth:`wait`."""
        return self._done


class SimComm:
    """One rank's endpoint of the simulated communicator."""

    def __init__(self, rank: int, fabric: Fabric) -> None:
        if not 0 <= rank < fabric.size:
            raise CommunicatorError(f"rank {rank} outside job of size {fabric.size}")
        self.rank = rank
        self.fabric = fabric
        #: per-rank collective sequence number.  Collectives must be
        #: called in the same order on every rank (the usual SPMD rule);
        #: the sequence then gives each collective a unique tag, so two
        #: back-to-back gathers with ANY_SOURCE cannot steal each other's
        #: messages.
        self._coll_seq = 0

    @property
    def size(self) -> int:
        return self.fabric.size

    # -- point to point ------------------------------------------------------------

    def send(self, data: Any, dest: int, tag: int = 0) -> None:
        """Buffered send: the payload is snapshotted and delivery is
        asynchronous (the common-case semantics of MPI_Send for the
        message sizes Sweep3D exchanges)."""
        if tag < 0:
            raise CommunicatorError(f"tags must be >= 0, got {tag}")
        self.fabric.post(
            Envelope(self.rank, dest, tag, freeze_payload(data))
        )

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: bool = False
    ) -> Any:
        """Blocking receive; returns the payload (and a :class:`Status`
        when ``status=True``)."""
        env = self.fabric.take(self.rank, source, tag)
        if status:
            return env.payload, Status(env.source, env.tag, payload_count(env.payload))
        return env.payload

    def isend(self, data: Any, dest: int, tag: int = 0) -> Request:
        self.send(data, dest, tag)
        return Request(lambda: (None, None), _result=(None, None), _done=True)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        return Request(lambda: (self.recv(source, tag), None))

    def sendrecv(
        self, data: Any, dest: int, recv_source: int, tag: int = 0
    ) -> Any:
        """Combined send+receive (deadlock-free neighbour exchange)."""
        self.send(data, dest, tag)
        return self.recv(recv_source, tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        return self.fabric.probe(self.rank, source, tag)

    # -- collectives ---------------------------------------------------------------

    def barrier(self) -> None:
        self.fabric.barrier(self.rank)

    def _collective_tag(self) -> int:
        tag = COLLECTIVE_TAG_BASE + self._coll_seq
        self._coll_seq += 1
        return tag

    def bcast(self, data: Any, root: int = 0) -> Any:
        tag = self._collective_tag()
        if self.rank == root:
            for dest in range(self.size):
                if dest != root:
                    self.send(data, dest, tag)
            return data
        return self.recv(root, tag)

    def gather(self, data: Any, root: int = 0) -> list[Any] | None:
        tag = self._collective_tag()
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = freeze_payload(data)
            for _ in range(self.size - 1):
                payload, status = self.recv(ANY_SOURCE, tag, status=True)
                out[status.source] = payload
            return out
        self.send(data, root, tag)
        return None

    def reduce(self, data: Any, op: Callable[[Any, Any], Any], root: int = 0) -> Any:
        gathered = self.gather(data, root)
        if self.rank != root:
            return None
        acc = gathered[0]
        for item in gathered[1:]:
            acc = op(acc, item)
        return acc

    def allreduce(self, data: Any, op: Callable[[Any, Any], Any]) -> Any:
        return self.bcast(self.reduce(data, op, root=0), root=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimComm(rank={self.rank}, size={self.size})"
