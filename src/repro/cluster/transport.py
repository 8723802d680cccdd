"""Rank-to-rank transports behind the face-message interface.

Every transport exposes the same tiny endpoint surface the KBA boundary
needs -- tagged point-to-point face messages between ranks of one job:

* ``send(dest, tag, array)`` buffers a face toward ``dest`` (eager:
  the compute thread never blocks on the wire);
* ``flush()`` closes the current coalescing step: everything buffered
  since the last flush travels as **one frame per destination** (the
  per-(octant, angle-block, K-block) step seam the boundary drives);
* ``recv(src, tag)`` blocks until the matching face arrived (lazy:
  receives complete whenever the reader thread already banked them, so
  I/J-face sends overlap the next diagonal's compute).

Two implementations:

:class:`LocalFabric` / its endpoints -- the in-process fabric: rank
threads, condition-variable mailboxes, zero wire cost (payloads are
copied at send).  :meth:`LocalFabric.run` is the one in-process rank
runtime: the first failing rank aborts the job, and deadlock is detected
exactly rather than by timeout.

:class:`SocketEndpoint` -- TCP over loopback or a real network: one
listening data socket per rank process, a sender thread draining an
unbounded frame queue (eager send), an acceptor + per-connection reader
threads filling the mailbox (lazy recv), length-prefixed frames from
:mod:`repro.cluster.frames`.

Every endpoint keeps a :class:`TransportStats`: message/byte counters
for both directions plus the three wall-clock buckets the overlap story
needs -- ``send_wait_s`` (compute thread handing frames to the wire;
measured with :func:`time.thread_time` so scheduler preemption on an
oversubscribed host is not charged to the transport), ``recv_wait_s``
(compute thread blocked waiting for a face, wall clock) and ``wire_s``
(wire busy, wall clock).  ``overlap_ratio`` is the fraction of wire
time hidden behind compute: ~1.0 for the eager socket sender, ~0.0 for
a blocking transport.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

import numpy as np

from ..errors import ClusterError, DeadlockError
from .frames import (
    KIND_DATA,
    frame_bytes,
    pack_messages,
    recv_frame,
    unpack_messages,
)

#: seconds a blocking receive waits before declaring the job wedged
DEFAULT_RECV_TIMEOUT = 600.0


@dataclass
class TransportStats:
    """Per-endpoint traffic and wait accounting (see module docstring)."""

    msgs_sent: int = 0
    msgs_recv: int = 0
    #: face payload bytes (raw float64), the quantity the analytic
    #: model predicts exactly; framing overhead is ``wire_bytes``
    bytes_sent: int = 0
    bytes_recv: int = 0
    frames_sent: int = 0
    frames_recv: int = 0
    wire_bytes: int = 0
    send_wait_s: float = 0.0
    recv_wait_s: float = 0.0
    wire_s: float = 0.0

    @property
    def overlap_ratio(self) -> float:
        """Fraction of wire time hidden behind compute."""
        if self.wire_s <= 0.0:
            return 1.0
        return max(self.wire_s - self.send_wait_s, 0.0) / self.wire_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "msgs_sent": self.msgs_sent,
            "msgs_recv": self.msgs_recv,
            "bytes_sent": self.bytes_sent,
            "bytes_recv": self.bytes_recv,
            "frames_sent": self.frames_sent,
            "frames_recv": self.frames_recv,
            "wire_bytes": self.wire_bytes,
            "send_wait_s": self.send_wait_s,
            "recv_wait_s": self.recv_wait_s,
            "wire_s": self.wire_s,
            "overlap_ratio": self.overlap_ratio,
        }


class Endpoint(Protocol):
    """One rank's attachment to the fabric."""

    rank: int
    size: int
    stats: TransportStats

    def send(self, dest: int, tag: int, data: np.ndarray) -> None: ...
    def flush(self) -> None: ...
    def recv(self, src: int, tag: int) -> np.ndarray: ...
    def close(self) -> None: ...


# ---------------------------------------------------------------------------
# In-process transport
# ---------------------------------------------------------------------------


class _Mailbox:
    """Condition-variable mailbox keyed by ``(src, tag)``.

    ``lock`` lets several mailboxes share one lock, so a fabric can read
    all of them atomically (:class:`LocalFabric`'s deadlock rule).
    """

    def __init__(self, lock: threading.Lock | None = None) -> None:
        self._cond = threading.Condition(lock)
        self._boxes: dict[tuple[int, int], deque[np.ndarray]] = {}

    def put_many(self, items: list[tuple[int, int, np.ndarray]]) -> None:
        with self._cond:
            for src, tag, arr in items:
                self._boxes.setdefault((src, tag), deque()).append(arr)
            self._cond.notify_all()

    def pop(self, src: int, tag: int) -> np.ndarray | None:
        """The oldest face banked for ``(src, tag)``, or None; the caller
        holds the lock."""
        key = (src, tag)
        box = self._boxes.get(key)
        if not box:
            return None
        arr = box.popleft()
        if not box:
            del self._boxes[key]
        return arr

    def take(self, src: int, tag: int, timeout: float) -> np.ndarray:
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                arr = self.pop(src, tag)
                if arr is not None:
                    return arr
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClusterError(
                        f"recv timeout waiting for (src={src}, tag={tag})"
                    )
                self._cond.wait(remaining)


class LocalFabric:
    """Shared state of the in-process transport: one mailbox per rank,
    all behind one lock.

    Deadlock is detected *exactly*, not by timeout: when every live rank
    is blocked in :meth:`LocalEndpoint.recv` and no banked face matches
    any of them, no progress is possible, so every blocked receive raises
    :class:`~repro.errors.DeadlockError` -- the classic wavefront bug of
    receiving from the wrong neighbour for a reversed octant fails at
    once, deterministically.  A rank stops being live when its program
    returns under :meth:`run`; endpoints driven by hand stay live, so
    their receives can only time out.
    """

    def __init__(
        self, size: int, recv_timeout: float = DEFAULT_RECV_TIMEOUT
    ) -> None:
        if size < 1:
            raise ClusterError(f"job size must be >= 1, got {size}")
        self.size = size
        self.recv_timeout = recv_timeout
        self._lock = threading.Lock()
        self.mailboxes = [_Mailbox(self._lock) for _ in range(size)]
        #: ranks blocked in recv, with the (src, tag) each waits for
        self._blocked: dict[int, tuple[int, int]] = {}
        #: ranks whose program returned (or raised) under run()
        self._done: set[int] = set()
        self._deadlocked = False
        #: why the job was aborted (the first rank failure), if it was
        self._aborted: str | None = None

    def endpoint(self, rank: int) -> "LocalEndpoint":
        return LocalEndpoint(self, rank)

    # -- failure propagation (callers hold the lock) --------------------------

    def _wake_all(self) -> None:
        for box in self.mailboxes:
            box._cond.notify_all()

    def _check_deadlock(self) -> None:
        live = self.size - len(self._done)
        if live and len(self._blocked) == live and not any(
            key in self.mailboxes[rank]._boxes
            for rank, key in self._blocked.items()
        ):
            self._deadlocked = True
            self._wake_all()

    def _abort(self, reason: str) -> None:
        if self._aborted is None:
            self._aborted = reason
        self._wake_all()

    def take(self, rank: int, src: int, tag: int, timeout: float) -> np.ndarray:
        """Blocking receive for ``rank`` (see the class docstring)."""
        box = self.mailboxes[rank]
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                if self._deadlocked:
                    raise DeadlockError(
                        f"deadlock: rank {rank} waiting on (src={src}, "
                        f"tag={tag}) with no sender able to satisfy it"
                    )
                if self._aborted is not None:
                    raise ClusterError(f"cluster job aborted: {self._aborted}")
                arr = box.pop(src, tag)
                if arr is not None:
                    return arr
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClusterError(
                        f"recv timeout waiting for (src={src}, tag={tag})"
                    )
                self._blocked[rank] = (src, tag)
                self._check_deadlock()
                if not self._deadlocked:
                    box._cond.wait(remaining)
                del self._blocked[rank]

    def run(self, program: Callable[["LocalEndpoint"], Any]) -> list[Any]:
        """Run ``program(endpoint)`` for every rank, each on its own
        ``cluster-local-{r}`` thread; return the results in rank order.

        The first rank to fail aborts the fabric, so every blocked
        receive raises at once instead of waiting out ``recv_timeout``.
        That first failure is raised here: a :class:`DeadlockError` as
        it is, anything else as a :class:`ClusterError` naming the rank.
        """
        results: list[Any] = [None] * self.size
        failures: list[tuple[int, BaseException]] = []

        def body(rank: int) -> None:
            endpoint = self.endpoint(rank)
            try:
                results[rank] = program(endpoint)
            except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                with self._lock:
                    failures.append((rank, exc))
                    self._abort(f"rank {rank} failed: {exc!r}")
            finally:
                endpoint.close()
                with self._lock:
                    self._done.add(rank)
                    self._check_deadlock()

        threads = [
            threading.Thread(target=body, args=(r,), name=f"cluster-local-{r}")
            for r in range(self.size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if failures:
            rank, exc = failures[0]
            if isinstance(exc, DeadlockError):
                raise exc
            raise ClusterError(f"rank {rank} failed: {exc!r}") from exc
        return results


class LocalEndpoint:
    """In-process endpoint: delivery is a locked append, wire cost zero.

    Sends still go through the same per-destination coalescing buffer as
    the socket endpoint, so the message *accounting* (frames per step)
    is identical across transports.
    """

    def __init__(self, fabric: LocalFabric, rank: int) -> None:
        if not 0 <= rank < fabric.size:
            raise ClusterError(f"rank {rank} outside job of size {fabric.size}")
        self.fabric = fabric
        self.rank = rank
        self.size = fabric.size
        self.stats = TransportStats()
        self.recv_timeout = fabric.recv_timeout
        self._pending: dict[int, list[tuple[int, int, np.ndarray]]] = {}

    def send(self, dest: int, tag: int, data: np.ndarray) -> None:
        if not 0 <= dest < self.size:
            raise ClusterError(f"destination {dest} outside job of size {self.size}")
        # snapshot now: the sweeper may reuse the buffer before flush
        arr = np.array(data, dtype=np.float64, copy=True)
        self._pending.setdefault(dest, []).append((self.rank, tag, arr))
        self.stats.msgs_sent += 1
        self.stats.bytes_sent += arr.nbytes

    def flush(self) -> None:
        if not self._pending:
            return
        t0 = time.thread_time()
        for dest, items in self._pending.items():
            self.fabric.mailboxes[dest].put_many(items)
            self.stats.frames_sent += 1
        self._pending.clear()
        self.stats.send_wait_s += time.thread_time() - t0

    def recv(self, src: int, tag: int) -> np.ndarray:
        t0 = time.perf_counter()
        arr = self.fabric.take(self.rank, src, tag, self.recv_timeout)
        self.stats.recv_wait_s += time.perf_counter() - t0
        self.stats.msgs_recv += 1
        self.stats.bytes_recv += arr.nbytes
        return arr

    def close(self) -> None:
        self._pending.clear()


# ---------------------------------------------------------------------------
# Socket transport
# ---------------------------------------------------------------------------


class SocketEndpoint:
    """One rank process's TCP attachment to the job.

    Lifecycle: construct (binds the listening data socket; ``port`` is
    then known), exchange addresses out of band (the driver's rendezvous
    does this over the control channel), :meth:`wire` the peer table,
    sweep, :meth:`close`.

    Threads: one *sender* draining the outgoing frame queue (dialing
    each peer once, lazily), one *acceptor*, and one *reader* per inbound
    connection banking unpacked faces into the mailbox.  The compute
    thread only packs frames and appends to the queue -- an eager send
    whose wire time overlaps the next diagonal's compute.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        host: str = "127.0.0.1",
        recv_timeout: float = DEFAULT_RECV_TIMEOUT,
    ) -> None:
        self.rank = rank
        self.size = size
        self.host = host
        self.recv_timeout = recv_timeout
        self.stats = TransportStats()
        self._mailbox = _Mailbox()
        self._pending: dict[int, list[tuple[int, int, np.ndarray]]] = {}
        self._addrs: dict[int, tuple[str, int]] = {}
        self._out: dict[int, socket.socket] = {}
        self._outq: "queue.SimpleQueue[tuple[int, bytes] | None]" = (
            queue.SimpleQueue()
        )
        self._readers: list[threading.Thread] = []
        self._inbound: list[socket.socket] = []
        self._lock = threading.Lock()
        self._closed = False
        self._sender_err: BaseException | None = None

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(size + 4)
        self.port = self._listener.getsockname()[1]

        self._acceptor = threading.Thread(
            target=self._accept_loop, name=f"cluster-accept-{rank}", daemon=True
        )
        self._acceptor.start()
        self._sender = threading.Thread(
            target=self._send_loop, name=f"cluster-send-{rank}", daemon=True
        )
        self._sender.start()

    # -- wiring -------------------------------------------------------------

    def wire(self, addrs: dict[int, tuple[str, int]]) -> None:
        """Install the rank -> (host, port) table; peers are dialed
        lazily at first send."""
        self._addrs = dict(addrs)

    def _dial(self, dest: int) -> socket.socket:
        if dest not in self._addrs:
            raise ClusterError(f"rank {dest} has no wired address")
        host, port = self._addrs[dest]
        last: Exception | None = None
        for attempt in range(10):
            try:
                sock = socket.create_connection((host, port), timeout=30.0)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(None)
                return sock
            except OSError as exc:  # pragma: no cover - rendezvous races
                last = exc
                time.sleep(0.05 * (attempt + 1))
        raise ClusterError(f"cannot reach rank {dest} at {host}:{port}: {last}")

    # -- background threads --------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._inbound.append(conn)
            reader = threading.Thread(
                target=self._read_loop,
                args=(conn,),
                name=f"cluster-read-{self.rank}",
                daemon=True,
            )
            reader.start()
            self._readers.append(reader)

    def _read_loop(self, conn: socket.socket) -> None:
        try:
            while True:
                kind, body = recv_frame(conn)
                if kind == 0:
                    return
                if kind != KIND_DATA:  # pragma: no cover - protocol guard
                    raise ClusterError(f"unexpected frame kind {kind} on data fabric")
                items = unpack_messages(body)
                self._mailbox.put_many(items)
                with self._lock:
                    self.stats.frames_recv += 1
                    self.stats.msgs_recv += len(items)
                    self.stats.bytes_recv += sum(a.nbytes for _, _, a in items)
        except (OSError, ClusterError):
            return
        finally:
            conn.close()

    def _send_loop(self) -> None:
        while True:
            item = self._outq.get()
            if item is None:
                return
            dest, buf = item
            try:
                sock = self._out.get(dest)
                if sock is None:
                    sock = self._out[dest] = self._dial(dest)
                t0 = time.perf_counter()
                sock.sendall(buf)
                dt = time.perf_counter() - t0
                with self._lock:
                    self.stats.wire_s += dt
                    self.stats.frames_sent += 1
                    self.stats.wire_bytes += len(buf)
            except BaseException as exc:  # noqa: BLE001 - surfaced at flush
                self._sender_err = exc
                return

    # -- Endpoint surface ----------------------------------------------------

    def send(self, dest: int, tag: int, data: np.ndarray) -> None:
        if not 0 <= dest < self.size:
            raise ClusterError(f"destination {dest} outside job of size {self.size}")
        self._pending.setdefault(dest, []).append((self.rank, tag, data))
        self.stats.msgs_sent += 1
        self.stats.bytes_sent += int(np.asarray(data).nbytes)

    def flush(self) -> None:
        if self._sender_err is not None:
            raise ClusterError(f"sender thread died: {self._sender_err}")
        if not self._pending:
            return
        # pack in the compute thread: tobytes() snapshots every payload,
        # so the sweeper may reuse its buffers immediately.  Packing is
        # serialization work (the in-process path pays it as a copy),
        # not wire wait, so only the handoff counts as send_wait_s.
        frames = [
            (dest, frame_bytes(KIND_DATA, pack_messages(items)))
            for dest, items in self._pending.items()
        ]
        self._pending.clear()
        t0 = time.thread_time()
        for item in frames:
            self._outq.put(item)
        self.stats.send_wait_s += time.thread_time() - t0

    def recv(self, src: int, tag: int) -> np.ndarray:
        t0 = time.perf_counter()
        arr = self._mailbox.take(src, tag, self.recv_timeout)
        self.stats.recv_wait_s += time.perf_counter() - t0
        return arr

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._outq.put(None)
        self._sender.join(timeout=30.0)
        for sock in self._out.values():
            try:
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            sock.close()
        # closing a listener does not wake a thread already blocked in
        # accept(); shutdown does on Linux, and the self-connect covers
        # platforms where shutdown on a listening socket is ENOTCONN
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            socket.create_connection((self.host, self.port), timeout=1.0).close()
        except OSError:
            pass
        self._listener.close()
        self._acceptor.join(timeout=30.0)
        with self._lock:
            inbound = list(self._inbound)
        for conn in inbound:
            conn.close()
