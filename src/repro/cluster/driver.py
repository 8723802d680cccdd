"""The cluster parent: rendezvous, rank lifecycle, bit-exact refolds.

:class:`ClusterDriver` runs one KBA job whose ranks live in their own
OS processes (socket transport) or threads (the in-process reference
transport), and refolds their results **in serial rank order** so the
assembled solution reproduces :meth:`repro.mpi.wavefront.KBASweep3D`
-- and therefore the in-process :class:`repro.core.cluster.
CellClusterSweep3D` -- bit for bit:

* per-iteration convergence history: ``max`` over ranks of the local
  flux diffs/scales (``max`` is exactly order-independent, matching the
  threaded allreduce);
* leakage: folded ``rank 0 + rank 1 + ...`` exactly like the rank-0
  ``SimComm.reduce``;
* flux: per-rank float64 tiles (raw bytes on the wire) pasted through
  the same :meth:`~repro.mpi.wavefront.KBASweep3D.plan` slices.

Lifecycle mirrors ``repro serve``: :meth:`start` spawns the rank
processes and completes the HELLO rendezvous; each :meth:`solve` sends
a fresh manifest (rank processes survive across solves, keeping
compiled-ISA caches warm like parked pool workers); :meth:`close` sends
BYE and reaps.  A SIGTERM-driven :meth:`request_drain` parks every rank
at the same iteration boundary via the control barrier and returns the
consistent partial result.
"""

from __future__ import annotations

import hashlib
import logging
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ClusterError, ConfigurationError
from ..metrics.registry import MetricsRegistry
from ..mpi.wavefront import KBASweep3D
from ..obs.context import current_context
from ..obs.log import get_logger, log_event
from ..sweep.flux import SolveResult, SweepTally
from ..sweep.input import InputDeck
from .frames import KIND_TRACE
from .runtime import (
    GO,
    STOP,
    ControlChannel,
    RankManifest,
    RankReport,
    run_rank_solve,
)
from .transport import DEFAULT_RECV_TIMEOUT, LocalFabric

_log = get_logger("cluster.driver")

TRANSPORTS = ("local", "socket", "mpi")
ENGINES = ("cell", "tile")
SPAWNS = ("fork", "cli")


def default_cluster_config():
    """The per-rank chip configuration, identical to
    :class:`repro.core.cluster.CellClusterSweep3D`'s default so the two
    paths stay bit-comparable."""
    from ..core.levels import MachineConfig

    return MachineConfig(
        aligned_rows=True, structured_loops=True, double_buffer=True,
        simd=True, dma_lists=True, bank_offsets=True,
    )


def flux_sha256(flux: np.ndarray) -> str:
    """Digest of the raw float64 flux bytes -- the bit-identity pin."""
    return hashlib.sha256(np.ascontiguousarray(flux).tobytes()).hexdigest()


@dataclass
class ClusterReport:
    """Everything one cluster solve produced."""

    result: SolveResult
    transport: str
    engine: str
    P: int
    Q: int
    drained: bool
    reports: list[RankReport]
    registry: MetricsRegistry
    #: per-octant sweep wall, max over ranks (the wavefront's direction
    #: ends when its slowest rank does)
    octant_walls: list[float]
    wall_seconds: float
    #: per-rank captured trace streams (``config.trace`` runs only)
    traces: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: wall-clock offset estimate per rank (driver receive wall minus
    #: rank send wall, minimum over the HELLO/ITER rendezvous
    #: measurements); metadata for the merged timeline, never a
    #: timestamp shift
    clock_offsets: dict[int, float] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.P * self.Q

    def chrome_trace(self) -> dict[str, Any]:
        """One merged Perfetto document with ``rank{R}/SPE{N}`` tracks
        (requires a ``config.trace=True`` solve)."""
        if not self.traces:
            raise ClusterError(
                "no trace captured; solve with config.trace=True "
                "(repro cluster --trace)"
            )
        from ..obs.merge import rank_chrome_trace

        return rank_chrome_trace(self.traces, self.clock_offsets or None)

    @property
    def flux_digest(self) -> str:
        return flux_sha256(self.result.flux)

    @property
    def msgs_sent(self) -> int:
        return sum(r.transport["msgs_sent"] for r in self.reports)

    @property
    def bytes_sent(self) -> int:
        return sum(r.transport["bytes_sent"] for r in self.reports)

    @property
    def overlap_ratio(self) -> float:
        """Job-wide overlap: wire seconds hidden behind compute, over
        all ranks' wire seconds (1.0 when nothing touched a wire)."""
        wire = sum(r.transport["wire_s"] for r in self.reports)
        waited = sum(r.transport["send_wait_s"] for r in self.reports)
        if wire <= 0.0:
            return 1.0
        return max(wire - waited, 0.0) / wire

    def to_dict(self) -> dict[str, Any]:
        return {
            "transport": self.transport,
            "engine": self.engine,
            "grid": [self.P, self.Q],
            "ranks": self.size,
            "iterations": self.result.iterations,
            "drained": self.drained,
            "flux_sha256": self.flux_digest,
            "wall_seconds": self.wall_seconds,
            "octant_walls_s": list(self.octant_walls),
            "msgs_sent": self.msgs_sent,
            "bytes_sent": self.bytes_sent,
            "overlap_ratio": self.overlap_ratio,
            "trace_ranks": sorted(self.traces),
            "per_rank": [
                {
                    "rank": r.rank,
                    "span_s": r.span_s,
                    "octant_walls_s": list(r.octant_walls),
                    "transport": dict(r.transport),
                }
                for r in self.reports
            ],
        }


class ClusterDriver:
    """Parent of one P x Q cluster job (see module docstring)."""

    def __init__(
        self,
        deck: InputDeck,
        P: int,
        Q: int,
        transport: str = "socket",
        engine: str = "cell",
        config=None,
        spawn: str = "fork",
        bind_host: str = "127.0.0.1",
        recv_timeout: float = DEFAULT_RECV_TIMEOUT,
    ) -> None:
        if transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {transport!r}; pick one of {TRANSPORTS}"
            )
        if transport == "mpi":
            raise ConfigurationError(
                "the mpi transport has no parent-spawned driver; launch "
                "the job under mpirun with `repro cluster-rank --transport "
                "mpi` on every rank (see docs/CLUSTER.md)"
            )
        if engine not in ENGINES:
            raise ConfigurationError(
                f"unknown rank engine {engine!r}; pick one of {ENGINES}"
            )
        if spawn not in SPAWNS:
            raise ConfigurationError(
                f"unknown spawn mode {spawn!r}; pick one of {SPAWNS}"
            )
        if engine == "cell" and config is None:
            config = default_cluster_config()
        self.deck = deck
        self.P, self.Q = int(P), int(Q)
        self.transport = transport
        self.engine = engine
        self.config = config
        self.spawn = spawn
        self.bind_host = bind_host
        self.recv_timeout = recv_timeout
        self.manifest = RankManifest(
            deck=deck, P=self.P, Q=self.Q, config=config, engine=engine
        )
        # validates the process grid against the cell grid up front
        self._kba = KBASweep3D(deck, P=self.P, Q=self.Q)
        self._drain = threading.Event()
        self._started = False
        self._closed = False
        self._procs: list[Any] = []
        self._channels: dict[int, ControlChannel] = {}
        self._listener: socket.socket | None = None
        self._clock_offsets: dict[int, float] = {}

    @property
    def size(self) -> int:
        return self.P * self.Q

    # -- drain ----------------------------------------------------------------

    def request_drain(self) -> None:
        """Park the job at the next iteration boundary (serve-style
        drain; safe from a signal handler)."""
        self._drain.set()

    def install_signal_drain(self) -> None:
        """Route SIGTERM/SIGINT to :meth:`request_drain` (the parent
        process of `repro cluster` does this, mirroring `repro serve`)."""
        import signal

        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, lambda *_: self.request_drain())

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spawn the rank processes and complete the HELLO rendezvous
        (no-op for the in-process local transport)."""
        if self._started:
            return
        if self._closed:
            raise ClusterError("cluster driver already closed")
        self._started = True
        if self.transport == "local":
            return
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.bind_host, 0))
        listener.listen(self.size + 4)
        listener.settimeout(self.recv_timeout)
        self._listener = listener
        port = listener.getsockname()[1]
        try:
            for rank in range(self.size):
                self._procs.append(self._spawn_rank(rank, port))
            for _ in range(self.size):
                try:
                    conn, _ = listener.accept()
                except socket.timeout as exc:
                    raise ClusterError(
                        "rendezvous timed out waiting for rank HELLOs"
                    ) from exc
                chan = ControlChannel(conn, self.recv_timeout)
                hello = chan.recv()
                if hello.get("t") != "hello":
                    raise ClusterError(f"expected hello, got {hello!r}")
                rank = int(hello["rank"])
                if rank in self._channels:
                    raise ClusterError(f"duplicate HELLO from rank {rank}")
                self._channels[rank] = chan
                self._note_clock(rank, hello.get("t_wall"))
                log_event(
                    _log, logging.INFO, "rank hello", rank=rank,
                    ranks=len(self._channels), size=self.size,
                )
        except BaseException:
            self._reap(force=True)
            raise
        log_event(
            _log, logging.INFO, "rendezvous complete",
            size=self.size, transport=self.transport, spawn=self.spawn,
        )

    def _note_clock(self, rank: int, t_wall) -> None:
        """Fold one rendezvous wall stamp into the rank's clock-offset
        estimate.  Each measurement is ``true offset + one-way latency``
        (latency > 0), so the minimum over HELLO and every ITER is the
        tightest estimate."""
        if t_wall is None:
            return
        offset = time.time() - float(t_wall)
        prev = self._clock_offsets.get(rank)
        self._clock_offsets[rank] = offset if prev is None else min(prev, offset)

    def _spawn_rank(self, rank: int, port: int):
        connect = f"{self.bind_host}:{port}"
        if self.spawn == "cli":
            return subprocess.Popen(
                [sys.executable, "-m", "repro", "cluster-rank",
                 "--connect", connect, "--rank", str(rank)],
                env=dict(os.environ),
            )
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=_fork_rank_entry,
            args=(connect, rank, self.recv_timeout),
            name=f"cluster-rank-{rank}",
        )
        proc.start()
        return proc

    def close(self) -> None:
        """Send BYE to every rank and reap the processes."""
        if self._closed:
            return
        self._closed = True
        for chan in self._channels.values():
            try:
                chan.send({"t": "bye"})
            except (OSError, ClusterError):
                pass
        self._reap()

    def _reap(self, force: bool = False) -> None:
        """Join the rank processes.  Ranks ignore SIGTERM (see
        ``rank_main``), so the only signal used here is SIGKILL: after
        the join timeout, or up front under ``force`` (the error paths,
        where a surviving rank sits in a face ``recv`` on a dead peer
        until ``recv_timeout``)."""
        for chan in self._channels.values():
            chan.close()
        self._channels.clear()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if force:
            for proc in self._procs:
                proc.kill()  # Process.kill and Popen.kill: both SIGKILL
        for proc in self._procs:
            join = getattr(proc, "join", None)
            if join is not None:  # multiprocessing.Process
                proc.join(timeout=30.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=10.0)
            else:  # subprocess.Popen
                try:
                    proc.wait(timeout=30.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10.0)
        self._procs.clear()

    def __enter__(self) -> "ClusterDriver":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the solve -------------------------------------------------------------

    def solve(self) -> ClusterReport:
        self.start()
        t0 = time.perf_counter()
        traces: dict[int, dict[str, Any]] = {}
        if self.transport == "local":
            reports, drained = self._solve_local()
        else:
            reports, drained, traces = self._solve_socket()
        wall = time.perf_counter() - t0
        report = self._fold(reports, drained, wall, traces)
        log_event(
            _log, logging.INFO, "cluster solve done",
            transport=self.transport, ranks=self.size,
            iterations=report.result.iterations, drained=report.drained,
            wall_seconds=round(wall, 3),
        )
        return report

    def _solve_local(self) -> tuple[list[RankReport], bool]:
        fabric = LocalFabric(self.size)
        hub = _IterationHub(self.size, self._drain)
        reports: list[RankReport | None] = [None] * self.size
        errors: list[BaseException] = []

        def rank_thread(rank: int) -> None:
            endpoint = fabric.endpoint(rank)
            endpoint.recv_timeout = self.recv_timeout
            try:
                reports[rank] = run_rank_solve(
                    self.manifest, endpoint, hub.barrier
                )
            except BaseException as exc:  # noqa: BLE001 - refired below
                errors.append(exc)
                hub.abort()
            finally:
                endpoint.close()

        threads = [
            threading.Thread(
                target=rank_thread, args=(r,), name=f"cluster-local-{r}"
            )
            for r in range(self.size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return [r for r in reports if r is not None], hub.drained

    def _recv_control(
        self, rank: int, traces: dict[int, dict[str, Any]]
    ) -> dict[str, Any]:
        """One control message from ``rank``, absorbing interleaved
        TRACE frames and turning CRASH reports into
        :class:`ClusterError` (with the rank's flight dump attached as
        ``exc.flight_dump``)."""
        while True:
            kind, msg = self._channels[rank].recv_any()
            if kind == KIND_TRACE:
                traces[int(msg.get("rank", rank))] = msg
                continue
            if msg.get("t") == "crash":
                log_event(
                    _log, logging.ERROR, "rank crashed",
                    rank=msg.get("rank", rank), error=msg.get("error"),
                )
                err = ClusterError(
                    f"rank {msg.get('rank', rank)} crashed: "
                    f"{msg.get('error')}\n{msg.get('traceback', '')}"
                )
                err.flight_dump = msg.get("flight")
                raise err
            return msg

    def _solve_socket(
        self,
    ) -> tuple[list[RankReport], bool, dict[int, dict[str, Any]]]:
        size = self.size
        chans = self._channels
        traces: dict[int, dict[str, Any]] = {}
        ctx = current_context()
        try:
            for rank in range(size):
                chans[rank].send({
                    "t": "manifest",
                    "payload": self.manifest.to_payload(),
                    "transport": "socket",
                    "bind_host": self.bind_host,
                    "obs": ctx.to_payload() if ctx is not None else None,
                })
            addrs: dict[int, tuple[str, int]] = {}
            for rank in range(size):
                msg = self._recv_control(rank, traces)
                if msg.get("t") != "port":
                    raise ClusterError(f"expected port, got {msg!r}")
                addrs[rank] = (self.bind_host, int(msg["port"]))
            for rank in range(size):
                chans[rank].send({"t": "addrs", "addrs": addrs})
            drained = False
            for _ in range(self.deck.iterations):
                for rank in range(size):
                    msg = self._recv_control(rank, traces)
                    if msg.get("t") != "iter":
                        raise ClusterError(f"expected iter, got {msg!r}")
                    self._note_clock(rank, msg.get("t_wall"))
                verdict = STOP if self._drain.is_set() else GO
                if verdict == STOP:
                    log_event(
                        _log, logging.INFO, "draining at iteration boundary",
                        iteration=int(msg.get("i", -1)) + 1,
                    )
                for rank in range(size):
                    chans[rank].send({"t": verdict})
                if verdict == STOP:
                    drained = True
                    break
            reports: list[RankReport] = []
            for rank in range(size):
                msg = self._recv_control(rank, traces)
                if msg.get("t") != "result":
                    raise ClusterError(f"expected result, got {msg!r}")
                reports.append(msg["report"])
            return reports, drained, traces
        except BaseException:
            self._closed = True
            self._reap(force=True)
            raise

    # -- refold (serial rank order; the bit-identity contract) -----------------

    def _fold(
        self,
        reports: list[RankReport],
        drained: bool,
        wall: float,
        traces: dict[int, dict[str, Any]] | None = None,
    ) -> ClusterReport:
        deck = self.deck
        size = self.size
        if len(reports) != size:
            raise ClusterError(f"got {len(reports)} reports for {size} ranks")
        reports = sorted(reports, key=lambda r: r.rank)
        traces = dict(traces or {})
        for r in reports:
            # local (threaded) ranks return the stream on the report;
            # socket ranks already shipped theirs as TRACE frames
            if r.trace is not None:
                traces.setdefault(r.rank, r.trace)
                r.trace = None
        completed = min(r.iterations for r in reports)
        if any(r.iterations != completed for r in reports):
            raise ClusterError(
                "ranks parked at different iteration boundaries: "
                f"{[r.iterations for r in reports]}"
            )
        history: list[float] = []
        for i in range(completed):
            gdiff = reports[0].diffs[i]
            gscale = reports[0].scales[i]
            for r in reports[1:]:
                gdiff = max(gdiff, r.diffs[i])
                gscale = max(gscale, r.scales[i])
            history.append(gdiff / gscale if gscale else 0.0)
        # the rank-0 reduce of the threaded runtime folds in rank order
        fixups = sum(r.fixups for r in reports)
        leakage = reports[0].leakage
        for r in reports[1:]:
            leakage = leakage + r.leakage
        global_flux = np.zeros((deck.nm, *deck.grid.shape))
        for r in reports:
            plan = self._kba.plan(r.rank)
            global_flux[
                :, plan.x0:plan.x0 + plan.nx, plan.y0:plan.y0 + plan.ny, :
            ] = r.flux
        result = SolveResult(
            flux=global_flux,
            iterations=completed,
            history=history,
            tally=SweepTally(fixups=fixups, leakage=leakage),
            converged=not drained,
        )
        registry = MetricsRegistry()
        from ..metrics.attribution import ingest_rank_transport

        for r in reports:
            ingest_rank_transport(registry, r.rank, r.transport, r.span_s)
            if r.metrics is not None:
                registry.merge(r.metrics)
        octant_walls = [
            max(r.octant_walls[o] for r in reports) for o in range(8)
        ]
        return ClusterReport(
            result=result,
            transport=self.transport,
            engine=self.engine,
            P=self.P,
            Q=self.Q,
            drained=drained,
            reports=reports,
            registry=registry,
            octant_walls=octant_walls,
            wall_seconds=wall,
            traces=traces,
            clock_offsets=dict(self._clock_offsets),
        )


class _IterationHub:
    """In-process iteration barrier for the local transport: all ranks
    arrive, the verdict (GO, or STOP once a drain was requested) is
    computed once, everyone leaves with it -- the thread twin of the
    socket driver's control-channel round."""

    def __init__(self, size: int, drain: threading.Event) -> None:
        self.size = size
        self.drained = False
        self._drain = drain
        self._cond = threading.Condition()
        self._count = 0
        self._gen = 0
        self._verdict = GO
        self._aborted = False

    def abort(self) -> None:
        with self._cond:
            self._aborted = True
            self._cond.notify_all()

    def barrier(self, i: int, diff: float, scale: float) -> str:
        with self._cond:
            if self._aborted:
                raise ClusterError("cluster job aborted (peer rank failed)")
            gen = self._gen
            self._count += 1
            if self._count == self.size:
                self._count = 0
                self._gen += 1
                if self._drain.is_set():
                    self._verdict = STOP
                    self.drained = True
                else:
                    self._verdict = GO
                self._cond.notify_all()
                return self._verdict
            while self._gen == gen and not self._aborted:
                self._cond.wait(DEFAULT_RECV_TIMEOUT)
            if self._aborted:
                raise ClusterError("cluster job aborted (peer rank failed)")
            return self._verdict


def _fork_rank_entry(connect: str, rank: int, timeout: float) -> None:
    """Target of fork-spawned rank processes (benches, tests, the
    default CLI path); the CLI-spawn twin is ``repro cluster-rank``."""
    from .runtime import rank_main

    rank_main(connect, rank, timeout)


def run_cluster_solve(
    deck: InputDeck,
    P: int,
    Q: int,
    transport: str = "socket",
    engine: str = "cell",
    config=None,
    spawn: str = "fork",
    recv_timeout: float = DEFAULT_RECV_TIMEOUT,
    drain_signals: bool = False,
) -> ClusterReport:
    """One-shot convenience: start, solve, close.

    ``drain_signals=True`` installs the SIGTERM/SIGINT drain before the
    ranks start (what `repro cluster --transport ...` uses).
    """
    driver = ClusterDriver(
        deck, P, Q, transport=transport, engine=engine, config=config,
        spawn=spawn, recv_timeout=recv_timeout,
    )
    if drain_signals:
        driver.install_signal_drain()
    with driver:
        return driver.solve()
