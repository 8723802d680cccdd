"""The per-rank program of every cluster solve.

:func:`run_rank_solve` is the one per-rank source iteration: one KBA
grid position tiles the deck (:meth:`repro.mpi.wavefront.KBASweep3D.plan`),
sweeps it through :class:`~repro.mpi.wavefront.RankBoundary` over a
transport endpoint, and reports its tile flux, tallies and walls for the
driver's serial-rank-order fold.  It runs on a
:class:`~repro.cluster.transport.LocalFabric` thread (the in-process
path behind ``KBASweep3D`` and ``CellClusterSweep3D``) or in a
``repro cluster-rank`` process over sockets.  The rank runs the one
source iteration (:func:`repro.sweep.flux.source_iteration`) with the
driver's barrier as its stop rule -- the only collective the loop
needs: after every iteration each rank reports ``(diff, scale)`` and
waits for GO or STOP.  The driver takes the max-allreduce, decides
convergence against the deck's epsilon, and parks the whole job at one
consistent iteration boundary on convergence or on a SIGTERM drain.

``repro cluster-rank --connect HOST:PORT --rank N`` enters
:func:`rank_main`: connect, HELLO, then serve manifests until BYE.  The
manifest is a plain dict (``{"kind": "cluster", "deck", "P", "Q",
"config", "engine"}``), and the process survives across manifests, so
compiled ISA programs stay warm in the process-global cache exactly
like parked :class:`~repro.parallel.pool.PersistentPool` workers.
"""

from __future__ import annotations

import logging
import signal
import socket
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..errors import ClusterError, ConfigurationError
from ..mpi.wavefront import KBASweep3D, RankBoundary
from ..obs.context import adopt_payload
from ..obs.flight import enable_flight, flight
from ..obs.log import get_logger, log_event
from ..sweep.flux import SolveResult, SweepTally, source_iteration
from ..sweep.input import InputDeck
from .frames import (
    KIND_CONTROL,
    KIND_TRACE,
    pack_control,
    pack_trace,
    recv_frame,
    send_frame,
    unpack_control,
    unpack_trace,
)
from .transport import DEFAULT_RECV_TIMEOUT, Endpoint, SocketEndpoint

#: barrier verdicts
GO = "go"
STOP = "stop"

_log = get_logger("cluster.rank")


@dataclass(frozen=True)
class RankManifest:
    """Everything a rank process needs to rebind one solve."""

    deck: InputDeck
    P: int
    Q: int
    config: Any  #: MachineConfig for the cell engine, None for tile
    engine: str = "cell"  #: "cell" (simulated chip) or "tile" (NumPy)

    @property
    def size(self) -> int:
        return self.P * self.Q

    def to_payload(self) -> dict[str, Any]:
        """The manifest as it travels in the MANIFEST control frame."""
        return {
            "kind": "cluster",
            "deck": self.deck,
            "P": self.P,
            "Q": self.Q,
            "config": self.config,
            "engine": self.engine,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "RankManifest":
        if payload.get("kind") != "cluster":
            raise ClusterError(
                f"manifest kind {payload.get('kind')!r} is not 'cluster'"
            )
        return cls(
            deck=payload["deck"],
            P=int(payload["P"]),
            Q=int(payload["Q"]),
            config=payload.get("config"),
            engine=payload.get("engine", "cell"),
        )


@dataclass
class RankReport:
    """One rank's result, refolded by the driver in serial rank order."""

    rank: int
    #: the rank's tile solve: flux, iterations and tallies (no history;
    #: the driver's barrier keeps that)
    result: SolveResult
    octant_walls: list[float]
    span_s: float
    transport: dict[str, Any]
    metrics: dict[str, Any] | None = None
    #: captured trace stream (``config.trace`` runs): ``{"rank",
    #: "events", "machine_info", "total_cycles"}``.  Socket ranks strip
    #: this off and ship it as a TRACE frame; local (threaded) ranks
    #: hand it to the driver directly.
    trace: dict[str, Any] | None = None


def _make_sweeper(manifest: RankManifest, local: InputDeck):
    if manifest.engine == "tile":
        from ..sweep.pipelining import TileSweeper

        return TileSweeper(local)
    if manifest.engine == "cell":
        from ..core.solver import CellSweep3D

        return CellSweep3D(local, manifest.config)
    raise ConfigurationError(f"unknown cluster rank engine {manifest.engine!r}")


def run_rank_solve(
    manifest: RankManifest,
    endpoint: Endpoint,
    barrier: Callable[[float, float], str],
) -> RankReport:
    """One rank's source iteration over ``endpoint``.

    ``barrier(diff, scale)`` is the parent-mediated allreduce/drain
    seam: after every sweep the rank reports its tile's max-norm flux
    change and scale, and the barrier returns :data:`GO` to continue or
    :data:`STOP` to park at this iteration boundary (converged or
    drained -- the parent decides, and keeps the history).
    """
    deck = manifest.deck
    kba = KBASweep3D(deck, P=manifest.P, Q=manifest.Q)
    plan = kba.plan(endpoint.rank)
    local = deck.tile((plan.x0, plan.y0, 0), plan.local_grid(deck.grid))
    sweeper = _make_sweeper(manifest, local)
    octant_walls = [0.0] * 8

    def sweep(msrc: np.ndarray) -> tuple[np.ndarray, SweepTally]:
        boundary = RankBoundary(
            local, sweeper.quad, endpoint, kba.cart, deck.mmi, deck.mk
        )
        new_flux, tally, _ = sweeper.sweep(msrc, boundary=boundary)
        for o in range(8):
            octant_walls[o] += boundary.octant_walls[o]
        return new_flux, tally

    t0 = time.perf_counter()
    try:
        result = source_iteration(
            local, sweep,
            stop=lambda diff, scale: barrier(diff, scale) != GO,
        )
        span = time.perf_counter() - t0
        metrics = None
        if manifest.engine == "cell" and getattr(
            manifest.config, "metrics", False
        ):
            metrics = sweeper.metrics.to_dict()
        trace = None
        bus = getattr(sweeper, "trace", None)
        if bus is not None and getattr(bus, "enabled", False):
            from ..obs.merge import events_to_wire

            # the rank's whole solve on one bus from cycle 0: directly
            # comparable across transports, no timestamp alignment
            trace = {
                "rank": endpoint.rank,
                "events": events_to_wire(bus.events),
                "machine_info": dict(bus.machine_info),
                "total_cycles": bus.now,
            }
        return RankReport(
            rank=endpoint.rank,
            result=result,
            octant_walls=octant_walls,
            span_s=span,
            transport=endpoint.stats.to_dict(),
            metrics=metrics,
            trace=trace,
        )
    finally:
        close = getattr(sweeper, "close", None)
        if close is not None:
            close()


# ---------------------------------------------------------------------------
# Control channel (parent <-> rank, CONTROL frames over one TCP stream)
# ---------------------------------------------------------------------------


class ControlChannel:
    """Pickled control dicts over one socket, length-prefixed."""

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_RECV_TIMEOUT):
        self.sock = sock
        self.sock.settimeout(timeout)

    def send(self, payload: dict[str, Any]) -> None:
        send_frame(self.sock, KIND_CONTROL, pack_control(payload))

    def send_trace(self, payload: dict[str, Any]) -> None:
        """Ship a rank's trace stream as a TRACE frame (JSON body)."""
        send_frame(self.sock, KIND_TRACE, pack_trace(payload))

    def recv_any(self) -> tuple[int, dict[str, Any]]:
        """One frame of either channel kind: ``(KIND_CONTROL, dict)``
        or ``(KIND_TRACE, dict)``."""
        try:
            kind, body = recv_frame(self.sock)
        except socket.timeout as exc:
            raise ClusterError("control channel timed out") from exc
        if kind == 0:
            raise ClusterError("control channel closed by peer")
        if kind == KIND_TRACE:
            return kind, unpack_trace(body)
        if kind != KIND_CONTROL:
            raise ClusterError(f"unexpected frame kind {kind} on control channel")
        return kind, unpack_control(body)

    def recv(self) -> dict[str, Any]:
        kind, payload = self.recv_any()
        if kind != KIND_CONTROL:
            raise ClusterError("unexpected trace frame on control channel")
        return payload

    def close(self) -> None:
        self.sock.close()


def _parse_connect(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise ClusterError(f"--connect wants HOST:PORT, got {spec!r}")
    return host, int(port)


def rank_main(connect: str, rank: int, timeout: float = DEFAULT_RECV_TIMEOUT) -> int:
    """Entry point of one ``repro cluster-rank`` worker process.

    Protocol (all over the control channel): HELLO -> {MANIFEST ->
    PORT -> ADDRS -> per-iteration ITER/GO-STOP -> RESULT}* -> BYE.
    The process stays alive across manifests so per-process caches
    (compiled-ISA programs above all) stay warm, mirroring parked
    :class:`~repro.parallel.pool.PersistentPool` workers.

    SIGTERM/SIGINT are ignored here: the *parent* owns the drain and
    parks every rank at the same iteration boundary via STOP, so a
    signal delivered to the whole process group cannot tear a rank out
    mid-sweep.
    """
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    enable_flight()
    host, port = _parse_connect(connect)
    ctl = ControlChannel(
        socket.create_connection((host, port), timeout=timeout), timeout
    )
    endpoint: SocketEndpoint | None = None
    try:
        # t_wall rides every rendezvous message so the parent can
        # estimate per-rank clock offsets (metadata only; event streams
        # stay wall-clock-free)
        ctl.send({"t": "hello", "rank": rank, "t_wall": time.time()})
        while True:
            msg = ctl.recv()
            if msg["t"] == "bye":
                return 0
            if msg["t"] != "manifest":
                raise ClusterError(f"expected manifest, got {msg['t']!r}")
            manifest = RankManifest.from_payload(msg["payload"])
            adopt_payload(msg.get("obs"), identity=f"rank{rank}")
            log_event(
                _log, logging.INFO, "manifest received",
                rank=rank, engine=manifest.engine,
                grid=[manifest.P, manifest.Q],
            )
            flight().note("manifest", rank=rank, engine=manifest.engine)
            if endpoint is not None:
                endpoint.close()
            endpoint = SocketEndpoint(
                rank, manifest.size, host=msg.get("bind_host", "127.0.0.1"),
                recv_timeout=timeout,
            )
            ctl.send({"t": "port", "rank": rank, "port": endpoint.port})
            addrs_msg = ctl.recv()
            if addrs_msg["t"] != "addrs":
                raise ClusterError(f"expected addrs, got {addrs_msg['t']!r}")
            endpoint.wire({
                int(r): (h, int(p))
                for r, (h, p) in addrs_msg["addrs"].items()
            })

            def barrier(diff: float, scale: float) -> str:
                ctl.send({
                    "t": "iter", "rank": rank,
                    "diff": diff, "scale": scale, "t_wall": time.time(),
                })
                verdict = ctl.recv()
                if verdict["t"] not in (GO, STOP):
                    raise ClusterError(
                        f"expected go/stop, got {verdict['t']!r}"
                    )
                return verdict["t"]

            try:
                report = run_rank_solve(manifest, endpoint, barrier)
            except Exception as exc:
                # ship the post-mortem before dying: the parent turns
                # this into a ClusterError carrying the flight dump
                log_event(
                    _log, logging.ERROR, "rank solve crashed",
                    rank=rank, error=str(exc),
                )
                ctl.send({
                    "t": "crash",
                    "rank": rank,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                    "flight": flight().dump("rank-crash"),
                })
                return 1
            trace = report.trace
            if trace is not None:
                # the stream travels as its own TRACE frame (JSON), not
                # inside the pickled result
                report.trace = None
                ctl.send_trace(trace)
            ctl.send({"t": "result", "report": report})
    finally:
        if endpoint is not None:
            endpoint.close()
        ctl.close()
