"""The per-rank program of a multi-process cluster solve.

A rank process is one KBA grid position running the whole per-rank
source iteration of :meth:`repro.mpi.wavefront.KBASweep3D._rank_program`
-- the same local deck tiling, the same :class:`RankBoundary` leakage
chain, the same serial sweep -- over a pluggable transport endpoint
instead of the in-process :class:`~repro.mpi.comm.SimComm`.  The only
collective the loop needs (the per-iteration max-allreduce feeding the
convergence history) runs through the parent's control channel, which
doubles as the drain barrier: after every iteration each rank reports
``(diff, scale)`` and waits for GO or STOP, so a SIGTERM'd parent can
park the whole job at one consistent iteration boundary.

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
from ..sweep.flux import SweepTally
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
from .transport import (
    DEFAULT_RECV_TIMEOUT,
    Endpoint,
    EndpointComm,
    LocalFabric,
    MPIEndpoint,
    SocketEndpoint,
)

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
    iterations: int
    fixups: int
    leakage: float
    diffs: list[float]
    scales: list[float]
    flux: np.ndarray
    octant_walls: list[float]
    span_s: float
    transport: dict[str, Any]
    metrics: dict[str, Any] | None = None
    #: captured trace stream (``config.trace`` runs): ``{"rank",
    #: "events", "machine_info", "total_cycles"}``.  Socket ranks strip
    #: this off and ship it as a TRACE frame; local (threaded) ranks
    #: hand it to the driver directly.
    trace: dict[str, Any] | None = None


class TransportBoundary(RankBoundary):
    """The KBA boundary over a transport endpoint.

    Exactly :class:`~repro.mpi.wavefront.RankBoundary` -- same direction
    resolution, same leakage tally chain -- plus the two seams the wire
    needs: the coalescing flush at the end of every
    (octant, angle-block, K-block) step (``send_i`` buffers, ``send_j``
    closes the step), and per-octant wall stamps at ``finish_octant``
    for the per-direction sweep timings ``ClusterReport`` carries.
    """

    def __init__(self, deck, quad, endpoint: Endpoint, cart, mmi, mk) -> None:
        super().__init__(deck, quad, EndpointComm(endpoint), cart, mmi, mk)
        self.endpoint = endpoint
        self.octant_walls = [0.0] * 8
        self._stamp = time.perf_counter()

    def send_j(self, octant, angles, k0, data):
        super().send_j(octant, angles, k0, data)
        # one frame per destination per step, eager on the wire
        self.endpoint.flush()

    def finish_octant(self, octant, angles, phik):
        super().finish_octant(octant, angles, phik)
        now = time.perf_counter()
        self.octant_walls[octant] += now - self._stamp
        self._stamp = now


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
    barrier: Callable[[int, float, float], str],
) -> RankReport:
    """One rank's source iteration; mirrors ``KBASweep3D._rank_program``.

    ``barrier(iteration, diff, scale)`` is the parent-mediated
    allreduce/drain seam: it must return :data:`GO` to continue or
    :data:`STOP` to park at this iteration boundary.
    """
    from ..sweep.moments import build_moment_source

    deck = manifest.deck
    kba = KBASweep3D(deck, P=manifest.P, Q=manifest.Q)
    plan = kba.plan(endpoint.rank)
    local = deck.tile((plan.x0, plan.y0, 0), plan.local_grid(deck.grid))
    sweeper = _make_sweeper(manifest, local)
    quad = sweeper.quad

    flux = np.zeros((deck.nm, *local.grid.shape))
    total = SweepTally()
    diffs: list[float] = []
    scales: list[float] = []
    octant_walls = [0.0] * 8
    done = 0
    t0 = time.perf_counter()
    try:
        for i in range(deck.iterations):
            msrc = build_moment_source(local, flux)
            boundary = TransportBoundary(
                local, quad, endpoint, kba.cart, deck.mmi, deck.mk
            )
            new_flux, tally, _ = sweeper.sweep(msrc, boundary=boundary)
            total.fixups += tally.fixups
            total.leakage = boundary.leakage
            for o in range(8):
                octant_walls[o] += boundary.octant_walls[o]
            diff = float(np.max(np.abs(new_flux[0] - flux[0])))
            scale = float(np.max(np.abs(new_flux[0])))
            diffs.append(diff)
            scales.append(scale)
            flux = new_flux
            done = i + 1
            if barrier(i, diff, scale) != GO:
                break
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
            iterations=done,
            fixups=total.fixups,
            leakage=total.leakage,
            diffs=diffs,
            scales=scales,
            flux=flux,
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
            if msg.get("transport", "socket") == "mpi":
                endpoint = MPIEndpoint(rank=rank, size=manifest.size)
                ctl.send({"t": "port", "rank": rank, "port": -1})
            else:
                endpoint = SocketEndpoint(
                    rank, manifest.size, host=msg.get("bind_host", "127.0.0.1"),
                    recv_timeout=timeout,
                )
                ctl.send({"t": "port", "rank": rank, "port": endpoint.port})
            addrs_msg = ctl.recv()
            if addrs_msg["t"] != "addrs":
                raise ClusterError(f"expected addrs, got {addrs_msg['t']!r}")
            if hasattr(endpoint, "wire"):
                endpoint.wire({
                    int(r): (h, int(p))
                    for r, (h, p) in addrs_msg["addrs"].items()
                })

            def barrier(i: int, diff: float, scale: float) -> str:
                ctl.send({
                    "t": "iter", "rank": rank, "i": i,
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
