"""DMA-hazard sanitizer: replay the trace, flag local-store races.

On real Cell hardware, an SPU that touches local-store bytes while an
MFC transfer into (or out of) them is still in flight reads stale or
torn data -- silently.  The paper's double-buffering discipline exists
precisely to make such overlap *safe* by construction: compute on
buffer set ``s`` only after its GET tag drained, reuse a set only
after its PUT tag drained.  The functional simulator reproduces the
stale-read failure mode (a missed wait computes on whatever bytes are
there), but nothing *diagnosed* it -- a protocol bug shows up as wrong
flux three layers later.

This module is the diagnosis: a pure replay pass over a trace event
stream that maintains, per SPE, the set of local-store byte ranges with
DMA in flight (from ``DmaEnqueue``/``DmaComplete`` events, which carry
the command's LS regions and tags) and flags:

* **reuse-before-drain** -- a new DMA command targets bytes that an
  earlier, still-in-flight command (any tag) also targets: the
  double-buffer rotation got ahead of tag completion;
* **kernel-touch-in-flight** -- a ``KernelExec`` span's working-set
  regions overlap in-flight DMA: the kernel computes on bytes the MFC
  may still be moving;
* **ls-capacity** -- a DMA targets bytes outside the data area of the
  256 KB local store (below the reserved code image or past capacity).

The sanitizer never inspects solver state -- only the event stream --
so it works identically on live buses, replayed JSON, and the cached
DMA-program path (which, by the PR-1 transparency guarantee, emits the
same events as a cold build).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from .bus import TraceBus, TraceEvent

#: Hazard kinds, fixed vocabulary.
REUSE_BEFORE_DRAIN = "reuse-before-drain"
KERNEL_TOUCH_IN_FLIGHT = "kernel-touch-in-flight"
LS_CAPACITY = "ls-capacity"


@dataclass(frozen=True)
class Hazard:
    """One flagged violation of the DMA/local-store discipline."""

    kind: str
    track: str
    seq: int            # event sequence number that triggered the flag
    tag: int | None     # MFC tag of the offending command (if any)
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.track} @#{self.seq}: {self.message}"


@dataclass(frozen=True)
class _InFlight:
    """One in-flight command's LS footprint."""

    seq: int
    tag: int
    kind: str                       # "get" / "put"
    regions: tuple[tuple[int, int], ...]   # (start, size) absolute LS offsets


def _overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    a0, alen = a
    b0, blen = b
    return a0 < b0 + blen and b0 < a0 + alen


def _regions_of(args: dict[str, Any]) -> tuple[tuple[int, int], ...]:
    return tuple((int(s), int(n)) for s, n in args.get("regions", ()))


class DmaHazardSanitizer:
    """Streaming replay of one trace; collect hazards with :meth:`feed`
    or run a whole bus with :func:`sanitize`."""

    def __init__(self, machine_info: dict[str, Any] | None = None) -> None:
        info = machine_info or {}
        self.ls_capacity: int | None = info.get("ls_capacity")
        self.ls_code_bytes: int = int(info.get("ls_code_bytes", 0))
        #: per-track list of in-flight command footprints
        self._in_flight: dict[str, list[_InFlight]] = {}
        self.hazards: list[Hazard] = []

    # -- event handlers -----------------------------------------------------

    def feed(self, ev: TraceEvent) -> None:
        if ev.name == "DmaEnqueue":
            self._on_enqueue(ev)
        elif ev.name == "DmaComplete":
            self._on_complete(ev)
        elif ev.name == "KernelExec":
            self._on_kernel(ev)

    def _flag(self, kind: str, ev: TraceEvent, tag: int | None, message: str) -> None:
        self.hazards.append(
            Hazard(kind=kind, track=ev.track, seq=ev.seq, tag=tag, message=message)
        )

    def _on_enqueue(self, ev: TraceEvent) -> None:
        regions = _regions_of(ev.args)
        tag = int(ev.args.get("tag", -1))
        kind = str(ev.args.get("kind", "?"))
        for start, size in regions:
            end = start + size
            if start < self.ls_code_bytes:
                self._flag(
                    LS_CAPACITY, ev, tag,
                    f"{kind} DMA targets [{start}, {end}) inside the reserved "
                    f"{self.ls_code_bytes}-byte code image",
                )
            if self.ls_capacity is not None and end > self.ls_capacity:
                self._flag(
                    LS_CAPACITY, ev, tag,
                    f"{kind} DMA targets [{start}, {end}) past the "
                    f"{self.ls_capacity}-byte local store",
                )
        in_flight = self._in_flight.setdefault(ev.track, [])
        for fl in in_flight:
            for r_new in regions:
                if any(_overlap(r_new, r_old) for r_old in fl.regions):
                    self._flag(
                        REUSE_BEFORE_DRAIN, ev, tag,
                        f"{kind} DMA (tag {tag}) reuses LS bytes "
                        f"[{r_new[0]}, {r_new[0] + r_new[1]}) while tag "
                        f"{fl.tag} ({fl.kind}, enqueued @#{fl.seq}) is still "
                        f"in flight; wait on the tag before rotating buffers",
                    )
                    break
        in_flight.append(_InFlight(seq=ev.seq, tag=tag, kind=kind, regions=regions))

    def _on_complete(self, ev: TraceEvent) -> None:
        tags = {int(t) for t in ev.args.get("tags", ())}
        in_flight = self._in_flight.get(ev.track)
        if in_flight:
            self._in_flight[ev.track] = [
                fl for fl in in_flight if fl.tag not in tags
            ]

    def _on_kernel(self, ev: TraceEvent) -> None:
        regions = _regions_of(ev.args)
        for fl in self._in_flight.get(ev.track, ()):
            hit = next(
                (
                    r
                    for r in regions
                    if any(_overlap(r, r_old) for r_old in fl.regions)
                ),
                None,
            )
            if hit is not None:
                self._flag(
                    KERNEL_TOUCH_IN_FLIGHT, ev, fl.tag,
                    f"kernel touches LS bytes [{hit[0]}, {hit[0] + hit[1]}) "
                    f"while tag {fl.tag} ({fl.kind}, enqueued @#{fl.seq}) is "
                    f"still in flight",
                )

    # -- reporting ----------------------------------------------------------

    def in_flight_tags(self, track: str) -> set[int]:
        """Tags still pending on one track (e.g. leaked at end of trace)."""
        return {fl.tag for fl in self._in_flight.get(track, ())}


def sanitize(
    bus: TraceBus | Iterable[TraceEvent],
    machine_info: dict[str, Any] | None = None,
) -> list[Hazard]:
    """Replay a whole trace; returns the hazards found (empty = clean).

    Accepts a :class:`TraceBus` (machine metadata read from the bus) or
    any iterable of events plus explicit ``machine_info``.
    """
    if isinstance(bus, TraceBus):
        events: Iterable[TraceEvent] = bus.events
        machine_info = machine_info or bus.machine_info
    else:
        events = bus
    san = DmaHazardSanitizer(machine_info)
    for ev in events:
        san.feed(ev)
    return san.hazards


def format_hazards(hazards: list[Hazard]) -> str:
    """Human-readable sanitizer verdict."""
    if not hazards:
        return "sanitizer: 0 hazards"
    out = [f"sanitizer: {len(hazards)} hazard(s)"]
    for hz in hazards:
        out.append(f"  {hz}")
    return "\n".join(out)
