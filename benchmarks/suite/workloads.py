"""The four benchmark workloads: seeded input generators and sessions.

A workload turns ``--seed`` into a *catalogue* of decks (the program
only ever sees the generated inputs) and opens a *session* that runs
one operation at a time:

* ``cell_ref`` / ``cell_isa`` / ``cell_shield`` -- one operation is
  ``CellSweep3D(deck, config)`` construct + ``solve()`` + ``close()``
  in this process, one client;
* ``serve_pool`` -- one operation is one job from ``POST /jobs`` to the
  terminal snapshot, as a client of an in-process ``ServeApp`` sees it,
  two clients.

Array shapes, visit counts and therefore every simulated statistic are
seed-invariant: the seed moves cross sections, source strength, box
placement (at constant volume) and job order only.  ``smoke=True``
shrinks every deck (same row length, so the same compiled ISA stream
and the same code path); the set-up probes use the smoke catalogue too,
because one-off set-up cost (imports, stream compile, pool fork, app
start) does not depend on the number of J/K planes.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import random
import threading
import time
from dataclasses import dataclass, field

from repro.core.solver import CellSweep3D
from repro.parallel.pool import PersistentPool
from repro.perf.processors import measured_cell_config
from repro.serve import (
    ServeApp,
    ServeClient,
    ServeLimits,
    SolveRunner,
    deck_from_request,
    deck_to_text,
    flux_digest,
)
from repro.sweep.geometry import Grid
from repro.sweep.input import InputDeck

#: seconds a serve client waits for one job before the operation fails
JOB_TIMEOUT = 120.0
#: the ``ServeClient.wait`` default poll interval -- what users get
POLL_SECONDS = 0.05


@dataclass(frozen=True)
class Item:
    """One catalogue entry: the deck, and for served jobs the request."""

    label: str
    deck: InputDeck
    isa: bool
    request: dict | None = None


@dataclass
class OpResult:
    """What one operation returned to its client."""

    index: int  #: catalogue index
    wall: float
    digest: str | None = None
    error: str | None = None
    #: serve only: terminal job snapshot extras (queue wait, solve wall...)
    extra: dict = field(default_factory=dict)


def _cross_sections(rng: random.Random) -> dict:
    return {
        "sigma_t": round(rng.uniform(0.8, 1.2), 3),
        "scattering_ratio": round(rng.uniform(0.3, 0.7), 3),
    }


def _shift_box(box, shift, limits):
    """``box`` moved by ``shift`` cells per axis, clamped inside the
    grid at constant volume."""
    out = []
    for axis in range(3):
        lo, hi = box[2 * axis], box[2 * axis + 1]
        s = max(-lo, min(shift[axis], limits[axis] - hi))
        out += [lo + s, hi + s]
    return tuple(out)


def _shield_deck(rng: random.Random, shape, mk, source_box, slab) -> InputDeck:
    """A source/shield deck: a source box in a scattering medium and a
    thick absorbing slab; the seed shifts both boxes by <= 2 cells."""
    shift = lambda: tuple(rng.randint(-2, 2) for _ in range(3))
    return InputDeck(
        grid=Grid(*shape), mk=mk, iterations=1,
        scattering_ratio=0.9,
        source=round(rng.uniform(0.5, 2.0), 3),
        source_box=_shift_box(source_box, shift(), shape),
        material_box=_shift_box(slab, shift(), shape),
        material_sigma_t=8.0, material_scattering_ratio=0.1,
    )


# -- single-process CellSweep3D workloads ---------------------------------------


def solve_direct(item: Item) -> str:
    """``CellSweep3D`` construct + ``solve()`` + ``close()`` in this
    process, as a CLI run does; returns the flux digest."""
    config = measured_cell_config().with_(
        isa_kernel=item.isa, compile_isa=True
    )
    solver = CellSweep3D(item.deck, config)
    try:
        result = solver.solve()
    finally:
        solver.close()
    return flux_digest(result.flux)


class CellSession:
    clients = 1

    def __init__(self, catalogue: list[Item]) -> None:
        self.catalogue = catalogue

    def __enter__(self) -> "CellSession":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def run(self, index: int) -> OpResult:
        t0 = time.perf_counter()
        try:
            digest = solve_direct(self.catalogue[index])
        except Exception as exc:  # a failed operation, not a failed run
            return OpResult(index, time.perf_counter() - t0,
                            error=f"{type(exc).__name__}: {exc}")
        return OpResult(index, time.perf_counter() - t0, digest=digest)

    def worker_pids(self) -> list[int]:
        return []

    def counters(self) -> dict[str, int]:
        return {}


@dataclass(frozen=True)
class CellWorkload:
    name: str
    isa: bool
    shield: bool

    def catalogue(self, seed: int, smoke: bool) -> list[Item]:
        rng = random.Random(seed)
        if self.shield:
            if smoke:
                deck = _shield_deck(rng, (20, 6, 5), 5,
                                    (8, 12, 1, 5, 0, 4), (14, 17, 0, 6, 0, 5))
            else:
                deck = _shield_deck(rng, (20, 14, 10), 5,
                                    (8, 12, 5, 9, 3, 7), (14, 17, 0, 14, 0, 10))
        else:
            n = 2 if smoke else 16
            deck = InputDeck(
                grid=Grid(16, n, n), sn=6, nm=4, mk=n, iterations=1,
                fixup=True, source=round(rng.uniform(0.5, 2.0), 3),
                **_cross_sections(rng),
            )
        g = deck.grid
        return [Item(f"{g.nx}x{g.ny}x{g.nz} S{deck.sn} nm={deck.nm}",
                     deck, self.isa)]

    def order(self, seed: int, client: int):
        return itertools.repeat(0)

    def session(self, catalogue: list[Item]) -> CellSession:
        return CellSession(catalogue)


# -- the served, pooled workload -----------------------------------------------


class ServeSession:
    """An in-process ``ServeApp`` on loopback port 0 with a persistent
    two-lane pool and one solve slot, its event loop on a background
    thread; ``run`` is the blocking client side of one job."""

    clients = 2

    def __init__(self, catalogue: list[Item]) -> None:
        self.catalogue = catalogue
        self.polls = 0
        self.result_bytes = 0
        self._count_lock = threading.Lock()

    def __enter__(self) -> "ServeSession":
        self.pool = PersistentPool(persistent=True)
        self.app = ServeApp(
            SolveRunner(pool=self.pool, workers=2),
            ServeLimits(max_concurrent=1),
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="suite-serve-loop",
            daemon=True,
        )
        self._thread.start()
        self._call(self.app.start("127.0.0.1", 0))
        self.client = ServeClient(port=self.app.port, timeout=JOB_TIMEOUT)
        return self

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            JOB_TIMEOUT
        )

    def __exit__(self, *exc) -> None:
        try:
            self._call(self.app.stop(drain_timeout=JOB_TIMEOUT))
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(JOB_TIMEOUT)
            self._loop.close()
            self.app.runner.close()

    def run(self, index: int) -> OpResult:
        """Submit -> poll to terminal -> result, the loop of
        ``ServeClient.wait`` with the polls and result bytes counted."""
        item = self.catalogue[index]
        t0 = time.perf_counter()
        extra: dict = {}
        try:
            job = self.client.submit(**item.request)
            extra["submit_s"] = time.perf_counter() - t0
            extra["job_id"] = job["id"]
            polls = 0
            while True:
                status, _, body = self.client.raw("GET", f"/jobs/{job['id']}")
                polls += 1
                if status >= 400:
                    raise RuntimeError(f"HTTP {status}: {body[:200]!r}")
                doc = json.loads(body)
                if doc["state"] in ("done", "failed"):
                    break
                if time.perf_counter() - t0 > JOB_TIMEOUT:
                    raise TimeoutError(f"job {job['id']} still {doc['state']}")
                time.sleep(POLL_SECONDS)
            wall = time.perf_counter() - t0
            with self._count_lock:
                self.polls += polls
                self.result_bytes += len(body)
            if doc["state"] != "done":
                raise RuntimeError(doc.get("error", "job failed"))
        except Exception as exc:  # refusal, non-2xx, failed job, timeout
            return OpResult(index, time.perf_counter() - t0,
                            error=f"{type(exc).__name__}: {exc}", extra=extra)
        result = doc["result"]
        extra.update(
            queue_wait_s=doc["queue_seconds"],
            solve_s=result["solve_wall_seconds"],
            isa=result["isa"],
        )
        return OpResult(index, wall, digest=result["flux"]["sha256"],
                        extra=extra)

    def worker_pids(self) -> list[int]:
        return [p.pid for p in multiprocessing.active_children()]

    def counters(self) -> dict[str, int]:
        """Cumulative exact counts from the program's own registries:
        the pool's (all lanes, parent included) and the server's."""
        pool, serve = self.pool.metrics.get, self.app.registry.get
        counts = {
            f"pool.{key}": int(pool(f"parallel.isa.{key}"))
            for key in ("streams_compiled", "cache_hits",
                        "batched_calls", "batched_lines")
        }
        counts.update({
            # one forked set is ``workers - 1`` processes
            "pool.worker_spawns": int(pool("parallel.pool.workers.forked"))
            * (self.app.runner.workers - 1),
            "pool.binds": int(pool("parallel.pool.binds")),
            "pool.segments_created": int(pool("parallel.shm.created")),
            "pool.segments_reused": int(pool("parallel.shm.reused")),
            "serve.http_requests": int(serve("serve.http_requests")),
            "serve.rejected": sum(
                int(serve(f"serve.jobs_rejected.{cause}"))
                for cause in ("queue_full", "payload", "deck", "invalid",
                              "draining")
            ),
            "serve.polls": self.polls,
            "serve.result_bytes": self.result_bytes,
        })
        return counts

    def event_count(self, job_id: str) -> int:
        """Events in one finished job's log (``GET /jobs/{id}/events``)."""
        return sum(1 for _ in self.client.events(job_id))


@dataclass(frozen=True)
class ServeWorkload:
    name: str

    def catalogue(self, seed: int, smoke: bool) -> list[Item]:
        rng = random.Random(seed)
        cubes = [
            {"cube": 6 if smoke else 10, "sn": 6, "nm": 4, "iterations": 1},
            {"cube": 4 if smoke else 8, "sn": 4, "nm": 2, "iterations": 2},
        ]
        items = []
        for doc in cubes:
            doc.update(_cross_sections(rng))
            deck = deck_from_request(doc)
            items.append(Item(f"cube {doc['cube']} S{doc['sn']} (isa)",
                              deck, True, doc))
        if smoke:
            shield = _shield_deck(rng, (12, 6, 4), 4,
                                  (4, 8, 1, 5, 0, 4), (9, 11, 0, 6, 0, 4))
        else:
            shield = _shield_deck(rng, (12, 10, 8), 4,
                                  (4, 8, 3, 7, 2, 6), (9, 11, 0, 10, 0, 8))
        # a material box makes the runner fall back to the reference kernel
        items.append(Item("shield slab (inline deck text, fallback)", shield,
                          False, {"deck": deck_to_text(shield)}))
        return items

    def order(self, seed: int, client: int):
        """Each client's job order: shuffled rounds of the whole
        catalogue, so any whole number of rounds is the same mix."""
        rng = random.Random(seed * 7919 + client)
        while True:
            round_ = [0, 1, 2]
            rng.shuffle(round_)
            yield from round_

    def session(self, catalogue: list[Item]) -> ServeSession:
        return ServeSession(catalogue)


#: why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        CellWorkload("cell_ref", isa=False, shield=False),
        CellWorkload("cell_isa", isa=True, shield=False),
        CellWorkload("cell_shield", isa=False, shield=True),
        ServeWorkload("serve_pool"),
    )
}
