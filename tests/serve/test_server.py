"""End-to-end solve-server tests over real sockets.

The referee is the one the substitution argument needs: the flux a job
comes back with must be **bit-identical** to running
:class:`~repro.core.solver.CellSweep3D` directly on the same deck and
configuration -- the server adds scheduling, queueing and transport,
never arithmetic.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import socket

import numpy as np
import pytest

from repro.core.solver import CellSweep3D
from repro.parallel.pool import PersistentPool
from repro.perf.processors import measured_cell_config
from repro.serve import (
    ServeApp,
    ServeClient,
    ServeClientError,
    ServeLimits,
    SolveRunner,
)
from repro.serve.decks import deck_from_request
from repro.serve.runner import flux_digest
from repro.sweep.deckfile import parse_deck

DECK = {"cube": 6, "sn": 4, "nm": 2, "iterations": 2, "fixup": True}


def run_server(scenario, limits: ServeLimits | None = None,
               scheduler: bool = True):
    """Start an in-process server on a free port, run ``scenario(client,
    app)`` in a worker thread, then shut everything down."""

    async def main():
        with PersistentPool(persistent=True) as pool:
            app = ServeApp(
                runner=SolveRunner(pool=pool, workers=1),
                limits=limits or ServeLimits(),
            )
            await app.start("127.0.0.1", 0)
            if not scheduler:
                app._scheduler_task.cancel()
            client = ServeClient(port=app.port, timeout=120.0)
            try:
                return await asyncio.to_thread(scenario, client, app)
            finally:
                app.draining = True
                await app.stop(drain_timeout=60.0)

    return asyncio.run(main())


class TestReferee:
    def test_server_flux_bit_identical_to_direct_solve(self):
        """The acceptance referee: server-solved flux == CellSweep3D
        run directly, bit for bit (SHA-256 over the array bytes)."""

        def scenario(client, app):
            job = client.submit(**DECK)
            done = client.wait(job["id"])
            assert done["state"] == "done", done.get("error")
            return done

        doc = run_server(scenario)
        result = doc["result"]
        # rebuild the identical solve locally from the job's own
        # canonical deck text (what the server actually ran)
        deck = parse_deck(doc["deck"])
        config = measured_cell_config().with_(isa_kernel=True)
        direct = CellSweep3D(deck, config).solve()
        assert result["flux"]["sha256"] == flux_digest(direct.flux)
        assert result["flux"]["total"] == float(direct.scalar_flux.sum())
        assert result["fixups"] == direct.tally.fixups

    def test_flux_digest_is_the_exact_bytes(self):
        arr = np.arange(8.0).reshape(2, 4)
        assert flux_digest(arr) == hashlib.sha256(arr.tobytes()).hexdigest()
        assert flux_digest(arr) != flux_digest(arr + 1e-300)


class TestWarmCaches:
    def test_second_identical_deck_recompiles_nothing(self):
        """The daemon's whole point: tenant B's identical deck shape
        rides tenant A's warm compiled-ISA cache -- zero recompiles,
        visible both in the job result and on /metrics."""
        from repro.cell.isa_compile import clear_cache

        # other tests in this process may already have compiled this
        # kernel shape; start the "cold tenant" from a cold cache
        clear_cache()

        def scenario(client, app):
            first = client.wait(client.submit(tenant="a", **DECK)["id"])
            compiled_after_first = client.metric(
                "repro_serve_isa_streams_compiled"
            )
            second = client.wait(client.submit(tenant="b", **DECK)["id"])
            compiled_after_second = client.metric(
                "repro_serve_isa_streams_compiled"
            )
            assert first["state"] == "done" and second["state"] == "done"
            assert first["result"]["compile"]["streams_compiled"] > 0
            assert second["result"]["compile"]["streams_compiled"] == 0
            assert compiled_after_second == compiled_after_first
            assert second["result"]["flux"]["sha256"] == (
                first["result"]["flux"]["sha256"]
            )
            assert client.metric("repro_serve_jobs_completed") == 2.0

        run_server(scenario)


class TestHttpSurface:
    def test_endpoints(self):
        def scenario(client, app):
            assert client.healthz()["status"] == "ok"
            from repro import __version__

            assert client.version() == __version__
            assert "shielding" in client.decks()
            job = client.submit(**DECK)
            assert job["state"] == "queued" and job["label"].startswith("6x6x6")
            done = client.wait(job["id"])
            listed = client.jobs()
            assert [j["id"] for j in listed] == [job["id"]]
            assert listed[0]["state"] == "done"
            events = list(client.events(job["id"]))
            states = [e["state"] for e in events if "state" in e]
            assert states[0] == "queued" and states[-1] == "done"
            assert states.index("running") == 1
            progress = [e for e in events if "progress" in e]
            assert progress and progress[-1]["progress"] == done["progress"]["total"]
            text = client.metrics_text()
            assert "# TYPE repro_serve_jobs_accepted counter" in text
            assert "repro_serve_queue_wait_ms_bucket" in text

        run_server(scenario)

    def test_error_statuses(self, caplog):
        def scenario(client, app):
            # unknown job -> 404
            with pytest.raises(ServeClientError) as exc:
                client.job("job-404")
            assert exc.value.status == 404
            # events of an unknown job -> 404
            with pytest.raises(ServeClientError):
                list(client.events("job-404"))
            # malformed deck -> 400
            with pytest.raises(ServeClientError) as exc:
                client.submit(deck="nx = not-a-number\n")
            assert exc.value.status == 400
            # ambiguous source -> 400
            with pytest.raises(ServeClientError) as exc:
                client.submit(cube=6, example="shielding")
            assert exc.value.status == 400
            # deck over the cell budget -> 400
            with pytest.raises(ServeClientError) as exc:
                client.submit(cube=65)
            assert exc.value.status == 400
            # unknown route -> 404
            with pytest.raises(ServeClientError) as exc:
                client._json("GET", "/nope")
            assert exc.value.status == 404
            # body shorter than its Content-Length, then half-close -> 400
            with socket.create_connection(
                ("127.0.0.1", app.port), timeout=30
            ) as sock:
                sock.sendall(b"POST /jobs HTTP/1.1\r\n"
                             b"Content-Length: 100\r\n\r\n"
                             b'{"cube":')
                sock.shutdown(socket.SHUT_WR)
                raw = b"".join(iter(lambda: sock.recv(4096), b""))
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.split()[1] == b"400"
            assert json.loads(body) == {
                "error": "truncated request body", "status": 400,
            }
            # ... and the server is still serving
            assert client.healthz()["status"] == "ok"
            assert client.metric("repro_serve_jobs_rejected_invalid") >= 2.0

        run_server(scenario)
        # no connection handler died on the way (asyncio logs that at ERROR)
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    def test_payload_too_large_is_413_before_buffering(self):
        def scenario(client, app):
            with pytest.raises(ServeClientError) as exc:
                client.submit(deck="#" * 5000)
            assert exc.value.status == 413
            assert client.metric("repro_serve_jobs_rejected_payload") == 1.0

        run_server(scenario, limits=ServeLimits(max_body_bytes=1024))

    def test_queue_full_is_429_over_http(self):
        """With the scheduler parked, the queue saturates and the HTTP
        surface answers 429 (admission, not an exception page)."""

        def scenario(client, app):
            client.submit(**DECK)
            client.submit(**DECK)
            with pytest.raises(ServeClientError) as exc:
                client.submit(**DECK)
            assert exc.value.status == 429
            assert client.metric("repro_serve_jobs_rejected_queue_full") == 1.0

        run_server(
            scenario,
            limits=ServeLimits(max_queue_depth=2, max_concurrent=1),
            scheduler=False,
        )

    def test_material_deck_runs_without_isa(self):
        """A two-material deck cannot use the single-material ISA
        kernel; the runner falls back instead of failing the job.  (The
        ``shielding`` example's materials on a 6x6x4 grid: the one
        boolean asserted does not need its 16^3 S8 x 6 iterations.)"""
        assert deck_from_request({"example": "shielding"}).material_box
        deck_text = """
            nx = 6
            ny = 6
            nz = 4
            sn = 4
            nm = 2
            sigma_t = 0.5
            scattering_ratio = 0.6
            source = 100.0
            source_box = 0 2 0 2 0 2
            material_box = 3 5 0 6 0 4
            material_sigma_t = 8.0
            material_scattering_ratio = 0.05
            iterations = 1
            mk = 2
            mmi = 1
        """

        def scenario(client, app):
            job = client.submit(deck=deck_text)
            done = client.wait(job["id"], timeout=240)
            assert done["state"] == "done", done.get("error")
            assert done["result"]["isa"] is False

        run_server(scenario)


class TestDrain:
    def test_queued_jobs_finish_before_stop(self):
        def scenario(client, app):
            ids = [client.submit(**DECK)["id"] for _ in range(3)]
            return ids

        async def main():
            with PersistentPool(persistent=True) as pool:
                app = ServeApp(
                    runner=SolveRunner(pool=pool, workers=1),
                    limits=ServeLimits(max_concurrent=1),
                )
                await app.start("127.0.0.1", 0)
                client = ServeClient(port=app.port, timeout=120.0)
                ids = await asyncio.to_thread(scenario, client, app)
                await app.stop(drain_timeout=120.0)
                return [app.store.get(i)["state"] for i in ids]

        assert asyncio.run(main()) == ["done", "done", "done"]
