"""The cluster acceptance matrix: driver flux is bit-identical.

A :class:`~repro.cluster.driver.ClusterDriver` solve -- rank processes
over sockets, or rank threads over the local fabric -- must produce the
byte-for-byte same flux (SHA-256 of the float64 array) as the serial
reference (:class:`repro.sweep.SerialSweep3D`) at every P x Q grid, and
the two transports must agree exactly on every folded tally --
payloads travel as raw float64 bytes, each rank computes serially, and
the driver refolds in serial rank order, so there is no tolerance
anywhere in the chain.  (``CellClusterSweep3D`` and ``KBASweep3D`` are
the local path itself, so they are not referees here.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.driver import default_cluster_config, run_cluster_solve
from repro.core.projections import cluster_projection
from repro.errors import ConfigurationError
from repro.sweep import SerialSweep3D
from repro.sweep.flux import flux_digest
from repro.sweep.input import small_deck

GRIDS = ((1, 2), (2, 2), (2, 4))
TRANSPORTS = ("local", "socket")


def make_deck():
    return small_deck(n=8, sn=4, nm=2, iterations=2)


@pytest.fixture(scope="module")
def serial_sha():
    return flux_digest(SerialSweep3D(make_deck()).solve().flux)


@pytest.fixture(scope="module", params=GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
def grid_reference(request):
    """The local leg of each grid, solved once; the socket leg must
    match its folded tallies exactly."""
    p, q = request.param
    return (p, q), run_cluster_solve(
        make_deck(), p, q, transport="local", engine="cell"
    )


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_driver_matches_in_process_cluster(
    serial_sha, grid_reference, transport
):
    (p, q), local = grid_reference
    report = local if transport == "local" else run_cluster_solve(
        make_deck(), p, q, transport=transport, engine="cell", spawn="fork"
    )
    assert report.flux_digest == serial_sha
    ref = local.result
    np.testing.assert_array_equal(ref.flux, report.result.flux)
    assert ref.tally.leakage == report.result.tally.leakage
    assert ref.tally.fixups == report.result.tally.fixups
    assert ref.history == report.result.history
    assert report.result.iterations == make_deck().iterations
    # and the wire carried exactly what the analytic model predicts
    projection = cluster_projection(make_deck(), default_cluster_config(), p, q)
    assert report.msgs_sent == projection.msgs_per_solve
    assert report.bytes_sent == projection.bytes_per_solve


def test_local_transport_matches_kba_tile():
    """The local transport on the NumPy tile engine -- the path
    ``KBASweep3D`` runs -- against the serial reference."""
    deck = make_deck()
    ref = SerialSweep3D(deck).solve()
    report = run_cluster_solve(deck, 2, 2, transport="local", engine="tile")
    np.testing.assert_array_equal(ref.flux, report.result.flux)
    assert report.result.tally.leakage == pytest.approx(
        ref.tally.leakage, rel=1e-12
    )


def test_local_and_socket_agree():
    deck = make_deck()
    local = run_cluster_solve(deck, 2, 2, transport="local", engine="tile")
    sock = run_cluster_solve(
        deck, 2, 2, transport="socket", engine="tile", spawn="fork"
    )
    assert local.flux_digest == sock.flux_digest


@pytest.fixture(scope="module")
def fabric_deck():
    """16-cubed, mk=4, mmi=3: splits unevenly (16/3) over a 3 x 3 grid."""
    deck = small_deck(n=16, sn=4, nm=2, iterations=2, fixup=False,
                      mk=4, mmi=3)
    return deck, flux_digest(SerialSweep3D(deck).solve().flux)


@pytest.mark.parametrize("grid", ((2, 2), (3, 3), (4, 4)),
                         ids=lambda g: f"{g[0]}x{g[1]}")
def test_message_counts_match_model(fabric_deck, grid):
    """Measured face messages and bytes equal the analytic projection
    exactly -- including grids with interior (four-neighbour) ranks --
    and every decomposition lands on the one serial flux."""
    deck, serial_sha = fabric_deck
    p, q = grid
    report = run_cluster_solve(deck, p, q, transport="local", engine="tile")
    projection = cluster_projection(deck, default_cluster_config(), p, q)
    assert report.msgs_sent == projection.msgs_per_solve
    assert report.bytes_sent == projection.bytes_per_solve
    assert report.flux_digest == serial_sha


def test_unknown_transport_rejected():
    # "mpi" included: ranks talk over the local or socket transport only
    for transport in ("mpi", "carrier-pigeon"):
        with pytest.raises(ConfigurationError, match="unknown transport"):
            run_cluster_solve(make_deck(), 1, 2, transport=transport,
                              engine="tile")
