"""The cluster acceptance matrix: driver flux is bit-identical.

A :class:`~repro.cluster.driver.ClusterDriver` solve -- rank processes
over sockets, or rank threads over the local fabric -- must produce the
byte-for-byte same flux (SHA-256 of the float64 array) as the
in-process threaded referee
(:class:`repro.core.cluster.CellClusterSweep3D`) at every P x Q grid --
payloads travel as raw float64 bytes, each rank computes serially, and
the driver refolds in serial rank order, so there is no tolerance
anywhere in the chain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.driver import (
    default_cluster_config,
    flux_sha256,
    run_cluster_solve,
)
from repro.core.cluster import CellClusterSweep3D
from repro.core.projections import cluster_projection
from repro.errors import ConfigurationError
from repro.mpi.wavefront import KBASweep3D
from repro.sweep import SerialSweep3D
from repro.sweep.input import small_deck

GRIDS = ((1, 2), (2, 2), (2, 4))
TRANSPORTS = ("local", "socket")


def make_deck():
    return small_deck(n=8, sn=4, nm=2, iterations=2)


@pytest.fixture(scope="module", params=GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
def grid_reference(request):
    """One in-process referee solve per grid, reused across transports."""
    p, q = request.param
    return (p, q), CellClusterSweep3D(make_deck(), P=p, Q=q).solve()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_driver_matches_in_process_cluster(grid_reference, transport):
    (p, q), ref = grid_reference
    report = run_cluster_solve(
        make_deck(), p, q, transport=transport, engine="cell", spawn="fork"
    )
    assert report.flux_digest == flux_sha256(ref.flux)
    np.testing.assert_array_equal(ref.flux, report.result.flux)
    assert ref.tally.leakage == report.result.tally.leakage
    assert ref.tally.fixups == report.result.tally.fixups
    assert ref.history == report.result.history
    assert ref.iterations == report.result.iterations
    # and the wire carried exactly what the analytic model predicts
    projection = cluster_projection(make_deck(), default_cluster_config(), p, q)
    assert report.msgs_sent == projection.msgs_per_solve
    assert report.bytes_sent == projection.bytes_per_solve


def test_local_transport_matches_kba_tile():
    """The in-process reference transport against the threaded KBA
    runtime, on the cheap NumPy tile engine."""
    deck = make_deck()
    ref = KBASweep3D(deck, P=2, Q=2).solve()
    report = run_cluster_solve(deck, 2, 2, transport="local", engine="tile")
    np.testing.assert_array_equal(ref.flux, report.result.flux)
    assert ref.history == report.result.history
    assert ref.tally.leakage == report.result.tally.leakage


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
    return deck, flux_sha256(SerialSweep3D(deck).solve().flux)


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
