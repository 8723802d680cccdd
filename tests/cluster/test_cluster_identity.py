"""The cluster acceptance matrix: driver flux is bit-identical.

A :class:`~repro.cluster.driver.ClusterDriver` solve -- rank processes
over sockets, or rank threads over the local fabric -- must produce the
byte-for-byte same flux (SHA-256 of the float64 array) as the serial
reference (:class:`repro.sweep.SerialSweep3D`) at every P x Q grid, and
the two transports must agree exactly on every folded tally --
payloads travel as raw float64 bytes, each rank computes serially, and
the driver refolds in serial rank order, so there is no tolerance
anywhere in the chain.  (``CellClusterSweep3D`` and ``KBASweep3D`` are
the local path itself, so they are not referees here.)  The epsilon
referee deck rides the matrix as one more input: the barrier's verdict
must stop it at the serial iteration count, with the serial history.
So does a source/shield deck whose material box straddles the rank
tiles, on the cell and the tile engine: per-cell cross-section rows are
gathered on both sides of every rank boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.driver import default_cluster_config, run_cluster_solve
from repro.core.projections import cluster_projection
from repro.errors import ConfigurationError, ConvergenceError
from repro.sweep import SerialSweep3D
from repro.sweep.flux import flux_digest
from repro.sweep.geometry import Grid
from repro.sweep.input import InputDeck, small_deck

GRIDS = ((1, 2), (2, 2), (2, 4))
TRANSPORTS = ("local", "socket")
#: (grid, deck) inputs of the matrix: the fixed-iteration deck on every
#: grid, the epsilon referee deck on one, and the shield deck on one
CASES = {f"{p}x{q}": ((p, q), "fixed") for p, q in GRIDS}
CASES["2x1-epsilon"] = ((2, 1), "epsilon")
CASES["2x2-shield"] = ((2, 2), "shield")


def make_deck():
    return small_deck(n=8, sn=4, nm=2, iterations=2)


def shield_deck() -> InputDeck:
    """7x6x5 source/shield deck whose material box straddles the rank
    tiles of a 2 x 2 grid, so per-cell sigma_t rows (and fixups) are
    gathered on both sides of every rank boundary."""
    return InputDeck(
        grid=Grid(7, 6, 5), sn=4, nm=2, mk=5, iterations=2,
        scattering_ratio=0.9, source=1.5, source_box=(0, 3, 1, 4, 1, 4),
        material_box=(3, 6, 0, 6, 0, 5),
        material_sigma_t=8.0, material_scattering_ratio=0.1,
    )


@pytest.fixture(scope="module")
def decks(epsilon_deck):
    return {"fixed": make_deck(), "epsilon": epsilon_deck,
            "shield": shield_deck()}


@pytest.fixture(scope="module")
def serial(decks):
    return {name: SerialSweep3D(deck).solve() for name, deck in decks.items()}


@pytest.fixture(scope="module", params=list(CASES))
def grid_reference(request, decks):
    """The local leg of each case, solved once; the socket leg must
    match its folded tallies exactly."""
    (p, q), name = CASES[request.param]
    return (p, q), name, run_cluster_solve(
        decks[name], p, q, transport="local", engine="cell"
    )


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_driver_matches_in_process_cluster(
    decks, serial, grid_reference, transport
):
    (p, q), name, local = grid_reference
    deck, reference = decks[name], serial[name]
    report = local if transport == "local" else run_cluster_solve(
        deck, p, q, transport=transport, engine="cell", spawn="fork"
    )
    assert report.flux_digest == flux_digest(reference.flux)
    ref = local.result
    np.testing.assert_array_equal(ref.flux, report.result.flux)
    assert ref.tally.leakage == report.result.tally.leakage
    assert ref.tally.fixups == report.result.tally.fixups
    assert ref.history == report.result.history == reference.history
    assert report.result.iterations == reference.iterations
    assert report.result.converged and not report.drained
    # and the wire carried exactly what the analytic model predicts
    projection = cluster_projection(
        deck.with_(iterations=reference.iterations),
        default_cluster_config(), p, q,
    )
    assert report.msgs_sent == projection.msgs_per_solve
    assert report.bytes_sent == projection.bytes_per_solve


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_unmet_epsilon_raises(epsilon_deck, transport):
    """Budget exhausted before epsilon: the barrier raises as serial
    does, never a silent ``converged=True``."""
    with pytest.raises(ConvergenceError, match="within 3 iterations"):
        run_cluster_solve(
            epsilon_deck.with_(iterations=3), 2, 1,
            transport=transport, engine="cell", spawn="fork",
        )


def test_local_transport_matches_kba_tile(decks, serial):
    """The local transport on the NumPy tile engine -- the path
    ``KBASweep3D`` runs -- against the serial reference."""
    for name in ("fixed", "shield"):
        ref = serial[name]
        report = run_cluster_solve(
            decks[name], 2, 2, transport="local", engine="tile"
        )
        np.testing.assert_array_equal(ref.flux, report.result.flux)
        assert report.result.tally.fixups == ref.tally.fixups
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
