"""Every engine honours the deck's ``epsilon`` through one stop rule.

All solves share one source iteration
(:func:`repro.sweep.flux.source_iteration`), so an epsilon deck stops
after the same iteration count, on the same flux bits, whatever engine
sweeps it -- and an epsilon that its budget cannot meet raises
:class:`~repro.errors.ConvergenceError` everywhere, never a silent
``converged=True``.  The cluster transports are legs of
``tests/cluster/test_cluster_identity.py``; the served job is in
``tests/serve/test_server.py``.
"""

from __future__ import annotations

import pytest

from repro.core.solver import CellSweep3D
from repro.errors import ConvergenceError
from repro.mpi.wavefront import KBASweep3D
from repro.perf.processors import measured_cell_config
from repro.sweep import SerialSweep3D
from repro.sweep.flux import flux_digest

#: iterations the referee deck needs to reach epsilon = 1e-3
CONVERGED_AT = 9


def _cell(deck, **kwargs):
    with CellSweep3D(deck, **kwargs) as solver:
        return solver.solve()


ENGINES = {
    "hyperplane": lambda deck: SerialSweep3D(deck).solve(),
    "tile": lambda deck: SerialSweep3D(deck, method="tile").solve(),
    "cell": lambda deck: _cell(deck),
    "cell-workers2": lambda deck: _cell(deck, workers=2),
    "cell-isa": lambda deck: _cell(
        deck, config=measured_cell_config().with_(isa_kernel=True)
    ),
    "kba-2x1": lambda deck: KBASweep3D(deck, P=2, Q=1).solve(),
}


@pytest.fixture(scope="module")
def reference(epsilon_deck):
    return SerialSweep3D(epsilon_deck).solve()


def test_reference_stops_early(epsilon_deck, reference):
    assert reference.converged
    assert reference.iterations == CONVERGED_AT < epsilon_deck.iterations
    assert reference.history[-1] < epsilon_deck.epsilon
    assert all(h >= epsilon_deck.epsilon for h in reference.history[:-1])


@pytest.mark.parametrize("engine", list(ENGINES))
def test_engine_stops_at_the_reference_iteration(
    epsilon_deck, reference, engine
):
    result = ENGINES[engine](epsilon_deck)
    assert result.converged
    assert result.iterations == CONVERGED_AT
    assert flux_digest(result.flux) == flux_digest(reference.flux)


@pytest.mark.parametrize("engine", list(ENGINES))
def test_unmet_epsilon_raises(epsilon_deck, engine):
    with pytest.raises(ConvergenceError, match="within 3 iterations"):
        ENGINES[engine](epsilon_deck.with_(iterations=3))
