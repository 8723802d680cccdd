"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sweep.input import small_deck


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for test data."""
    return np.random.default_rng(20070326)  # IPDPS 2007 conference date


@pytest.fixture(scope="session")
def epsilon_deck():
    """The epsilon referee deck: every engine must stop it after the
    same 9 of its 40 budgeted iterations, on the same flux bits."""
    return small_deck(n=6, sn=4, nm=2, iterations=40, mk=3).with_(
        epsilon=1e-3
    )
