"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming import clear_schedule_cache
from repro.sweep.input import small_deck


@pytest.fixture(autouse=True)
def cold_unit_schedules():
    """Every test starts with no recorded unit schedules: its first Cell
    sweep of a shape simulates the machine chunk by chunk whatever ran
    before it, and its later sweeps replay, as in a fresh process."""
    clear_schedule_cache()


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
