"""Shared fixtures for the figure-regeneration benchmarks.

Every bench regenerates one of the paper's evaluation artifacts (table
or figure) through the library's public API, times the regeneration with
pytest-benchmark, asserts the paper's qualitative claims, and writes the
paper-vs-measured table to ``benchmarks/out/`` (ignored scratch; the
tables of record are in ``EXPERIMENTS.md``).  All of it is *simulated*
time; host time is ``benchmarks/suite/``.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR
