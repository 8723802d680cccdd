"""Property test: solver equivalence over randomized problems.

The keystone equivalence (serial == tile == Cell-simulated) is asserted
over randomly drawn decks -- grid shapes up to 7 cells a side (primes
included), cross sections, scattering, fixups, chunk sizes, an optional
source box and an optional material box, whose per-cell cross sections
reach the kernel as gathered ``sigt`` rows -- not just hand-picked ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.levels import MachineConfig, SyncProtocol
from repro.core.solver import CellSweep3D
from repro.sweep.geometry import Grid
from repro.sweep.input import InputDeck
from repro.sweep.serial import SerialSweep3D


@st.composite
def boxes(draw, shape):
    """A non-empty half-open ``(x0, x1, y0, y1, z0, z1)`` inside ``shape``."""
    bounds = []
    for n in shape:
        lo = draw(st.integers(0, n - 1))
        bounds += [lo, draw(st.integers(lo + 1, n))]
    return tuple(bounds)


@st.composite
def decks(draw):
    nx = draw(st.integers(3, 7))
    ny = draw(st.integers(3, 7))
    nz = draw(st.integers(2, 7))
    mk = draw(st.sampled_from([m for m in range(1, nz + 1) if nz % m == 0]))
    sn = draw(st.sampled_from([2, 4]))
    per_octant = sn * (sn + 2) // 8
    mmi = draw(st.sampled_from([m for m in (1, 3) if per_octant % m == 0]))
    return InputDeck(
        grid=Grid(
            nx, ny, nz,
            draw(st.floats(0.5, 2.0)),
            draw(st.floats(0.5, 2.0)),
            draw(st.floats(0.5, 2.0)),
        ),
        sn=sn,
        nm=draw(st.integers(1, 3)),
        sigma_t=draw(st.floats(0.2, 8.0)),
        scattering_ratio=draw(st.floats(0.0, 0.8)),
        anisotropy=draw(st.floats(0.0, 0.7)),
        source=draw(st.floats(0.0, 5.0)),
        iterations=1,
        fixup=draw(st.booleans()),
        mk=mk,
        mmi=mmi,
        source_box=draw(st.none() | boxes((nx, ny, nz))),
        material_box=draw(st.none() | boxes((nx, ny, nz))),
        material_sigma_t=draw(st.floats(0.2, 8.0)),
        material_scattering_ratio=draw(st.floats(0.0, 0.8)),
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(decks(), st.integers(1, 5), st.integers(1, 8))
def test_three_engines_agree_on_random_decks(deck, chunk_lines, num_spes):
    serial = SerialSweep3D(deck, method="hyperplane").solve()
    tile = SerialSweep3D(deck, method="tile").solve()
    np.testing.assert_array_equal(serial.flux, tile.flux)
    cell = CellSweep3D(
        deck,
        MachineConfig(
            num_spes=num_spes,
            chunk_lines=chunk_lines,
            aligned_rows=True,
            structured_loops=True,
            dma_lists=True,
            sync=SyncProtocol.LS_POKE,
        ),
    ).solve()
    np.testing.assert_array_equal(serial.flux, cell.flux)
    assert serial.tally.fixups == tile.tally.fixups == cell.tally.fixups
    assert cell.tally.leakage == pytest.approx(
        serial.tally.leakage, rel=1e-11, abs=1e-11
    )
