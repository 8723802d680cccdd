"""The precomputed sweep shape against the line enumeration it caches.

:class:`~repro.sweep.pipelining.SweepShape` holds every jkm diagonal's
gather/scatter index arrays (a unit's ordinates are ``ordinates[mm]``);
``staged_lines_for_diagonal`` builds the same lines one
:class:`StagedLine` at a time and ``diagonal_sizes`` is the closed form
of their count.  All three must agree on every unit, K block and
diagonal, prime extents included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep.geometry import Grid
from repro.sweep.input import InputDeck
from repro.sweep.pipelining import (
    TileSweeper,
    diagonal_sizes,
    staged_lines_for_diagonal,
    sweep_shape,
)

FIELDS = ("mm", "kk", "j_o", "j_g", "k_g")


@st.composite
def geometries(draw):
    jt = draw(st.integers(1, 7))
    mk = draw(st.integers(1, 5))
    kt = mk * draw(st.integers(1, 3))
    sn = draw(st.sampled_from([2, 4, 6]))
    per_octant = sn * (sn + 2) // 8
    mmi = draw(st.sampled_from([m for m in (1, 2, 3) if per_octant % m == 0]))
    return InputDeck(grid=Grid(3, jt, kt), sn=sn, mk=mk, mmi=mmi)


@settings(max_examples=60, deadline=None)
@given(geometries())
def test_index_arrays_are_the_staged_lines(deck):
    sweeper = TileSweeper(deck)
    shape = sweeper.shape
    for unit in sweeper.units:
        blocks = shape.octant(unit.octant)
        assert len(blocks) == len(shape.k_starts)
        for k0, diagonals in zip(shape.k_starts, blocks):
            assert len(diagonals) == len(shape.sizes)
            for d, ix in enumerate(diagonals):
                lines = staged_lines_for_diagonal(
                    deck, unit.octant, unit.ordinates, k0, d
                )
                assert ix.staged_lines(unit.ordinates) == lines
                for name in FIELDS:
                    column = getattr(ix, name)
                    assert column.dtype == np.intp
                    assert column.tolist() == [getattr(ln, name) for ln in lines]
                angle = np.asarray(unit.ordinates)[ix.mm]
                assert angle.tolist() == [ln.angle for ln in lines]
                assert {ix.reverse_i} == {ln.reverse_i for ln in lines}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 13), st.integers(1, 7), st.integers(1, 5))
def test_line_counts_are_the_closed_form(jt, mk, mmi):
    shape = sweep_shape(jt, mk, mk, mmi)
    assert shape.sizes == diagonal_sizes(jt, mk, mmi)
    assert sum(shape.sizes) == jt * mk * mmi


def test_one_shape_per_geometry():
    """Solvers of one deck shape share the arrays; another ``mk`` is
    another shape."""
    deck = InputDeck(grid=Grid(4, 5, 6), sn=4, mk=3)
    assert TileSweeper(deck).shape is TileSweeper(deck.with_(sigma_t=2.0)).shape
    assert TileSweeper(deck).shape is not TileSweeper(deck.with_(mk=2)).shape
