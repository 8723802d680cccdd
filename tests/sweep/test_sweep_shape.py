"""The precomputed sweep shape against the line enumeration it caches.

:class:`~repro.sweep.pipelining.SweepShape` holds every jkm diagonal's
gather/scatter index arrays (a unit's ordinates are ``ordinates[mm]``);
``diagonal_lines`` enumerates the same lines in oriented coordinates,
Figure 3's orientation rules map them to storage rows, and
``diagonal_sizes`` is the closed form of their count.  All three must
agree on every unit, K block and diagonal, prime extents included; and
a diagonal's key must name exactly its columns.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep.geometry import Grid
from repro.sweep.input import InputDeck
from repro.sweep.pipelining import (
    DiagonalIndex,
    TileSweeper,
    diagonal_lines,
    diagonal_sizes,
    sweep_shape,
)
from repro.sweep.quadrature import OCTANT_SIGNS

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
def test_index_arrays_are_the_oriented_lines(deck):
    """Each column holds ``diagonal_lines``' lines with Figure 3's
    orientation: ``j_g = j`` under a positive J sign and ``jt-1-j``
    under a negative one, ``k_g = k0+kk`` or ``kt-1-(k0+kk)`` for K."""
    sweeper = TileSweeper(deck)
    shape = sweeper.shape
    g = deck.grid
    jt, kt = g.ny, g.nz
    for unit in sweeper.units:
        sx, sy, sz = OCTANT_SIGNS[unit.octant]
        blocks = shape.octant(unit.octant)
        assert len(blocks) == len(shape.k_starts)
        for k0, diagonals in zip(shape.k_starts, blocks):
            assert len(diagonals) == len(shape.sizes)
            for d, ix in enumerate(diagonals):
                lines = [
                    (mm, kk, j, j if sy > 0 else jt - 1 - j,
                     k0 + kk if sz > 0 else kt - 1 - (k0 + kk))
                    for j, kk, mm in diagonal_lines(jt, deck.mk, deck.mmi, d)
                ]
                assert len(ix) == len(lines)
                for f, name in enumerate(FIELDS):
                    column = getattr(ix, name)
                    assert column.dtype == np.intp
                    assert column.tolist() == [line[f] for line in lines]
                assert ix.reverse_i == (sx < 0)
                angle = np.asarray(unit.ordinates)[ix.mm]
                assert angle.tolist() == [
                    unit.ordinates[line[0]] for line in lines
                ]


@settings(max_examples=60, deadline=None)
@given(geometries())
def test_equal_keys_are_equal_columns(deck):
    """The key transfer plans are cached under is sound and complete:
    over every pair of a shape's diagonals (all octants, all K blocks),
    two keys are equal exactly when the five columns are."""
    g = deck.grid
    shape = sweep_shape(g.ny, g.nz, deck.mk, deck.mmi)
    diagonals = [
        ix for octant in range(8)
        for block in shape.octant(octant) for ix in block
    ]
    for a, b in itertools.combinations_with_replacement(diagonals, 2):
        same_columns = all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for name in FIELDS
        )
        assert (a.key == b.key) == same_columns, (a.key, b.key)


def test_hand_built_keys_are_apart_from_the_shapes():
    """An index built from lines is keyed by them, under a tag no
    shape-built key carries."""
    shape = sweep_shape(4, 4, 2, 1)
    for ix in (ix for block in shape.octant(0) for ix in block):
        lines = np.stack([getattr(ix, name) for name in FIELDS], axis=1)
        hand = DiagonalIndex.of_lines(lines.tolist())
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(hand, name), getattr(ix, name))
        assert hand.key != ix.key
        assert hand.key == DiagonalIndex.of_lines(lines.tolist()).key
    assert (DiagonalIndex.of_lines([(0, 0, 0, 0, 0)]).key
            != DiagonalIndex.of_lines([(0, 0, 0, 0, 1)]).key)


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
