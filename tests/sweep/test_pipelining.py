"""Tests for MK/MMI pipelining and the structured tile sweep."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InputDeckError, SweepError
from repro.sweep import pipelining
from repro.sweep.input import small_deck
from repro.sweep.pipelining import (
    TileSweeper,
    VacuumBoundary,
    angle_blocks,
    diagonal_lines,
    diagonal_sizes,
    k_blocks,
    num_diagonals,
)

jt_s = st.integers(min_value=1, max_value=12)
mk_s = st.integers(min_value=1, max_value=6)
mmi_s = st.integers(min_value=1, max_value=3)


class TestBlocks:
    def test_angle_blocks_partition(self):
        assert angle_blocks(6, 3) == [[0, 1, 2], [3, 4, 5]]
        assert angle_blocks(6, 1) == [[0], [1], [2], [3], [4], [5]]

    def test_angle_blocks_must_factor(self):
        with pytest.raises(InputDeckError):
            angle_blocks(6, 4)

    def test_k_blocks(self):
        assert k_blocks(50, 10) == [0, 10, 20, 30, 40]

    def test_k_blocks_must_factor(self):
        with pytest.raises(InputDeckError):
            k_blocks(50, 7)


class TestDiagonals:
    def test_trip_count_matches_figure2(self):
        # DO jkm=1,jt+mk-1+mmi-1
        assert num_diagonals(8, 4, 3) == 8 + 4 - 1 + 3 - 1

    def test_figure3_example(self):
        """The paper's Figure 3: jt=8, mk=4, mmi=3, jkm=6 'includes the
        sixth JK diagonal for angle 1, the fifth for angle 2 and the
        fourth for angle 3, that is, il is 12'."""
        lines = diagonal_lines(8, 4, 3, d=5)  # 0-based jkm = 6
        assert len(lines) == 12
        by_angle = {mm: [(j, kk) for j, kk, m in lines if m == mm] for mm in range(3)}
        # angle 0 is on its 6th JK diagonal (j + kk == 5): 4 lines
        assert len(by_angle[0]) == 4
        assert all(j + kk == 5 for j, kk in by_angle[0])
        assert len(by_angle[1]) == 4  # 5th diagonal
        assert len(by_angle[2]) == 4  # 4th diagonal

    @given(jt_s, mk_s, mmi_s)
    @settings(max_examples=60)
    def test_lines_partition_exactly(self, jt, mk, mmi):
        """Every (j, kk, mm) appears on exactly one diagonal."""
        seen = set()
        for d in range(num_diagonals(jt, mk, mmi)):
            for line in diagonal_lines(jt, mk, mmi, d):
                assert line not in seen
                seen.add(line)
        assert len(seen) == jt * mk * mmi

    @given(jt_s, mk_s, mmi_s)
    @settings(max_examples=60)
    def test_sizes_match_enumeration(self, jt, mk, mmi):
        sizes = diagonal_sizes(jt, mk, mmi)
        assert len(sizes) == num_diagonals(jt, mk, mmi)
        for d, expected in enumerate(sizes):
            assert len(diagonal_lines(jt, mk, mmi, d)) == expected
        assert sum(sizes) == jt * mk * mmi

    @given(jt_s, mk_s, mmi_s)
    @settings(max_examples=60)
    def test_dependency_safety(self, jt, mk, mmi):
        """A line's upstream neighbours (j-1 and kk-1, same angle) sit on
        the previous diagonal -- the independence property the paper's
        SPE parallelisation rests on."""
        for d in range(num_diagonals(jt, mk, mmi)):
            for j, kk, mm in diagonal_lines(jt, mk, mmi, d):
                if j > 0:
                    assert (j - 1, kk, mm) in diagonal_lines(jt, mk, mmi, d - 1)
                if kk > 0:
                    assert (j, kk - 1, mm) in diagonal_lines(jt, mk, mmi, d - 1)

    def test_out_of_range_diagonal(self):
        with pytest.raises(SweepError):
            diagonal_lines(4, 2, 1, 99)


class TestTileSweeper:
    def test_moment_source_shape_checked(self):
        deck = small_deck(n=4, mk=2)
        sweeper = TileSweeper(deck)
        with pytest.raises(SweepError):
            sweeper.sweep(np.zeros((deck.nm, 3, 3, 3)))

    @staticmethod
    def _spy_kernel(monkeypatch) -> list[tuple]:
        """Record the arguments of every kernel call the sweeper makes."""
        seen: list[tuple] = []
        real = pipelining.dd_line_block_solve

        def spy(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipelining, "dd_line_block_solve", spy)
        return seen

    def test_executor_sees_expected_block_shapes(self, monkeypatch):
        deck = small_deck(n=4, sn=4, nm=2, iterations=1, mk=2, mmi=3)
        seen = self._spy_kernel(monkeypatch)
        TileSweeper(deck).sweep(np.ones((deck.nm, 4, 4, 4)))
        assert seen, "kernel never invoked"
        for source, _, phi_i, phi_j, phi_k, cx, cy, cz in seen:
            L = len(source)
            assert source.shape == phi_j.shape == phi_k.shape == (L, 4)
            assert phi_i.shape == cx.shape == cy.shape == cz.shape == (L,)

    def test_total_lines_match_closed_form(self, monkeypatch):
        deck = small_deck(n=4, sn=4, nm=2, iterations=1, mk=2, mmi=3)
        seen = self._spy_kernel(monkeypatch)
        TileSweeper(deck).sweep(np.ones((deck.nm, 4, 4, 4)))
        # lines per sweep: octants * angles * jt * kt
        assert sum(len(args[0]) for args in seen) == 8 * 3 * 4 * 4

    def test_vacuum_boundary_collects_leakage(self):
        deck = small_deck(n=4, sn=2, nm=1, iterations=1, mk=2, mmi=1)
        sweeper = TileSweeper(deck)
        msrc = np.ones((1, 4, 4, 4))
        _, tally, boundary = sweeper.sweep(msrc)
        assert isinstance(boundary, VacuumBoundary)
        assert tally.leakage > 0
