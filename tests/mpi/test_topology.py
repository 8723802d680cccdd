"""Tests for the 2-D Cartesian topology."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CommunicatorError
from repro.mpi import Cart2D, split_extent


class TestCart2D:
    def test_round_trip(self):
        cart = Cart2D(3, 2)
        for rank in range(cart.size):
            p, q = cart.coords(rank)
            assert cart.rank_of(p, q) == rank

    def test_neighbors(self):
        cart = Cart2D(3, 3)
        centre = cart.rank_of(1, 1)
        assert cart.west(centre) == cart.rank_of(0, 1)
        assert cart.east(centre) == cart.rank_of(2, 1)
        assert cart.north(centre) == cart.rank_of(1, 0)
        assert cart.south(centre) == cart.rank_of(1, 2)

    def test_boundary_is_none(self):
        cart = Cart2D(2, 2)
        assert cart.west(cart.rank_of(0, 0)) is None
        assert cart.north(cart.rank_of(0, 0)) is None
        assert cart.east(cart.rank_of(1, 1)) is None
        assert cart.south(cart.rank_of(1, 1)) is None

    def test_rank_validation(self):
        cart = Cart2D(2, 2)
        with pytest.raises(CommunicatorError):
            cart.coords(4)
        with pytest.raises(CommunicatorError):
            cart.rank_of(2, 0)

    def test_figure1_wavefront_diagonals(self):
        """In Figure 1 the wave reaches rank (p, q) after p + q steps; all
        ranks on one anti-diagonal compute the same wave."""
        cart = Cart2D(3, 3)
        by_step: dict[int, set[int]] = {}
        for rank in range(cart.size):
            p, q = cart.coords(rank)
            by_step.setdefault(p + q, set()).add(rank)
        assert len(by_step[0]) == 1
        assert len(by_step[2]) == 3  # the long diagonal of a 3x3 grid


class TestSplitExtent:
    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=16))
    def test_partition_property(self, n, parts):
        if parts > n:
            with pytest.raises(CommunicatorError):
                split_extent(n, parts)
            return
        chunks = split_extent(n, parts)
        assert len(chunks) == parts
        assert chunks[0][0] == 0
        assert sum(c for _, c in chunks) == n
        for (s1, c1), (s2, _) in zip(chunks, chunks[1:]):
            assert s1 + c1 == s2
        counts = [c for _, c in chunks]
        assert max(counts) - min(counts) <= 1  # even distribution

    def test_exact_split(self):
        assert split_extent(50, 2) == [(0, 25), (25, 25)]

    def test_remainder_leading(self):
        assert split_extent(7, 3) == [(0, 3), (3, 2), (5, 2)]
