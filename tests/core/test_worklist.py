"""Tests for chunking and cyclic SPE assignment."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.worklist import (
    assign_cyclic,
    imbalance,
    make_chunks,
    makespan_lines,
    per_spe_line_counts,
)
from repro.errors import SchedulerError


class TestChunking:
    def test_chunks_of_four(self):
        chunks = make_chunks(10, 4)
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert [r.start for r in chunks] == [0, 4, 8]

    def test_invalid_chunk_size(self):
        with pytest.raises(SchedulerError):
            make_chunks(1, 0)

    def test_cyclic_assignment(self):
        chunks = assign_cyclic(40, 4, 8)
        assert [c.spe for c in chunks] == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]

    def test_empty_diagonal(self):
        assert assign_cyclic(0, 4, 8) == []


class TestClosedForms:
    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_per_spe_counts_match_assignment(self, n, chunk, spes):
        """The closed form used by the performance model must agree with
        the actual scheduler."""
        chunks = assign_cyclic(n, chunk, spes)
        actual = [0] * spes
        for c in chunks:
            actual[c.spe] += c.num_lines
        assert per_spe_line_counts(n, chunk, spes) == actual

    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_makespan_bounds(self, n, chunk, spes):
        m = makespan_lines(n, chunk, spes)
        assert m >= -(-n // spes) if n else m == 0  # at least the even share
        assert m <= n

    def test_perfect_balance_at_multiples_of_32(self):
        """The Figure 9 claim: optimal load balancing when the line count
        is a multiple of chunk_lines x num_spes = 32."""
        assert imbalance(32, 4, 8) == 1.0
        assert imbalance(64, 4, 8) == 1.0
        assert imbalance(33, 4, 8) > 1.0
        assert imbalance(31, 4, 8) > 1.0

    def test_single_chunk_worst_case(self):
        # 4 lines on one SPE while 7 idle: 8x imbalance
        assert imbalance(4, 4, 8) == pytest.approx(8.0)

    def test_negative_lines_rejected(self):
        with pytest.raises(SchedulerError):
            per_spe_line_counts(-1, 4, 8)
        with pytest.raises(SchedulerError):
            assign_cyclic(1, 1, 0)
