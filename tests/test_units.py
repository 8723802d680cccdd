"""Tests for repro.units."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units


def test_binary_sizes():
    assert units.kib(256) == 262144


def test_decimal_rates_match_paper_quotes():
    # The paper quotes decimal GB/s: 25.6 GB/s main memory.
    assert units.gb_per_s(25.6) == 25.6e9
    assert units.ghz(3.2) == 3.2e9


@pytest.mark.parametrize(
    "value,alignment,expected",
    [(0, 16, 0), (1, 16, 16), (16, 16, 16), (17, 128, 128), (128, 128, 128)],
)
def test_align_up(value, alignment, expected):
    assert units.align_up(value, alignment) == expected


def test_align_up_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        units.align_up(10, 24)
    with pytest.raises(ValueError):
        units.is_aligned(10, 0)


@given(st.integers(min_value=0, max_value=2**40), st.sampled_from([1, 2, 4, 8, 16, 128]))
def test_align_up_properties(value, alignment):
    aligned = units.align_up(value, alignment)
    assert aligned >= value
    assert aligned - value < alignment
    assert units.is_aligned(aligned, alignment)
