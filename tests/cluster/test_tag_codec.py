"""Property tests of the face-message tag codec.

``mpi/wavefront._tag`` packs ``(axis, octant, ablock, kblock)`` into one
integer that every cluster runtime uses as its face-message key.
Before the field widths were made explicit, a kblock >= 512 silently
aliased into the ablock field -- these tests pin the round-trip over
the *whole* valid domain (against a mixed-radix inverse kept here:
production code only ever compares tags) and the rejection of every
out-of-range field.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicatorError
from repro.mpi.wavefront import (
    TAG_ABLOCKS,
    TAG_AXES,
    TAG_KBLOCKS,
    TAG_LIMIT,
    TAG_OCTANTS,
    _tag,
)


def _decode_tag(tag: int) -> tuple[int, int, int, int]:
    """Mixed-radix inverse of ``_tag`` (kblock is the fastest digit)."""
    rest, kblock = divmod(tag, TAG_KBLOCKS)
    rest, ablock = divmod(rest, TAG_ABLOCKS)
    axis, octant = divmod(rest, TAG_OCTANTS)
    return axis, octant, ablock, kblock


VALID = st.tuples(
    st.integers(0, TAG_AXES - 1),
    st.integers(0, TAG_OCTANTS - 1),
    st.integers(0, TAG_ABLOCKS - 1),
    st.integers(0, TAG_KBLOCKS - 1),
)


@settings(max_examples=300)
@given(VALID)
def test_tag_round_trips(fields):
    axis, octant, ablock, kblock = fields
    tag = _tag(axis, octant, ablock, kblock)
    assert 0 <= tag < TAG_LIMIT
    assert _decode_tag(tag) == fields


@settings(max_examples=300)
@given(VALID, VALID)
def test_tag_is_injective(a, b):
    """Distinct tuples map to distinct tags (no field aliasing)."""
    if a != b:
        assert _tag(*a) != _tag(*b)


@settings(max_examples=100)
@given(
    st.integers(0, TAG_AXES - 1),
    st.integers(0, TAG_OCTANTS - 1),
    st.integers(0, TAG_ABLOCKS - 1),
    st.integers(TAG_KBLOCKS, TAG_KBLOCKS * 4),
)
def test_oversized_kblock_rejected(axis, octant, ablock, kblock):
    """The old codec silently corrupted ablock here; now it must raise."""
    with pytest.raises(CommunicatorError):
        _tag(axis, octant, ablock, kblock)


@pytest.mark.parametrize("fields", [
    (-1, 0, 0, 0),
    (TAG_AXES, 0, 0, 0),
    (0, -1, 0, 0),
    (0, TAG_OCTANTS, 0, 0),
    (0, 0, -1, 0),
    (0, 0, TAG_ABLOCKS, 0),
    (0, 0, 0, -1),
    (0, 0, 0, TAG_KBLOCKS),
])
def test_each_field_validated(fields):
    with pytest.raises(CommunicatorError):
        _tag(*fields)


def test_limit_is_the_field_product():
    assert TAG_LIMIT == TAG_AXES * TAG_OCTANTS * TAG_ABLOCKS * TAG_KBLOCKS
