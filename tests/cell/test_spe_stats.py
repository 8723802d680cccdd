"""Tests for SPE composition details."""

from __future__ import annotations

import pytest

from repro.cell.spe import SPE
from repro.errors import LocalStoreError


class TestCodeReservation:
    def test_code_bytes_shrink_data_capacity(self):
        small_code = SPE(0, code_bytes=8 * 1024)
        big_code = SPE(1, code_bytes=64 * 1024)
        assert (
            small_code.local_store.free_bytes
            > big_code.local_store.free_bytes
        )

    def test_allocations_start_above_code(self):
        spe = SPE(0, code_bytes=24 * 1024)
        buf = spe.local_store.alloc(64)
        assert buf.offset >= 24 * 1024

    def test_oversized_code_rejected(self):
        with pytest.raises(LocalStoreError):
            SPE(0, code_bytes=300 * 1024)
