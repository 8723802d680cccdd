"""Tests for whole-chip composition (repro.cell.chip, spe, ppe)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cell import constants
from repro.cell.chip import CellBE
from repro.cell.dma import DMACommand, DMAKind
from repro.cell.ppe import PPE_LS_POKE_CYCLES
from repro.errors import CellError, ConfigurationError


class TestChipComposition:
    def test_default_has_eight_spes(self):
        chip = CellBE()
        assert chip.num_spes == 8
        assert len({spe.spe_id for spe in chip.spes}) == 8

    def test_spe_count_validated(self):
        with pytest.raises(ConfigurationError):
            CellBE(num_spes=0)
        with pytest.raises(ConfigurationError):
            CellBE(num_spes=9)

    def test_host_alloc_registers_address(self):
        chip = CellBE()
        arr = chip.host_alloc("flux", (4, 100))
        assert arr.shape == (4, 100)
        assert chip.address_space["flux"].ea % constants.CACHE_LINE_BYTES == 0

    def test_host_alloc_row_padding(self):
        # 50 doubles = 400 B rows pad to 512 B = 64 doubles so each row is
        # 128-byte aligned (the Sec. 5 "rows ... 128-byte aligned" step).
        chip = CellBE()
        arr = chip.host_alloc("phi", (10, 50), pad_rows_to_line=True)
        assert arr.shape == (10, 50)
        storage = chip.address_space["phi"].data
        assert storage.shape == (10, 64)
        assert (storage.strides[0] % constants.CACHE_LINE_BYTES) == 0


class TestTraffic:
    def test_traffic_aggregates_spes(self):
        chip = CellBE(num_spes=2)
        chip.host_alloc("a", 1024)
        host = chip.address_space["a"]
        for spe in chip.spes:
            buf = spe.local_store.alloc_aligned_line(512)
            spe.mfc.enqueue(DMACommand(DMAKind.GET, host, 0, buf, 0, 512))
            spe.mfc.drain_tag(0)
        t = chip.traffic()
        assert t.bytes_get == 1024
        assert t.commands == 2
        assert t.total_bytes == 1024


class TestPPELocalStoreAccess:
    def test_poke_writes_spe_ls(self):
        chip = CellBE(num_spes=1)
        spe = chip.spes[0]
        buf = spe.local_store.alloc(16)
        cycles = chip.ppe.poke_ls(spe, buf.offset, b"\x01\x02\x03\x04")
        assert bytes(buf.as_bytes()[:4].tobytes()) == b"\x01\x02\x03\x04"
        assert cycles == PPE_LS_POKE_CYCLES

    def test_out_of_range_poke_rejected(self):
        chip = CellBE(num_spes=1)
        with pytest.raises(CellError):
            chip.ppe.poke_ls(chip.spes[0], constants.LOCAL_STORE_BYTES - 1, b"xy")
