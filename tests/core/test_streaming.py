"""Tests for host layout (porting) and local-store streaming."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.cell.chip import CellBE
from repro.cell.dma import DMAKind, DMAListCommand
from repro.core.levels import MachineConfig
from repro.core.porting import HostState
from repro.core.streaming import ChunkBuffers
from repro.errors import ConfigurationError, DMAError, LocalStoreError, MFCError
from repro.sweep.geometry import Grid
from repro.sweep.input import small_deck
from repro.sweep.pipelining import DiagonalIndex


@pytest.fixture
def deck():
    return small_deck(n=8, sn=4, nm=2, iterations=1, mk=2)


def setup(deck, config):
    chip = CellBE(num_spes=1)
    host = HostState(deck, config, chip)
    bufs = ChunkBuffers(chip.spes[0], deck, config, host.row_len)
    return chip, host, bufs


def lines_for(deck, n=2, repeat=1):
    """A chunk of angle 0's lines at J rows ``0..n-1`` of K plane 0,
    ``repeat`` times over: a hand-built index and all its rows."""
    ix = DiagonalIndex.of_lines([(0, 0, j, j, 0) for j in range(n)] * repeat)
    return ix, slice(0, len(ix))


class TestHostState:
    def test_aligned_rows_are_padded_to_cache_line(self, deck):
        _, host, _ = setup(deck, MachineConfig(aligned_rows=True))
        assert host.row_bytes % 128 == 0
        assert host.row_len >= deck.grid.nx

    def test_unaligned_rows_are_tight(self, deck):
        _, host, _ = setup(deck, MachineConfig())
        assert host.row_len == deck.grid.nx

    def test_flux_logical_round_trip(self, deck):
        _, host, _ = setup(deck, MachineConfig(aligned_rows=True))
        g = deck.grid
        host.flux_storage[1][3, 4, 5] = 7.0  # [k][j][i] layout
        logical = host.flux_logical()
        assert logical.shape == (deck.nm, g.nx, g.ny, g.nz)
        assert logical[1, 5, 4, 3] == 7.0

    def test_load_moment_source_round_trip(self, deck, rng):
        _, host, _ = setup(deck, MachineConfig(aligned_rows=True))
        msrc = rng.random((deck.nm, *deck.grid.shape))
        host.load_moment_source(msrc)
        for n in range(deck.nm):
            np.testing.assert_array_equal(
                host.msrc_storage[n][..., : deck.grid.nx],
                msrc[n].transpose(2, 1, 0),
            )

    def test_bank_offsets_stagger_moment_arrays(self, deck):
        from repro.cell.dma import bank_of

        chip_plain, host_plain, _ = setup(deck, MachineConfig(aligned_rows=True))
        chip_off, host_off, _ = setup(
            deck, MachineConfig(aligned_rows=True, bank_offsets=True)
        )
        def start_banks(chip):
            return [bank_of(chip.address_space[f"flux{n}"].ea) for n in range(deck.nm)]
        assert len(set(start_banks(chip_off))) > 1 or deck.nm == 1

    def test_row_specs_address_correct_bytes(self, deck):
        chip, host, _ = setup(deck, MachineConfig(aligned_rows=True))
        host.flux_storage[0][2, 3, :] = np.arange(host.row_len)
        spec = host.flux_row(0, j=3, k=2)
        view = spec.host.bytes_view()[spec.byte_offset : spec.byte_offset + spec.nbytes]
        np.testing.assert_array_equal(
            view.view(np.float64), np.arange(host.row_len, dtype=np.float64)
        )

    def test_phii_cells_are_distinct(self, deck):
        _, host, _ = setup(deck, MachineConfig())
        offsets = {
            host.phii_cell(mm, kk, j).byte_offset
            for mm in range(deck.mmi)
            for kk in range(deck.mk)
            for j in range(deck.grid.ny)
        }
        assert len(offsets) == deck.mmi * deck.mk * deck.grid.ny


class TestChunkBuffers:
    def test_double_buffer_doubles_ls_footprint(self, deck):
        _, _, single = setup(deck, MachineConfig(aligned_rows=True))
        _, _, double = setup(
            deck, MachineConfig(aligned_rows=True, double_buffer=True)
        )
        assert double.ls_bytes == 2 * single.ls_bytes

    def test_benchmark_working_set_fits_in_local_store(self):
        """The paper's streaming design exists because the working set
        must fit 256 KB: prove it for the 50-cubed deck, double-buffered."""
        from repro.sweep.input import benchmark_deck

        deck = benchmark_deck()
        _, _, bufs = setup(
            deck, MachineConfig(aligned_rows=True, double_buffer=True)
        )
        assert bufs.ls_bytes < 256 * 1024 - 24 * 1024

    def test_oversized_working_set_rejected(self):
        """A chunk size that cannot fit must fail loudly at setup."""
        deck = small_deck(n=8, sn=4, nm=2, iterations=1, mk=2).with_(nm=4)
        config = MachineConfig(aligned_rows=True, double_buffer=True,
                               chunk_lines=1024)
        with pytest.raises(LocalStoreError, match="local store exhausted"):
            setup(deck, config)

    def test_stage_in_delivers_host_bytes(self, deck, rng):
        chip, host, bufs = setup(deck, MachineConfig(aligned_rows=True))
        data = rng.random((deck.nm, *deck.grid.shape))
        host.load_moment_source(data)
        ix, rows = lines_for(deck, 2)
        bufs.stage_in(host, ix, rows)
        views = bufs.views(0)
        for n in range(deck.nm):
            for l, (j_g, k_g) in enumerate(zip(ix.j_g[rows], ix.k_g[rows])):
                np.testing.assert_array_equal(
                    views["msrc"][n, l, : deck.grid.nx],
                    data[n, :, j_g, k_g],
                )

    def test_stage_out_writes_back(self, deck):
        chip, host, bufs = setup(deck, MachineConfig(aligned_rows=True))
        chunk = lines_for(deck, 2)
        bufs.stage_in(host, *chunk)
        views = bufs.views(0)
        views["flux"][:, :2, :] = 3.5
        bufs.stage_out(host, *chunk)
        for n in range(deck.nm):
            np.testing.assert_array_equal(
                host.flux_storage[n][0, 0, :], np.full(host.row_len, 3.5)
            )

    def test_dma_lists_used_when_configured(self, deck):
        chip, host, bufs = setup(
            deck, MachineConfig(aligned_rows=True, dma_lists=True)
        )
        rows = bufs.rows_for_chunk(host, *lines_for(deck, 2), DMAKind.GET)
        cmds = bufs._commands(DMAKind.GET, rows, 0, 2)
        assert all(isinstance(c, DMAListCommand) for c in cmds)
        # one list per (buffer kind, moment):
        # nm msrc + 1 sigt + nm flux + 3 faces
        assert len(cmds) == 2 * deck.nm + 4

    def test_individual_commands_by_default(self, deck):
        chip, host, bufs = setup(deck, MachineConfig(aligned_rows=True))
        rows = bufs.rows_for_chunk(host, *lines_for(deck, 2), DMAKind.GET)
        cmds = bufs._commands(DMAKind.GET, rows, 0, 2)
        assert len(cmds) == len(rows)

    def test_oversized_chunk_rejected(self, deck):
        chip, host, bufs = setup(deck, MachineConfig(aligned_rows=True))
        with pytest.raises(ConfigurationError):
            bufs.stage_in(host, *lines_for(deck, 5))

    def test_traffic_accounted(self, deck):
        chip, host, bufs = setup(deck, MachineConfig(aligned_rows=True))
        chunk = lines_for(deck, 2)
        bufs.stage_in(host, *chunk)
        bufs.stage_out(host, *chunk)
        stats = chip.spes[0].mfc.stats
        assert stats.bytes_get > 0
        assert stats.bytes_put > 0
        # per line: nm msrc + 1 sigt + nm flux rows + 2 face rows + 1 scalar
        expected_get = 2 * ((2 * deck.nm + 3) * host.row_bytes + 8)
        assert stats.bytes_get == expected_get


@pytest.fixture(params=[True, False], ids=["planned", "command-path"])
def path(request):
    """Stage through plan build + replay, or through the MFC command
    path: both must reject a bad program with the same error type."""
    from repro.core import streaming

    streaming.clear_plan_cache()
    with contextlib.nullcontext() if request.param else streaming._command_path():
        yield


class TestStagingErrors:
    """The DMA rules hold on whichever path stages the chunk."""

    LISTS = MachineConfig(aligned_rows=True, dma_lists=True)

    def test_unaligned_row_rejected(self, deck, path):
        chip, host, bufs = setup(deck, self.LISTS)
        chip.address_space["flux0"].ea += 8
        with pytest.raises(DMAError, match="not 16-byte aligned"):
            bufs.stage_in(host, *lines_for(deck, 2))

    def test_oversize_element_rejected(self, path):
        # a 2050-cell row is 16400 bytes: past the 16 KB transfer limit
        deck = small_deck(n=2, sn=4, nm=1, iterations=1, mk=2).with_(
            grid=Grid(2050, 2, 2)
        )
        chip, host, bufs = setup(deck, MachineConfig(chunk_lines=1))
        with pytest.raises(DMAError, match="exceeds the 16384-byte maximum"):
            bufs.stage_in(host, *lines_for(deck, 1))

    def test_overlong_list_rejected(self, path):
        deck = small_deck(n=2, sn=4, nm=1, iterations=1, mk=2)
        chip, host, bufs = setup(
            deck, MachineConfig(dma_lists=True, chunk_lines=2049)
        )
        with pytest.raises(DMAError, match="2048-element maximum"):
            bufs.stage_in(host, *lines_for(deck, 1, repeat=2049))

    def test_tag_out_of_range_rejected(self, deck, path, monkeypatch):
        from repro.core import streaming

        monkeypatch.setattr(streaming, "PUT_TAG", 32)
        chip, host, bufs = setup(deck, self.LISTS)
        with pytest.raises(DMAError, match="MFC tag must be in"):
            bufs.stage_out(host, *lines_for(deck, 2))

    def test_local_store_overrun_rejected(self, deck, path, monkeypatch):
        chip, host, bufs = setup(deck, self.LISTS)
        monkeypatch.setattr(
            ChunkBuffers, "_row_offset",
            lambda self, kind, n, line: bufs._bufs[0][kind].nbytes,
        )
        with pytest.raises(DMAError, match="overruns"):
            bufs.stage_in(host, *lines_for(deck, 2))

    def test_oversized_chunk_rejected_on_the_way_out(self, deck, path):
        chip, host, bufs = setup(deck, self.LISTS)
        with pytest.raises(ConfigurationError, match="exceeds buffer capacity"):
            bufs.stage_out(host, *lines_for(deck, 5))

    def test_queue_full_of_other_tags_is_reported_as_such(self, deck):
        """``issue`` waits on its own tag group only: with the queue
        full of another group's commands there is nothing of its own to
        wait on, and the caller must see the back-pressure error, not
        'wait on empty tag group'."""
        from repro.core.streaming import GET_TAGS

        chip, host, bufs = setup(deck, MachineConfig(aligned_rows=True))
        mfc = chip.spes[0].mfc
        other = bufs._program(host, *lines_for(deck, 2), DMAKind.GET, 0, GET_TAGS[1])
        for cmd in other[: mfc.queue_depth]:
            mfc.enqueue(cmd)
        assert mfc.pending == mfc.queue_depth
        mine = bufs._program(host, *lines_for(deck, 1), DMAKind.GET, 0, GET_TAGS[0])
        with pytest.raises(MFCError, match="queue full"):
            bufs.issue(mine, GET_TAGS[0])
        assert mfc.pending_tags() == {GET_TAGS[1]}

    def test_issue_drains_its_own_tag_under_back_pressure(self, deck):
        from repro.core.streaming import GET_TAGS

        chip, host, bufs = setup(deck, MachineConfig(aligned_rows=True))
        mfc = chip.spes[0].mfc
        program = bufs._program(host, *lines_for(deck, 3), DMAKind.GET, 0, GET_TAGS[0])
        assert len(program) > mfc.queue_depth
        bufs.issue(program, GET_TAGS[0])
        assert mfc.pending == len(program) - mfc.queue_depth
