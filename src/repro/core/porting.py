"""Host-side array layout: the paper's porting steps as real transforms.

Sec. 5 lists what had to happen to Sweep3D's Fortran arrays before the
SPEs could touch them:

1. zero-based arrays,
2. multi-dimensional arrays flattened (indices computed explicitly),
3. cache-line (128-byte) alignment of every chunk loaded into an SPU,
4. identification of the SPU code candidates,
5. ``memset`` zeroing of each big array;

plus two later refinements: row padding so "the rows of the
'multi-dimensional' arrays are 128-byte aligned", and "adding offsets to
the array allocation to more fairly spread the memory accesses across
the 16 main memory banks".

:class:`HostState` builds the main-memory image of one solve accordingly:
the traversal's :class:`~repro.sweep.pipelining.SweepState` (the
paper's ``[moment][k][j][i]`` layout, Figure 6's ``Flux[n][k][j][i]``,
one allocation per moment so the bank-offset staggering has something
to stagger), allocated through the chip with padded rows and bank
offsets, plus the row addressing the DMA programs are built from.
Without row padding, consecutive rows of the same (j, k) coordinate
across the moment arrays land in the *same* memory-bank group -- the
congruence the bank offsets break up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..cell import constants
from ..cell.chip import CellBE
from ..cell.dma import HostArray
from ..sweep.input import InputDeck
from ..sweep.pipelining import SweepState
from .levels import MachineConfig


@dataclass(frozen=True)
class RowSpec:
    """Byte location of one I-line row inside a host array."""

    host: HostArray
    byte_offset: int
    nbytes: int


class HostState(SweepState):
    """Main-memory image of the Sweep3D state on the simulated Cell."""

    def __init__(self, deck: InputDeck, config: MachineConfig, chip: CellBE) -> None:
        self.config = config
        self.chip = chip
        g = deck.grid
        it = g.nx
        dt = np.dtype(np.float64)
        if config.aligned_rows:
            per_line = constants.CACHE_LINE_BYTES // dt.itemsize
            row_len = -(-it // per_line) * per_line
        else:
            # rows must still be legal DMA sizes (a multiple of 16 bytes,
            # i.e. of 2 doubles) even before the 128-byte alignment step.
            row_len = -(-it // 2) * 2
        self.row_bytes = row_len * dt.itemsize
        # phii rows stay 128-byte alignable
        self._phii_row = -(-g.ny // 16) * 16
        slots = itertools.count()

        def alloc(name: str, shape: tuple[int, ...]) -> np.ndarray:
            # the n-th array starts n banks further on
            slot = next(slots)
            offset = (
                slot % constants.NUM_MEMORY_BANKS if config.bank_offsets else 0
            )
            return chip.host_alloc(name, shape, bank_offset=offset)

        super().__init__(deck, row_len, self._phii_row, alloc)

    # -- row addressing ----------------------------------------------------------

    def _row(self, name: str, storage_index: tuple[int, ...], length: int) -> RowSpec:
        host = self.chip.address_space[name]
        # rows are the last axis; compute the flattened row index.
        shape = host.data.shape
        idx = 0
        for dim, coord in zip(shape[:-1], storage_index):
            idx = idx * dim + coord
        return RowSpec(host, idx * shape[-1] * 8, length * 8)

    def flux_row(self, n: int, j: int, k: int) -> RowSpec:
        return self._row(f"flux{n}", (k, j), self.row_len)

    def msrc_row(self, n: int, j: int, k: int) -> RowSpec:
        return self._row(f"msrc{n}", (k, j), self.row_len)

    def sigt_row(self, j: int, k: int) -> RowSpec:
        return self._row("sigt", (k, j), self.row_len)

    def phij_row(self, mm: int, kk: int) -> RowSpec:
        return self._row("phij", (mm, kk), self.row_len)

    def phik_row(self, mm: int, j: int) -> RowSpec:
        return self._row("phik", (mm, j), self.row_len)

    def phii_cell(self, mm: int, kk: int, j: int) -> RowSpec:
        """The single I-inflow scalar of one line (an 8-byte DMA)."""
        host = self.chip.address_space["phii"]
        idx = (mm * self.deck.mk + kk) * self._phii_row + j
        return RowSpec(host, idx * 8, 8)

    def phii_out_cell(self, mm: int, kk: int, j: int) -> RowSpec:
        """The I-outflow scalar slot of one line."""
        host = self.chip.address_space["phii_out"]
        idx = (mm * self.deck.mk + kk) * self._phii_row + j
        return RowSpec(host, idx * 8, 8)
