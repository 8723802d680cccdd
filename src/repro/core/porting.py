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

:class:`HostState` builds the main-memory image of one solve accordingly.
Arrays use the paper's ``[moment][k][j][i]`` layout (Figure 6:
``Flux[n][k][j][i]``) so an I-line is a contiguous row; each moment is a
separate allocation so the bank-offset staggering has something to
stagger.  Without row padding, consecutive rows of the same (j, k)
coordinate across the moment arrays land in the *same* memory-bank
group -- the congruence the bank offsets break up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cell import constants
from ..cell.chip import CellBE
from ..cell.dma import HostArray
from ..sweep.input import InputDeck
from .levels import MachineConfig


@dataclass(frozen=True)
class RowSpec:
    """Byte location of one I-line row inside a host array."""

    host: HostArray
    byte_offset: int
    nbytes: int


class HostState:
    """Main-memory image of the Sweep3D state on the simulated Cell."""

    def __init__(self, deck: InputDeck, config: MachineConfig, chip: CellBE) -> None:
        self.deck = deck
        self.config = config
        self.chip = chip
        g = deck.grid
        it = g.nx
        dt = np.dtype(np.float64)
        if config.aligned_rows:
            per_line = constants.CACHE_LINE_BYTES // dt.itemsize
            self.row_len = -(-it // per_line) * per_line
        else:
            # rows must still be legal DMA sizes (a multiple of 16 bytes,
            # i.e. of 2 doubles) even before the 128-byte alignment step.
            self.row_len = -(-it // 2) * 2
        self.row_bytes = self.row_len * dt.itemsize

        def offset(i: int) -> int:
            return (i % constants.NUM_MEMORY_BANKS) if config.bank_offsets else 0

        # flux and moment-source, one allocation per moment: [k][j][i(row)]
        self.flux_storage = [
            chip.host_alloc(
                f"flux{n}", (g.nz, g.ny, self.row_len), bank_offset=offset(n)
            )
            for n in range(deck.nm)
        ]
        self.msrc_storage = [
            chip.host_alloc(
                f"msrc{n}", (g.nz, g.ny, self.row_len),
                bank_offset=offset(deck.nm + n),
            )
            for n in range(deck.nm)
        ]
        # face scratch (oriented coordinates, reused per block):
        #   phij: [angle-in-block][kk][i], phik: [angle][j][i],
        #   phii: [angle][kk][j] scalars.
        self.phij = chip.host_alloc(
            "phij", (deck.mmi, deck.mk, self.row_len),
            bank_offset=offset(2 * deck.nm),
        )
        self.phik = chip.host_alloc(
            "phik", (deck.mmi, g.ny, self.row_len),
            bank_offset=offset(2 * deck.nm + 1),
        )
        phii_row = -(-g.ny // 16) * 16  # keep rows 128-byte alignable
        self.phii = chip.host_alloc(
            "phii", (deck.mmi, deck.mk, phii_row),
            bank_offset=offset(2 * deck.nm + 2),
        )
        #: I-outflows per line (east-face values: MPI payload / leakage)
        self.phii_out = chip.host_alloc(
            "phii_out", (deck.mmi, deck.mk, phii_row),
            bank_offset=offset(2 * deck.nm + 3),
        )
        self._phii_row = phii_row
        #: per-cell total cross sections, streamed per line like the
        #: original code's Sigt array ([k][j][i] layout; padding lanes
        #: hold the base material so partial rows stay benign).
        self.sigt = chip.host_alloc(
            "sigt", (g.nz, g.ny, self.row_len),
            bank_offset=offset(2 * deck.nm + 4),
        )
        self.sigt[...] = deck.sigma_t
        self.sigt[..., : g.nx] = deck.sigma_t_field().transpose(2, 1, 0)
        # porting step 5: memset the big arrays (host side).
        for arr in (*self.flux_storage, *self.msrc_storage,
                    self.phij, self.phik, self.phii, self.phii_out):
            arr[...] = 0.0

    # -- logical views --------------------------------------------------------

    def flux_logical(self) -> np.ndarray:
        """Flux moments as ``(nm, nx, ny, nz)`` (the solver's convention)."""
        g = self.deck.grid
        stack = np.stack([f[..., : g.nx] for f in self.flux_storage])
        return np.ascontiguousarray(stack.transpose(0, 3, 2, 1))

    def load_moment_source(self, msrc: np.ndarray) -> None:
        """Write a ``(nm, nx, ny, nz)`` moment source into host layout."""
        g = self.deck.grid
        for n in range(self.deck.nm):
            self.msrc_storage[n][..., : g.nx] = msrc[n].transpose(2, 1, 0)

    def zero_flux(self) -> None:
        for f in self.flux_storage:
            f[...] = 0.0

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
