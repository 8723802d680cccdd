"""Closed-form work counting and representative DMA command batches.

Everything the timing model needs about a (deck, config) pair is counted
here without executing the solve: cell visits, I-lines, jkm diagonals,
chunk counts, and -- crucially -- the *actual* DMA command programs a
chunk issues, built by the same :mod:`repro.core.streaming` code the
functional solver uses, so the byte counts and bank histograms of the
timing model cannot drift away from what the simulator really transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..cell.chip import CellBE
from ..cell.dma import DMAKind
from ..cell.mic import MemoryTimingModel, TransferCost
from ..core.levels import MachineConfig
from ..core.porting import HostState
from ..core.streaming import GET_TAGS, PUT_TAG, ChunkBuffers
from ..sweep.input import InputDeck
from ..sweep.pipelining import DiagonalIndex, diagonal_sizes, num_diagonals
from ..sweep.quadrature import Quadrature
from . import calibration


@dataclass(frozen=True)
class WorkCounts:
    """Static work inventory of one full solve."""

    cell_visits: int
    lines: int              # I-lines over the whole solve
    diagonals: int          # jkm diagonal instances over the whole solve
    chunks: int             # scheduled chunks over the whole solve
    blocks: int             # (octant, angle-block, K-block) sweeps x iterations
    it: int                 # cells per line


def count_work(deck: InputDeck, chunk_lines: int = 4) -> WorkCounts:
    """Closed-form work counts for a deck."""
    g = deck.grid
    quad = Quadrature(deck.sn)
    blocks_per_sweep = 8 * (quad.per_octant // deck.mmi) * (g.nz // deck.mk)
    blocks = blocks_per_sweep * deck.iterations
    sizes = diagonal_sizes(g.ny, deck.mk, deck.mmi)
    lines_per_block = sum(sizes)
    chunks_per_block = sum(-(-s // chunk_lines) for s in sizes)
    return WorkCounts(
        cell_visits=deck.cell_visits,
        lines=lines_per_block * blocks,
        diagonals=num_diagonals(g.ny, deck.mk, deck.mmi) * blocks,
        chunks=chunks_per_block * blocks,
        blocks=blocks,
        it=g.nx,
    )


@dataclass(frozen=True)
class ChunkCosts:
    """Per-chunk-size transfer costs, one entry per possible chunk size."""

    get: dict[int, TransferCost]
    put: dict[int, TransferCost]

    def bytes_per_line(self) -> float:
        """Payload bytes moved per line (from the full-size chunk)."""
        size = max(self.get)
        return (self.get[size].payload_bytes + self.put[size].payload_bytes) / size


@lru_cache(maxsize=64)
def chunk_costs(deck: InputDeck, config: MachineConfig) -> ChunkCosts:
    """Transfer costs of representative chunk programs.

    Builds a throwaway chip + host image at the deck's real size, then
    assembles the GET and PUT command programs for mid-domain chunks of
    every size up to ``config.chunk_lines`` and prices them through the
    shared memory model (bank weight per
    :data:`~repro.perf.calibration.BANK_CONFLICT_WEIGHT`).  A chunk of
    ``size`` lines is the first ``size`` rows of one synthetic index.
    """
    chip = CellBE(num_spes=1)
    host = HostState(deck, config, chip)
    bufs = ChunkBuffers(chip.spes[0], deck, config, host.row_len)
    timing = MemoryTimingModel(
        bank_weight=calibration.BANK_CONFLICT_WEIGHT
    )
    g = deck.grid
    mid_j = g.ny // 2
    get: dict[int, TransferCost] = {}
    put: dict[int, TransferCost] = {}
    ix = DiagonalIndex.of_lines([
        (l % deck.mmi, min(l, deck.mk - 1), min(mid_j + l, g.ny - 1),
         min(mid_j + l, g.ny - 1), min(l, g.nz - 1))
        for l in range(config.chunk_lines)
    ])
    for size in range(1, config.chunk_lines + 1):
        rows = slice(0, size)
        get[size] = timing.price(
            bufs._program(host, ix, rows, DMAKind.GET, 0, GET_TAGS[0])
        )
        put[size] = timing.price(
            bufs._program(host, ix, rows, DMAKind.PUT, 0, PUT_TAG)
        )
    return ChunkCosts(get=get, put=put)


def solve_dma_bytes(deck: InputDeck, config: MachineConfig) -> float:
    """Total DMA payload bytes of one full solve (the Sec. 6 "17.6
    Gbytes of data" quantity for the benchmark deck)."""
    work = count_work(deck, config.chunk_lines)
    return chunk_costs(deck, config).bytes_per_line() * work.lines


def solve_flops(deck: InputDeck) -> float:
    """Useful floating-point operations of one full solve."""
    from ..sweep.kernel import flops_per_cell

    return float(deck.cell_visits) * flops_per_cell(deck.nm, deck.fixup)
