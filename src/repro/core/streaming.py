"""Data-streaming level: staging chunk working sets through local stores.

Each scheduled chunk (up to four I-lines) owns a *working set*: per line,
the ``nm`` moment-source rows, the ``nm`` flux rows (read-modify-write),
the J- and K-inflow face rows (read-modify-write), and the I-inflow
scalar.  This module allocates the local-store buffers for that working
set -- doubled when double buffering is on, so the capacity claim of the
paper's streaming design is *proved* against the 256 KB allocator -- and
assembles the DMA command programs in the two styles the paper compares:

* **individual commands** -- one MFC command per row (the pre-DMA-list
  implementation).  A chunk needs more commands than the 16-entry MFC
  queue holds, so the stager drains mid-build exactly like real code
  had to;
* **DMA lists** -- one list command per host array, whose elements are
  the (up to four) 512-byte rows ("lists of 512-byte DMAs (both for
  puts and gets)", Sec. 6).

The simulator applies the paper's own optimisation to itself: a chunk's
validated command programs are assembled once and *lowered* to a
:class:`TransferPlan` -- one row-index table per host array, plus what
each MFC batch costs and adds to the traffic statistics -- kept in a
process-global cache keyed by value (host layout, local-store layout,
machine parameters and the chunk's line coordinates).  A warm
``stage_in``/``stage_out`` replays the plan: one gather or scatter per
host array, then the same statistics, metrics and trace events the
command path produces, in the same order.  Plans are lowered from the
validated commands (``rows_for_chunk`` -> ``_commands``) priced by the
MIC model; the command path proper (-> ``issue`` -> MFC -> MIC) referees
them in the tests and still runs whenever the MFC queue is not empty on
entry.
"""

from __future__ import annotations

import contextlib
import itertools
from array import array
from dataclasses import dataclass

import numpy as np

from ..cell.dma import DMACommand, DMAKind, DMAListCommand
from ..cell.local_store import LSBuffer
from ..cell.mfc import batch_delta
from ..cell.mic import TransferCost
from ..cell.spe import SPE
from ..errors import ConfigurationError
from ..metrics.registry import spe_metric
from ..sweep.input import InputDeck
from ..sweep.pipelining import StagedLine
from ..trace.bus import spe_track
from .levels import MachineConfig
from .porting import HostState, RowSpec

#: MFC tag groups used by the stager: gets of buffer set 0/1, puts.
GET_TAGS = (2, 3)
PUT_TAG = 5

#: Entry cap of the process-global transfer-plan cache (cleared
#: wholesale on overflow; a miss only costs a rebuild).
PLAN_CACHE_MAX_ENTRIES: int = 1 << 15


@dataclass(frozen=True, slots=True)
class ProgramShape:
    """What one direction of a lowered chunk shares with every chunk of
    as many lines under the same layout: which host array pairs with
    which run of local-store units, and what each MFC batch (the
    commands in flight together when their tag group is waited on)
    enqueues and adds to the traffic statistics.  A unit is one
    transfer element: a row, or an I-face scalar."""

    #: per host array: ``((array, unit bytes), slot in the plan's
    #: tables, (LS buffer, unit bytes, first unit, past-the-last unit))``
    moves: tuple[tuple[tuple[str, int], int, tuple[str, int, int, int]], ...]
    #: per batch: what it adds to ``mfc.stats``
    #: (:func:`repro.cell.mfc.batch_delta`), and per command the
    #: ``DmaEnqueue`` record ``(bytes, LS buffer, byte offset in it)``
    batches: tuple[tuple[tuple, tuple[tuple[int, str, int], ...]], ...]


@dataclass(frozen=True, slots=True)
class TransferPlan:
    """A chunk's GET and PUT programs, lowered: where its rows live in
    each host array and what each batch costs.  Buffer sets differ in
    local-store base only, so one plan serves both."""

    #: the distinct unit-index tables the moves refer to by slot (the
    #: moment arrays all index the same ``(k, j)`` rows)
    tables: tuple[np.ndarray, ...]
    get: ProgramShape
    get_costs: tuple[TransferCost, ...]
    put: ProgramShape
    put_costs: tuple[TransferCost, ...]


class _PlanCache:
    """The process-global plan cache.  Keys are values, never object
    identities, so an entry outlives the solver that built it and is
    inherited by forked pool workers.  Plain dicts: one solve thread
    per process fills them, and a lost race costs one rebuild."""

    def __init__(self) -> None:
        #: (layout id, chunk line coordinates) -> plan
        self.plans: dict[tuple, TransferPlan] = {}
        #: layout value (see ``ChunkBuffers._bind``) -> small id, so the
        #: per-chunk key does not rehash the whole layout
        self.layouts: dict[tuple, int] = {}
        #: shapes interned by value
        self.shapes: dict[tuple, ProgramShape] = {}
        #: batch costs interned by bank signature: batches whose rows
        #: sit in the same banks cost the same wherever the arrays are
        self.costs: dict[tuple, TransferCost] = {}
        self.built = 0
        # never reset: an id handed out before clear() must not come to
        # mean another layout while a live ChunkBuffers still holds it
        self._ids = itertools.count()

    def layout_id(self, layout: tuple) -> int:
        found = self.layouts.get(layout)
        if found is None:
            found = self.layouts[layout] = next(self._ids)
        return found

    def clear(self) -> None:
        self.plans.clear()
        self.layouts.clear()
        self.shapes.clear()
        self.costs.clear()


_CACHE = _PlanCache()

#: False inside :func:`_command_path`
_planned = True


@contextlib.contextmanager
def _command_path():
    """Stage every chunk through the MFC command path and build no
    plans -- for the tests that referee plan replay against it."""
    global _planned
    _planned = False
    try:
        yield
    finally:
        _planned = True


def plan_cache_info() -> dict[str, int]:
    """Occupancy and lifetime builds of this process's plan cache."""
    return {
        "entries": len(_CACHE.plans),
        "capacity": PLAN_CACHE_MAX_ENTRIES,
        "costs": len(_CACHE.costs),
        "built": _CACHE.built,
    }


def clear_plan_cache() -> None:
    """Drop every transfer plan (tests; never needed for correctness)."""
    _CACHE.clear()


class ChunkBuffers:
    """Local-store working-set buffers for one SPE.

    ``views(s)`` exposes buffer set ``s`` as NumPy arrays backed by the
    actual local-store bytes, so the kernel computes on what the DMA
    engine delivered -- a missing wait shows up as zeros, like hardware.
    """

    def __init__(self, spe: SPE, deck: InputDeck, config: MachineConfig,
                 row_len: int) -> None:
        self.spe = spe
        self.deck = deck
        self.config = config
        self.row_len = row_len
        self.L = config.chunk_lines
        self.sets = 2 if config.double_buffer else 1
        ls = spe.local_store
        nm = deck.nm
        row_bytes = row_len * 8
        self._bufs: list[dict[str, LSBuffer]] = []
        alloc = (
            ls.alloc_aligned_line
            if config.aligned_rows
            else lambda n, label: ls.alloc(n, alignment=16, label=label)
        )
        for s in range(self.sets):
            self._bufs.append(
                {
                    "msrc": alloc(nm * self.L * row_bytes, label=f"msrc[{s}]"),
                    "flux": alloc(nm * self.L * row_bytes, label=f"flux[{s}]"),
                    "sigt": alloc(self.L * row_bytes, label=f"sigt[{s}]"),
                    "phij": alloc(self.L * row_bytes, label=f"phij[{s}]"),
                    "phik": alloc(self.L * row_bytes, label=f"phik[{s}]"),
                    "phii": alloc(max(self.L, 2) * 8, label=f"phii[{s}]"),
                }
            )
        # the buffers live as long as this object, so their NumPy views
        # can be built once per set and reused for every chunk.
        self._views: list[dict[str, np.ndarray] | None] = [None] * self.sets
        # what plan replay moves bytes between, as (units, unit bytes)
        # views made on first use: the arrays of the host image the
        # plans are bound to (see _bind) and runs of each buffer set
        self._host: HostState | None = None
        self._layout = -1
        self._host_units: dict[tuple, np.ndarray] = {}
        self._ls_units: list[dict[tuple, np.ndarray]] = [
            {} for _ in range(self.sets)
        ]

    @property
    def ls_bytes(self) -> int:
        """Total local-store bytes held by the working-set buffers."""
        return sum(b.nbytes for s in self._bufs for b in s.values())

    def ls_regions(self, s: int) -> tuple[tuple[int, int], ...]:
        """Absolute (start, size) local-store ranges of buffer set ``s``
        -- the kernel's working-set footprint, as reported in KernelExec
        trace events for the DMA-hazard sanitizer."""
        return tuple(
            sorted((b.offset, b.nbytes) for b in self._bufs[s].values())
        )

    def views(self, s: int = 0) -> dict[str, np.ndarray]:
        """NumPy views over buffer set ``s`` (built once and reused; each
        view aliases the live local-store bytes)."""
        cached = self._views[s]
        if cached is not None:
            return cached
        nm, L, R = self.deck.nm, self.L, self.row_len
        bufs = self._bufs[s]
        cached = {
            "msrc": bufs["msrc"].as_array(np.float64, (nm, L, R)),
            "flux": bufs["flux"].as_array(np.float64, (nm, L, R)),
            "sigt": bufs["sigt"].as_array(np.float64, (L, R)),
            "phij": bufs["phij"].as_array(np.float64, (L, R)),
            "phik": bufs["phik"].as_array(np.float64, (L, R)),
            "phii": bufs["phii"].as_array(np.float64)[:L],
        }
        self._views[s] = cached
        return cached

    # -- command assembly ----------------------------------------------------------

    def _row_offset(self, kind: str, n: int, line: int) -> int:
        """Byte offset of (moment n, line) inside an LS buffer."""
        if kind in ("msrc", "flux"):
            return (n * self.L + line) * self.row_len * 8
        if kind == "phii":
            return line * 8
        return line * self.row_len * 8

    def _grouped(
        self, rows: list[tuple[str, int, int, RowSpec]]
    ) -> list[tuple[str, int, list[tuple[int, RowSpec]]]]:
        """``rows`` gathered per host array, arrays in order of first
        appearance: ``(buffer, moment, [(line, host row), ...])`` with
        the lines ascending, which is the order they fill the local
        store in."""
        grouped: dict[tuple[str, int, str], list[tuple[int, RowSpec]]] = {}
        for buffer, n, line, spec in rows:
            grouped.setdefault((buffer, n, spec.host.name), []).append((line, spec))
        return [
            (buffer, n, sorted(entries, key=lambda e: e[0]))
            for (buffer, n, _), entries in grouped.items()
        ]

    def _commands(
        self,
        kind: DMAKind,
        rows: list[tuple[str, int, int, RowSpec]],  # (buffer, moment, line, host row)
        s: int,
        tag: int,
    ) -> list:
        """Build the transfer program for a set of rows.

        With ``dma_lists`` enabled, rows of the same host array merge
        into one DMA-list command; otherwise each row is an individual
        command.
        """
        bufs = self._bufs[s]
        if not self.config.dma_lists:
            return [
                DMACommand(
                    kind,
                    spec.host,
                    spec.byte_offset,
                    bufs[buffer],
                    self._row_offset(buffer, n, line),
                    spec.nbytes,
                    tag=tag,
                )
                for buffer, n, line, spec in rows
            ]
        return [
            DMAListCommand(
                kind,
                entries[0][1].host,
                [(spec.byte_offset, spec.nbytes) for _, spec in entries],
                bufs[buffer],
                # list elements fill LS contiguously from the first row's slot
                ls_offset=self._row_offset(buffer, n, entries[0][0]),
                tag=tag,
            )
            for buffer, n, entries in self._grouped(rows)
        ]

    def rows_for_chunk(
        self, host: HostState, lines: list[StagedLine], direction: DMAKind
    ) -> list[tuple[str, int, int, RowSpec]]:
        """The (buffer, moment, line, host-row) tuples of a chunk's
        working set.  GET fetches everything; PUT writes back the
        read-modify-write subset (flux, faces, I-outflow)."""
        nm = self.deck.nm
        rows: list[tuple[str, int, int, RowSpec]] = []
        for l, ln in enumerate(lines):
            if direction is DMAKind.GET:
                for n in range(nm):
                    rows.append(("msrc", n, l, host.msrc_row(n, ln.j_g, ln.k_g)))
                rows.append(("sigt", 0, l, host.sigt_row(ln.j_g, ln.k_g)))
            for n in range(nm):
                rows.append(("flux", n, l, host.flux_row(n, ln.j_g, ln.k_g)))
            rows.append(("phij", 0, l, host.phij_row(ln.mm, ln.kk)))
            rows.append(("phik", 0, l, host.phik_row(ln.mm, ln.j_o)))
            if direction is DMAKind.GET:
                rows.append(("phii", 0, l, host.phii_cell(ln.mm, ln.kk, ln.j_o)))
            else:
                rows.append(("phii", 0, l, host.phii_out_cell(ln.mm, ln.kk, ln.j_o)))
        return rows

    def _program(
        self,
        host: HostState,
        lines: list[StagedLine],
        direction: DMAKind,
        s: int,
        tag: int,
    ) -> list:
        """The chunk's validated command program, built afresh."""
        return self._commands(
            direction, self.rows_for_chunk(host, lines, direction), s, tag
        )

    def issue(self, commands: list, tag: int) -> None:
        """Enqueue a command program, draining when the MFC queue fills
        (the back-pressure real SPU code experiences with individual
        commands).  Only this program's own tag group is waited on: a
        queue full of other tags is the caller's protocol error, and
        ``enqueue`` says so."""
        mfc = self.spe.mfc
        for cmd in commands:
            if mfc.pending >= mfc.queue_depth and tag in mfc.pending_tags():
                mfc.drain_tag(tag)
            mfc.enqueue(cmd)

    # -- transfer plans ------------------------------------------------------------

    def _bind(self, host: HostState) -> None:
        """Point plan replay at ``host`` and resolve the layout its
        plans are cached under: everything a program's addresses, batch
        boundaries and costs depend on besides the chunk's lines --
        where each host array lives (shapes fix every row stride
        ``rows_for_chunk`` uses), where this SPE's buffers live, and
        the machine parameters."""
        mfc = self.spe.mfc
        self._layout = _CACHE.layout_id((
            tuple(
                (a.name, a.ea, a.data.shape)
                for a in host.chip.address_space.arrays()
            ),
            tuple(
                (name, b.offset, b.nbytes)
                for bufs in self._bufs for name, b in bufs.items()
            ),
            self.L, self.row_len, self.deck.nm, self.config.dma_lists,
            mfc.queue_depth, mfc.timing.overlap_commands, mfc.timing.bank_weight,
        ))
        self._host = host
        self._host_units = {}

    def _lower(self, host: HostState, lines: list[StagedLine],
               direction: DMAKind, slots: dict[tuple, int],
               ) -> tuple[ProgramShape, tuple[TransferCost, ...]]:
        """Assemble one direction's command program and lower it;
        ``slots`` numbers the plan's distinct unit-index tables.

        The commands are built for buffer set 0 and then dropped: what
        remains is where the bytes go and what each batch costs.  Every
        set holds the same buffers at offsets that are multiples of the
        16-byte DMA quantum (the coarsest alignment a transfer is held
        to), so a program that is valid for one set is valid for all.  Entered with an empty queue, ``issue`` fills
        it ``queue_depth`` commands at a time and waits on the tag in
        between, so those are the batches.
        """
        mfc = self.spe.mfc
        timing = mfc.timing
        rows = self.rows_for_chunk(host, lines, direction)
        tag = GET_TAGS[0] if direction is DMAKind.GET else PUT_TAG
        commands = self._commands(direction, rows, 0, tag)
        labels = {id(b): name for name, b in self._bufs[0].items()}
        batches = [
            commands[i:i + mfc.queue_depth]
            for i in range(0, len(commands), mfc.queue_depth)
        ]
        enqueues = tuple(
            tuple((c.total_bytes, labels[id(c.ls_buffer)], c.ls_offset)
                  for c in batch)
            for batch in batches
        )
        moves = []
        for buffer, n, entries in self._grouped(rows):
            unit = entries[0][1].nbytes
            first = self._row_offset(buffer, n, entries[0][0]) // unit
            units = tuple(spec.byte_offset // unit for _, spec in entries)
            moves.append((
                (entries[0][1].host.name, unit),
                slots.setdefault(units, len(slots)),
                (buffer, unit, first, first + len(units)),
            ))
        # (lists and single commands of one element enqueue alike but
        # count differently)
        key = (direction, self.config.dma_lists, tuple(moves), enqueues)
        shape = _CACHE.shapes.get(key)
        if shape is None:
            shape = _CACHE.shapes[key] = ProgramShape(
                key[2], tuple(zip(map(batch_delta, batches), enqueues))
            )
        costs = []
        for batch in batches:
            # uint16 holds an address modulo the interleave, an element
            # size (<= 16 KB) and a list length (<= 2048)
            key = (
                timing.overlap_commands, timing.bank_weight,
                array("H", itertools.chain.from_iterable(
                    c.bank_signature for c in batch
                )).tobytes(),
            )
            cost = _CACHE.costs.get(key)
            if cost is None:
                cost = _CACHE.costs[key] = timing.price(batch)
            costs.append(cost)
        return shape, tuple(costs)

    def _plan(self, host: HostState, lines: list[StagedLine]) -> TransferPlan:
        """The chunk's transfer plan, from the process-global cache."""
        if host is not self._host:
            self._bind(host)
        key = (
            self._layout,
            tuple((ln.mm, ln.kk, ln.j_o, ln.j_g, ln.k_g) for ln in lines),
        )
        plan = _CACHE.plans.get(key)
        if plan is None:
            slots: dict[tuple, int] = {}
            get = self._lower(host, lines, DMAKind.GET, slots)
            put = self._lower(host, lines, DMAKind.PUT, slots)
            plan = TransferPlan(
                tuple(np.array(units, dtype=np.intp) for units in slots),
                *get, *put,
            )
            if len(_CACHE.plans) >= PLAN_CACHE_MAX_ENTRIES:
                _CACHE.clear()
            _CACHE.plans[key] = plan
            _CACHE.built += 1
        return plan

    def _transfer(self, host: HostState, lines: list[StagedLine],
                  direction: DMAKind, s: int, tag: int) -> None:
        """Issue and complete one chunk program under ``tag``."""
        mfc = self.spe.mfc
        if mfc.pending or not _planned:
            # commands of another program are in flight (or a test asked
            # for the referee): queue depth and drain order are no longer
            # the plan's, so take the command path
            self.issue(self._program(host, lines, direction, s, tag), tag)
            mfc.drain_tag(tag)
            return
        plan = self._plan(host, lines)
        get = direction is DMAKind.GET
        shape, costs = (
            (plan.get, plan.get_costs) if get else (plan.put, plan.put_costs)
        )
        tables = plan.tables
        host_units, ls_units, bufs = self._host_units, self._ls_units[s], self._bufs[s]
        for host_key, slot, ls_key in shape.moves:
            mem = host_units.get(host_key)
            if mem is None:
                name, unit = host_key
                mem = host_units[host_key] = (
                    host.chip.address_space[name].bytes_view().reshape(-1, unit)
                )
            ls = ls_units.get(ls_key)
            if ls is None:
                buffer, unit, first, last = ls_key
                ls = ls_units[ls_key] = (
                    bufs[buffer].as_bytes().reshape(-1, unit)[first:last]
                )
            if get:
                # ("clip": the units were range-checked when the commands
                # were built, and the default mode buffers ``out``)
                mem.take(tables[slot], 0, ls, "clip")
            else:
                mem[tables[slot]] = ls
        observed = mfc.trace.enabled or mfc.metrics.enabled
        for (delta, enqueues), cost in zip(shape.batches, costs):
            if observed:
                for depth, (nbytes, buffer, offset) in enumerate(enqueues, 1):
                    mfc.observe_enqueue(
                        tag, direction.value, nbytes, depth,
                        ((bufs[buffer].offset + offset, nbytes),),
                    )
                mfc.timing.observe(cost, len(enqueues))
            mfc.retire(delta, cost, [tag])

    def stage_in(self, host: HostState, lines: list[StagedLine], s: int = 0) -> None:
        """Issue and complete the GET program for a chunk."""
        self._check_capacity(lines)
        tag = GET_TAGS[s]
        if self.spe.metrics.enabled:
            self.spe.metrics.count("stream.chunks_staged")
            self.spe.metrics.gauge_max(
                spe_metric(self.spe.spe_id, "ls_used_bytes"),
                self.spe.local_store.used_bytes,
            )
        if self.spe.trace.enabled:
            self.spe.trace.instant(
                spe_track(self.spe.spe_id), "BufferSwap", set=s, tag=tag,
                lines=len(lines), sets=self.sets,
                ls_used=self.spe.local_store.used_bytes,
            )
        self._transfer(host, lines, DMAKind.GET, s, tag)

    def stage_out(self, host: HostState, lines: list[StagedLine], s: int = 0) -> None:
        """Issue and complete the PUT program for a chunk."""
        self._check_capacity(lines)
        self._transfer(host, lines, DMAKind.PUT, s, PUT_TAG)

    def _check_capacity(self, lines: list[StagedLine]) -> None:
        if len(lines) > self.L:
            raise ConfigurationError(
                f"chunk of {len(lines)} lines exceeds buffer capacity {self.L}"
            )
