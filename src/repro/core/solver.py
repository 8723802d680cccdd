"""CellSweep3D: the full Sweep3D solve on the simulated Cell BE.

The functional half of the paper's implementation is
:class:`~repro.sweep.pipelining.TileSweeper`, the one Figure-2 loop
nest: :class:`CellSweep3D` is that traversal over a
:class:`~repro.core.porting.HostState` allocated in the simulated
chip's main memory, with a per-diagonal step that hands the diagonal to
the machine.  Every jkm diagonal's I-lines are chunked and farmed to the
SPEs (thread level); each chunk's working set is staged through the
owning SPE's 256 KB local store by validated DMA commands or DMA lists
(data-streaming level); results stream back before the diagonal barrier.
The host computes a diagonal the way the paper vectorises it -- across
all of its independent I-lines at once, from one gather of the host
arrays -- and *writes each chunk's results into* the local-store views
the PUT program streams, so the PUT is the diagonal's scatter;
``tests/core/test_diagonal_gather.py`` referees that every chunk's GET
delivered exactly the bytes the kernel consumed.  That chunk-by-chunk
simulation runs for the first work unit of a deck shape in each (J, K)
sweep direction, which records what the unit added to the machine;
the later units of that direction scatter like the tile and replay the
record (:meth:`CellSweep3D._sweep_unit`).

The flux produced must be -- and is, see
``tests/core/test_solver_equivalence.py`` -- *bit-identical* to the
serial reference solver: the substitution argument of this reproduction
rests on that equivalence.

Timing is not measured from this functional execution (Python wall time
is meaningless for 2006 hardware); it comes from the calibrated
discrete-event model in :mod:`repro.perf.model`, driven by the same
configuration.  :meth:`CellSweep3D.timing` is the bridge.
"""

from __future__ import annotations

from array import array
from functools import reduce
from operator import add

import numpy as np

from ..cell.chip import CellBE
from ..errors import ConfigurationError
from ..sweep.flux import SolveResult, SweepTally, source_iteration
from ..sweep.input import InputDeck
from ..sweep.kernel import dd_line_block_solve
from ..sweep.pipelining import BlockUnit, DiagonalIndex, TileSweeper
from ..sweep.quadrature import OCTANT_SIGNS
from ..metrics.registry import NULL_REGISTRY, spe_metric
from ..trace.bus import NULL_BUS, spe_track
from .levels import MachineConfig, Precision, SchedulerKind, SyncProtocol
from .porting import HostState
from .spe_kernel import simd_execute_block, simd_execute_blocks
from .scheduler import CentralizedScheduler, DistributedScheduler
from . import streaming
from .streaming import ChunkBuffers, UnitSchedule
from .sync import LSPokeSync, MailboxSync
from .worklist import Chunk


class CellSweep3D(TileSweeper):
    """Sweep3D on one simulated Cell Broadband Engine.

    ``workers > 1`` attaches a host-parallel execution engine
    (:mod:`repro.parallel`) that spreads independent simulated work
    units over a process pool; the flux it produces is bit-identical to
    the ``workers=1`` serial execution for any worker count.  ``pool``
    selects where the workers come from: ``"fresh"`` (a private
    :class:`~repro.parallel.pool.PersistentPool` torn down on
    ``close()``), ``"keep"`` (the process-wide pool -- worker processes,
    their warm compiled-program caches and the shared-memory segments
    all survive this solver), or an explicit pool instance.
    """

    def __init__(
        self,
        deck: InputDeck,
        config: MachineConfig | None = None,
        chip: CellBE | None = None,
        workers: int = 1,
        pool: "str | object" = "fresh",
    ) -> None:
        self.config = config or MachineConfig(
            aligned_rows=True, double_buffer=True, simd=True,
            dma_lists=True, bank_offsets=True, sync=SyncProtocol.LS_POKE,
        )
        if not self.config.uses_spes:
            raise ConfigurationError(
                "CellSweep3D needs at least one SPE; PPE-only timing is "
                "handled by repro.perf.processors"
            )
        if self.config.isa_kernel:
            if deck.material_box is not None:
                raise ConfigurationError(
                    "isa_kernel supports single-material decks only (the "
                    "ISA kernel splats one sigma_t per line block)"
                )
            if self.config.precision is not Precision.DOUBLE:
                raise ConfigurationError(
                    "isa_kernel requires double precision: the reference "
                    "flux it must match bit for bit is float64"
                )
        self.workers = int(workers)
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.chip = chip or CellBE(num_spes=self.config.num_spes)
        self._engine = None
        self._pool = None
        if self.workers > 1:
            # the engine hooks chip.host_array_factory so the host
            # arrays it shares land in shared memory; that must happen
            # before HostState allocates them.
            from ..parallel.engine import ParallelEngine
            from ..parallel.pool import resolve_pool

            self._pool = resolve_pool(pool)
            ParallelEngine.prepare_chip(self.chip, pool=self._pool)
        if self.config.trace:
            from ..trace.bus import TraceBus

            self.trace = TraceBus()
            self.chip.install_trace(self.trace)
        else:
            self.trace = NULL_BUS
        if self.config.metrics:
            from ..metrics.registry import MetricsRegistry

            self.metrics = MetricsRegistry()
            self.chip.install_metrics(self.metrics)
        else:
            self.metrics = NULL_REGISTRY
        if self.config.trace or self.config.metrics:
            # modelled SPU cycles per cell visit, so KernelExec spans
            # and the compute attribution bucket carry the same cost
            # the performance model charges
            from ..perf.model import _kernel_cycles_per_visit

            self._cycles_per_visit = _kernel_cycles_per_visit(
                deck, self.config
            )
        else:
            self._cycles_per_visit = 0.0
        super().__init__(deck)
        self.buffers = [
            ChunkBuffers(spe, deck, self.config, self.host.row_len, self.host)
            for spe in self.chip.spes
        ]
        self.sync = (
            LSPokeSync(self.chip)
            if self.config.sync is SyncProtocol.LS_POKE
            else MailboxSync(self.chip)
        )
        self.scheduler = (
            DistributedScheduler(self.chip)
            if self.config.scheduler is SchedulerKind.DISTRIBUTED
            else CentralizedScheduler(self.chip, self.sync)
        )
        self._buffer_set = 0
        #: True while a unit replays its recorded schedule (see
        #: :meth:`_sweep_unit`); its diagonals then take the tile step
        self._replaying = False
        #: units this solver replayed rather than simulated
        self.replayed_units = 0
        #: the executing diagonal and its results, split per chunk by
        #: :meth:`_prepare_diagonal` before dispatch and replayed chunk
        #: by chunk in :meth:`_execute_chunk`: ``(DiagonalIndex, wpsi,
        #: phi_i_out, phi_j, phi_k, fixups per chunk index)``.
        self._diag_solution: tuple | None = None
        if self.workers > 1:
            from ..parallel.engine import ParallelEngine

            self._engine = ParallelEngine(
                self, self.workers, pool=self._pool
            )

    def _allocate(self) -> HostState:
        """The sweep's arrays in the chip's main memory (padded rows,
        bank offsets, DMA row addressing)."""
        return HostState(self.deck, self.config, self.chip)

    def _kernel(self):
        """The configured line kernel -- the reference or, with
        ``isa_kernel``, the compiled (``compile_isa``) or interpreted ISA
        kernel -- looked up in this module at call time."""
        if not self.config.isa_kernel:
            return dd_line_block_solve
        if self.config.compile_isa:
            return simd_execute_blocks
        return simd_execute_block

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut down the parallel engine (workers, shared memory), if any.
        Safe to call repeatedly; a ``workers=1`` solver is a no-op."""
        if self._engine is not None:
            self._engine.close()
            self._engine = None

    def __enter__(self) -> "CellSweep3D":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- metrics -------------------------------------------------------------------

    def _set_metrics(self, registry) -> None:
        """Swap the active metrics registry, solver and chip together.

        The capture seam of :mod:`repro.parallel`: a worker (or the
        parent, for inline-executed units) installs a fresh registry
        around one work unit, ships its ``to_dict()`` delta home, and
        restores the previous registry -- so per-unit deltas merged in
        serial unit order reproduce the serial run's registry exactly.
        """
        self.metrics = registry
        self.chip.install_metrics(registry)

    def cycle_attribution(self):
        """The per-SPE "where the cycles went" breakdown of everything
        this solver's registry has collected (see
        :mod:`repro.metrics.attribution`).  Flops are derived from the
        ``kernel.cells`` counter at the deck's per-cell flop cost, so
        the %-of-DP-peak figure covers exactly the attributed work."""
        from ..metrics.attribution import attribution_from_registry

        return attribution_from_registry(
            self.metrics, self.chip.num_spes, self.deck.nm, self.deck.fixup
        )

    # -- one unit, one diagonal, one chunk on one SPE ---------------------------------

    def _sweep_unit(
        self, unit: BlockUnit, tally: SweepTally, boundary,
        psi_sink: np.ndarray | None = None,
    ) -> None:
        """Figure 2's loops for one unit, on the machine.

        The first unit of a shape to sweep in a (J, K) direction
        simulates the machine chunk by chunk and records what it added
        (:class:`UnitSchedule`); every later unit sweeping that way
        scatters each diagonal like the tile and replays the record.
        The units alike are those that stage the same rows in the same
        order: ``rows_for_chunk`` reads a line's block-local angle and
        its storage rows, never its ordinate (and ``mmi`` factors the
        angles per octant, so every angle block is the same size), and
        the I direction only reverses a row inside the local store,
        which no DMA command sees.  Traced and metered solves, and the
        command-path referee, always simulate."""
        # restart the double-buffer rotation per unit so a unit's staged
        # execution is independent of what ran before it (the buffer-set
        # choice never affects results; pinning it makes the serial and
        # parallel event streams line up unit for unit).
        self._buffer_set = 0
        config = self.config
        if config.trace or config.metrics or streaming.simulate_every_sweep():
            super()._sweep_unit(unit, tally, boundary, psi_sink)
            return
        key = (
            tuple(b.layout for b in self.buffers), config, self.shape.key,
            OCTANT_SIGNS[unit.octant][1:],
        )
        schedule = streaming.lookup_schedule(key)
        if schedule is not None:
            self._replaying = True
            try:
                super()._sweep_unit(unit, tally, boundary, psi_sink)
            finally:
                self._replaying = False
            self._replay(schedule)
            self.replayed_units += 1
            return
        mfcs = [spe.mfc for spe in self.chip.spes]
        before = [
            (m.stats.commands, m.stats.list_elements, m.stats.bytes_get,
             m.stats.bytes_put, m.stats.element_sizes.copy())
            for m in mfcs
        ]
        chunks = self.scheduler.chunks_dispatched
        for m in mfcs:
            m.cycle_log = array("d")
        try:
            super()._sweep_unit(unit, tally, boundary, psi_sink)
            logs = [m.cycle_log for m in mfcs]
        finally:
            for m in mfcs:
                m.cycle_log = None
        streaming.publish_schedule(key, self._record(before, logs, chunks))

    def _record(self, before: list, logs: list[array],
                chunks: int) -> UnitSchedule:
        """What the unit just simulated added to the machine, from the
        MFC statistics before it (``before``), the cycles each MFC
        retired during it (``logs``) and the dispatch count before it."""
        spes = []
        for spe, (c0, e0, g0, p0, sizes0), log in zip(
            self.chip.spes, before, logs
        ):
            if not log:  # no work dispatched to this SPE
                continue
            st = spe.mfc.stats
            spes.append((
                spe.spe_id,
                (st.commands - c0, st.list_elements - e0,
                 st.bytes_get - g0, st.bytes_put - p0),
                tuple((st.element_sizes - sizes0).items()), log,
                self.sync.words(spe.spe_id),
            ))
        return UnitSchedule(
            tuple(spes), self.scheduler.chunks_dispatched - chunks,
            self.chip.atomics.values.get("work_head"), self._buffer_set,
        )

    def _replay(self, schedule: UnitSchedule) -> None:
        """Add a recorded unit's machine accounting to this chip: the
        MFC statistics (cycles batch by batch, so the float sum is the
        simulated one) and the scheduler, sync and atomic end state."""
        spes = self.chip.spes
        for spe_id, (commands, elements, got, put), sizes, cycles, words in (
            schedule.spes
        ):
            st = spes[spe_id].mfc.stats
            st.commands += commands
            st.list_elements += elements
            st.bytes_get += got
            st.bytes_put += put
            st.element_sizes.update(dict(sizes))
            st.cycles = reduce(add, cycles, st.cycles)
            self.sync.restore_words(spe_id, words)
        self.scheduler.chunks_dispatched += schedule.chunks
        if schedule.work_head is not None:
            self.chip.atomics.plain_store("ppe", "work_head", schedule.work_head)
        self._buffer_set = schedule.buffer_set

    def _diagonal_step(
        self, ix: DiagonalIndex, gd: dict, wpsi: np.ndarray,
        phi_i_out: np.ndarray, line_fixups: np.ndarray,
    ) -> None:
        """Hand the solved diagonal to the machine: the scheduler chunks
        it over the SPEs, and each chunk's replay stages the chunk in and
        its results out -- the PUT program is the scatter.  A unit that
        replays its schedule scatters like the tile instead."""
        if self._replaying:
            super()._diagonal_step(ix, gd, wpsi, phi_i_out, line_fixups)
            return
        self.scheduler.run_diagonal(
            len(ix), self.config.chunk_lines, self._execute_chunk,
            prepare=lambda chunks: self._prepare_diagonal(
                chunks, ix, wpsi, phi_i_out, gd["phij"], gd["phik"],
                line_fixups,
            ),
        )

    def _prepare_diagonal(
        self, chunks: list[Chunk], ix: DiagonalIndex, wpsi: np.ndarray,
        phi_i_out: np.ndarray, phi_j: np.ndarray, phi_k: np.ndarray,
        line_fixups: np.ndarray,
    ) -> None:
        """Keep diagonal ``ix``'s kernel results for its chunks, which
        read them by their rows; one ``np.add.reduceat`` splits the
        per-line fixup counts.  The chunks are consecutive runs of the
        diagonal's rows, in index order, and the lines' working sets
        never alias, so the host arrays the chunks stage in hold exactly
        the bytes the kernel read, and no chunk's ``stage_out`` lands on
        another's inputs.  Host-clock work only: DMA, sync, metrics and
        trace run per chunk in :meth:`_execute_chunk`."""
        fixups = np.add.reduceat(line_fixups, [ch.start for ch in chunks])
        self._diag_solution = (
            ix, wpsi, phi_i_out, phi_j, phi_k, fixups.tolist(),
        )

    def _execute_chunk(self, chunk: Chunk) -> None:
        """Replay one chunk on its SPE: stage in, put this chunk's rows
        of the diagonal's results where the kernel would have left them
        in the local store, account, stage out."""
        it = self.deck.grid.nx
        ix, wpsi, phi_i_out, phi_j, phi_k, chunk_fixups = self._diag_solution
        rows, L = chunk.rows, chunk.num_lines
        fixups = chunk_fixups[chunk.index]
        bufs = self.buffers[chunk.spe]
        if self.config.double_buffer:
            s = self._buffer_set
            self._buffer_set ^= 1
        else:
            s = 0

        bufs.stage_in(self.host, ix, rows, s)
        views = bufs.views(s)
        views["phij"][:L, :it] = phi_j[rows]   # oriented scratch: no flip
        views["phik"][:L, :it] = phi_k[rows]
        # I-outflows take the inflow slots for the PUT program
        views["phii"][:L] = phi_i_out[rows]
        # flux accumulation on the SPE: Flux[n] += w*Pn * Phi (Figure 6),
        # the same per-element multiply-then-add as the reference's
        # scalar loop.
        flux = views["flux"][:, :L, :it]
        if ix.reverse_i:
            flux = flux[:, :, ::-1]
        flux[...] = wpsi[:, rows] + flux
        if self.metrics.enabled:
            m = self.metrics
            m.add_cycles(
                spe_metric(chunk.spe, "compute_ticks"),
                self._cycles_per_visit * L * it,
            )
            m.count("kernel.cells", L * it)
            m.count("kernel.chunks")
            m.count("kernel.fixups", fixups)
        if self.trace.enabled:
            self.trace.span(
                spe_track(chunk.spe), "KernelExec",
                self._cycles_per_visit * L * it,
                chunk=chunk.index, set=s, lines=L, cells=L * it,
                fixups=fixups,
                regions=[list(r) for r in bufs.ls_regions(s)],
            )
        bufs.stage_out(self.host, ix, rows, s)

    # -- sweeps and source iteration -------------------------------------------------

    def sweep(
        self, moment_source: np.ndarray, boundary=None
    ) -> tuple[np.ndarray, SweepTally, object]:
        """One full transport sweep through the simulated machine.

        :meth:`TileSweeper.sweep`'s contract, so a :class:`CellSweep3D`
        can serve as the per-rank tile solver of the KBA wavefront (a
        cluster of simulated Cell chips).  With workers attached, the
        engine runs the units of a vacuum sweep.
        """
        if self._engine is not None:
            parallel = self._engine.sweep(moment_source, boundary)
            if parallel is not None:
                return parallel
        return super().sweep(moment_source, boundary)

    def sweep_once(self, moment_source: np.ndarray) -> tuple[np.ndarray, SweepTally]:
        """One sweep with vacuum boundaries (single-chip convenience)."""
        flux, tally, _ = self.sweep(moment_source)
        return flux, tally

    def solve(self) -> SolveResult:
        """Source iteration, the reference driver around this machine's
        sweep (``sweep_once`` is looked up per solve, so a patched seam
        sees every sweep)."""
        return source_iteration(self.deck, self.sweep_once)

    # -- timing bridge -----------------------------------------------------------------

    def timing(self):
        """The calibrated execution-time prediction for this deck and
        configuration (see :mod:`repro.perf.model`)."""
        from ..perf.model import predict

        return predict(self.deck, self.config)
