"""CellSweep3D: the full Sweep3D solve on the simulated Cell BE.

The functional half of the paper's implementation: the Figure-2 loop
structure runs on the PPE; every jkm diagonal's I-lines are chunked and
farmed to the SPEs (thread level); each chunk's working set is staged
through the owning SPE's 256 KB local store by validated DMA commands or
DMA lists (data-streaming level); results stream back before the
diagonal barrier.  The host computes a diagonal the way the paper
vectorises it -- across all of its independent I-lines at once, from one
gather of the host arrays -- and *writes each chunk's results into* the
local-store views the PUT program streams; ``tests/core/
test_diagonal_gather.py`` referees that every chunk's GET delivered
exactly the bytes the kernel consumed.

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

import numpy as np

from ..cell.chip import CellBE
from ..errors import ConfigurationError
from ..sweep.flux import SolveResult, SweepTally, relative_change
from ..sweep.input import InputDeck
from ..sweep.kernel import dd_line_block_solve
from ..sweep.moments import MomentBasis
from ..sweep.pipelining import LineBlock, angle_blocks, k_blocks, num_diagonals
from ..sweep.quadrature import OCTANT_SIGNS
from ..metrics.registry import NULL_REGISTRY, spe_metric
from ..trace.bus import NULL_BUS, spe_track
from .levels import MachineConfig, Precision, SchedulerKind, SyncProtocol
from .porting import HostState
from .spe_kernel import simd_execute_block, simd_execute_blocks
from .scheduler import CentralizedScheduler, DistributedScheduler
from .streaming import ChunkBuffers, staged_lines_for_diagonal
from .sync import LSPokeSync, MailboxSync
from .worklist import Chunk


class CellSweep3D:
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
        self.deck = deck
        self.config = config or MachineConfig(
            aligned_rows=True, double_buffer=True, simd=True,
            dma_lists=True, bank_offsets=True, sync=SyncProtocol.LS_POKE,
        )
        if not self.config.uses_spes:
            raise ConfigurationError(
                "CellSweep3D needs at least one SPE; PPE-only timing is "
                "handled by repro.perf.processors"
            )
        if deck.has_reflection:
            raise ConfigurationError(
                "reflective boundaries are supported by the hyperplane "
                "reference solver only (the paper's benchmark is vacuum)"
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
        if self.config.isa_kernel:
            # resolve the array backend here so a missing library fails
            # at construction with a configuration error, not mid-sweep
            from ..cell.backend import resolve_backend

            self._isa_backend = resolve_backend(self.config.array_backend)
        else:
            self._isa_backend = None
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
        #: optional progress sink called once per completed (octant,
        #: angle-block) unit in every execution mode: either an object
        #: with a ``tick()`` method (e.g.
        #: :class:`repro.metrics.heartbeat.Heartbeat`, the solve
        #: server's per-job sink) or a plain zero-argument callable.
        self.progress = None
        self.host = HostState(deck, self.config, self.chip)
        self.quad = deck.quadrature()
        self.basis = MomentBasis(self.quad, deck.nm)
        self.buffers = [
            ChunkBuffers(spe, deck, self.config, self.host.row_len)
            for spe in self.chip.spes
        ]
        sync = (
            LSPokeSync(self.chip)
            if self.config.sync is SyncProtocol.LS_POKE
            else MailboxSync(self.chip)
        )
        self.scheduler = (
            DistributedScheduler(self.chip)
            if self.config.scheduler is SchedulerKind.DISTRIBUTED
            else CentralizedScheduler(self.chip, sync)
        )
        self._buffer_set = 0
        #: the executing diagonal's results, filled by
        #: :meth:`_prepare_diagonal` before dispatch and replayed chunk
        #: by chunk in :meth:`_execute_chunk`: ``(wpsi, phi_i_out, phi_j,
        #: phi_k, {chunk index: (row slice, fixups)})``.
        self._diag_solution: tuple | None = None
        if self.workers > 1:
            from ..parallel.engine import ParallelEngine

            self._engine = ParallelEngine(
                self, self.workers, pool=self._pool
            )

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

    # -- one octant ------------------------------------------------------------

    def _sweep_octant(self, octant: int, tally: SweepTally, boundary) -> None:
        """Figure 2's loops for one octant, RECV/SEND through ``boundary``
        (a :class:`~repro.sweep.pipelining.BoundaryIO`: vacuum+leakage for
        a single chip, MPI messages for a multi-chip cluster)."""
        for angles in angle_blocks(self.quad.per_octant, self.deck.mmi):
            self._sweep_block(octant, angles, tally, boundary)
            self._progress_tick()

    def _sweep_block(
        self, octant: int, angles: list[int], tally: SweepTally, boundary,
        psi_sink: np.ndarray | None = None,
    ) -> None:
        """One (octant, angle-block) unit of Figure 2's loops.

        This is the self-contained work unit of the host-parallel
        engine: given the moment source and ``boundary`` inflows it
        touches only the block's own face state, so independent blocks
        can execute in separate processes.  ``psi_sink``, when given,
        captures every line's cell-centred angular flux at
        ``psi_sink[angle, k_g, j_g, :it]`` (global coordinates, already
        unflipped) so the caller can replay the flux accumulation in
        the serial order.
        """
        deck = self.deck
        g = deck.grid
        it, jt, kt = g.nx, g.ny, g.nz
        base = octant * self.quad.per_octant
        globals_ = [base + a for a in angles]
        na = len(angles)
        cxs = np.abs(self.quad.mu[globals_]) / g.dx
        cys = np.abs(self.quad.eta[globals_]) / g.dy
        czs = np.abs(self.quad.xi[globals_]) / g.dz
        # restart the double-buffer rotation per block so a block's
        # staged execution is independent of what ran before it (the
        # buffer-set choice never affects results; pinning it makes the
        # serial and parallel event streams line up unit for unit).
        self._buffer_set = 0
        self.host.phik[...] = 0.0  # vacuum at the oriented K entry
        for k0 in k_blocks(kt, deck.mk):
            # RECV W/E and N/S into the host face arrays
            self.host.phii[...] = 0.0
            self.host.phii[:na, :, :jt] = boundary.recv_i(
                octant, angles, k0, jt, it
            )
            self.host.phij[...] = 0.0
            self.host.phij[:na, :, :it] = boundary.recv_j(
                octant, angles, k0, jt, it
            )
            self.host.phii_out[...] = 0.0
            for d in range(num_diagonals(jt, deck.mk, deck.mmi)):
                lines = staged_lines_for_diagonal(
                    deck, octant, globals_, k0, d
                )

                def prepare(chunks: list[Chunk]) -> None:
                    tally.fixups += self._prepare_diagonal(
                        chunks, octant, d, cxs, cys, czs, psi_sink
                    )

                self.scheduler.run_diagonal(
                    lines, self.config.chunk_lines, self._execute_chunk,
                    prepare=prepare,
                )
            # SEND W/E and N/S
            boundary.send_i(
                octant, angles, k0,
                self.host.phii_out[:na, :, :jt].copy(),
            )
            boundary.send_j(
                octant, angles, k0,
                self.host.phij[:na, :, :it].copy(),
            )
        boundary.finish_octant(
            octant, angles, self.host.phik[:na, :, :it].copy()
        )

    # -- metrics and progress ------------------------------------------------------

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

    def units_per_sweep(self) -> int:
        """(octant, angle-block) work units in one full sweep -- the
        denominator for progress reporting in every execution mode."""
        blocks = len(list(angle_blocks(self.quad.per_octant, self.deck.mmi)))
        return 8 * blocks

    def _progress_tick(self) -> None:
        """One completed work unit, forwarded to the progress sink (the
        serial sweep calls this per block; the parallel engine per
        collected unit).  Sinks may be tick()-objects or bare callables."""
        sink = self.progress
        if sink is None:
            return
        tick = getattr(sink, "tick", None)
        if tick is not None:
            tick()
        else:
            sink()

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

    # -- one diagonal on the host, one chunk on one SPE --------------------------

    def _gather_diagonal(self, lines: list) -> dict:
        """One fancy index per host array: the working set of every line
        of a jkm diagonal, in host orientation -- the bytes the chunks'
        ``stage_in`` programs deliver, ``chunk_lines`` rows at a time."""
        host, it = self.host, self.deck.grid.nx
        angle, mm, kk, j_o, j_g, k_g = np.array(
            [(ln.angle, ln.mm, ln.kk, ln.j_o, ln.j_g, ln.k_g) for ln in lines],
            dtype=np.intp,
        ).T
        return {
            "angle": angle, "mm": mm, "j_g": j_g, "k_g": k_g,
            "msrc": np.stack([m[k_g, j_g, :it] for m in host.msrc_storage]),
            # uniform decks hand the kernel the scalar instead
            "sigt": (host.sigt[k_g, j_g, :it]
                     if self.deck.material_box is not None else None),
            "phij": host.phij[mm, kk, :it],
            "phik": host.phik[mm, j_o, :it],
            "phii": host.phii[mm, kk, j_o],
        }

    def _prepare_diagonal(
        self, chunks: list[Chunk], octant: int, d: int,
        cxs: np.ndarray, cys: np.ndarray, czs: np.ndarray,
        psi_sink: np.ndarray | None = None,
    ) -> int:
        """Solve every line of one jkm diagonal in one kernel call.

        The compute hook of every executor (reference kernel, compiled
        and interpreted ISA).  A diagonal's lines are mutually
        independent and their working sets never alias -- ``(j, kk)``
        fixes ``mm = d - j - kk``, so lines have distinct ``(mm, kk)``
        phij rows, ``(mm, j_o)`` phik rows, ``(mm, kk, j_o)`` phii cells
        and ``(k_g, j_g)`` flux rows -- so the host arrays read here
        hold exactly the bytes each chunk's ``stage_in`` will stage, and
        no chunk's ``stage_out`` lands on another's inputs.  Host-clock
        work only: DMA, sync, metrics and trace run per chunk in
        :meth:`_execute_chunk`.  Returns the diagonal's fixup count.
        """
        if not chunks:
            return 0
        deck = self.deck
        it = deck.grid.nx
        lines = [ln for ch in chunks for ln in ch.lines]
        rev = slice(None, None, -1) if lines[0].reverse_i else slice(None)
        g = self._gather_diagonal(lines)
        angle, mm = g["angle"], g["mm"]
        # combine the angular source from the moment rows, with the
        # reference's exact accumulation order (MomentBasis.combine).
        src = self.basis.combine(
            self.basis.src_pn[:, angle][..., None], g["msrc"][:, :, rev]
        )
        phi_i, phi_j, phi_k = g["phii"], g["phij"], g["phik"]
        cx, cy, cz = cxs[mm], cys[mm], czs[mm]
        bounds = [0]
        for ch in chunks:
            bounds.append(bounds[-1] + len(ch.lines))
        chunk_rows = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        if self.config.isa_kernel:
            # LineBlocks are row slices of the one gather, so the face
            # outflows every block writes in place land in phi_j/phi_k
            blocks = [
                LineBlock(
                    octant=octant, diagonal=d,
                    lines=[(ln.j_o, ln.kk, ln.mm) for ln in ch.lines],
                    angles=[ln.angle for ln in ch.lines],
                    source=src[rows], sigma_t=deck.sigma_t,
                    phi_i=phi_i[rows], phi_j=phi_j[rows], phi_k=phi_k[rows],
                    cx=cx[rows], cy=cy[rows], cz=cz[rows], fixup=deck.fixup,
                )
                for ch, rows in zip(chunks, chunk_rows)
            ]
            if self.config.compile_isa:
                results = simd_execute_blocks(
                    blocks, backend=self._isa_backend,
                    optimize=self.config.optimize_isa, metrics=self.metrics,
                )
            else:
                results = [simd_execute_block(b) for b in blocks]
            psi_c = np.concatenate([r[0] for r in results])
            phi_i_out = np.concatenate([r[1] for r in results])
            fixups = [r[2] for r in results]
        else:
            # pass the scalar when the material is uniform so the
            # arithmetic matches the reference executor's scalar path
            # bit for bit.
            sigma = (
                deck.sigma_t if deck.material_box is None
                else g["sigt"][:, rev]
            )
            line_fixups = np.zeros(len(lines), dtype=np.intp)
            psi_c, phi_i_out, _ = dd_line_block_solve(
                src, sigma, phi_i, phi_j, phi_k, cx, cy, cz,
                fixup=deck.fixup, line_fixups=line_fixups,
            )
            fixups = np.add.reduceat(line_fixups, bounds[:-1]).tolist()
        if psi_sink is not None:
            # capture the cell-centred angular flux in global (k, j, i)
            # coordinates: the host-parallel engine replays the flux
            # accumulation from these rows in the serial order.
            psi_sink[angle, g["k_g"], g["j_g"], :it] = psi_c[:, rev]
        # w*Pn * Phi of Figure 6 for the whole diagonal; each chunk adds
        # its rows to the flux it staged in.
        wpsi = self.basis.wpn[:, angle][:, :, None] * psi_c
        self._diag_solution = (
            wpsi, phi_i_out, phi_j, phi_k,
            {ch.index: (rows, fx)
             for ch, rows, fx in zip(chunks, chunk_rows, fixups)},
        )
        return sum(fixups)

    def _execute_chunk(self, chunk: Chunk) -> None:
        """Replay one chunk on its SPE: stage in, put this chunk's rows
        of the diagonal's results where the kernel would have left them
        in the local store, account, stage out."""
        it = self.deck.grid.nx
        lines: list[StagedLine] = list(chunk.lines)
        L = len(lines)
        bufs = self.buffers[chunk.spe]
        if self.config.double_buffer:
            s = self._buffer_set
            self._buffer_set ^= 1
        else:
            s = 0

        bufs.stage_in(self.host, lines, s)
        views = bufs.views(s)
        wpsi, phi_i_out, phi_j, phi_k, chunk_rows = self._diag_solution
        rows, fixups = chunk_rows.pop(chunk.index)
        views["phij"][:L, :it] = phi_j[rows]   # oriented scratch: no flip
        views["phik"][:L, :it] = phi_k[rows]
        # I-outflows take the inflow slots for the PUT program
        views["phii"][:L] = phi_i_out[rows]
        # flux accumulation on the SPE: Flux[n] += w*Pn * Phi (Figure 6),
        # the same per-element multiply-then-add as the reference's
        # scalar loop.
        flux = views["flux"][:, :L, :it]
        if lines[0].reverse_i:
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
        bufs.stage_out(self.host, lines, s)

    # -- sweeps and source iteration -------------------------------------------------

    def sweep(
        self, moment_source: np.ndarray, boundary=None
    ) -> tuple[np.ndarray, SweepTally, object]:
        """One full transport sweep through the simulated machine.

        Same contract as :meth:`repro.sweep.pipelining.TileSweeper.sweep`,
        so a :class:`CellSweep3D` can serve as the per-rank tile solver of
        the KBA wavefront (a cluster of simulated Cell chips).
        """
        if moment_source.shape != (self.deck.nm, *self.deck.grid.shape):
            raise ConfigurationError(
                f"moment_source must be {(self.deck.nm, *self.deck.grid.shape)}, "
                f"got {moment_source.shape}"
            )
        if self._engine is not None:
            parallel = self._engine.sweep(moment_source, boundary)
            if parallel is not None:
                return parallel
        return self._sweep_serial(moment_source, boundary)

    def _sweep_serial(
        self, moment_source: np.ndarray, boundary=None
    ) -> tuple[np.ndarray, SweepTally, object]:
        """The serial sweep body."""
        if boundary is None:
            from ..sweep.pipelining import VacuumBoundary

            boundary = VacuumBoundary(self.deck, self.quad)
        self.host.zero_flux()
        self.host.load_moment_source(moment_source)
        tally = SweepTally()
        for octant in range(8):
            self._sweep_octant(octant, tally, boundary)
        tally.leakage = getattr(boundary, "leakage", 0.0)
        return self.host.flux_logical(), tally, boundary

    def sweep_once(self, moment_source: np.ndarray) -> tuple[np.ndarray, SweepTally]:
        """One sweep with vacuum boundaries (single-chip convenience)."""
        flux, tally, _ = self.sweep(moment_source)
        return flux, tally

    def solve(self) -> SolveResult:
        """Source iteration, mirroring the reference driver exactly."""
        deck = self.deck
        from ..sweep.moments import build_moment_source

        flux = np.zeros((deck.nm, *deck.grid.shape))
        history: list[float] = []
        total = SweepTally()
        for _ in range(deck.iterations):
            msrc = build_moment_source(deck, flux)
            new_flux, tally = self.sweep_once(msrc)
            total.fixups += tally.fixups
            total.leakage = tally.leakage
            history.append(relative_change(new_flux[0], flux[0]))
            flux = new_flux
        return SolveResult(
            flux=flux,
            iterations=deck.iterations,
            history=history,
            tally=total,
            converged=True,
        )

    # -- timing bridge -----------------------------------------------------------------

    def timing(self):
        """The calibrated execution-time prediction for this deck and
        configuration (see :mod:`repro.perf.model`)."""
        from ..perf.model import predict

        return predict(self.deck, self.config)
