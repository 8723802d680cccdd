"""The SIMDized SPE compute kernel (paper Figures 6-8, Sec. 5.1).

This module writes the paper's vectorized kernel against the functional
SPU ISA of :mod:`repro.cell.isa`:

* **vector level** -- 2-way double-precision (or 4-way single-precision)
  SIMD: each vector lane carries one independent I-line;
* **pipeline level** -- four *logical threads of vectorization* (the
  A/B/C/D streams of Figure 7).  Every primitive is emitted for all four
  threads back to back (``pnvalA = ...; pnvalB = ...; pnvalC = ...``
  in the paper's listing) so the in-order dual-issue pipeline always has
  three independent instructions between an operation and its dependent
  -- this interleaving is what hides the deep DP latency;
* the fixup path is emitted branch-free (compare + select), the standard
  SPU idiom, so its instruction stream is data-independent -- exactly why
  the paper can quote a fixed cycle figure for it.  That stream, emitted
  whole, is what the paper and :func:`kernel_cycle_report` cost.  The
  host's trace-compiled replay (:func:`simd_execute_blocks`) runs its
  fixup half only on the lines where a select can pick something other
  than the plain solve -- the same values, for less host time.

Two uses:

1. :func:`simd_execute_block` runs a
   :class:`~repro.sweep.pipelining.LineBlock` through the functional ISA
   and produces results **bit-identical** to
   :func:`repro.sweep.kernel.dd_line_block_solve`: divisions are exact
   (the documented ``spu_div`` substitution) and every emitted operation
   reproduces the reference's floating-point grouping, using only
   commutativity of individual adds.  Tests enforce the equality -- it is
   the link between the paper's hand-written SPU code and the reference
   solver.
2. :func:`kernel_cycle_report` emits one steady-state inner iteration
   (all logical threads, one I-step, including the moment-source
   combination and the Figure-7 flux-moment accumulation) and replays it
   through the dual-issue pipeline model, reproducing the shape of the
   Sec. 5.1 measurements (DP kernel issue-bound at a high fraction of
   peak, fixups ~3x slower at the same useful-flop count, a low
   dual-issue rate, SP latency- rather than issue-bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cell.isa import InstructionStream, SPUContext, Vec
from ..cell.pipeline import PipelineReport, simulate_cached
from ..errors import ConfigurationError
from ..sweep.pipelining import LineBlock

#: the paper's "four different logical threads of vectorization"
LOGICAL_THREADS: int = 4

#: emitted set-to-zero fixup passes; three faces can each be zeroed at
#: most once, so three passes cover the reference kernel's worst case.
FIXUP_PASSES: int = 3


@dataclass
class ThreadGroup:
    """Register state for the interleaved logical threads.

    Every field is a list with one :class:`Vec` per logical thread; all
    emission helpers walk these lists in lock-step so consecutive
    instructions belong to *different* dependency chains.
    """

    cx: list[Vec]
    cy: list[Vec]
    cz: list[Vec]
    sigma_t: list[Vec]
    phi_i: list[Vec]
    #: per-step fixup mask, 1.0 where the lane's cell was fixed
    step_touched: list[Vec] = field(default_factory=list)

    @property
    def T(self) -> int:
        return len(self.cx)


def _vmap(fn, *lists):
    """Apply an emission primitive across the logical threads."""
    return [fn(*args) for args in zip(*lists)]


class SimdKernel:
    """Emits (and functionally executes) the vectorized Sn kernel."""

    def __init__(self, fixup: bool, double: bool = True) -> None:
        self.fixup = fixup
        self.double = double

    # -- hoisted setup ---------------------------------------------------------

    def prologue(
        self,
        ctx: SPUContext,
        cx: np.ndarray,        # (T, lanes) per-line |mu|/dx
        cy: np.ndarray,
        cz: np.ndarray,
        sigma_t: float,
        phi_i0: np.ndarray,    # (T, lanes) I-inflows
    ) -> ThreadGroup:
        """Per-chunk setup: coefficient loads and I-inflow registers
        (the hoisted part of Figure 7)."""
        T = cx.shape[0]
        return ThreadGroup(
            cx=[ctx.lqd(cx[t], label=f"cx{t}") for t in range(T)],
            cy=[ctx.lqd(cy[t], label=f"cy{t}") for t in range(T)],
            cz=[ctx.lqd(cz[t], label=f"cz{t}") for t in range(T)],
            sigma_t=[ctx.spu_splats(sigma_t) for _ in range(T)],
            phi_i=[ctx.lqd(phi_i0[t], label=f"phii{t}") for t in range(T)],
        )

    # -- solve core --------------------------------------------------------------

    def _plain_solve(self, ctx, grp, src, pi, pj, pk, two):
        """Interleaved diamond solve, rounding exactly like the reference:

        ``psi = (src + 2*(cx*pi + cy*pj + cz*pk)) / (sigt + 2*(cx+cy+cz))``
        """
        m1 = _vmap(ctx.spu_mul, grp.cx, pi)
        a1 = _vmap(ctx.spu_madd, grp.cy, pj, m1)
        a2 = _vmap(ctx.spu_madd, grp.cz, pk, a1)
        num = _vmap(lambda a, s: ctx.spu_madd(two, a, s), a2, src)
        s1 = _vmap(ctx.spu_add, grp.cx, grp.cy)
        s2 = _vmap(ctx.spu_add, s1, grp.cz)
        den = _vmap(lambda s, g: ctx.spu_madd(two, s, g), s2, grp.sigma_t)
        psic = _vmap(ctx.spu_div, num, den)
        out_x = _vmap(lambda p, i: ctx.spu_msub(two, p, i), psic, pi)
        out_y = _vmap(lambda p, i: ctx.spu_msub(two, p, i), psic, pj)
        out_z = _vmap(lambda p, i: ctx.spu_msub(two, p, i), psic, pk)
        return psic, out_x, out_y, out_z

    def _masked_solve(self, ctx, grp, src, pi, pj, pk, two, zero, one, masks):
        """The fixup recompute: numerator face factor 2 (diamond) or 1
        (fixed); denominator face factor 2 or 0; fixed outflows pinned to
        zero.  Rounds exactly like the reference's masked formula."""
        mask_x, mask_y, mask_z = masks
        df_x = _vmap(lambda m: ctx.spu_sel(two, zero, m), mask_x)
        t1 = _vmap(ctx.spu_mul, df_x, grp.cx)
        u1 = _vmap(ctx.spu_add, grp.sigma_t, t1)
        df_y = _vmap(lambda m: ctx.spu_sel(two, zero, m), mask_y)
        u2 = _vmap(ctx.spu_madd, df_y, grp.cy, u1)
        df_z = _vmap(lambda m: ctx.spu_sel(two, zero, m), mask_z)
        den = _vmap(ctx.spu_madd, df_z, grp.cz, u2)

        nf_x = _vmap(lambda m: ctx.spu_sel(two, one, m), mask_x)
        g1 = _vmap(ctx.spu_mul, nf_x, grp.cx)
        a1 = _vmap(ctx.spu_mul, g1, pi)
        v1 = _vmap(ctx.spu_add, src, a1)
        nf_y = _vmap(lambda m: ctx.spu_sel(two, one, m), mask_y)
        g2 = _vmap(ctx.spu_mul, nf_y, grp.cy)
        v2 = _vmap(ctx.spu_madd, g2, pj, v1)
        nf_z = _vmap(lambda m: ctx.spu_sel(two, one, m), mask_z)
        g3 = _vmap(ctx.spu_mul, nf_z, grp.cz)
        num = _vmap(ctx.spu_madd, g3, pk, v2)
        psic = _vmap(ctx.spu_div, num, den)

        def outflow(mask, inflow):
            raw = _vmap(lambda p, i: ctx.spu_msub(two, p, i), psic, inflow)
            return _vmap(lambda r, m: ctx.spu_sel(r, zero, m), raw, mask)

        return psic, outflow(mask_x, pi), outflow(mask_y, pj), outflow(mask_z, pk)

    def solve_step(self, ctx, grp: ThreadGroup, src, pj, pk):
        """One cell step for all logical threads.

        ``src``/``pj``/``pk`` are per-thread Vec lists; the I-inflow
        comes from (and the I-outflow returns to) ``grp.phi_i``.  With
        fixups enabled this reproduces the reference's iterate-merge
        structure: untouched lanes keep the plain-solve values bit for
        bit; touched lanes get the masked recompute with their final
        masks.  Returns ``(psi_c, out_y, out_z)`` Vec lists.
        """
        two = ctx.spu_splats(2.0)
        pi = grp.phi_i
        plain = self._plain_solve(ctx, grp, src, pi, pj, pk, two)
        if not self.fixup:
            psic, out_x, out_y, out_z = plain
            grp.phi_i = out_x
            grp.step_touched = []
            return psic, out_y, out_z
        zero = ctx.spu_splats(0.0)
        one = ctx.spu_splats(1.0)
        T = grp.T
        mask_x = [ctx.spu_splats(0.0) for _ in range(T)]
        mask_y = [ctx.spu_splats(0.0) for _ in range(T)]
        mask_z = [ctx.spu_splats(0.0) for _ in range(T)]
        touched = [ctx.spu_splats(0.0) for _ in range(T)]
        canonical = plain
        for _ in range(FIXUP_PASSES):
            _, c_ox, c_oy, c_oz = canonical
            bad_x = _vmap(lambda o: ctx.spu_cmpgt(zero, o), c_ox)
            bad_y = _vmap(lambda o: ctx.spu_cmpgt(zero, o), c_oy)
            bad_z = _vmap(lambda o: ctx.spu_cmpgt(zero, o), c_oz)
            any_bad = _vmap(ctx.spu_or, _vmap(ctx.spu_or, bad_x, bad_y), bad_z)
            touched = _vmap(ctx.spu_or, touched, any_bad)
            mask_x = _vmap(ctx.spu_or, mask_x, bad_x)
            mask_y = _vmap(ctx.spu_or, mask_y, bad_y)
            mask_z = _vmap(ctx.spu_or, mask_z, bad_z)
            masked = self._masked_solve(
                ctx, grp, src, pi, pj, pk, two, zero, one,
                (mask_x, mask_y, mask_z),
            )
            canonical = tuple(
                _vmap(lambda p, m, t: ctx.spu_sel(p, m, t), pl, mk, touched)
                for pl, mk in zip(plain, masked)
            )
        psic, out_x, out_y, out_z = canonical
        grp.phi_i = out_x
        grp.step_touched = touched
        return psic, out_y, out_z


# ---------------------------------------------------------------------------
# Functional execution of LineBlocks
# ---------------------------------------------------------------------------

def simd_execute_block(
    block: LineBlock, double: bool = True
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run a LineBlock through the functional SIMD kernel.

    Drop-in :data:`~repro.sweep.pipelining.LineExecutor`: returns
    ``(psi_c, phi_i_out, fixups)`` bit-identical to the NumPy reference
    executor (``fixups`` counts *cells* touched, like the reference).
    Lines are packed four logical threads wide with ``lanes`` lines per
    vector; partial groups are padded with benign vacuum lines that
    cannot trigger fixups.
    """
    sigma_t = _uniform_sigma(block)
    kernel = SimdKernel(fixup=block.fixup, double=double)
    lanes = 2 if double else 4
    group = LOGICAL_THREADS * lanes
    L, it = block.num_lines, block.it
    padded = -(-L // group) * group

    def pad1(a, fill):
        out = np.full(padded, fill, dtype=np.float64)
        out[:L] = a
        return out

    def pad2(a, fill):
        out = np.full((padded, it), fill, dtype=np.float64)
        out[:L] = a
        return out

    cx = pad1(block.cx, 0.5)
    cy = pad1(block.cy, 0.5)
    cz = pad1(block.cz, 0.5)
    source = pad2(block.source, 0.0)
    phi_i = pad1(block.phi_i, 0.0)
    phi_j = pad2(block.phi_j, 0.0)
    phi_k = pad2(block.phi_k, 0.0)
    psi_c = np.zeros((padded, it))
    fixups = 0

    T = LOGICAL_THREADS
    for g0 in range(0, padded, group):
        ctx = SPUContext(f"block@{g0}", double=double)
        rows = [slice(g0 + t * lanes, g0 + (t + 1) * lanes) for t in range(T)]
        grp = kernel.prologue(
            ctx,
            np.stack([cx[r] for r in rows]),
            np.stack([cy[r] for r in rows]),
            np.stack([cz[r] for r in rows]),
            sigma_t,
            np.stack([phi_i[r] for r in rows]),
        )
        for i in range(it):
            src = [ctx.lqd(source[r, i], label="src") for r in rows]
            pj = [ctx.lqd(phi_j[r, i], label="phij") for r in rows]
            pk = [ctx.lqd(phi_k[r, i], label="phik") for r in rows]
            psic, out_y, out_z = kernel.solve_step(ctx, grp, src, pj, pk)
            for t, r in enumerate(rows):
                ctx.stqd(psic[t], psi_c[r, i])
                ctx.stqd(out_y[t], phi_j[r, i])
                ctx.stqd(out_z[t], phi_k[r, i])
            if block.fixup:
                for t, r in enumerate(rows):
                    # padded lanes are benign: they never trigger fixups
                    fixups += int((grp.step_touched[t].data != 0).sum())
        for t, r in enumerate(rows):
            phi_i[r] = grp.phi_i[t].data

    block.phi_j[:] = phi_j[:L]
    block.phi_k[:] = phi_k[:L]
    return psi_c[:L], phi_i[:L], fixups


def simd_line_executor(block: LineBlock):
    """LineExecutor adapter so a whole solve can run on the SIMD kernel."""
    return simd_execute_block(block)


# ---------------------------------------------------------------------------
# Trace-compiled batched execution (docs/PERFORMANCE.md section 4)
# ---------------------------------------------------------------------------

def _uniform_sigma(block: LineBlock) -> float:
    """The hoisted scalar cross section (same restriction and message as
    the interpreting executor)."""
    sigma_t = block.sigma_t
    if isinstance(sigma_t, np.ndarray):
        if np.all(sigma_t == sigma_t.flat[0]):
            return float(sigma_t.flat[0])
        raise ConfigurationError(
            "the SIMD executor hoists the cross section per chunk and "
            "therefore supports single-material blocks only; "
            "heterogeneous decks use the reference line executor"
        )
    return float(sigma_t)


def _trace_line_program(it: int, fixup: bool, double: bool):
    """Emit one line's solve through a TraceContext.

    The batch axis carries *lines*: one logical thread, one symbolic
    lane.  That is exactly the dataflow each interpreted lane evaluates
    -- the interpreter's thread/lane packing only groups independent
    lines into vectors, and every ISA operation is elementwise per lane,
    so folding threads and lanes into the batch axis changes no value.
    The stream is recorded by the same :class:`SimdKernel` emission code
    the interpreter runs, so opcodes, operand grouping (each ``fma``
    lowers to the interpreter's two-operation ``a*b + c``), divisions
    and the branch-free compare+select fixup are identical.

    Outputs per step ``i``: ``("psi", i)``, the J/K outflows
    ``("phij_out", i)``/``("phik_out", i)``, the I-outflow ``("phii", i)``
    (the last one is the line's I-outflow) and, with fixups,
    ``("touched", i)``.  The per-step I-outflows cost no op (each feeds
    the next step anyway); they are what the lazy fixup gate of
    :func:`simd_execute_blocks` inspects.
    """
    from ..cell.isa_compile import TraceContext

    ctx = TraceContext(
        f"line-program/it{it}{'+fixup' if fixup else ''}"
        f"{'' if double else '/sp'}",
        double=double,
    )
    kernel = SimdKernel(fixup=fixup, double=double)
    grp = ThreadGroup(
        cx=[ctx.input_vec("cx", label="cx0")],
        cy=[ctx.input_vec("cy", label="cy0")],
        cz=[ctx.input_vec("cz", label="cz0")],
        sigma_t=[ctx.splats_input("sigma_t")],
        phi_i=[ctx.input_vec("phii", label="phii0")],
    )
    for i in range(it):
        src = [ctx.input_vec(("src", i), label="src")]
        pj = [ctx.input_vec(("phij", i), label="phij")]
        pk = [ctx.input_vec(("phik", i), label="phik")]
        psic, out_y, out_z = kernel.solve_step(ctx, grp, src, pj, pk)
        ctx.output(psic[0], ("psi", i))
        ctx.output(out_y[0], ("phij_out", i))
        ctx.output(out_z[0], ("phik_out", i))
        ctx.output(grp.phi_i[0], ("phii", i))
        if fixup:
            ctx.output(grp.step_touched[0], ("touched", i))
    return ctx


def simd_execute_blocks(
    blocks: list[LineBlock],
    double: bool = True,
    backend=None,
    optimize: bool = True,
    metrics=None,
) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Run several independent LineBlocks through one compiled ISA call.

    The batched sibling of :func:`simd_execute_block`: all blocks'
    I-lines are stacked on the program's batch axis (typically every
    chunk of one jkm diagonal -- lines of one diagonal are independent
    by the paper's Sec. 3 property) and solved by a single replay of the
    trace-compiled program.  Per block, returns the executor triple
    ``(psi_c, phi_i_out, fixups)`` and updates ``phi_j``/``phi_k`` in
    place -- bit-identical to interpreting each block.  Blocks must
    share ``it`` and ``fixup`` (always true within a diagonal).

    With ``fixup`` the branch-free fixup is replayed lazily, per line:
    the *plain* program runs on every line, a line is dirty iff any
    per-step I, J or K outflow is ``< 0`` (the stream's own
    ``spu_cmpgt(0, o)``, so NaN and -0.0 are clean), and the full
    compare+select program -- compiled on first need -- runs on the
    dirty rows only.  Every fixup-stream output is ``sel(plain, masked,
    touched)`` and ``touched`` can first turn on only at a step with a
    negative plain outflow, before which both streams carry the same
    I-chain; so a clean line's plain bits *are* the full program's bits,
    and a dirty row gets the full program's bits because every ISA op is
    elementwise per batch row.

    ``backend`` selects the array substrate the program replays on (an
    :class:`~repro.cell.backend.ArrayBackend`; default: the numpy
    reference), ``optimize`` toggles the compile-time plan, and
    ``metrics`` (a :class:`~repro.metrics.registry.MetricsRegistry`)
    receives per-backend ``isa.backend.<name>.{blocks,lines}`` counters
    -- block/line totals are partition-invariant, so the counts merge
    bit-identically for any worker split.
    """
    from ..cell.isa_compile import STATS, compiled_program

    blocks = list(blocks)
    if not blocks:
        return []
    it, fixup = blocks[0].it, blocks[0].fixup
    for b in blocks[1:]:
        if b.it != it or b.fixup != fixup:
            raise ConfigurationError(
                "batched blocks must share the line length and fixup mode"
            )
    sigmas = [_uniform_sigma(b) for b in blocks]
    dtype = np.float64 if double else np.float32
    lens = [b.num_lines for b in blocks]
    N = sum(lens)
    STATS.batched_calls += 1
    STATS.batched_blocks += len(blocks)
    STATS.batched_lines += N
    if metrics is not None and metrics.enabled:
        name = backend.name if backend is not None else "numpy"
        metrics.count(f"isa.backend.{name}.blocks", len(blocks))
        metrics.count(f"isa.backend.{name}.lines", N)

    def cat1(field) -> np.ndarray:
        return np.concatenate(
            [np.asarray(field(b), dtype=dtype).ravel() for b in blocks]
        )

    def cat2(field) -> np.ndarray:
        return np.concatenate(
            [np.asarray(field(b), dtype=dtype) for b in blocks], axis=0
        )

    scalars = {
        "cx": cat1(lambda b: b.cx),
        "cy": cat1(lambda b: b.cy),
        "cz": cat1(lambda b: b.cz),
        "phii": cat1(lambda b: b.phi_i),
        "sigma_t": np.concatenate(
            [np.full(L, s, dtype=dtype) for L, s in zip(lens, sigmas)]
        ),
    }
    columns = {
        "src": cat2(lambda b: b.source),
        "phij": cat2(lambda b: b.phi_j),
        "phik": cat2(lambda b: b.phi_k),
    }

    def replay(with_fixup: bool, scal: dict, cols: dict):
        """One program replay -> ``(psi, faces, touched)``: psi and the
        touched masks ``(n, it)``, the I/J/K outflows of every step
        ``(3, n, it)``.  Assignment into float64 upcasts single-precision
        results exactly like the interpreter's stqd into float64
        targets."""
        program = compiled_program(
            ("line", it, with_fixup, double),
            lambda: _trace_line_program(it, with_fixup, double),
        )
        inputs = [
            np.ascontiguousarray(cols[key[0]][:, key[1]])
            if isinstance(key, tuple)
            else scal[key]
            for key in program.inputs
        ]
        res = dict(
            zip(
                (k for k, _ in program.outputs),
                program.run(inputs, backend=backend, optimize=optimize),
            )
        )
        n = len(scal["cx"])
        psi = np.empty((n, it))
        faces = np.empty((3, n, it))
        touched = np.empty((n, it)) if with_fixup else None
        for i in range(it):
            psi[:, i] = res[("psi", i)]
            faces[0, :, i] = res[("phii", i)]
            faces[1, :, i] = res[("phij_out", i)]
            faces[2, :, i] = res[("phik_out", i)]
            if with_fixup:
                touched[:, i] = res[("touched", i)]
        return psi, faces, touched

    psi_c, faces, _ = replay(False, scalars, columns)
    line_fixups = None
    if fixup:
        rows = np.flatnonzero((faces < 0.0).any(axis=(0, 2)))
        if rows.size:
            psi_d, faces_d, touched = replay(
                True,
                {k: v[rows] for k, v in scalars.items()},
                {k: v[rows] for k, v in columns.items()},
            )
            psi_c[rows] = psi_d
            faces[:, rows] = faces_d
            line_fixups = np.zeros(N, dtype=np.intp)
            line_fixups[rows] = np.count_nonzero(touched, axis=1)
    phi_i_out = faces[0, :, -1].copy()

    out: list[tuple[np.ndarray, np.ndarray, int]] = []
    lo = 0
    for b, L in zip(blocks, lens):
        hi = lo + L
        b.phi_j[:] = faces[1, lo:hi]
        b.phi_k[:] = faces[2, lo:hi]
        fx = int(line_fixups[lo:hi].sum()) if line_fixups is not None else 0
        out.append((psi_c[lo:hi], phi_i_out[lo:hi], fx))
        lo = hi
    return out


def compiled_line_executor(block: LineBlock):
    """LineExecutor adapter for the trace-compiled path (one block per
    call; the Cell solver batches whole diagonals instead)."""
    return simd_execute_blocks([block])[0]


def compiled_block_executor(backend=None, optimize: bool = True):
    """A LineExecutor bound to one backend x optimizer mode (benchmark
    duels and conformance referees; the solver threads its own config
    through :func:`simd_execute_blocks` directly)."""

    def executor(block: LineBlock):
        return simd_execute_blocks(
            [block], backend=backend, optimize=optimize
        )[0]

    return executor


# ---------------------------------------------------------------------------
# Cycle reports (Sec. 5.1)
# ---------------------------------------------------------------------------

def _emit_body_step(
    kernel: SimdKernel,
    ctx: SPUContext,
    grp: ThreadGroup,
    nm: int,
    rng: np.random.Generator,
) -> None:
    """One full inner iteration as the production kernel runs it: source
    combination from ``nm`` streamed moments, the Sn solve, and the
    Figure 6/7 flux-moment accumulation, interleaved across threads."""
    lanes = ctx.lanes
    T = grp.T

    def loads(label):
        # one address increment per thread stream, as unrolled SPU code
        # carries a pointer per logical thread: the fixed-point `ai`
        # dual-issues with the neighbouring odd-pipe load.
        out = []
        for t in range(T):
            ctx.ai(f"{label}_ptr{t}")
            out.append(ctx.lqd(rng.random(lanes) + 0.3, label=label))
        return out

    ctx.ai("msrc_ptr")
    src = _vmap(ctx.spu_mul, loads("srcpn0"), loads("msrc0"))
    for n in range(1, nm):
        src = _vmap(ctx.spu_madd, loads(f"srcpn{n}"), loads(f"msrc{n}"), src)
    ctx.ai("face_ptr")
    pj = loads("phij")
    pk = loads("phik")
    psic, out_y, out_z = kernel.solve_step(ctx, grp, src, pj, pk)
    for n in range(nm):
        f = _vmap(ctx.spu_madd, loads(f"wpn{n}"), psic, loads(f"flux{n}"))
        for t in range(T):
            ctx.stqd(f[t], np.empty(lanes), label=f"flux{n}")
        ctx.ai("flux_ptr")
    for t in range(T):
        ctx.stqd(out_y[t], np.empty(lanes), label="phij")
        ctx.stqd(out_z[t], np.empty(lanes), label="phik")
    ctx.ai("line_ptr")
    ctx.branch("iline")


def kernel_cycle_report(
    nm: int = 4,
    fixup: bool = False,
    double: bool = True,
    logical_threads: int = LOGICAL_THREADS,
) -> PipelineReport:
    """Steady-state cycle report of one inner iteration (Figure 8 unit).

    Emits a warm-up step then measures the next step in isolation
    (hoisted prologue values are long since ready in steady state).
    One measured step advances ``logical_threads * lanes`` cells.
    """
    if logical_threads < 1:
        raise ConfigurationError(
            f"logical_threads must be >= 1, got {logical_threads}"
        )
    kernel = SimdKernel(fixup=fixup, double=double)
    ctx = SPUContext("cycle-kernel", double=double)
    lanes = ctx.lanes
    T = logical_threads
    rng = np.random.default_rng(42)
    grp = kernel.prologue(
        ctx,
        rng.random((T, lanes)) + 0.3,
        rng.random((T, lanes)) + 0.3,
        rng.random((T, lanes)) + 0.3,
        1.0,
        rng.random((T, lanes)),
    )
    start = 0
    for _ in range(2):  # warm-up step, then the measured step
        start = len(ctx.stream)
        _emit_body_step(kernel, ctx, grp, nm, rng)
    body = InstructionStream(
        f"{'dp' if double else 'sp'}-kernel{'+fixup' if fixup else ''}"
        f"x{logical_threads}"
    )
    body.instructions = ctx.stream.instructions[start:]
    return simulate_cached(body)


def cells_per_invocation(double: bool, logical_threads: int = LOGICAL_THREADS) -> int:
    """Cells advanced by one measured kernel step."""
    return logical_threads * (2 if double else 4)


def cycles_per_cell(
    nm: int = 4,
    fixup: bool = False,
    double: bool = True,
    simd: bool = True,
    pipelined_dp: bool = False,
) -> float:
    """SPU cycles per cell visit for a kernel configuration.

    * SIMD: four logical threads, full vector width.
    * scalar (``simd=False``): the pre-SIMD ladder stages -- a single
      dependency chain with one useful lane per vector (compiled scalar
      code still flows through the same FP pipes).
    * ``pipelined_dp``: Figure 10's architectural what-if.  A fully
      pipelined DP unit issues every cycle like the SP unit, so the DP
      kernel schedules like the SP kernel at half the vector width.
    """
    threads = LOGICAL_THREADS if simd else 1
    if pipelined_dp and double:
        report = kernel_cycle_report(
            nm=nm, fixup=fixup, double=False, logical_threads=threads
        )
        cells = threads * 2 if simd else 1  # SP schedule at DP width
        return report.cycles / cells
    report = kernel_cycle_report(
        nm=nm, fixup=fixup, double=double, logical_threads=threads
    )
    cells = cells_per_invocation(double, threads) if simd else 1
    return report.cycles / cells
