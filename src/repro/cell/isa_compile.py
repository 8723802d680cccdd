"""Trace-compilation of the functional SPU ISA into batched programs.

Interpreting the SIMDized kernel of :mod:`repro.core.spe_kernel` costs a
Python-level :class:`~repro.cell.isa.Instruction` record plus a 2-lane
NumPy operation *per intrinsic per vector*, which makes the ISA-validated
solve orders of magnitude slower than the fused reference kernel.  But
the kernel's instruction stream is a pure function of its shape
``(it, fixup, precision)`` -- the values flowing through it change per
chunk, the *operations* never do.  This module exploits that the same way
the DMA-program cache of :mod:`repro.core.streaming` exploits recurring
working sets: record the stream once, lower it once into a *compiled
program* of whole-array NumPy operations carrying a leading batch axis,
and replay that program for every line of every :class:`LineBlock` staged
on a jkm diagonal in one call.

Why replay is bit-identical to interpretation: every ISA operation is
elementwise per lane (:class:`~repro.cell.isa.SPUContext` computes
``a.data * b.data + c.data`` and friends on 2- or 4-lane vectors), and
IEEE-754 arithmetic is deterministic per element -- stacking independent
lanes along a batch axis evaluates exactly the same scalar expression per
lane.  The lowering emits divisions as the exact quotient (the documented
``spu_div`` substitution), keeps every ``madd``/``msub`` grouped as the
two-operation ``a*b + c`` the interpreter computes (NumPy has no FMA
contraction), and reproduces the branch-free compare+select fixup as
``where(mask != 0, b, a)`` -- the very expression :meth:`SPUContext.spu_sel`
evaluates.  ``tests/core/test_isa_compile.py`` enforces the equality with
``assert_array_equal``.

Nothing here is machine-visible: the recorded
:class:`~repro.cell.isa.InstructionStream` (what the pipeline model
times) is emitted identically, and compilation only changes how the host
evaluates the functional values.  See docs/PERFORMANCE.md section 4.

Two layers ride on top of the lowering (docs/PERFORMANCE.md section 5):

* an **optimizing program pipeline** (:func:`optimize_program`), run
  once at compile time and cached with the program: constant folding of
  const-only ops (evaluated with the op's exact dtype-typed semantics),
  dead-op elimination backward from the output bindings, and a last-use
  liveness analysis that assigns every surviving intermediate a slot in
  a small reusable buffer pool.  None of the passes reassociate,
  regroup or change a single rounding -- they only skip work and choose
  where results land, so bit-identity with the interpreter is preserved
  (and enforced by the fuzz referees per backend x optimizer mode);

* a pluggable **array backend** (:mod:`repro.cell.backend`):
  ``CompiledProgram.run`` is a thin driver over a backend's op table.
  The numpy reference backend executes the buffer plan with ``out=``
  into preallocated scratch arrays, so a replay allocates only its
  output arrays -- independent of program length; optional torch/cupy
  backends stream the same program through device tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from ..errors import PipelineError
from .isa import InstructionStream, OpClass, SPUContext

# Lowered opcode tags (ints for dispatch speed in CompiledProgram.run).
(
    OP_INPUT,
    OP_CONST,
    OP_ADD,
    OP_SUB,
    OP_MUL,
    OP_MADD,
    OP_MSUB,
    OP_NMSUB,
    OP_DIV,
    OP_CMPGT,
    OP_OR,
    OP_AND,
    OP_SEL,
) = range(13)

#: Entry cap of the compiled-program cache (cleared wholesale on
#: overflow, like the transfer-plan cache; a miss only costs a re-trace).
PROGRAM_CACHE_MAX_ENTRIES: int = 256


@dataclass(frozen=True)
class TraceVec:
    """A symbolic vector value: a program slot plus the virtual register
    recorded for it (dependency tracking in the instruction stream)."""

    slot: int
    reg: str


@dataclass
class CompileStats:
    """Counters for the ``compile`` blocks of ``solve --json`` and
    ``kernel --json`` (module-global, like the MFC traffic stats)."""

    streams_compiled: int = 0
    cache_hits: int = 0
    batched_calls: int = 0
    batched_blocks: int = 0
    batched_lines: int = 0
    # optimizer pipeline (summed over freshly compiled programs)
    ops_before: int = 0
    ops_after: int = 0
    slots_reused: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "streams_compiled": self.streams_compiled,
            "cache_hits": self.cache_hits,
            "batched_calls": self.batched_calls,
            "batched_blocks": self.batched_blocks,
            "batched_lines": self.batched_lines,
            "ops_before": self.ops_before,
            "ops_after": self.ops_after,
            "slots_reused": self.slots_reused,
        }


STATS = CompileStats()


def stats_delta(before: dict[str, int]) -> dict[str, int]:
    """Counter movement since a :meth:`CompileStats.snapshot`."""
    now = STATS.snapshot()
    return {k: now[k] - before[k] for k in now}


class TraceContext(SPUContext):
    """An :class:`SPUContext` that records the instruction stream while
    lowering each executed intrinsic into a batched-program operation.

    The kernel emission code of :class:`repro.core.spe_kernel.SimdKernel`
    runs against this context unchanged: vectors become :class:`TraceVec`
    slots, loads/stores become named input/output bindings, and every
    arithmetic intrinsic appends both its stream instruction (same
    opcode, operation class, register operands and flop count as the
    interpreting context) and its lowered operation.
    """

    def __init__(self, name: str = "compiled-kernel", double: bool = True) -> None:
        super().__init__(name, double)
        self.ops: list[tuple[int, int, int, int, int]] = []
        self.consts: list[float] = []
        self.inputs: list[Hashable] = []
        self.outputs: list[tuple[Hashable, int]] = []
        self._nslots = 0

    # -- slot / op bookkeeping -------------------------------------------

    def _slot(self) -> int:
        s = self._nslots
        self._nslots += 1
        return s

    def _emit_op(self, kind: int, a: int, b: int = 0, c: int = 0) -> int:
        slot = self._slot()
        self.ops.append((kind, slot, a, b, c))
        return slot

    # -- bindings (what the interpreter's lqd/stqd/splats carry) ---------

    def input_vec(self, key: Hashable, label: str = "mem") -> TraceVec:
        """A batched input bound at run time (the interpreter's ``lqd``)."""
        reg = self.stream.new_reg()
        self.stream.emit("lqd", OpClass.LOAD, reg, (label,))
        slot = self._emit_op(OP_INPUT, len(self.inputs))
        self.inputs.append(key)
        return TraceVec(slot, reg)

    def splats_input(self, key: Hashable) -> TraceVec:
        """A batched per-element scalar input the interpreter would splat
        (e.g. the hoisted cross section, constant per block but not per
        batch)."""
        reg = self.stream.new_reg()
        self.stream.emit("splats", OpClass.SHUFFLE, reg)
        slot = self._emit_op(OP_INPUT, len(self.inputs))
        self.inputs.append(key)
        return TraceVec(slot, reg)

    def output(self, value: TraceVec, key: Hashable, label: str = "mem") -> None:
        """Bind a value as a program output (the interpreter's ``stqd``)."""
        self.stream.emit("stqd", OpClass.STORE, None, (value.reg,))
        self.outputs.append((key, value.slot))

    def lqd(self, source, label: str = "mem"):
        raise PipelineError(
            "TraceContext has no memory to load from; bind a batched "
            "input with input_vec()"
        )

    def stqd(self, value, target, label: str = "mem") -> None:
        raise PipelineError(
            "TraceContext has no memory to store to; bind a batched "
            "output with output()"
        )

    # -- constants --------------------------------------------------------

    def spu_splats(self, scalar: float) -> TraceVec:
        reg = self.stream.new_reg()
        self.stream.emit("splats", OpClass.SHUFFLE, reg)
        slot = self._emit_op(OP_CONST, len(self.consts))
        self.consts.append(float(scalar))
        return TraceVec(slot, reg)

    # -- arithmetic (stream emission mirrors SPUContext exactly) ----------

    def _binary(self, opcode: str, a: TraceVec, b: TraceVec, op, flops: int) -> TraceVec:
        reg = self.stream.new_reg()
        self.stream.emit(opcode, self._float_class(), reg, (a.reg, b.reg), flops)
        return TraceVec(self._emit_op(op, a.slot, b.slot), reg)

    def spu_add(self, a: TraceVec, b: TraceVec) -> TraceVec:
        return self._binary("fa", a, b, OP_ADD, self.lanes)

    def spu_sub(self, a: TraceVec, b: TraceVec) -> TraceVec:
        return self._binary("fs", a, b, OP_SUB, self.lanes)

    def spu_mul(self, a: TraceVec, b: TraceVec) -> TraceVec:
        return self._binary("fm", a, b, OP_MUL, self.lanes)

    def _fused(self, opcode: str, kind: int, a: TraceVec, b: TraceVec, c: TraceVec) -> TraceVec:
        reg = self.stream.new_reg()
        self.stream.emit(
            opcode, self._float_class(), reg, (a.reg, b.reg, c.reg), self._fma_flops()
        )
        return TraceVec(self._emit_op(kind, a.slot, b.slot, c.slot), reg)

    def spu_madd(self, a: TraceVec, b: TraceVec, c: TraceVec) -> TraceVec:
        return self._fused("fma", OP_MADD, a, b, c)

    def spu_msub(self, a: TraceVec, b: TraceVec, c: TraceVec) -> TraceVec:
        return self._fused("fms", OP_MSUB, a, b, c)

    def spu_nmsub(self, a: TraceVec, b: TraceVec, c: TraceVec) -> TraceVec:
        return self._fused("fnms", OP_NMSUB, a, b, c)

    # -- comparison / select ----------------------------------------------

    def spu_cmpgt(self, a: TraceVec, b: TraceVec) -> TraceVec:
        reg = self.stream.new_reg()
        self.stream.emit("fcgt", self._float_class(), reg, (a.reg, b.reg))
        return TraceVec(self._emit_op(OP_CMPGT, a.slot, b.slot), reg)

    def spu_or(self, a: TraceVec, b: TraceVec) -> TraceVec:
        reg = self.stream.new_reg()
        self.stream.emit("or", OpClass.BYTE, reg, (a.reg, b.reg))
        return TraceVec(self._emit_op(OP_OR, a.slot, b.slot), reg)

    def spu_and(self, a: TraceVec, b: TraceVec) -> TraceVec:
        reg = self.stream.new_reg()
        self.stream.emit("and", OpClass.BYTE, reg, (a.reg, b.reg))
        return TraceVec(self._emit_op(OP_AND, a.slot, b.slot), reg)

    def spu_sel(self, a: TraceVec, b: TraceVec, mask: TraceVec) -> TraceVec:
        reg = self.stream.new_reg()
        self.stream.emit("selb", OpClass.BYTE, reg, (a.reg, b.reg, mask.reg))
        return TraceVec(self._emit_op(OP_SEL, a.slot, b.slot, mask.slot), reg)

    # -- division ----------------------------------------------------------

    def spu_div(self, num: TraceVec, den: TraceVec) -> TraceVec:
        # record the frest/fi + Newton-Raphson sequence exactly as the
        # interpreting context does; lower to the exact IEEE quotient,
        # which is what the interpreter computes.
        est = self.stream.new_reg()
        self.stream.emit("frest", OpClass.SHUFFLE, est, (den.reg,))
        self.stream.emit("fi", OpClass.SP_FLOAT, est, (den.reg, est), self.lanes)
        refinements = 2 if self.double else 1
        cur = est
        for _ in range(refinements):
            t = self.stream.new_reg()
            self.stream.emit(
                "fnms", self._float_class(), t, (den.reg, cur), self._fma_flops()
            )
            nxt = self.stream.new_reg()
            self.stream.emit(
                "fma", self._float_class(), nxt, (cur, t, cur), self._fma_flops()
            )
            cur = nxt
        out = self.stream.new_reg()
        self.stream.emit(
            "fm", self._float_class(), out, (num.reg, cur), self.lanes
        )
        return TraceVec(self._emit_op(OP_DIV, num.slot, den.slot), out)

    # ``ai``, ``branch`` and ``nop`` are inherited: they only touch the
    # stream and lower to nothing.

    def finish(self) -> "CompiledProgram":
        """Freeze the lowering into an executable program."""
        return CompiledProgram(
            name=self.stream.name,
            double=self.double,
            ops=tuple(self.ops),
            consts=tuple(self.consts),
            inputs=tuple(self.inputs),
            outputs=tuple(self.outputs),
            nslots=self._nslots,
            stream=self.stream,
        )


# -- the optimizing program pipeline -----------------------------------------

#: Operand count per arithmetic op tag (INPUT/CONST read no slots).
_OPERAND_COUNT: dict[int, int] = {
    OP_ADD: 2, OP_SUB: 2, OP_MUL: 2, OP_DIV: 2,
    OP_CMPGT: 2, OP_OR: 2, OP_AND: 2,
    OP_MADD: 3, OP_MSUB: 3, OP_NMSUB: 3, OP_SEL: 3,
}


def _operands(kind: int, a: int, b: int, c: int) -> tuple:
    n = _OPERAND_COUNT.get(kind, 0)
    if n == 3:
        return (a, b, c)
    if n == 2:
        return (a, b)
    return ()


def _fold_value(kind: int, x, y, z, dtype):
    """Evaluate one op on dtype-typed scalars, mirroring the
    interpreter's expression for that tag exactly (same grouping, same
    single-rounding-per-operation arithmetic, so folding a const-only
    op changes no bit of any downstream value)."""
    if kind == OP_ADD:
        v = x + y
    elif kind == OP_SUB:
        v = x - y
    elif kind == OP_MUL:
        v = x * y
    elif kind == OP_DIV:
        v = x / y
    elif kind == OP_MADD:
        v = x * y + z
    elif kind == OP_MSUB:
        v = x * y - z
    elif kind == OP_NMSUB:
        v = z - x * y
    elif kind == OP_CMPGT:
        v = x > y
    elif kind == OP_OR:
        v = (x != 0) | (y != 0)
    elif kind == OP_AND:
        v = (x != 0) & (y != 0)
    elif kind == OP_SEL:
        v = y if z != 0 else x
    else:  # pragma: no cover - lowering emits only the tags above
        raise PipelineError(f"unknown lowered op tag {kind}")
    return dtype(v)


@dataclass(frozen=True)
class ExecutionPlan:
    """The compile-time product of the optimizer pipeline.

    Slot numbering is the original program's (dead slots simply stay
    unwritten), input/const *binding positions* are unchanged -- a
    caller builds the same input list either way -- and ``dest`` maps
    each surviving op to a scratch-pool buffer index (``-1``: allocate
    fresh; inputs, consts and output-producing ops).
    """

    ops: tuple  #: surviving ops, in original order
    dest: tuple  #: per-op scratch buffer index, aligned with :attr:`ops`
    consts: tuple  #: dtype-typed consts (folding appends to the original)
    num_buffers: int  #: float scratch buffers the pool needs
    num_bool: int  #: boolean mask scratch buffers the pool needs
    stats: dict  #: ``ops_before`` / ``ops_after`` / ``slots_reused`` / ...


def optimize_program(
    ops: tuple, consts: tuple, outputs: tuple, dtype
) -> ExecutionPlan:
    """Run the compile-time pass pipeline over a lowered op list.

    1. **Constant folding** -- an arithmetic op whose operands are all
       constants becomes a constant (evaluated by :func:`_fold_value`
       with the op's exact semantics on dtype-typed scalars).
    2. **Dead-op elimination** -- walk backward from the output slots;
       ops (including input/const materializations) whose results are
       never read are dropped.
    3. **Liveness / buffer plan** -- forward scan recording each slot's
       last use; every surviving arithmetic op that does not produce an
       output binding gets a destination from a LIFO free list of
       scratch buffers (an operand's buffer is released only *after*
       the op that reads it last, so a destination never aliases an
       operand of the same op).  Output-producing ops keep ``dest=-1``:
       their results are freshly allocated and owned by the caller,
       which bounds per-replay allocations at the output count.

    No pass reorders, regroups or re-rounds anything.
    """
    ops_before = len(ops)
    typed_consts = list(dtype(v) for v in consts)

    # pass 1: constant folding
    folded: dict[int, int] = {}  # slot -> index into typed_consts
    stage1: list[tuple] = []
    for op in ops:
        kind, d, a, b, c = op
        if kind == OP_CONST:
            folded[d] = a
            stage1.append(op)
            continue
        if kind == OP_INPUT:
            stage1.append(op)
            continue
        operands = _operands(kind, a, b, c)
        if operands and all(s in folded for s in operands):
            x = typed_consts[folded[a]]
            y = typed_consts[folded[b]]
            z = typed_consts[folded[c]] if len(operands) == 3 else None
            typed_consts.append(_fold_value(kind, x, y, z, dtype))
            folded[d] = len(typed_consts) - 1
            stage1.append((OP_CONST, d, folded[d], 0, 0))
        else:
            stage1.append(op)
    ops_folded = sum(
        1
        for orig, new in zip(ops, stage1)
        if orig[0] not in (OP_CONST, OP_INPUT) and new[0] == OP_CONST
    )

    # pass 2: dead-op elimination, backward from the outputs
    needed = {slot for _, slot in outputs}
    kept: list[tuple] = []
    for op in reversed(stage1):
        kind, d, a, b, c = op
        if d in needed:
            kept.append(op)
            needed.update(_operands(kind, a, b, c))
    kept.reverse()

    # pass 3: last-use liveness -> scratch buffer plan
    output_slots = {slot for _, slot in outputs}
    last_use: dict[int, int] = {}
    for i, (kind, d, a, b, c) in enumerate(kept):
        for s in _operands(kind, a, b, c):
            last_use[s] = i
    dest: list[int] = []
    buffer_of: dict[int, int] = {}
    free: list[int] = []
    num_buffers = 0
    pooled_ops = 0
    need_or = False
    need_mask = False
    for i, (kind, d, a, b, c) in enumerate(kept):
        if kind in (OP_INPUT, OP_CONST) or d in output_slots:
            dest.append(-1)
        else:
            pooled_ops += 1
            if free:
                buf = free.pop()
            else:
                buf = num_buffers
                num_buffers += 1
            dest.append(buf)
            buffer_of[d] = buf
        if kind in (OP_OR, OP_AND):
            need_or = True
        elif kind in (OP_CMPGT, OP_SEL):
            need_mask = True
        # release operand buffers after the op: a destination chosen
        # above can never alias an operand of the same op
        for s in _operands(kind, a, b, c):
            if last_use.get(s) == i and s in buffer_of:
                free.append(buffer_of.pop(s))
    num_bool = 2 if need_or else (1 if need_mask else 0)

    return ExecutionPlan(
        ops=tuple(kept),
        dest=tuple(dest),
        consts=tuple(typed_consts),
        num_buffers=num_buffers,
        num_bool=num_bool,
        stats={
            "ops_before": ops_before,
            "ops_after": len(kept),
            "ops_folded": ops_folded,
            "ops_dead": len(stage1) - len(kept),
            "slots_reused": pooled_ops - num_buffers,
        },
    )


_NUMPY_BACKEND = None


def _default_backend():
    """The reference numpy backend (lazy: backend.py imports this
    module's op tags, so the import must happen after load)."""
    global _NUMPY_BACKEND
    if _NUMPY_BACKEND is None:
        from .backend import numpy_backend

        _NUMPY_BACKEND = numpy_backend()
    return _NUMPY_BACKEND


class _BackendState:
    """Per-(program, backend) warm state: the bound op table, typed
    constants, pre-dispatched step lists and the scratch-buffer pool.

    Kept on the program (which the program cache memoizes), so pool
    workers and the serve daemon carry warm per-backend state across
    solver rebinds exactly like the program cache itself.
    """

    __slots__ = (
        "backend", "dtype", "consts", "plan_consts",
        "steps_raw", "steps_plan",
        "_plan", "_bufs", "_bools", "_views", "_bool_views", "_n",
    )

    def __init__(self, backend, program: "CompiledProgram") -> None:
        self.backend = backend
        self.dtype = program._dtype
        table = backend.op_table(program._dtype)
        self.consts = backend.constants(program.consts, program._dtype)
        plan = program.plan
        self.plan_consts = backend.constants(plan.consts, program._dtype)
        supports_out = backend.supports_out

        def steps(ops, dest):
            out = []
            for i, (kind, d, a, b, c) in enumerate(ops):
                fn = table.get(kind)
                bi = dest[i] if (dest is not None and supports_out) else -1
                out.append((kind, d, a, b, c, fn, bi))
            return tuple(out)

        self.steps_raw = steps(program.ops, None)
        self.steps_plan = steps(plan.ops, plan.dest)
        self._plan = plan
        self._bufs: list = []
        self._bools: list = []
        self._views: list = []
        self._bool_views: list = []
        self._n = -1

    def scratch(self, n: int):
        """The pool views for batch length ``n`` (grown, then cached:
        replays at a repeated batch length allocate nothing)."""
        if n != self._n:
            plan = self._plan
            backend = self.backend
            if not self._bufs or n > len(self._bufs[0]):
                self._bufs = [
                    backend.alloc(n, self.dtype)
                    for _ in range(plan.num_buffers)
                ]
                self._bools = [
                    backend.alloc_bool(n) for _ in range(plan.num_bool)
                ]
            self._views = [b[:n] for b in self._bufs]
            self._bool_views = [b[:n] for b in self._bools]
            self._n = n
        return self._views, self._bool_views


class CompiledProgram:
    """A lowered instruction stream, executable over a leading batch axis.

    ``run(inputs)`` takes one ``(N,)`` array per input binding (in
    :attr:`inputs` order) and returns one ``(N,)`` array per output
    binding (in :attr:`outputs` order); every element of the batch sees
    exactly the scalar dataflow the interpreter evaluates lane by lane.
    The returned arrays are owned by the caller (never views into the
    scratch pool).

    Execution dispatches through an :class:`~repro.cell.backend.ArrayBackend`
    (the numpy reference by default); ``optimize=True`` (default)
    replays the compile-time :class:`ExecutionPlan` -- same bits,
    fewer ops, pooled scratch destinations on ``out=``-capable
    backends.
    """

    def __init__(
        self,
        name: str,
        double: bool,
        ops: tuple,
        consts: tuple,
        inputs: tuple,
        outputs: tuple,
        nslots: int,
        stream: InstructionStream,
    ) -> None:
        self.name = name
        self.double = double
        self.ops = ops
        self.consts = consts
        self.inputs = inputs
        self.outputs = outputs
        self.nslots = nslots
        #: the recorded stream the lowering came from -- the pipeline
        #: model can time it; its signature keys the program cache.
        self.stream = stream
        self._dtype = np.float64 if double else np.float32
        #: the optimizer pipeline runs once here, at compile time, and
        #: is cached with the program.
        self.plan = optimize_program(ops, consts, outputs, self._dtype)
        self._states: dict[str, _BackendState] = {}

    @property
    def instructions(self) -> int:
        return len(self.stream)

    def _arity_error(self, got: int) -> PipelineError:
        expected = len(self.inputs)
        if got < expected:
            missing = ", ".join(repr(k) for k in self.inputs[got:])
            detail = f"missing bindings: {missing}"
        elif expected:
            detail = (
                f"{got - expected} extra value(s) beyond the last "
                f"binding {self.inputs[-1]!r}"
            )
        else:
            detail = "the program has no input bindings"
        return PipelineError(
            f"program {self.name!r} expects {expected} inputs, got {got} "
            f"({detail})"
        )

    def backend_state(self, backend) -> _BackendState:
        state = self._states.get(backend.name)
        if state is None:
            state = self._states[backend.name] = _BackendState(backend, self)
        return state

    def run(
        self,
        inputs: Sequence[np.ndarray],
        backend=None,
        optimize: bool = True,
    ) -> list[np.ndarray]:
        if len(inputs) != len(self.inputs):
            raise self._arity_error(len(inputs))
        if backend is None:
            backend = _default_backend()
        state = self.backend_state(backend)
        if backend.is_host:
            xs = inputs
        else:
            xs = [backend.from_host(x) for x in inputs]
        if optimize:
            steps = state.steps_plan
            consts = state.plan_consts
            if backend.supports_out and state._plan.num_buffers:
                n = next(
                    (x.shape[0] for x in xs if getattr(x, "shape", ())), 0
                )
                bufs, tmps = state.scratch(n)
            else:
                bufs = tmps = None
        else:
            steps = state.steps_raw
            consts = state.consts
            bufs = tmps = None
        vals: list = [None] * self.nslots
        for kind, d, a, b, c, fn, bi in steps:
            if kind == OP_INPUT:
                vals[d] = xs[a]
            elif kind == OP_CONST:
                vals[d] = consts[a]
            elif bi >= 0:
                vals[d] = fn(vals[a], vals[b], vals[c], bufs[bi], tmps)
            else:
                vals[d] = fn(vals[a], vals[b], vals[c], None, None)
        outs = [vals[slot] for _, slot in self.outputs]
        if backend.is_host:
            return outs
        return [backend.to_host(v) for v in outs]


# -- the program cache -------------------------------------------------------

_PROGRAM_CACHE: dict[Hashable, CompiledProgram] = {}


def compiled_program(
    key: Hashable, builder: Callable[[], TraceContext]
) -> CompiledProgram:
    """Memoized compile: trace ``builder()`` once per ``key``.

    ``key`` must determine the emitted stream completely (for the line
    kernel: ``(it, fixup, double)`` -- the only inputs the emission code
    branches on), exactly as the transfer-plan cache of
    :mod:`repro.core.streaming` keys on everything a chunk's addresses
    depend on.  The cached program embeds no run-time data.
    """
    program = _PROGRAM_CACHE.get(key)
    if program is not None:
        STATS.cache_hits += 1
        return program
    program = builder().finish()
    STATS.streams_compiled += 1
    STATS.ops_before += program.plan.stats["ops_before"]
    STATS.ops_after += program.plan.stats["ops_after"]
    STATS.slots_reused += program.plan.stats["slots_reused"]
    if len(_PROGRAM_CACHE) >= PROGRAM_CACHE_MAX_ENTRIES:
        _PROGRAM_CACHE.clear()
    _PROGRAM_CACHE[key] = program
    return program


def cache_size() -> int:
    return len(_PROGRAM_CACHE)


def cache_info() -> dict[str, int]:
    """Occupancy and lifetime traffic of this process's program cache --
    the warm state a persistent pool worker carries across solver
    rebinds."""
    return {
        "entries": len(_PROGRAM_CACHE),
        "capacity": PROGRAM_CACHE_MAX_ENTRIES,
        "compiled": STATS.streams_compiled,
        "hits": STATS.cache_hits,
    }


def clear_cache() -> None:
    """Drop all compiled programs (tests; never needed for correctness)."""
    _PROGRAM_CACHE.clear()
