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
and replay that program for every line of a jkm diagonal in one call.

Why replay is bit-identical to interpretation: every ISA operation is
elementwise per lane, and IEEE-754 arithmetic is deterministic per
element -- stacking independent lanes along a batch axis evaluates
exactly the same scalar expression per lane.  Both sides read one
definition per intrinsic, the table :data:`~repro.cell.isa.INTRINSICS`:
:class:`TraceContext` records through the interpreter's own
``SPUContext._intrinsic`` and overrides only the value hook (append an
op instead of computing lanes), and the allocate form of each
:func:`op_table` entry is the table's value expression -- divisions as
the exact quotient (the documented ``spu_div`` substitution), every
``madd``/``msub`` as the two-operation ``a*b + c`` (NumPy has no FMA
contraction), the branch-free fixup as ``where(mask != 0, b, a)``.
``tests/core/test_isa_compile.py`` enforces the equality with
``assert_array_equal``.

Nothing here is machine-visible: the recorded
:class:`~repro.cell.isa.InstructionStream` (what the pipeline model
times) is emitted identically, and compilation only changes how the host
evaluates the functional values.  See docs/PERFORMANCE.md section 4.

An **optimizing program pipeline** (:func:`optimize_program`,
docs/PERFORMANCE.md section 5) runs once at compile time and is cached
with the program: two passes, dead-op elimination backward from the
output bindings and a last-use liveness analysis that assigns every
surviving intermediate a slot in a small reusable buffer pool.  Neither
pass reassociates, regroups or changes a single rounding -- they only
skip work and choose where results land, so bit-identity with the
interpreter is preserved (and enforced by the fuzz referees).
``CompiledProgram.run`` replays that plan through one numpy op table
(:func:`op_table`), writing pooled intermediates with ``out=`` into
preallocated scratch arrays, so a replay allocates only its output
arrays -- independent of program length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from ..errors import PipelineError
from .isa import (
    INTRINSICS,
    OP_ADD,
    OP_AND,
    OP_CMPGT,
    OP_DIV,
    OP_MADD,
    OP_MSUB,
    OP_MUL,
    OP_NMSUB,
    OP_OR,
    OP_SEL,
    OP_SUB,
    InstructionStream,
    OpClass,
    SPUContext,
)

# Lowered op tags (ints for dispatch speed in CompiledProgram.run): an
# arithmetic op's tag is its intrinsic's index in INTRINSICS; the two
# bindings follow.
OP_INPUT, OP_CONST = len(INTRINSICS), len(INTRINSICS) + 1

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
    arithmetic intrinsic goes through the interpreter's one recording
    method -- so its stream instruction is the interpreter's by
    construction -- with only the value hook overridden to append the
    lowered operation instead of computing lanes.
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

    # -- arithmetic: SPUContext._intrinsic records, these lower ----------

    def _check(self, *vecs: TraceVec) -> None:
        """Symbolic vectors carry no dtype: the program has one."""

    def _value(self, tag: int, operands: Sequence[TraceVec], reg: str) -> TraceVec:
        """Lower intrinsic ``tag`` to one op on its operands' slots."""
        return TraceVec(self._emit_op(tag, *(v.slot for v in operands)), reg)

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
    consts: tuple  #: the program's consts as dtype-typed scalars
    num_buffers: int  #: float scratch buffers the pool needs
    num_bool: int  #: boolean mask scratch buffers the pool needs
    stats: dict  #: ``ops_before`` / ``ops_after`` / ``ops_dead`` / ...


def optimize_program(
    ops: tuple, consts: tuple, outputs: tuple, dtype
) -> ExecutionPlan:
    """Run the compile-time pass pipeline over a lowered op list.

    1. **Dead-op elimination** -- walk backward from the output slots;
       ops (including input/const materializations) whose results are
       never read are dropped.
    2. **Liveness / buffer plan** -- forward scan recording each slot's
       last use; every surviving arithmetic op that does not produce an
       output binding gets a destination from a LIFO free list of
       scratch buffers (an operand's buffer is released only *after*
       the op that reads it last, so a destination never aliases an
       operand of the same op).  Output-producing ops keep ``dest=-1``:
       their results are freshly allocated and owned by the caller,
       which bounds per-replay allocations at the output count.

    Both passes read an op's operand count from its intrinsic's arity.
    No pass reorders, regroups or re-rounds anything.
    """
    arity = [spec.arity for spec in INTRINSICS] + [0, 0]  # OP_INPUT, OP_CONST

    # pass 1: dead-op elimination, backward from the outputs
    output_slots = {slot for _, slot in outputs}
    needed = set(output_slots)
    kept: list[tuple] = []
    for op in reversed(ops):
        kind, d, a, b, c = op
        if d in needed:
            kept.append(op)
            needed.update((a, b, c)[: arity[kind]])
    kept.reverse()
    reads = [(a, b, c)[: arity[kind]] for kind, _, a, b, c in kept]

    # pass 2: last-use liveness -> scratch buffer plan
    last_use: dict[int, int] = {}
    for i, slots in enumerate(reads):
        for s in slots:
            last_use[s] = i
    dest: list[int] = []
    buffer_of: dict[int, int] = {}
    free: list[int] = []
    num_buffers = 0
    pooled_ops = 0
    need_or = False
    need_mask = False
    for i, ((kind, d, _, _, _), slots) in enumerate(zip(kept, reads)):
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
        for s in slots:
            if last_use.get(s) == i and s in buffer_of:
                free.append(buffer_of.pop(s))
    num_bool = 2 if need_or else (1 if need_mask else 0)

    return ExecutionPlan(
        ops=tuple(kept),
        dest=tuple(dest),
        consts=tuple(dtype(v) for v in consts),
        num_buffers=num_buffers,
        num_bool=num_bool,
        stats={
            "ops_before": len(ops),
            "ops_after": len(kept),
            "ops_dead": len(ops) - len(kept),
            "slots_reused": pooled_ops - num_buffers,
        },
    )


# -- the op table ------------------------------------------------------------


def op_table(dtype) -> dict[int, Callable]:
    """Map each arithmetic op tag to ``fn(a, b, c, out, tmp)``.

    ``out`` is either ``None`` (allocate the result) or a preallocated
    destination that never aliases an operand of the same op (the
    buffer plan of :func:`optimize_program` guarantees it, so the
    multi-step bodies below are safe); ``tmp`` is a tuple of boolean
    scratch arrays, read only when ``out`` is given.  Unused operands
    arrive as ``None`` or an unrelated slot's value, and are ignored.

    The allocate form is the intrinsic's value expression from
    :data:`~repro.cell.isa.INTRINSICS` -- the one the interpreter
    evaluates, grouping included -- with masks cast to ``dtype``.  Each
    ``out=`` body evaluates the very same elementwise expression in
    place, one rounding at a time: ufuncs with ``out=`` round
    identically, and a bool->dtype assignment casts exactly like
    ``.astype``.
    """
    value = [spec.value for spec in INTRINSICS]

    def add(a, b, c, out, tmp):
        if out is None:
            return value[OP_ADD](a, b)
        return np.add(a, b, out=out)

    def sub(a, b, c, out, tmp):
        if out is None:
            return value[OP_SUB](a, b)
        return np.subtract(a, b, out=out)

    def mul(a, b, c, out, tmp):
        if out is None:
            return value[OP_MUL](a, b)
        return np.multiply(a, b, out=out)

    def div(a, b, c, out, tmp):
        if out is None:
            return value[OP_DIV](a, b)
        return np.divide(a, b, out=out)

    def madd(a, b, c, out, tmp):
        if out is None:
            return value[OP_MADD](a, b, c)
        np.multiply(a, b, out=out)
        return np.add(out, c, out=out)

    def msub(a, b, c, out, tmp):
        if out is None:
            return value[OP_MSUB](a, b, c)
        np.multiply(a, b, out=out)
        return np.subtract(out, c, out=out)

    def nmsub(a, b, c, out, tmp):
        if out is None:
            return value[OP_NMSUB](a, b, c)
        np.multiply(a, b, out=out)
        return np.subtract(c, out, out=out)

    def cmpgt(a, b, c, out, tmp):
        if out is None:
            return value[OP_CMPGT](a, b).astype(dtype)
        np.greater(a, b, out=tmp[0])
        out[...] = tmp[0]
        return out

    def or_(a, b, c, out, tmp):
        if out is None:
            return value[OP_OR](a, b).astype(dtype)
        np.not_equal(a, 0, out=tmp[0])
        np.not_equal(b, 0, out=tmp[1])
        np.logical_or(tmp[0], tmp[1], out=tmp[0])
        out[...] = tmp[0]
        return out

    def and_(a, b, c, out, tmp):
        if out is None:
            return value[OP_AND](a, b).astype(dtype)
        np.not_equal(a, 0, out=tmp[0])
        np.not_equal(b, 0, out=tmp[1])
        np.logical_and(tmp[0], tmp[1], out=tmp[0])
        out[...] = tmp[0]
        return out

    def sel(a, b, c, out, tmp):
        if out is None:
            return value[OP_SEL](a, b, c)
        np.not_equal(c, 0, out=tmp[0])
        np.copyto(out, a)
        np.copyto(out, b, where=tmp[0])
        return out

    return {
        OP_ADD: add,
        OP_SUB: sub,
        OP_MUL: mul,
        OP_DIV: div,
        OP_MADD: madd,
        OP_MSUB: msub,
        OP_NMSUB: nmsub,
        OP_CMPGT: cmpgt,
        OP_OR: or_,
        OP_AND: and_,
        OP_SEL: sel,
    }


class CompiledProgram:
    """A lowered instruction stream, executable over a leading batch axis.

    ``run(inputs)`` takes one ``(N,)`` array per input binding (in
    :attr:`inputs` order) and returns one ``(N,)`` array per output
    binding (in :attr:`outputs` order); every element of the batch sees
    exactly the scalar dataflow the interpreter evaluates lane by lane.
    The returned arrays are owned by the caller (never views into the
    scratch pool).

    Execution replays the compile-time :class:`ExecutionPlan` -- the
    interpreter's bits from fewer ops, intermediates landing in pooled
    scratch destinations.  The program's warm state (pre-dispatched
    plan steps and the scratch pool) lives on the program, which the
    program cache memoizes, so pool workers and the serve daemon carry
    it across solver rebinds exactly like the cache itself.
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
        table = op_table(self._dtype)
        #: plan ops with their op body and scratch buffer index bound
        self._steps = tuple(
            (kind, d, a, b, c, table.get(kind), bi)
            for (kind, d, a, b, c), bi in zip(self.plan.ops, self.plan.dest)
        )
        self._bufs: list[np.ndarray] = []
        self._bools: list[np.ndarray] = []
        self._views: list[np.ndarray] = []
        self._bool_views: list[np.ndarray] = []
        self._n = -1

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

    def _scratch(self, n: int):
        """The pool views for batch length ``n`` (grown, then cached:
        replays at a repeated batch length allocate nothing)."""
        if n != self._n:
            plan = self.plan
            if not self._bufs or n > len(self._bufs[0]):
                self._bufs = [
                    np.empty(n, dtype=self._dtype)
                    for _ in range(plan.num_buffers)
                ]
                self._bools = [
                    np.empty(n, dtype=bool) for _ in range(plan.num_bool)
                ]
            self._views = [b[:n] for b in self._bufs]
            self._bool_views = [b[:n] for b in self._bools]
            self._n = n
        return self._views, self._bool_views

    def run(self, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
        if len(inputs) != len(self.inputs):
            raise self._arity_error(len(inputs))
        consts = self.plan.consts
        if self.plan.num_buffers:
            n = next(
                (x.shape[0] for x in inputs if getattr(x, "shape", ())), 0
            )
            bufs, tmps = self._scratch(n)
        else:
            bufs = tmps = None
        vals: list = [None] * self.nslots
        for kind, d, a, b, c, fn, bi in self._steps:
            if kind == OP_INPUT:
                vals[d] = inputs[a]
            elif kind == OP_CONST:
                vals[d] = consts[a]
            elif bi >= 0:
                vals[d] = fn(vals[a], vals[b], vals[c], bufs[bi], tmps)
            else:
                vals[d] = fn(vals[a], vals[b], vals[c], None, None)
        return [vals[slot] for _, slot in self.outputs]


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
