"""Functional SPU SIMD instruction set over NumPy, with recording.

The paper's kernel (Figures 6-8) is written with SPU intrinsics:
``spu_splats`` replicates a scalar across a vector, ``spu_madd`` performs a
2-way double-precision fused multiply-add, and so on.  This module provides
those intrinsics as *functional* operations on 128-bit vector values backed
by NumPy, and simultaneously records every executed instruction into an
:class:`InstructionStream`.

Each arithmetic intrinsic is defined once, as a row of
:data:`INTRINSICS`: its opcode, operation class, arity, flops per lane
and elementwise value.  :class:`SPUContext` records and evaluates every
intrinsic through one method reading that row; the trace compiler of
:mod:`repro.cell.isa_compile` subclasses the context and lowers the same
rows, so what the solver computes and what the pipeline model times
cannot drift apart.

The recorded stream is what :mod:`repro.cell.pipeline` replays through the
dual-issue in-order SPU pipeline model to obtain the cycle counts of
Sec. 5.1 (590 cycles / 216 flops with fixups off, 1690 with fixups on, the
~5 % dual-issue rate, and the 64 % / 25 % of peak efficiencies).

Two dtypes are supported, matching the SPU's floating-point granularities:

* ``float64`` -- 2 lanes per vector ("2 64-bit double-precision numbers"),
* ``float32`` -- 4 lanes per vector.

A deliberate modelling choice: the SPU has no hardware double-precision
divide; real Cell code computes reciprocals with a single-precision
estimate (``frest``/``fi``) refined by Newton-Raphson ``fnms``/``fma``
steps.  :meth:`SPUContext.spu_div` *records* that instruction sequence
(so timing is faithful) but *computes* the exact IEEE quotient (so the
simulated solver matches the NumPy reference bit-for-bit).  This
substitution is documented in DESIGN.md.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import PipelineError
from . import constants


class Pipe(Enum):
    """The two SPU issue pipes (Sec. 2: "2 instruction pipelines")."""

    #: Floating point and fixed point units.
    EVEN = "even"
    #: Loads/stores, shuffles, branches, channel instructions.
    ODD = "odd"


class OpClass(Enum):
    """Latency classes of SPU instructions.

    Latencies follow the public Cell BE Handbook instruction tables; the
    double-precision class additionally blocks issue for
    ``DP_ISSUE_INTERVAL_CYCLES - 1`` cycles ("two double-precision flops
    every seven SPU clocks").
    """

    SP_FLOAT = "sp_float"     # single-precision FP arithmetic (even, 6)
    DP_FLOAT = "dp_float"     # double-precision FP arithmetic (even, 13, blocking)
    FIXED = "fixed"           # word fixed-point arithmetic (even, 2)
    BYTE = "byte"             # select / logical ops (even, 2)
    LOAD = "load"             # quadword load (odd, 6)
    STORE = "store"           # quadword store (odd, 6)
    SHUFFLE = "shuffle"       # shufb & friends, incl. splats (odd, 4)
    BRANCH = "branch"         # branches and hints (odd, 4)
    CHANNEL = "channel"       # channel reads/writes, e.g. MFC commands (odd, 6)
    NOP = "nop"               # explicit nops used for alignment (either, 1)


#: (pipe, result latency in cycles) for every op class.
OP_TABLE: dict[OpClass, tuple[Pipe, int]] = {
    OpClass.SP_FLOAT: (Pipe.EVEN, 6),
    OpClass.DP_FLOAT: (Pipe.EVEN, 13),
    OpClass.FIXED: (Pipe.EVEN, 2),
    OpClass.BYTE: (Pipe.EVEN, 2),
    OpClass.LOAD: (Pipe.ODD, 6),
    OpClass.STORE: (Pipe.ODD, 6),
    OpClass.SHUFFLE: (Pipe.ODD, 4),
    OpClass.BRANCH: (Pipe.ODD, 4),
    OpClass.CHANNEL: (Pipe.ODD, 6),
    OpClass.NOP: (Pipe.EVEN, 1),
}

#: Extra full-pipeline issue block after a DP instruction: the SPU stalls
#: all issue for 6 cycles after each double-precision operation.
DP_ISSUE_BLOCK: int = constants.DP_ISSUE_INTERVAL_CYCLES - 1


@dataclass(frozen=True)
class Instruction:
    """One recorded SPU instruction.

    ``dest`` and ``srcs`` are virtual register names; the pipeline model
    uses them to track read-after-write dependencies.  ``flops`` is the
    number of floating-point operations the instruction contributes to the
    efficiency accounting (a 2-way DP fma counts 4; a 2-way DP mul counts
    2; loads count 0).
    """

    opcode: str
    opclass: OpClass
    dest: str | None
    srcs: tuple[str, ...] = ()
    flops: int = 0

    @property
    def pipe(self) -> Pipe:
        return OP_TABLE[self.opclass][0]

    @property
    def latency(self) -> int:
        return OP_TABLE[self.opclass][1]


class InstructionStream:
    """An ordered list of recorded instructions with flop accounting."""

    def __init__(self, name: str = "kernel") -> None:
        self.name = name
        self.instructions: list[Instruction] = []
        self._reg_counter = itertools.count()

    def new_reg(self, prefix: str = "v") -> str:
        """Allocate a fresh virtual register name."""
        return f"{prefix}{next(self._reg_counter)}"

    def emit(
        self,
        opcode: str,
        opclass: OpClass,
        dest: str | None,
        srcs: Sequence[str] = (),
        flops: int = 0,
    ) -> Instruction:
        """Append one instruction and return it."""
        instr = Instruction(opcode, opclass, dest, tuple(srcs), flops)
        self.instructions.append(instr)
        return instr

    @property
    def flops(self) -> int:
        """Total floating-point operations in the stream."""
        return sum(i.flops for i in self.instructions)

    def count(self, opclass: OpClass) -> int:
        """Number of instructions of a given class."""
        return sum(1 for i in self.instructions if i.opclass is opclass)

    def signature(self) -> tuple:
        """A hashable identity of the recorded stream.

        Two streams with equal signatures schedule identically on the
        pipeline model (its output is a pure function of the instruction
        sequence), which is what lets :mod:`repro.cell.pipeline` memoize
        :class:`PipelineReport` per signature and
        :mod:`repro.cell.isa_compile` key compiled programs on it.
        :class:`Instruction` is frozen, so the tuple is hashable.
        """
        return (self.name, tuple(self.instructions))

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)


@dataclass
class Vec:
    """A 128-bit SPU vector value.

    ``data`` is a NumPy array whose total size is 16 bytes: 2 ``float64``
    lanes or 4 ``float32`` lanes.  ``reg`` is the virtual register holding
    the value, used for dependency tracking when the vector participates in
    further recorded operations.
    """

    data: np.ndarray
    reg: str

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        if self.data.dtype not in (np.float64, np.float32):
            raise PipelineError(f"unsupported vector dtype {self.data.dtype}")
        if self.data.nbytes != constants.VECTOR_BYTES:
            raise PipelineError(
                f"SPU vectors are {constants.VECTOR_BYTES} bytes; "
                f"got {self.data.nbytes} bytes"
            )

    @property
    def lanes(self) -> int:
        return self.data.size

    @property
    def is_double(self) -> bool:
        return self.data.dtype == np.float64


@dataclass(frozen=True)
class Intrinsic:
    """One arithmetic SPU intrinsic: what it records and what it computes.

    The interpreting :class:`SPUContext`, the tracing context of
    :mod:`repro.cell.isa_compile` and the compiled programs' op table all
    read this one definition, so the arithmetic the solver performs is the
    arithmetic the pipeline model times.
    """

    opcode: str
    #: operation class; ``None`` means the context's float class
    #: (double- or single-precision FP arithmetic)
    opclass: OpClass | None
    arity: int
    #: floating-point operations per vector lane
    flops: int
    #: the elementwise value on the operand arrays, grouping included
    #: (no FMA contraction); compares and logical ops yield a bool mask
    value: Callable


#: The arithmetic intrinsics; an intrinsic's ``OP_*`` tag is its index.
INTRINSICS: tuple[Intrinsic, ...] = (
    Intrinsic("fa", None, 2, 1, lambda a, b: a + b),
    Intrinsic("fs", None, 2, 1, lambda a, b: a - b),
    Intrinsic("fm", None, 2, 1, lambda a, b: a * b),
    Intrinsic("fma", None, 3, 2, lambda a, b, c: a * b + c),
    Intrinsic("fms", None, 3, 2, lambda a, b, c: a * b - c),
    Intrinsic("fnms", None, 3, 2, lambda a, b, c: c - a * b),
    # recorded after the reciprocal sequence as the final ``fm``; the
    # value is the exact IEEE quotient (see SPUContext.spu_div)
    Intrinsic("fm", None, 2, 1, lambda a, b: a / b),
    Intrinsic("fcgt", None, 2, 0, lambda a, b: a > b),
    Intrinsic("or", OpClass.BYTE, 2, 0, lambda a, b: (a != 0) | (b != 0)),
    Intrinsic("and", OpClass.BYTE, 2, 0, lambda a, b: (a != 0) & (b != 0)),
    Intrinsic("selb", OpClass.BYTE, 3, 0, lambda a, b, c: np.where(c != 0, b, a)),
)

(
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
) = range(len(INTRINSICS))


class SPUContext:
    """Execution context tying functional vectors to a recorded stream.

    One :class:`SPUContext` corresponds to one compiled kernel body: the
    paper's Figure 7 code becomes a sequence of calls on a context, and the
    context's :attr:`stream` is then fed to the pipeline simulator.
    """

    def __init__(self, name: str = "kernel", double: bool = True) -> None:
        self.stream = InstructionStream(name)
        self.double = double
        self._dtype = np.float64 if double else np.float32

    # -- helpers ---------------------------------------------------------

    @property
    def lanes(self) -> int:
        """SIMD width for the context's precision."""
        return constants.DP_LANES if self.double else constants.SP_LANES

    def _vec(self, data: np.ndarray, reg: str) -> Vec:
        return Vec(np.asarray(data, dtype=self._dtype), reg)

    def _check(self, *vecs: Vec) -> None:
        for v in vecs:
            if v.is_double != self.double:
                raise PipelineError(
                    f"precision mismatch: context is "
                    f"{'double' if self.double else 'single'}, vector {v.reg} is not"
                )

    # -- loads / stores / constants -------------------------------------

    def spu_splats(self, scalar: float) -> Vec:
        """Replicate ``scalar`` across all lanes (paper Fig. 7, line 4-7).

        ``spu_splats`` assembles to a shuffle on the odd pipe.
        """
        reg = self.stream.new_reg()
        self.stream.emit("splats", OpClass.SHUFFLE, reg)
        return self._vec(np.full(self.lanes, scalar, dtype=self._dtype), reg)

    def lqd(self, source: np.ndarray, label: str = "mem") -> Vec:
        """Quadword load from local store.

        ``source`` must hold exactly one vector's worth of lanes.
        """
        arr = np.asarray(source, dtype=self._dtype)
        if arr.size != self.lanes:
            raise PipelineError(
                f"lqd expects {self.lanes} lanes, got {arr.size} from {label}"
            )
        reg = self.stream.new_reg()
        self.stream.emit("lqd", OpClass.LOAD, reg, (label,))
        return self._vec(arr.copy(), reg)

    def stqd(self, value: Vec, target: np.ndarray, label: str = "mem") -> None:
        """Quadword store to local store (writes through to ``target``)."""
        self._check(value)
        target = np.asarray(target)
        if target.size != self.lanes:
            raise PipelineError(
                f"stqd expects {self.lanes} lanes, got {target.size} at {label}"
            )
        self.stream.emit("stqd", OpClass.STORE, None, (value.reg,))
        target[...] = value.data.reshape(target.shape)

    # -- arithmetic: every intrinsic goes through _intrinsic ------------

    def _intrinsic(self, tag: int, *operands):
        """Record intrinsic ``tag`` (an index into :data:`INTRINSICS`) on
        ``operands`` and return its value."""
        self._check(*operands)
        srcs = [v.reg for v in operands]
        if tag == OP_DIV:
            srcs[1] = self._reciprocal(srcs[1])
        return self._value(tag, operands, self._record(tag, srcs))

    def _record(self, tag: int, srcs: Sequence[str]) -> str:
        """Append intrinsic ``tag``'s instruction; return its register."""
        spec = INTRINSICS[tag]
        reg = self.stream.new_reg()
        opclass = spec.opclass or (
            OpClass.DP_FLOAT if self.double else OpClass.SP_FLOAT
        )
        self.stream.emit(spec.opcode, opclass, reg, srcs, spec.flops * self.lanes)
        return reg

    def _reciprocal(self, den: str) -> str:
        """Record the reciprocal of register ``den`` the SPU computes in
        place of a divide: a ``frest`` + ``fi`` single-precision estimate
        (odd/even pair) refined by Newton-Raphson ``fnms``/``fma`` steps,
        two in double precision, one in single."""
        est = self.stream.new_reg()
        self.stream.emit("frest", OpClass.SHUFFLE, est, (den,))
        self.stream.emit("fi", OpClass.SP_FLOAT, est, (den, est), self.lanes)
        cur = est
        for _ in range(2 if self.double else 1):
            t = self._record(OP_NMSUB, (den, cur))  # t = 1 - den*cur
            cur = self._record(OP_MADD, (cur, t, cur))  # cur + cur*t
        return cur

    def _value(self, tag: int, operands: Sequence[Vec], reg: str) -> Vec:
        """The value of intrinsic ``tag``: its elementwise expression on
        the operand lanes, in the context's dtype (masks become 1/0)."""
        data = INTRINSICS[tag].value(*(v.data for v in operands))
        return self._vec(data, reg)

    def spu_add(self, a: Vec, b: Vec) -> Vec:
        """Lane-wise addition."""
        return self._intrinsic(OP_ADD, a, b)

    def spu_sub(self, a: Vec, b: Vec) -> Vec:
        """Lane-wise subtraction."""
        return self._intrinsic(OP_SUB, a, b)

    def spu_mul(self, a: Vec, b: Vec) -> Vec:
        """Lane-wise multiplication (paper Fig. 7, lines 9-12)."""
        return self._intrinsic(OP_MUL, a, b)

    def spu_madd(self, a: Vec, b: Vec, c: Vec) -> Vec:
        """Fused multiply-add ``a*b + c`` (paper Fig. 7, lines 21-24)."""
        return self._intrinsic(OP_MADD, a, b, c)

    def spu_msub(self, a: Vec, b: Vec, c: Vec) -> Vec:
        """Fused multiply-subtract ``a*b - c``."""
        return self._intrinsic(OP_MSUB, a, b, c)

    def spu_nmsub(self, a: Vec, b: Vec, c: Vec) -> Vec:
        """Fused negative multiply-subtract ``c - a*b`` (used by Newton-Raphson)."""
        return self._intrinsic(OP_NMSUB, a, b, c)

    # -- comparison / select ---------------------------------------------

    def spu_cmpgt(self, a: Vec, b: Vec) -> Vec:
        """Lane-wise ``a > b``, producing an all-ones/all-zeros mask.

        The mask is represented functionally as 1.0 / 0.0 lanes so that it
        can feed :meth:`spu_sel`.
        """
        return self._intrinsic(OP_CMPGT, a, b)

    def spu_or(self, a: Vec, b: Vec) -> Vec:
        """Lane-wise logical OR of 0/1 masks (bitwise ``or`` on hardware,
        a 2-cycle even-pipe byte op; counts no flops)."""
        return self._intrinsic(OP_OR, a, b)

    def spu_and(self, a: Vec, b: Vec) -> Vec:
        """Lane-wise logical AND of 0/1 masks (bitwise ``and``)."""
        return self._intrinsic(OP_AND, a, b)

    def ai(self, label: str = "ptr") -> None:
        """Record a fixed-point address increment (pointer bookkeeping).

        Real SPU loops spend even-pipe fixed-point slots on address
        arithmetic; these are the instructions that dual-issue with odd
        pipe loads/stores and give the kernel its ~5 % dual-issue rate.
        """
        reg = self.stream.new_reg("p")
        self.stream.emit("ai", OpClass.FIXED, reg, (label,))

    def spu_sel(self, a: Vec, b: Vec, mask: Vec) -> Vec:
        """Bit select: lane from ``b`` where mask is set, else from ``a``.

        ``selb`` is a byte-class even-pipe instruction with 2-cycle latency;
        it is how branch-free fixups are written on the SPU.
        """
        return self._intrinsic(OP_SEL, a, b, mask)

    def spu_div(self, num: Vec, den: Vec) -> Vec:
        """Divide ``num / den``.

        The SPU has no FP divide.  We *record* the reciprocal sequence of
        :meth:`_reciprocal` and a final ``fm`` so the pipeline cost is
        faithful, but *return* the exact IEEE quotient so the functional
        result matches the NumPy reference solver exactly.
        """
        return self._intrinsic(OP_DIV, num, den)

    # -- control ----------------------------------------------------------

    def branch(self, label: str = "loop") -> None:
        """Record a (correctly hinted) loop branch."""
        self.stream.emit(f"br:{label}", OpClass.BRANCH, None)
