"""Pins of what the SPU intrinsic definitions produce.

The Sec. 5.1 cycle counts are pipeline-model outputs over the emitted
intrinsic stream, and the compiled ISA replays the lowering recorded
alongside that stream.  These referees pin, independently of how the
intrinsics are defined:

* the recorded line-program streams (sha256 of the stream signature),
* the steady-state kernel cycle report of EXPERIMENTS.md,
* instruction-for-instruction agreement of the interpreting and the
  tracing context per intrinsic, in both precisions,
* the optimizer plan statistics of the two ``it=16`` line programs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cell.isa import SPUContext
from repro.cell.isa_compile import TraceContext
from repro.core.spe_kernel import _trace_line_program, kernel_cycle_report

#: sha256 of ``repr(stream.signature())`` per ``(it, fixup, double)``.
STREAM_SHA256 = {
    (4, False, True): "83e3a6c7d6ecbbfdb16f7de0b6d3748aa91f4aed535980d2c1d66c02b01050a0",
    (4, True, True): "f0a37bc5339657bc47b4d67ed02285327c4400a5d4c7383dc0591b9d9378517c",
    (16, False, True): "f69915d09d821ee804c59b8354c04b9f55f06a08756ae22830b93da48f88aefc",
    (16, True, True): "ab211768f286fce377a3ee1b684e8c3d9707d8d6c4db51f846bfd3bac42206ed",
    (4, False, False): "b76b7caf85d7471c39f991bf5b7535558e40fcc3c59ca2c30385cf8baa3e60f6",
}

#: ``kernel_cycle_report(nm=4)`` (cycles, flops) per (fixup, double).
CYCLE_REPORT = {
    (False, True): (907, 336),
    (True, True): (3435, 1080),
    (False, False): (298, 608),
}

#: intrinsic method name -> (operand count, last recorded opcode)
INTRINSICS = {
    "spu_add": (2, "fa"),
    "spu_sub": (2, "fs"),
    "spu_mul": (2, "fm"),
    "spu_div": (2, "fm"),
    "spu_madd": (3, "fma"),
    "spu_msub": (3, "fms"),
    "spu_nmsub": (3, "fnms"),
    "spu_cmpgt": (2, "fcgt"),
    "spu_or": (2, "or"),
    "spu_and": (2, "and"),
    "spu_sel": (3, "selb"),
}


@pytest.mark.parametrize("key", sorted(STREAM_SHA256), ids=str)
def test_line_program_stream_pinned(key):
    ctx = _trace_line_program(*key)
    digest = hashlib.sha256(repr(ctx.stream.signature()).encode()).hexdigest()
    assert digest == STREAM_SHA256[key]


@pytest.mark.parametrize("key", sorted(CYCLE_REPORT), ids=str)
def test_kernel_cycle_report_pinned(key):
    fixup, double = key
    report = kernel_cycle_report(nm=4, fixup=fixup, double=double)
    assert (report.cycles, report.flops) == CYCLE_REPORT[key]


@pytest.mark.parametrize("double", [True, False], ids=["dp", "sp"])
@pytest.mark.parametrize("name", sorted(INTRINSICS))
def test_interpreter_and_tracer_emit_equal_instructions(name, double):
    """Same operand registers in, same recorded instructions out."""
    arity, opcode = INTRINSICS[name]
    emitted = []
    for ctx in (SPUContext("pin", double), TraceContext("pin", double)):
        operands = [ctx.spu_splats(1.5 + k) for k in range(arity)]
        before = len(ctx.stream)
        result = getattr(ctx, name)(*operands)
        emitted.append((ctx.stream.instructions[before:], result.reg))
    assert emitted[0] == emitted[1]
    assert emitted[0][0][-1].opcode == opcode


@pytest.mark.parametrize(
    "fixup, stats",
    [(False, (245, 245, 109)), (True, (2117, 2085, 1827))],
    ids=["plain", "fixup"],
)
def test_it16_plan_stats_pinned(fixup, stats):
    plan = _trace_line_program(16, fixup, True).finish().plan
    got = tuple(plan.stats[k] for k in ("ops_before", "ops_after", "slots_reused"))
    assert got == stats


def test_interpreter_values_are_lane_exact():
    """Each intrinsic's interpreted value is its elementwise expression."""
    ctx = SPUContext("values", double=True)
    a = ctx.lqd(np.array([1.5, -2.0]))
    b = ctx.lqd(np.array([0.25, -2.0]))
    c = ctx.lqd(np.array([0.0, 3.0]))
    np.testing.assert_array_equal(ctx.spu_msub(a, b, c).data, a.data * b.data - c.data)
    np.testing.assert_array_equal(ctx.spu_cmpgt(a, b).data, [1.0, 0.0])
    np.testing.assert_array_equal(ctx.spu_sel(a, b, c).data, [1.5, -2.0])
    np.testing.assert_array_equal(ctx.spu_and(a, c).data, [0.0, 1.0])
    np.testing.assert_array_equal(ctx.spu_or(c, c).data, [0.0, 1.0])
