"""Op-table conformance referees and the optimizer-pipeline contracts of
:mod:`repro.cell.isa_compile`.

Every lowered op tag of the one numpy op table compiled programs replay
through runs against golden numpy results with ``assert_array_equal``,
in both float64 and float32 (the program dtype must never promote),
allocate and ``out=`` forms alike, including the exact two-operation
madd/nmsub grouping the interpreter computes (no FMA contraction).  The
optimizer passes are checked structurally (dead-op elimination, buffer
reuse) and behaviorally (a bounded allocation peak under ``tracemalloc``,
caller-owned outputs).
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.cell.isa_compile import (
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
    TraceContext,
    op_table,
)
from repro.core.spe_kernel import _trace_line_program

#: the op table under test, by the array substrate it runs on
NUMPY_TABLE = pytest.mark.parametrize("table_for", [op_table], ids=["numpy"])

#: Golden semantics per arithmetic tag -- the interpreter's expressions
#: verbatim (grouping included).
GOLDEN = {
    OP_ADD: lambda a, b, c, dt: a + b,
    OP_SUB: lambda a, b, c, dt: a - b,
    OP_MUL: lambda a, b, c, dt: a * b,
    OP_DIV: lambda a, b, c, dt: a / b,
    OP_MADD: lambda a, b, c, dt: a * b + c,
    OP_MSUB: lambda a, b, c, dt: a * b - c,
    OP_NMSUB: lambda a, b, c, dt: c - a * b,
    OP_CMPGT: lambda a, b, c, dt: (a > b).astype(dt),
    OP_OR: lambda a, b, c, dt: ((a != 0) | (b != 0)).astype(dt),
    OP_AND: lambda a, b, c, dt: ((a != 0) & (b != 0)).astype(dt),
    OP_SEL: lambda a, b, c, dt: np.where(c != 0, b, a),
}


def conformance_operands(dtype, n=64):
    """Operands that exercise every semantic corner: negatives, exact
    zeros (mask falsity), equal pairs (cmpgt ties) and mixed signs."""
    rng = np.random.default_rng(7)
    a = rng.uniform(-3.0, 3.0, n).astype(dtype)
    b = rng.uniform(-3.0, 3.0, n).astype(dtype)
    a[::7] = b[::7]  # exact compare ties
    b[b == 0] = dtype(0.5)  # keep OP_DIV finite
    c = rng.uniform(-1.0, 1.0, n).astype(dtype)
    c[::3] = 0.0  # mask falsity must come from exact zeros
    return a, b, c


def assert_matches(got, expect, dtype):
    assert got.dtype == expect.dtype == dtype
    np.testing.assert_array_equal(got, expect)


class TestOpConformance:
    """Every lowered op tag x both dtypes x both op forms."""

    @NUMPY_TABLE
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_op_table_matches_golden_numpy(self, table_for, dtype):
        table = table_for(dtype)
        a, b, c = conformance_operands(dtype)
        for tag, golden in GOLDEN.items():
            expect = golden(a, b, c, dtype)
            assert_matches(table[tag](a, b, c, None, None), expect, dtype)

    @NUMPY_TABLE
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_out_path_matches_allocate_path(self, table_for, dtype):
        """The preallocated-destination implementations must produce the
        very same bits as the allocate path, op for op."""
        table = table_for(dtype)
        a, b, c = conformance_operands(dtype)
        tmp = (np.empty(len(a), dtype=bool), np.empty(len(a), dtype=bool))
        for tag in GOLDEN:
            ref = table[tag](a, b, c, None, None)
            out = np.empty(len(a), dtype=dtype)
            got = table[tag](a, b, c, out, tmp)
            assert got is out
            np.testing.assert_array_equal(got, ref)

    @NUMPY_TABLE
    def test_madd_keeps_two_operation_grouping(self, table_for):
        """a*b rounds before +c: with a*b within half an ulp of 1 the
        two-operation result is exactly 0, an FMA contraction is not."""
        table = table_for(np.float64)
        a = np.full(4, 1.0 + 2.0**-29)
        b = np.full(4, 1.0 - 2.0**-29)
        c = np.full(4, -1.0)
        fused = a * b + c  # numpy: fl(a*b) = 1.0 exactly -> result 0
        assert np.all(fused == 0.0)
        for out in (None, np.empty(4)):
            got = table[OP_MADD](a, b, c, out, None)
            np.testing.assert_array_equal(got, fused)

    @NUMPY_TABLE
    def test_nmsub_keeps_c_minus_ab_grouping(self, table_for):
        table = table_for(np.float64)
        a = np.full(4, 1.0 + 2.0**-29)
        b = np.full(4, 1.0 - 2.0**-29)
        c = np.full(4, 1.0)
        expect = c - a * b
        assert np.all(expect == 0.0)
        for out in (None, np.empty(4)):
            got = table[OP_NMSUB](a, b, c, out, None)
            np.testing.assert_array_equal(got, expect)

    @NUMPY_TABLE
    def test_float32_never_promotes_through_constants(self, table_for):
        """A float32 program with splatted constants must stay float32
        end to end (plan constants are dtype-typed scalars, so
        broadcasting cannot upcast)."""
        ctx = TraceContext("f32-const", double=False)
        x = ctx.input_vec("x")
        k = ctx.spu_splats(0.1)  # not exactly representable: rounding shows
        ctx.output(ctx.spu_madd(x, k, k), "y")
        prog = ctx.finish()
        xs = np.linspace(0.5, 2.5, 9, dtype=np.float32)
        expect = xs * np.float32(0.1) + np.float32(0.1)
        (y,) = prog.run([xs])
        assert_matches(y, expect, np.float32)
        k32 = prog.plan.consts[0]
        assert k32.dtype == np.float32
        direct = table_for(np.float32)[OP_MADD](xs, k32, k32, None, None)
        assert_matches(direct, expect, np.float32)


class TestOptimizerPipeline:
    def test_dead_code_elimination(self):
        ctx = TraceContext("opt-unit")
        x = ctx.input_vec("x")
        k1 = ctx.spu_splats(2.0)
        k2 = ctx.spu_splats(3.0)
        k3 = ctx.spu_add(k1, k2)  # const-only: stays an op (no folding)
        y = ctx.spu_mul(x, k3)
        ctx.spu_add(x, y)  # result never bound: dead
        z = ctx.spu_add(y, k1)
        ctx.output(z, "z")
        prog = ctx.finish()
        plan = prog.plan
        assert plan.stats["ops_dead"] == 1
        assert plan.stats["ops_after"] == plan.stats["ops_before"] - 1
        assert [op[0] for op in plan.ops].count(OP_ADD) == 2
        assert [float(v) for v in plan.consts] == [2.0, 3.0]
        xs = np.linspace(-2, 2, 11)
        np.testing.assert_array_equal(prog.run([xs])[0], (xs * 5.0) + 2.0)

    def test_buffer_pool_reuses_dead_slots(self):
        """A long dependency chain needs O(1) scratch buffers, not one
        per op."""
        ctx = TraceContext("chain")
        v = ctx.input_vec("x")
        k = ctx.spu_splats(1.5)
        for _ in range(20):
            v = ctx.spu_add(v, k)
        ctx.output(v, "y")
        plan = ctx.finish().plan
        assert plan.num_buffers <= 2
        assert plan.stats["slots_reused"] >= 17

    def test_output_slots_are_caller_owned(self):
        """Replays must never hand back views into the scratch pool: a
        later run cannot clobber results the caller still holds."""
        ctx = _trace_line_program(4, True, True)
        prog = ctx.finish()
        rng = np.random.default_rng(3)
        inputs = [rng.uniform(0.1, 2.0, 33) for _ in prog.inputs]
        r1 = prog.run(inputs)
        keep = [x.copy() for x in r1]
        inputs2 = [rng.uniform(0.1, 2.0, 33) for _ in prog.inputs]
        prog.run(inputs2)
        for before, after in zip(keep, r1):
            np.testing.assert_array_equal(before, after)

    def test_line_program_plan_shrinks_and_pools(self):
        prog = _trace_line_program(6, True, True).finish()
        st = prog.plan.stats
        assert st["ops_after"] <= st["ops_before"]
        assert st["slots_reused"] > 100  # hundreds of temporaries pooled
        assert prog.plan.num_buffers < 32

    def test_optimized_replay_allocation_drop(self):
        """Pooled replays allocate only their outputs: the tracemalloc
        peak of warm replays stays under two replays' output bytes plus
        64 KiB, independent of program length -- one fresh temporary per
        op would hold thousands of batch-sized arrays."""
        prog = _trace_line_program(6, True, True).finish()
        rng = np.random.default_rng(5)
        inputs = [rng.uniform(0.1, 2.0, 256) for _ in prog.inputs]
        out_bytes = sum(y.nbytes for y in prog.run(inputs))  # warm the pool
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                prog.run(inputs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * out_bytes + 64 * 1024, (peak, out_bytes)
