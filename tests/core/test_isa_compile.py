"""Referees for the ISA trace-compiler (:mod:`repro.cell.isa_compile`).

The compiled batched programs must be *bit-identical* to the
per-instruction interpreter -- ``assert_array_equal``, never a
tolerance -- and engaging them must leave every machine-visible output
untouched: flux, fixup counts, the exported trace byte stream, and the
simulated TimingReport.  Mirrors ``test_dma_program_cache.py``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell import isa_compile
from repro.cell.backend import available_backends, resolve_backend
from repro.cell.backend_torch import TORCH_RTOL
from repro.cell.isa_compile import STATS, cache_size, clear_cache, compiled_program
from repro.cell.pipeline import SIMULATE_STATS, simulate, simulate_cached
from repro.core.levels import MachineConfig, SchedulerKind, SyncProtocol
from repro.core.solver import CellSweep3D
from repro.core.spe_kernel import (
    _trace_line_program,
    compiled_line_executor,
    simd_execute_block,
    simd_execute_blocks,
)
from repro.errors import ConfigurationError, PipelineError

#: every backend available on this host x optimizer on/off -- the full
#: fuzz matrix the compiled-vs-interpreted referees run over.
BACKEND_MATRIX = [
    (name, optimize)
    for name in available_backends()
    for optimize in (True, False)
]
from repro.sweep.input import small_deck
from repro.sweep.pipelining import LineBlock
from repro.sweep.serial import SerialSweep3D


def make_block(rng, L=11, it=6, fixup=True, thick=False):
    """Random line block; ``thick`` makes negative-flux fixups frequent."""
    scale = 0.05 if thick else 1.0
    return LineBlock(
        octant=0,
        diagonal=0,
        lines=[(l, 0, 0) for l in range(L)],
        angles=[0] * L,
        source=rng.random((L, it)) * scale,
        sigma_t=8.0 if thick else 1.0,
        phi_i=rng.random(L) * (5.0 if thick else 1.0),
        phi_j=rng.random((L, it)),
        phi_k=rng.random((L, it)),
        cx=rng.random(L) + 0.1,
        cy=rng.random(L) + 0.1,
        cz=rng.random(L) + 0.1,
        fixup=fixup,
    )


def clone(block: LineBlock) -> LineBlock:
    return LineBlock(
        **{**block.__dict__, "phi_j": block.phi_j.copy(), "phi_k": block.phi_k.copy()}
    )


def clean_block(rng, L=5, it=4):
    """Lines at equilibrium under a flat source ``q`` (every inflow
    ``q / sigma_t``): each plain outflow is ``q`` up to rounding, so no
    line of this block can trip the lazy fixup gate."""
    q = rng.random(L) + 0.5
    flat = np.repeat(q[:, None], it, axis=1)
    return LineBlock(
        octant=0,
        diagonal=0,
        lines=[(l, 0, 0) for l in range(L)],
        angles=[0] * L,
        source=flat.copy(),
        sigma_t=1.0,
        phi_i=q.copy(),
        phi_j=flat.copy(),
        phi_k=flat.copy(),
        cx=rng.random(L) + 0.1,
        cy=rng.random(L) + 0.1,
        cz=rng.random(L) + 0.1,
        fixup=True,
    )


def make_dirty(block: LineBlock, line: int) -> None:
    """Zero source, strong I-inflow, zero J/K faces, unit coefficients:
    the first I-outflow is ``2 * 10/7 - 5 < 0`` (for ``sigma_t = 1``)."""
    block.source[line] = 0.0
    block.phi_i[line] = 5.0
    block.phi_j[line] = 0.0
    block.phi_k[line] = 0.0
    block.cx[line] = block.cy[line] = block.cz[line] = 1.0


@pytest.fixture
def replays(monkeypatch):
    """Record ``(program name, batch rows)`` of every compiled replay."""
    seen: list[tuple[str, int]] = []
    run = isa_compile.CompiledProgram.run

    def spy(self, inputs, *args, **kwargs):
        seen.append((self.name, len(inputs[0])))
        return run(self, inputs, *args, **kwargs)

    monkeypatch.setattr(isa_compile.CompiledProgram, "run", spy)
    return seen


def fixup_rows(seen) -> list[int]:
    return [n for name, n in seen if "+fixup" in name]


def plain_rows(seen) -> list[int]:
    return [n for name, n in seen if "+fixup" not in name]


def assert_batch_matches_interpreter(
    blocks, double=True, backend=None, optimize=True
):
    be = resolve_backend(backend) if backend is not None else None
    exact = be is None or be.exact
    refs = [clone(b) for b in blocks]
    batched = simd_execute_blocks(
        blocks, double=double, backend=be, optimize=optimize
    )
    total_fx = 0
    for b, r, (psi, pio, fx) in zip(blocks, refs, batched):
        psi_ref, pio_ref, fx_ref = simd_execute_block(r, double=double)
        if exact:
            np.testing.assert_array_equal(psi, psi_ref)
            np.testing.assert_array_equal(pio, pio_ref)
            np.testing.assert_array_equal(b.phi_j, r.phi_j)
            np.testing.assert_array_equal(b.phi_k, r.phi_k)
        else:
            rtol = TORCH_RTOL if double else 1e-5
            np.testing.assert_allclose(psi, psi_ref, rtol=rtol)
            np.testing.assert_allclose(pio, pio_ref, rtol=rtol)
            np.testing.assert_allclose(b.phi_j, r.phi_j, rtol=rtol)
            np.testing.assert_allclose(b.phi_k, r.phi_k, rtol=rtol)
        assert fx == fx_ref
        total_fx += fx
    return total_fx


class TestBatchedBitIdentity:
    """Compiled replay vs the per-instruction interpreter, bit for bit."""

    @pytest.mark.parametrize("fixup,thick", [(False, False), (True, False), (True, True)])
    def test_multi_block_batch(self, rng, fixup, thick):
        blocks = [
            make_block(rng, L=int(rng.integers(1, 13)), it=6,
                       fixup=fixup, thick=thick)
            for _ in range(5)
        ]
        assert_batch_matches_interpreter(blocks)

    def test_fixup_heavy_deck_actually_fixes(self, rng):
        """The referee is vacuous unless the branch-free compare+select
        path really triggers: thick blocks must report fixups > 0."""
        blocks = [make_block(rng, fixup=True, thick=True) for _ in range(4)]
        assert assert_batch_matches_interpreter(blocks) > 0

    def test_single_precision_path(self, rng):
        blocks = [make_block(rng, L=7, it=4, fixup=True, thick=True)
                  for _ in range(3)]
        assert_batch_matches_interpreter(blocks, double=False)

    @pytest.mark.parametrize("backend,optimize", BACKEND_MATRIX)
    @pytest.mark.parametrize("fixup,thick", [(True, True), (True, False)])
    def test_backend_optimizer_matrix(self, rng, backend, optimize, fixup,
                                      thick):
        blocks = [
            make_block(rng, L=int(rng.integers(1, 11)), it=5,
                       fixup=fixup, thick=thick)
            for _ in range(4)
        ]
        assert_batch_matches_interpreter(
            blocks, backend=backend, optimize=optimize
        )

    @given(st.integers(min_value=1, max_value=17), st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_any_block_shape(self, L, it):
        rng = np.random.default_rng(L * 100 + it)
        protos = [make_block(rng, L=L, it=it, fixup=True, thick=True),
                  make_block(rng, L=max(1, L - 1), it=it, fixup=True)]
        for backend, optimize in BACKEND_MATRIX:
            assert_batch_matches_interpreter(
                [clone(b) for b in protos], backend=backend,
                optimize=optimize,
            )

    def test_compiled_line_executor_adapter(self, rng):
        block = make_block(rng, fixup=True, thick=True)
        ref = clone(block)
        psi, pio, fx = compiled_line_executor(block)
        psi_ref, pio_ref, fx_ref = simd_execute_block(ref)
        np.testing.assert_array_equal(psi, psi_ref)
        np.testing.assert_array_equal(pio, pio_ref)
        assert fx == fx_ref

    def test_mixed_shapes_rejected(self, rng):
        a = make_block(rng, L=4, it=6)
        b = make_block(rng, L=4, it=5)
        with pytest.raises(ConfigurationError):
            simd_execute_blocks([a, b])


def mixed_block(rng, L, it, nan=False):
    """Mixed-sign sources and inflows (the ``make_block(thick=True)``
    shape, thick or thin per block): some lines go dirty, some do not.
    ``nan`` plants one NaN source cell."""
    thick = bool(rng.random() < 0.5)
    source = rng.random((L, it)) * (0.05 if thick else 1.0) - rng.choice(
        [0.0, 0.5], (L, 1), p=[0.7, 0.3]
    )
    if nan:
        source[rng.integers(L), rng.integers(it)] = np.nan
    return LineBlock(
        octant=0,
        diagonal=0,
        lines=[(l, 0, 0) for l in range(L)],
        angles=[0] * L,
        source=source,
        sigma_t=8.0 if thick else 1.0,
        phi_i=rng.random(L) * rng.choice([0.5, 5.0], L),
        phi_j=rng.random((L, it)) * rng.choice([1.0, 4.0], (L, it)),
        phi_k=rng.random((L, it)),
        cx=rng.random(L) + 0.1,
        cy=rng.random(L) + 0.1,
        cz=rng.random(L) + 0.1,
        fixup=True,
    )


def eager_replay(blocks, double=True, optimize=True):
    """The eager path: the full branch-free program replayed on every
    line.  Returns per block ``(psi, phi_i_out, phi_j, phi_k, fixups)``."""
    it = blocks[0].it
    dtype = np.float64 if double else np.float32
    program = compiled_program(
        ("line", it, True, double),
        lambda: _trace_line_program(it, True, double),
    )

    def cat(field):
        return np.concatenate(
            [np.asarray(field(b), dtype=dtype) for b in blocks]
        )

    scalars = {
        "cx": cat(lambda b: b.cx), "cy": cat(lambda b: b.cy),
        "cz": cat(lambda b: b.cz), "phii": cat(lambda b: b.phi_i),
        "sigma_t": cat(lambda b: np.full(b.num_lines, b.sigma_t)),
    }
    columns = {
        "src": cat(lambda b: b.source), "phij": cat(lambda b: b.phi_j),
        "phik": cat(lambda b: b.phi_k),
    }
    inputs = [
        np.ascontiguousarray(columns[key[0]][:, key[1]])
        if isinstance(key, tuple) else scalars[key]
        for key in program.inputs
    ]
    res = dict(zip((k for k, _ in program.outputs),
                   program.run(inputs, optimize=optimize)))

    def stack(name):
        out = np.empty((len(scalars["cx"]), it))
        for i in range(it):
            out[:, i] = res[name, i]
        return out

    psi, pj, pk, touched = (
        stack(n) for n in ("psi", "phij_out", "phik_out", "touched")
    )
    pio = np.empty(len(scalars["cx"]))
    pio[:] = res["phii", it - 1]
    out, lo = [], 0
    for b in blocks:
        hi = lo + b.num_lines
        out.append((psi[lo:hi], pio[lo:hi], pj[lo:hi], pk[lo:hi],
                    int(np.count_nonzero(touched[lo:hi]))))
        lo = hi
    return out


class TestLazyFixupGate:
    """The plain program on every line, the branch-free fixup program
    on the dirty rows only -- and the same bits as replaying (or
    interpreting) the full stream everywhere."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_lazy_equals_eager_equals_interpreted(self, data):
        L = data.draw(st.integers(1, 14), label="L")
        it = data.draw(st.integers(1, 5), label="it")
        double = data.draw(st.booleans(), label="double")
        optimize = data.draw(st.booleans(), label="optimize")
        nan = data.draw(st.booleans(), label="nan source cell")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cuts = sorted(data.draw(
            st.sets(st.integers(1, L - 1), max_size=L - 1) if L > 1
            else st.just(set()), label="cuts",
        ))
        bounds = [0, *cuts, L]
        blocks = [
            mixed_block(rng, hi - lo, it, nan=nan and k == 0)
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ]
        eager_in = [clone(b) for b in blocks]
        interp_in = [clone(b) for b in blocks]

        lazy = simd_execute_blocks(blocks, double=double, optimize=optimize)
        eager = eager_replay(eager_in, double=double, optimize=optimize)
        for b, e, r, (psi, pio, fx) in zip(blocks, eager, interp_in, lazy):
            e_psi, e_pio, e_pj, e_pk, e_fx = e
            np.testing.assert_array_equal(psi, e_psi)
            np.testing.assert_array_equal(pio, e_pio)
            np.testing.assert_array_equal(b.phi_j, e_pj)
            np.testing.assert_array_equal(b.phi_k, e_pk)
            assert fx == e_fx
            r_psi, r_pio, r_fx = simd_execute_block(r, double=double)
            np.testing.assert_array_equal(psi, r_psi)
            np.testing.assert_array_equal(pio, r_pio)
            np.testing.assert_array_equal(b.phi_j, r.phi_j)
            np.testing.assert_array_equal(b.phi_k, r.phi_k)
            assert fx == r_fx

    @pytest.mark.parametrize("line, fixups", [
        ([np.nan, 0.0, 0.0, 0.0], 0), ([0.0, 0.0, np.nan, 0.0], 1),
    ])
    def test_nan_source_lines_agree_with_reference(self, line, fixups):
        """A NaN makes every later outflow NaN, and ``NaN < 0`` is false
        for the gate as for ``spu_cmpgt(0, o)``.  The first line is clean
        for the gate (plain program only), the second goes dirty at step
        0 (full program on a NaN line); the reference, interpreted and
        compiled kernels agree bit for bit on both."""
        from repro.sweep.kernel import dd_line_block_solve

        def block():
            return LineBlock(
                octant=0, diagonal=0, lines=[(0, 0, 0)], angles=[0],
                source=np.array([line]), sigma_t=1.0,
                phi_i=np.array([5.0]), phi_j=np.zeros((1, 4)),
                phi_k=np.zeros((1, 4)), cx=np.ones(1), cy=np.ones(1),
                cz=np.ones(1), fixup=True,
            )

        ref_block = block()
        ref = dd_line_block_solve(
            ref_block.source, 1.0, ref_block.phi_i, ref_block.phi_j,
            ref_block.phi_k, ref_block.cx, ref_block.cy, ref_block.cz,
            fixup=True,
        )
        interp_block, compiled_block = block(), block()
        interp = simd_execute_block(interp_block)
        (compiled,) = simd_execute_blocks([compiled_block])
        assert ref[2] == interp[2] == compiled[2] == fixups
        for got, b in ((interp, interp_block), (compiled, compiled_block)):
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])
            np.testing.assert_array_equal(b.phi_j, ref_block.phi_j)
            np.testing.assert_array_equal(b.phi_k, ref_block.phi_k)

    def test_clean_batch_never_compiles_or_replays_the_fixup_program(
        self, rng, replays
    ):
        clear_cache()
        before = STATS.snapshot()
        blocks = [clean_block(rng, L=5, it=4) for _ in range(3)]
        results = simd_execute_blocks(blocks)
        assert [fx for _, _, fx in results] == [0, 0, 0]
        assert replays == [("line-program/it4", 15)]
        assert isa_compile.stats_delta(before)["streams_compiled"] == 1
        assert cache_size() == 1
        compiled_program(("line", 4, False, True),
                         lambda: pytest.fail("must be cached"))

    def test_one_dirty_line_replays_the_fixup_program_on_one_row(
        self, rng, replays
    ):
        blocks = [clean_block(rng, L=4, it=4), clean_block(rng, L=3, it=4)]
        make_dirty(blocks[1], 1)
        refs = [clone(b) for b in blocks]
        results = simd_execute_blocks(blocks)
        assert plain_rows(replays) == [7]
        assert fixup_rows(replays) == [1]
        assert results[0][2] == 0 and results[1][2] > 0
        for b, r, (psi, pio, fx) in zip(blocks, refs, results):
            r_psi, r_pio, r_fx = simd_execute_block(r)
            np.testing.assert_array_equal(psi, r_psi)
            np.testing.assert_array_equal(pio, r_pio)
            np.testing.assert_array_equal(b.phi_j, r.phi_j)
            np.testing.assert_array_equal(b.phi_k, r.phi_k)
            assert fx == r_fx


def cell_config(**over) -> MachineConfig:
    base = dict(
        aligned_rows=True, double_buffer=True, simd=True,
        dma_lists=True, bank_offsets=True, sync=SyncProtocol.LS_POKE,
        num_spes=3,
    )
    base.update(over)
    return MachineConfig(**base)


def six_cubed_deck(**over):
    return small_deck(n=6, sn=4, nm=2, iterations=2, mk=2, **over)


def fixup_deck(fixup: bool = True):
    """4^3, one iteration, a corner source in an absorber: 195 fixups in
    1 536 visits, so the lazy gate sends some lines each way."""
    return dataclasses.replace(
        small_deck(n=4, sn=4, nm=2, iterations=1, mk=2, fixup=fixup),
        sigma_t=4.0, scattering_ratio=0.1,
        source_box=(0, 2, 0, 2, 0, 2), source=50.0,
    )


def assert_gate_split_the_lines(result, seen) -> None:
    """The solve crossed fixups, and both programs were replayed, the
    fixup one on fewer rows than the plain one."""
    assert result.tally.fixups > 0
    assert plain_rows(seen) and fixup_rows(seen)
    assert sum(fixup_rows(seen)) < sum(plain_rows(seen))


def check_isa_matches_reference(deck):
    ref = CellSweep3D(deck, cell_config()).solve()
    isa = CellSweep3D(deck, cell_config(isa_kernel=True)).solve()
    np.testing.assert_array_equal(ref.flux, isa.flux)
    assert ref.tally.fixups == isa.tally.fixups
    assert ref.tally.leakage == isa.tally.leakage
    return isa


def check_compile_on_off(deck):
    on = CellSweep3D(deck, cell_config(isa_kernel=True)).solve()
    off = CellSweep3D(
        deck, cell_config(isa_kernel=True, compile_isa=False)
    ).solve()
    np.testing.assert_array_equal(on.flux, off.flux)
    assert on.tally.fixups == off.tally.fixups
    assert on.iterations == off.iterations
    return on


def check_optimizer_on_off(deck):
    on = CellSweep3D(deck, cell_config(isa_kernel=True)).solve()
    off = CellSweep3D(
        deck, cell_config(isa_kernel=True, optimize_isa=False)
    ).solve()
    np.testing.assert_array_equal(on.flux, off.flux)
    assert on.tally.fixups == off.tally.fixups
    return on


def check_trace_streams(deck) -> None:
    from repro.trace.export import to_chrome_trace
    from repro.trace.sanitizer import sanitize

    def traced_stream(compile_isa: bool) -> tuple[str, list]:
        solver = CellSweep3D(
            deck,
            cell_config(isa_kernel=True, compile_isa=compile_isa,
                        trace=True),
        )
        solver.solve()
        blob = json.dumps(to_chrome_trace(solver.trace), sort_keys=True)
        return blob, sanitize(solver.trace)

    blob_off, hazards_off = traced_stream(False)
    blob_on, hazards_on = traced_stream(True)
    assert blob_on == blob_off
    assert hazards_on == hazards_off == []


class TestSolverIntegration:
    """The ISA path through the full staged machine: every octant, both
    schedulers, compile on and off."""

    @pytest.mark.parametrize("fixup", [False, True])
    def test_isa_solve_matches_reference(self, fixup, replays):
        isa = check_isa_matches_reference(fixup_deck(fixup))
        if fixup:
            assert_gate_split_the_lines(isa, replays)
        else:
            assert isa.tally.fixups == 0 and not fixup_rows(replays)

    def test_compile_on_off_identical(self, replays):
        on = check_compile_on_off(fixup_deck())
        assert_gate_split_the_lines(on, replays)

    def test_optimizer_on_off_identical(self, replays):
        on = check_optimizer_on_off(fixup_deck())
        assert_gate_split_the_lines(on, replays)

    def test_backend_counters_partition_invariant(self):
        """isa.backend.* counts blocks/lines actually executed, which
        are the same totals for any partition -- the solver-registry
        bit-identity contract."""
        deck = small_deck(n=6, sn=4, nm=2, iterations=2, mk=2)
        solver = CellSweep3D(
            deck, cell_config(isa_kernel=True, metrics=True)
        )
        solver.solve()
        counters = solver.metrics.to_dict()["counters"]
        assert counters.get("isa.backend.numpy.blocks", 0) > 0
        assert counters.get("isa.backend.numpy.lines", 0) > 0

    def test_distributed_scheduler(self):
        deck = small_deck(n=6, sn=4, nm=2, iterations=2, mk=2)
        ref = SerialSweep3D(deck).solve()
        isa = CellSweep3D(
            deck,
            cell_config(isa_kernel=True, scheduler=SchedulerKind.DISTRIBUTED),
        ).solve()
        np.testing.assert_array_equal(ref.flux, isa.flux)

    def test_isa_requires_simd(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(isa_kernel=True, simd=False)

    def test_timing_report_unaffected(self):
        deck = small_deck(n=6, sn=4, nm=2, iterations=2, mk=2)
        t_off = CellSweep3D(deck, cell_config(isa_kernel=True,
                                              compile_isa=False)).timing()
        t_on = CellSweep3D(deck, cell_config(isa_kernel=True)).timing()
        assert t_on.seconds == t_off.seconds


class TestTraceTransparency:
    """Compilation is a host-clock optimization: the exported event
    stream must be byte-identical with ``compile_isa`` on vs off."""

    def test_trace_streams_byte_identical(self, replays):
        check_trace_streams(fixup_deck())
        assert plain_rows(replays) and fixup_rows(replays)


@pytest.mark.slow
class TestSixCubedSolves:
    """The solve identities above on the 6^3 x 2-iteration deck they
    were first written for (no fixup fires there, so the gate replays
    the plain program only)."""

    @pytest.mark.parametrize("fixup", [False, True])
    def test_isa_solve_matches_reference(self, fixup):
        check_isa_matches_reference(six_cubed_deck(fixup=fixup))

    def test_compile_on_off_identical(self):
        check_compile_on_off(six_cubed_deck())

    def test_optimizer_on_off_identical(self):
        check_optimizer_on_off(six_cubed_deck())

    def test_trace_streams_byte_identical(self):
        check_trace_streams(six_cubed_deck())


class TestArityErrors:
    """run() must name the missing/extra bindings, not just count them."""

    def _program(self, rng):
        # the plain program is the one every fixup batch replays; its
        # bindings are the fixup program's too
        clear_cache()
        simd_execute_blocks([make_block(rng, L=2, it=3, fixup=True)])
        return compiled_program(
            ("line", 3, False, True), lambda: pytest.fail("must be cached")
        )

    def test_missing_bindings_are_named(self, rng):
        program = self._program(rng)
        with pytest.raises(PipelineError) as excinfo:
            program.run([np.zeros(2), np.zeros(2)])
        msg = str(excinfo.value)
        assert "missing bindings" in msg
        assert "'cz'" in msg and "'sigma_t'" in msg
        assert "('phik', 2)" in msg

    def test_extra_inputs_are_reported(self, rng):
        program = self._program(rng)
        good = [np.zeros(2)] * len(program.inputs)
        with pytest.raises(PipelineError) as excinfo:
            program.run(good + [np.zeros(2)] * 2)
        msg = str(excinfo.value)
        assert "2 extra value(s)" in msg
        assert "('phik', 2)" in msg  # the last binding, for orientation


class TestProgramCache:
    def test_program_reused_across_batches(self, rng):
        clear_cache()
        before = STATS.snapshot()
        blocks = [clean_block(rng, L=5, it=4) for _ in range(3)]
        simd_execute_blocks(blocks[:2])
        simd_execute_blocks(blocks[2:])
        delta = isa_compile.stats_delta(before)
        assert delta["streams_compiled"] == 1
        assert delta["cache_hits"] == 1
        assert delta["batched_calls"] == 2
        assert delta["batched_blocks"] == 3
        assert cache_size() >= 1

    def test_cache_key_covers_shape_and_mode(self, rng):
        """A fixup batch replays the plain ``(it, False)`` program and,
        for its dirty rows, the ``(it, True)`` one: with one dirty line
        per batch the three calls use four distinct keys, and only the
        plain program of ``it=4`` is shared."""
        clear_cache()
        before = STATS.snapshot()
        fixed4 = clean_block(rng, L=3, it=4)
        fixed5 = clean_block(rng, L=3, it=5)
        make_dirty(fixed4, 0)
        make_dirty(fixed5, 2)
        simd_execute_blocks([make_block(rng, L=3, it=4, fixup=False)])
        simd_execute_blocks([fixed4])
        simd_execute_blocks([fixed5])
        delta = isa_compile.stats_delta(before)
        assert delta["streams_compiled"] == 4
        assert delta["cache_hits"] == 1
        for key in [("line", it, fx, True) for it in (4, 5)
                    for fx in (False, True)]:
            compiled_program(key, lambda: pytest.fail(f"{key} not cached"))

    def test_optimizer_stats_recorded_on_fresh_compiles(self, rng):
        clear_cache()
        before = STATS.snapshot()
        simd_execute_blocks([clean_block(rng, L=4, it=5)])
        delta = isa_compile.stats_delta(before)
        assert delta["ops_before"] > 0
        assert 0 < delta["ops_after"] <= delta["ops_before"]
        assert delta["slots_reused"] > 0
        # cache hits never re-add the per-program totals
        simd_execute_blocks([clean_block(rng, L=4, it=5)])
        again = isa_compile.stats_delta(before)
        assert again["ops_before"] == delta["ops_before"]

    def test_cache_info_reports_occupancy_and_traffic(self, rng):
        clear_cache()
        simd_execute_blocks([make_block(rng, L=3, it=4)])
        info = isa_compile.cache_info()
        assert info["entries"] >= 1
        assert info["capacity"] == isa_compile.PROGRAM_CACHE_MAX_ENTRIES
        assert info["compiled"] >= 1
        assert info["hits"] >= 0

    def test_compiled_program_is_cached_with_its_stream(self, rng):
        """A second lookup of the same key must return the memoized
        program (builder never invoked), and the program carries the
        recorded instruction stream for inspection."""
        clear_cache()
        block = make_block(rng, L=2, it=3, fixup=True)
        simd_execute_blocks([clone(block)])
        key = ("line", 3, False, True)
        program = compiled_program(key, lambda: pytest.fail("must be cached"))
        assert len(program.stream) > 0
        assert program.stream.flops > 0
        # the fixup program is compiled on first need; build it here
        fix_key = ("line", 3, True, True)
        fixed = compiled_program(fix_key, lambda: _trace_line_program(3, True, True))
        again = compiled_program(fix_key, lambda: pytest.fail("must be cached"))
        assert again is fixed
        assert len(fixed.stream) > len(program.stream)
        assert fixed.stream.flops > program.stream.flops


def tiny_stream():
    from repro.cell.isa import SPUContext

    ctx = SPUContext("memo-referee", double=True)
    a = ctx.lqd(np.array([1.0, 2.0]), label="a")
    b = ctx.lqd(np.array([3.0, 4.0]), label="b")
    ctx.stqd(ctx.spu_madd(a, b, b), np.zeros(2))
    return ctx.stream


class TestSimulateCache:
    def test_memoized_report_equals_fresh(self):
        stream = tiny_stream()
        before = SIMULATE_STATS.snapshot()
        fresh = simulate(stream)
        first = simulate_cached(stream)
        again = simulate_cached(stream)
        assert again is first
        assert (first.cycles, first.flops, first.dual_issues) == (
            fresh.cycles, fresh.flops, fresh.dual_issues,
        )
        after = SIMULATE_STATS.snapshot()
        assert after["cache_hits"] - before["cache_hits"] >= 1
