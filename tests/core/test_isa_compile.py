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
from repro.cell.isa_compile import STATS, cache_size, clear_cache, compiled_program
from repro.cell.pipeline import SIMULATE_STATS, simulate, simulate_cached
from repro.core.levels import MachineConfig, SchedulerKind, SyncProtocol
from repro.core.solver import CellSweep3D
from repro.core.spe_kernel import (
    _trace_line_program,
    simd_execute_block,
    simd_execute_blocks,
)
from repro.errors import ConfigurationError, PipelineError, SweepError
from repro.sweep.input import small_deck
from repro.sweep.kernel import dd_line_block_solve
from repro.sweep.serial import SerialSweep3D

#: the one line-kernel signature: reference, interpreted and compiled ISA
KERNELS = (dd_line_block_solve, simd_execute_block, simd_execute_blocks)


def make_args(rng, L=11, it=6, fixup=True, thick=False) -> dict:
    """Random line-kernel arguments; ``thick`` makes negative-flux
    fixups frequent."""
    scale = 0.05 if thick else 1.0
    return dict(
        source=rng.random((L, it)) * scale,
        sigma_t=8.0 if thick else 1.0,
        phi_i_in=rng.random(L) * (5.0 if thick else 1.0),
        phi_j=rng.random((L, it)),
        phi_k=rng.random((L, it)),
        cx=rng.random(L) + 0.1,
        cy=rng.random(L) + 0.1,
        cz=rng.random(L) + 0.1,
        fixup=fixup,
    )


def clone(args: dict) -> dict:
    """Own face buffers: every kernel writes its outflows into them."""
    return {**args, "phi_j": args["phi_j"].copy(), "phi_k": args["phi_k"].copy()}


def part(args: dict, lo: int, hi: int) -> dict:
    """Lines ``lo:hi`` of a call, with face buffers of their own."""
    return {
        k: v[lo:hi].copy() if isinstance(v, np.ndarray) else v
        for k, v in args.items()
    }


def stack(parts: list[dict]) -> dict:
    """One call over every line of ``parts`` (which share the scalar
    arguments: ``sigma_t`` and ``fixup``)."""
    return {
        k: np.concatenate([p[k] for p in parts]) if isinstance(v, np.ndarray)
        else v
        for k, v in parts[0].items()
    }


def clean_args(rng, L=5, it=4) -> dict:
    """Lines at equilibrium under a flat source ``q`` (every inflow
    ``q / sigma_t``): each plain outflow is ``q`` up to rounding, so no
    line can trip the lazy fixup gate."""
    q = rng.random(L) + 0.5
    flat = np.repeat(q[:, None], it, axis=1)
    return dict(
        source=flat.copy(),
        sigma_t=1.0,
        phi_i_in=q.copy(),
        phi_j=flat.copy(),
        phi_k=flat.copy(),
        cx=rng.random(L) + 0.1,
        cy=rng.random(L) + 0.1,
        cz=rng.random(L) + 0.1,
        fixup=True,
    )


def make_dirty(args: dict, line: int) -> None:
    """Zero source, strong I-inflow, zero J/K faces, unit coefficients:
    the first I-outflow is ``2 * 10/7 - 5 < 0`` (for ``sigma_t = 1``)."""
    args["source"][line] = 0.0
    args["phi_i_in"][line] = 5.0
    args["phi_j"][line] = 0.0
    args["phi_k"][line] = 0.0
    args["cx"][line] = args["cy"][line] = args["cz"][line] = 1.0


@pytest.fixture
def replays(monkeypatch):
    """Record ``(program name, batch rows)`` of every compiled replay."""
    seen: list[tuple[str, int]] = []
    run = isa_compile.CompiledProgram.run

    def spy(self, inputs):
        seen.append((self.name, len(inputs[0])))
        return run(self, inputs)

    monkeypatch.setattr(isa_compile.CompiledProgram, "run", spy)
    return seen


def fixup_rows(seen) -> list[int]:
    return [n for name, n in seen if "+fixup" in name]


def plain_rows(seen) -> list[int]:
    return [n for name, n in seen if "+fixup" not in name]


def assert_batch_matches_interpreter(parts, double=True):
    """One compiled call over the stacked parts == the interpreter on
    each part, bit for bit; returns the total fixup count."""
    whole = stack(parts)
    bounds = np.cumsum([0] + [len(p["source"]) for p in parts])
    line_fx = np.zeros(bounds[-1], dtype=np.intp)
    psi, pio, fx = simd_execute_blocks(
        **whole, line_fixups=line_fx, double=double
    )
    assert fx == line_fx.sum()
    for p, lo, hi in zip(parts, bounds, bounds[1:]):
        ref = clone(p)
        psi_ref, pio_ref, fx_ref = simd_execute_block(**ref, double=double)
        np.testing.assert_array_equal(psi[lo:hi], psi_ref)
        np.testing.assert_array_equal(pio[lo:hi], pio_ref)
        np.testing.assert_array_equal(whole["phi_j"][lo:hi], ref["phi_j"])
        np.testing.assert_array_equal(whole["phi_k"][lo:hi], ref["phi_k"])
        assert line_fx[lo:hi].sum() == fx_ref
    return fx


class TestBatchedBitIdentity:
    """Compiled replay vs the per-instruction interpreter, bit for bit."""

    @pytest.mark.parametrize("fixup,thick", [(False, False), (True, False), (True, True)])
    def test_multi_block_batch(self, rng, fixup, thick):
        parts = [
            make_args(rng, L=int(rng.integers(1, 13)), it=6,
                      fixup=fixup, thick=thick)
            for _ in range(5)
        ]
        assert_batch_matches_interpreter(parts)

    def test_fixup_heavy_deck_actually_fixes(self, rng):
        """The referee is vacuous unless the branch-free compare+select
        path really triggers: thick lines must report fixups > 0."""
        parts = [make_args(rng, fixup=True, thick=True) for _ in range(4)]
        assert assert_batch_matches_interpreter(parts) > 0

    def test_single_precision_path(self, rng):
        parts = [make_args(rng, L=7, it=4, fixup=True, thick=True)
                 for _ in range(3)]
        assert_batch_matches_interpreter(parts, double=False)

    @given(st.integers(min_value=1, max_value=17), st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_any_block_shape(self, L, it):
        rng = np.random.default_rng(L * 100 + it)
        parts = [make_args(rng, L=L, it=it, fixup=True, thick=True),
                 {**make_args(rng, L=max(1, L - 1), it=it, fixup=True),
                  "sigma_t": 8.0}]
        assert_batch_matches_interpreter(parts)

    def test_mixed_shapes_rejected(self, rng):
        """Every kernel rejects face buffers not shaped like ``source``
        with the reference's check."""
        args = make_args(rng, L=4, it=6)
        for kernel in KERNELS:
            for face in ("phi_j", "phi_k"):
                bad = {**clone(args), face: np.zeros((4, 5))}
                with pytest.raises(SweepError, match="face buffers"):
                    kernel(**bad)


def mixed_args(rng, L, it, nan=False) -> dict:
    """Mixed-sign sources and inflows, thick and thin lines under one
    cross section: some lines go dirty, some do not.  ``nan`` plants one
    NaN source cell."""
    scale = rng.choice([0.05, 1.0], (L, 1))
    source = rng.random((L, it)) * scale - rng.choice(
        [0.0, 0.5], (L, 1), p=[0.7, 0.3]
    )
    if nan:
        source[rng.integers(L), rng.integers(it)] = np.nan
    return dict(
        source=source,
        sigma_t=float(rng.choice([1.0, 8.0])),
        phi_i_in=rng.random(L) * rng.choice([0.5, 5.0], L),
        phi_j=rng.random((L, it)) * rng.choice([1.0, 4.0], (L, it)),
        phi_k=rng.random((L, it)),
        cx=rng.random(L) + 0.1,
        cy=rng.random(L) + 0.1,
        cz=rng.random(L) + 0.1,
        fixup=True,
    )


def draw_call(data):
    """A hypothesis-drawn call: ``(args, chunk starts)`` over 1-14 lines
    of 1-5 cells, mixed clean and dirty lines, maybe a NaN source cell,
    cut into 1-5 chunks."""
    L = data.draw(st.integers(1, 14), label="L")
    it = data.draw(st.integers(1, 5), label="it")
    nan = data.draw(st.booleans(), label="nan source cell")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cuts = sorted(data.draw(
        st.sets(st.integers(1, L - 1), max_size=4) if L > 1
        else st.just(set()), label="cuts",
    ))
    return mixed_args(rng, L, it, nan=nan), [0, *cuts]


class TestOneSignature:
    """Reference, interpreted and compiled kernels take the same
    arguments and, called with them, agree bit for bit -- per-line fixup
    counts included, so a caller splits them per chunk with one
    ``np.add.reduceat``."""

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_three_kernels_agree_and_reduceat_splits_per_chunk(self, data):
        args, starts = draw_call(data)
        L = len(args["source"])
        ends = [*starts[1:], L]
        results = []
        for kernel in KERNELS:
            call = clone(args)
            line_fx = np.zeros(L, dtype=np.intp)
            psi, pio, fx = kernel(**call, line_fixups=line_fx)
            assert fx == line_fx.sum()
            results.append((psi, pio, call["phi_j"], call["phi_k"], line_fx))
            per_chunk = [kernel(**part(args, lo, hi))[2]
                         for lo, hi in zip(starts, ends)]
            assert np.add.reduceat(line_fx, starts).tolist() == per_chunk
        for got in results[1:]:
            for want, value in zip(results[0], got):
                np.testing.assert_array_equal(value, want)


def eager_replay(args, double=True):
    """The eager path: the full branch-free program replayed on every
    line.  Returns ``(psi, phi_i_out, phi_j, phi_k, per-line fixups)``."""
    it = args["source"].shape[1]
    n = len(args["source"])
    dtype = np.float64 if double else np.float32
    program = compiled_program(
        ("line", it, True, double),
        lambda: _trace_line_program(it, True, double),
    )
    scalars = {
        "cx": args["cx"], "cy": args["cy"], "cz": args["cz"],
        "phii": args["phi_i_in"], "sigma_t": np.full(n, args["sigma_t"]),
    }
    columns = {
        "src": args["source"], "phij": args["phi_j"], "phik": args["phi_k"],
    }
    inputs = [
        np.ascontiguousarray(columns[key[0]][:, key[1]], dtype=dtype)
        if isinstance(key, tuple) else np.asarray(scalars[key], dtype=dtype)
        for key in program.inputs
    ]
    res = dict(zip((k for k, _ in program.outputs),
                   program.run(inputs)))

    def steps(name):
        out = np.empty((n, it))
        for i in range(it):
            out[:, i] = res[name, i]
        return out

    psi, pj, pk, touched = (
        steps(name) for name in ("psi", "phij_out", "phik_out", "touched")
    )
    pio = np.empty(n)
    pio[:] = res["phii", it - 1]
    return psi, pio, pj, pk, np.count_nonzero(touched, axis=1)


class TestLazyFixupGate:
    """The plain program on every line, the branch-free fixup program
    on the dirty rows only -- and the same bits as replaying (or
    interpreting) the full stream everywhere."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_lazy_equals_eager_equals_interpreted(self, data):
        args, starts = draw_call(data)
        L = len(args["source"])
        double = data.draw(st.booleans(), label="double")
        parts = [part(args, lo, hi)
                 for lo, hi in zip(starts, [*starts[1:], L])]
        eager_in = clone(args)

        line_fx = np.zeros(L, dtype=np.intp)
        psi, pio, fx = simd_execute_blocks(
            **args, line_fixups=line_fx, double=double
        )
        e_psi, e_pio, e_pj, e_pk, e_fx = eager_replay(eager_in, double=double)
        np.testing.assert_array_equal(psi, e_psi)
        np.testing.assert_array_equal(pio, e_pio)
        np.testing.assert_array_equal(args["phi_j"], e_pj)
        np.testing.assert_array_equal(args["phi_k"], e_pk)
        np.testing.assert_array_equal(line_fx, e_fx)
        for p, lo in zip(parts, starts):
            hi = lo + len(p["source"])
            r_psi, r_pio, r_fx = simd_execute_block(**p, double=double)
            np.testing.assert_array_equal(psi[lo:hi], r_psi)
            np.testing.assert_array_equal(pio[lo:hi], r_pio)
            np.testing.assert_array_equal(args["phi_j"][lo:hi], p["phi_j"])
            np.testing.assert_array_equal(args["phi_k"][lo:hi], p["phi_k"])
            assert line_fx[lo:hi].sum() == r_fx

    @pytest.mark.parametrize("line, fixups", [
        ([np.nan, 0.0, 0.0, 0.0], 0), ([0.0, 0.0, np.nan, 0.0], 1),
    ])
    def test_nan_source_lines_agree_with_reference(self, line, fixups):
        """A NaN makes every later outflow NaN, and ``NaN < 0`` is false
        for the gate as for ``spu_cmpgt(0, o)``.  The first line is clean
        for the gate (plain program only), the second goes dirty at step
        0 (full program on a NaN line); the reference, interpreted and
        compiled kernels agree bit for bit on both."""

        def args():
            return dict(
                source=np.array([line]), sigma_t=1.0,
                phi_i_in=np.array([5.0]), phi_j=np.zeros((1, 4)),
                phi_k=np.zeros((1, 4)), cx=np.ones(1), cy=np.ones(1),
                cz=np.ones(1), fixup=True,
            )

        ref_args = args()
        ref = dd_line_block_solve(**ref_args)
        interp_args, compiled_args = args(), args()
        interp = simd_execute_block(**interp_args)
        compiled = simd_execute_blocks(**compiled_args)
        assert ref[2] == interp[2] == compiled[2] == fixups
        for got, a in ((interp, interp_args), (compiled, compiled_args)):
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])
            np.testing.assert_array_equal(a["phi_j"], ref_args["phi_j"])
            np.testing.assert_array_equal(a["phi_k"], ref_args["phi_k"])

    def test_clean_batch_never_compiles_or_replays_the_fixup_program(
        self, rng, replays
    ):
        clear_cache()
        before = STATS.snapshot()
        line_fx = np.zeros(15, dtype=np.intp)
        _, _, fx = simd_execute_blocks(
            **clean_args(rng, L=15, it=4), line_fixups=line_fx
        )
        assert fx == 0 and not line_fx.any()
        assert replays == [("line-program/it4", 15)]
        assert isa_compile.stats_delta(before)["streams_compiled"] == 1
        assert cache_size() == 1
        compiled_program(("line", 4, False, True),
                         lambda: pytest.fail("must be cached"))

    def test_one_dirty_line_replays_the_fixup_program_on_one_row(
        self, rng, replays
    ):
        args = clean_args(rng, L=7, it=4)
        make_dirty(args, 5)
        ref = clone(args)
        line_fx = np.zeros(7, dtype=np.intp)
        psi, pio, fx = simd_execute_blocks(**args, line_fixups=line_fx)
        assert plain_rows(replays) == [7]
        assert fixup_rows(replays) == [1]
        assert np.flatnonzero(line_fx).tolist() == [5] and fx > 0
        r_psi, r_pio, r_fx = simd_execute_block(**ref)
        np.testing.assert_array_equal(psi, r_psi)
        np.testing.assert_array_equal(pio, r_pio)
        np.testing.assert_array_equal(args["phi_j"], ref["phi_j"])
        np.testing.assert_array_equal(args["phi_k"], ref["phi_k"])
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

    def test_trace_streams_byte_identical(self):
        check_trace_streams(six_cubed_deck())


class TestArityErrors:
    """run() must name the missing/extra bindings, not just count them."""

    def _program(self, rng):
        # the plain program is the one every fixup batch replays; its
        # bindings are the fixup program's too
        clear_cache()
        simd_execute_blocks(**make_args(rng, L=2, it=3, fixup=True))
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
        parts = [clean_args(rng, L=5, it=4) for _ in range(3)]
        simd_execute_blocks(**stack(parts[:2]))
        simd_execute_blocks(**parts[2])
        delta = isa_compile.stats_delta(before)
        assert delta["streams_compiled"] == 1
        assert delta["cache_hits"] == 1
        assert delta["batched_calls"] == 2
        assert delta["batched_lines"] == 15
        assert cache_size() >= 1

    def test_cache_key_covers_shape_and_mode(self, rng):
        """A fixup batch replays the plain ``(it, False)`` program and,
        for its dirty rows, the ``(it, True)`` one: with one dirty line
        per batch the three calls use four distinct keys, and only the
        plain program of ``it=4`` is shared."""
        clear_cache()
        before = STATS.snapshot()
        fixed4 = clean_args(rng, L=3, it=4)
        fixed5 = clean_args(rng, L=3, it=5)
        make_dirty(fixed4, 0)
        make_dirty(fixed5, 2)
        simd_execute_blocks(**make_args(rng, L=3, it=4, fixup=False))
        simd_execute_blocks(**fixed4)
        simd_execute_blocks(**fixed5)
        delta = isa_compile.stats_delta(before)
        assert delta["streams_compiled"] == 4
        assert delta["cache_hits"] == 1
        for key in [("line", it, fx, True) for it in (4, 5)
                    for fx in (False, True)]:
            compiled_program(key, lambda: pytest.fail(f"{key} not cached"))

    def test_optimizer_stats_recorded_on_fresh_compiles(self, rng):
        clear_cache()
        before = STATS.snapshot()
        simd_execute_blocks(**clean_args(rng, L=4, it=5))
        delta = isa_compile.stats_delta(before)
        assert delta["ops_before"] > 0
        assert 0 < delta["ops_after"] <= delta["ops_before"]
        assert delta["slots_reused"] > 0
        # cache hits never re-add the per-program totals
        simd_execute_blocks(**clean_args(rng, L=4, it=5))
        again = isa_compile.stats_delta(before)
        assert again["ops_before"] == delta["ops_before"]

    def test_cache_info_reports_occupancy_and_traffic(self, rng):
        clear_cache()
        simd_execute_blocks(**make_args(rng, L=3, it=4))
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
        simd_execute_blocks(**make_args(rng, L=2, it=3, fixup=True))
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
