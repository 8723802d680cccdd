"""The *host's* bound on the line kernel: ``repro roofline --host``.

:mod:`repro.perf.roofline` places the kernel on the simulated Cell's
roofline.  This module does the same for the machine the simulation
runs on, where the kernel is numpy: every I-column of
:func:`~repro.sweep.kernel.dd_line_block_solve` is a fixed number of
whole-array operations on ``(lines,)`` operands, and at a jkm
diagonal's operand sizes (4 to a few hundred doubles) an array
operation costs its dispatch, not its bytes -- the mega-stream
observation that many small arrays make latency, not bandwidth, the
limit.  So the bound is ``ops/column x it x dispatch(lines)`` per call,
measured here on this host, and both kernels are reported against it
-- the compiled ISA twice, on clean lines (plain program only) and with
every line fixed up (plain + branch-free fixup program).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..sweep.input import InputDeck
from ..sweep.kernel import dd_line_block_solve, flops_per_cell

#: lines per kernel call: one chunk; the mean and the longest jkm
#: diagonal of a 16^3 S6 deck; a diagonal of the 50^3 benchmark deck
LINE_COUNTS: tuple[int, ...] = (4, 23, 96, 600)

#: width of the row-label column of :func:`format_host_bounds`
LABEL_WIDTH: int = 34

def ops_per_column(fixup: bool) -> int:
    """numpy calls that touch operand data per I-column of the fused
    kernel on a uniform deck: 8 ufuncs (``coef * faces_in``, two adds of
    the face products, the numerator's multiply and add, the divide, the
    two of ``2 psi - faces_in``) and 6 row copies (three inflow faces
    in, psi and the J/K outflows out); the fixup gate adds one
    reduction."""
    return 14 + fixup


def best_seconds(fn, calls: int, repeats: int = 5) -> float:
    """Seconds per call of ``fn``: the best of ``repeats`` timed loops
    (a lower bound is wanted, so the minimum is the right estimator)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def dispatch_seconds(lines: int) -> float:
    """One elementwise numpy call on ``(lines,)`` float64 operands."""
    a, b, out = np.ones(lines), np.ones(lines), np.empty(lines)
    return best_seconds(lambda: np.add(a, b, out=out), calls=2000)


def triad_bytes_per_second(lines: int, arrays: int = 64) -> float:
    """``a[k] = b[k] + s * c[k]`` over many distinct ``(lines,)`` arrays
    (mega-stream's shape): bytes moved per second at this operand size."""
    a, b, c, tmp = (
        [np.ones(lines) for _ in range(arrays)] for _ in range(4)
    )

    def triad() -> None:
        for k in range(arrays):
            np.multiply(c[k], 3.0, out=tmp[k])
            np.add(b[k], tmp[k], out=a[k])

    return 3 * 8 * lines * arrays / best_seconds(triad, calls=20)


def _operands(lines: int, it: int, dirty: bool = False):
    """``(source, phi_i, phi_j, phi_k, cx, cy, cz)`` of one call.

    Clean: every line at equilibrium under a flat source ``q`` (every
    inflow ``q``, ``sigma_t = 1``), so each outflow is ``q`` up to
    rounding and no fixup can fire.  Dirty: zero source, ``phi_i = 5``,
    zero J/K faces and unit coefficients, so the first I-outflow
    (``2 * 10/7 - 5``) is negative on every line.  Callers copy the
    faces per call: the kernels write outflows into them in place.
    """
    if dirty:
        ones, zeros = np.ones(lines), np.zeros((lines, it))
        return zeros, np.full(lines, 5.0), zeros, zeros, ones, ones, ones
    rng = np.random.default_rng(lines)
    q = rng.random(lines) + 0.5
    flat = np.repeat(q[:, None], it, axis=1)
    c = rng.random((3, lines)) + 0.5
    return flat, q, flat, flat, c[0], c[1], c[2]


def reference_seconds(lines: int, it: int, fixup: bool) -> float:
    src, phi_i, phi_j, phi_k, cx, cy, cz = _operands(lines, it)
    return best_seconds(
        lambda: dd_line_block_solve(
            src, 1.0, phi_i, phi_j.copy(), phi_k.copy(), cx, cy, cz,
            fixup=fixup,
        ),
        calls=5,
    )


def compiled_isa_seconds(
    lines: int, it: int, fixup: bool, dirty: bool = False
) -> float:
    """One :func:`~repro.core.spe_kernel.simd_execute_blocks` call.  The
    lazy fixup gate replays the branch-free fixup program only on dirty
    lines, so the clean and the every-line-dirty operands price the two
    ends of its range."""
    from ..core.spe_kernel import simd_execute_blocks

    src, phi_i, phi_j, phi_k, cx, cy, cz = _operands(lines, it, dirty)

    def call():
        return simd_execute_blocks(
            src, 1.0, phi_i, phi_j.copy(), phi_k.copy(), cx, cy, cz,
            fixup=fixup,
        )

    call()  # compile the stream(s) outside the clock
    return best_seconds(call, calls=3)


@dataclass(frozen=True)
class HostBound:
    """One operand size: the measured floor and both kernels against it."""

    lines: int
    dispatch_s: float
    triad_bytes_per_s: float
    floor_s: float
    reference_s: float
    isa_s: float         # compiled ISA, clean lines
    isa_fixup_s: float | None  # compiled ISA, every line fixed up
                               # (None with fixups off)
    flops: int           # useful flops of one call (flops_per_cell)
    operand_bytes: int   # operands read + results written, as computed
                         # by benchmarks/suite for sweep.kernel


def host_bounds(
    deck: InputDeck, line_counts: tuple[int, ...] = LINE_COUNTS
) -> list[HostBound]:
    it, fixup = deck.grid.nx, deck.fixup
    rows = []
    for lines in line_counts:
        dispatch = dispatch_seconds(lines)
        rows.append(HostBound(
            lines=lines,
            dispatch_s=dispatch,
            triad_bytes_per_s=triad_bytes_per_second(lines),
            floor_s=ops_per_column(fixup) * it * dispatch,
            reference_s=reference_seconds(lines, it, fixup),
            isa_s=compiled_isa_seconds(lines, it, fixup),
            isa_fixup_s=(
                compiled_isa_seconds(lines, it, fixup, dirty=True)
                if fixup else None
            ),
            flops=lines * it * flops_per_cell(deck.nm, fixup),
            # source, J/K faces in and out, psi: six (lines, it) arrays;
            # I-inflow, three coefficients, I-outflow: five (lines,)
            operand_bytes=8 * lines * (6 * it + 5),
        ))
    return rows


def format_host_bounds(deck: InputDeck, rows: list[HostBound]) -> str:
    """The table ``repro roofline --host`` prints: per operand size, the
    dispatch floor of one kernel call and each kernel as a share of it
    (100 % = the kernel costs exactly its numpy dispatches)."""
    it, w = deck.grid.nx, LABEL_WIDTH
    out = [
        f"host bound of one line-kernel call, it={it}, "
        f"fixup {'on' if deck.fixup else 'off'}: "
        f"{ops_per_column(deck.fixup)} array ops/column x {it} columns "
        f"x dispatch(lines)",
        f"{'lines per call':<{w}}" + "".join(f"{r.lines:>14}" for r in rows),
        f"{'numpy dispatch/op':<{w}}"
        + "".join(f"{r.dispatch_s * 1e6:>11.2f} us" for r in rows),
        f"{'many-array triad':<{w}}"
        + "".join(f"{r.triad_bytes_per_s / 1e9:>9.2f} GB/s" for r in rows),
        f"{'dispatch floor':<{w}}"
        + "".join(f"{r.floor_s * 1e6:>11.0f} us" for r in rows),
    ]
    kernels = [("compiled ISA, clean lines", [r.isa_s for r in rows])]
    if deck.fixup:
        kernels.append(("compiled ISA, every line fixed up",
                        [r.isa_fixup_s for r in rows]))
    kernels.append(("reference kernel", [r.reference_s for r in rows]))
    for label, seconds in kernels:
        out.append(
            f"{label:<{w}}" + "".join(
                f"{s * 1e6:>7.0f} us {r.floor_s / s:>3.0%}"
                for r, s in zip(rows, seconds)
            )
        )
    out.append(
        f"{'  useful flops':<{w}}" + "".join(
            f"{r.flops / r.reference_s / 1e6:>5.0f} Mflop/s" for r in rows
        )
    )
    out.append(
        f"{'  operand bytes':<{w}}" + "".join(
            f"{r.operand_bytes / r.reference_s / 1e6:>9.0f} MB/s" for r in rows
        )
    )
    return "\n".join(out)
