#!/usr/bin/env python
"""One-shot validation report: every correctness pillar in one run.

Runs the full chain of invariants the reproduction rests on and prints
a pass/fail report:

1. physics      — particle balance, positivity, symmetry, the
                  reflective-octant identity;
2. equivalence  — serial == tile == KBA == Cell-simulated, bitwise;
3. kernel       — SIMD kernel bit-equal to the reference; register
                  file and code store respected;
4. timing model — Sec. 5.1 efficiencies in band; closed-form model vs
                  event simulation within tolerance.

Usage:  python examples/validation_suite.py
"""

from __future__ import annotations

import numpy as np

CHECKS: list[tuple[str, bool, str]] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    CHECKS.append((name, bool(ok), detail))
    print(f"  [{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))


def physics() -> None:
    print("physics invariants:")
    from repro.sweep import SerialSweep3D, small_deck, verify
    from repro.sweep.geometry import Grid

    absorber = small_deck(n=8, sn=4, nm=1, iterations=1, fixup=False).with_(
        scattering_ratio=0.0
    )
    res = SerialSweep3D(absorber).solve()
    bal = verify.balance_residual(absorber, res)
    check("particle balance (pure absorber)", bal < 1e-12, f"residual {bal:.1e}")

    deck = small_deck(n=6, sn=4, nm=2, iterations=3)
    res = SerialSweep3D(deck).solve()
    check("flux positivity", verify.positivity_violation(res) == 0.0)
    sym = verify.symmetry_error(res, transpose=False)
    check("axis-flip symmetry", sym < 1e-12, f"err {sym:.1e}")

    full = small_deck(n=8, sn=4, nm=1, iterations=3, mk=2)
    half = full.with_(grid=Grid.cube(4), mk=2, reflect_low=(True,) * 3)
    rf = SerialSweep3D(full).solve()
    rh = SerialSweep3D(half).solve()
    err = float(np.max(np.abs(rf.flux[:, 4:, 4:, 4:] - rh.flux)))
    check("reflective-octant identity", err < 1e-12, f"max diff {err:.1e}")


def equivalence() -> None:
    print("engine equivalence (bitwise):")
    from repro.core import CellSweep3D, MachineConfig
    from repro.mpi import KBASweep3D
    from repro.sweep import SerialSweep3D, small_deck

    deck = small_deck(n=6, sn=4, nm=2, iterations=2, mk=3).with_(
        source_box=(0, 3, 0, 6, 0, 6),
        material_box=(3, 6, 0, 6, 0, 6),
        material_sigma_t=4.0,
    )
    ref = SerialSweep3D(deck).solve()
    tile = SerialSweep3D(deck, method="tile").solve()
    kba = KBASweep3D(deck, P=2, Q=2).solve()
    cell_solver = CellSweep3D(deck, MachineConfig())
    cell = cell_solver.solve()
    check("tile sweep == hyperplane", np.array_equal(tile.flux, ref.flux))
    check("KBA 2x2 == serial", np.array_equal(kba.flux, ref.flux))
    check("Cell-simulated == serial", np.array_equal(cell.flux, ref.flux))
    traffic = cell_solver.chip.traffic()
    check("DMA traffic recorded", traffic.total_bytes > 0,
          f"{traffic.total_bytes / 1e6:.1f} MB")


def kernel() -> None:
    print("SPE kernel:")
    from repro.cell.registers import kernel_code_bytes, kernel_pressure
    from repro.core.spe_kernel import kernel_cycle_report, simd_execute_block
    from repro.sweep.kernel import dd_line_block_solve

    L, it = 9, 7

    def line_args() -> dict:
        rng = np.random.default_rng(1)
        return dict(
            source=rng.random((L, it)) * 0.1, sigma_t=6.0,
            phi_i_in=rng.random(L) * 4, phi_j=rng.random((L, it)),
            phi_k=rng.random((L, it)), cx=rng.random(L) + 0.1,
            cy=rng.random(L) + 0.1, cz=rng.random(L) + 0.1, fixup=True,
        )

    psi_a, _, fx_a = dd_line_block_solve(**line_args())
    psi_b, _, fx_b = simd_execute_block(**line_args())
    check("SIMD kernel bit-equal (fixups firing)",
          np.array_equal(psi_a, psi_b) and fx_a == fx_b,
          f"{fx_a} fixups")
    press = kernel_pressure(logical_threads=4)
    check("4-thread kernel fits 128 registers", press.fits,
          f"{press.max_live} live")
    code = kernel_code_bytes()
    check("kernel code fits LS reservation", code <= 24 * 1024,
          f"{code} B of 24 KB")
    dp = kernel_cycle_report(nm=4, fixup=False)
    check("DP efficiency ~64% (paper: 64%)",
          abs(dp.efficiency(True) - 0.64) < 0.05,
          f"{dp.efficiency(True):.1%}")


def timing() -> None:
    print("timing model:")
    from repro.perf.eventsim import block_seconds, closed_form_block_seconds
    from repro.perf.model import bandwidth_bound, predict
    from repro.perf.processors import measured_cell_config
    from repro.sweep.input import benchmark_deck

    deck = benchmark_deck(fixup=False)
    cfg = measured_cell_config()
    ev = block_seconds(deck, cfg)
    cf = closed_form_block_seconds(deck, cfg)
    check("closed form vs event sim", 0.5 < cf / ev < 1.8,
          f"ratio {cf / ev:.2f}")
    r = predict(deck, cfg)
    check("run time above bandwidth bound",
          r.seconds > bandwidth_bound(deck, cfg),
          f"{r.seconds:.2f}s vs {bandwidth_bound(deck, cfg):.2f}s bound")


def main() -> None:
    physics()
    equivalence()
    kernel()
    timing()
    failed = [name for name, ok, _ in CHECKS if not ok]
    print(f"\n{len(CHECKS) - len(failed)}/{len(CHECKS)} checks passed")
    if failed:
        raise SystemExit(f"FAILED: {failed}")


if __name__ == "__main__":
    main()
