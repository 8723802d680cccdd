#!/usr/bin/env python
"""Quickstart: solve a transport problem on the simulated Cell BE.

Runs a small Sweep3D problem three ways -- the serial reference solver,
the KBA wavefront on a 2x2 grid of rank threads, and the Cell-simulated
implementation with all five parallelism levels -- verifies they agree
bit for bit, and prints the calibrated timing prediction for the paper's
50-cubed benchmark.

Usage:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import CellSweep3D
from repro.mpi import KBASweep3D
from repro.perf import bandwidth_bound, compute_bound, measured_cell_config, predict
from repro.sweep import SerialSweep3D, benchmark_deck, small_deck, verify


def main() -> None:
    # -- a test-sized problem: 8^3 cells, S4 angles, 2 moments ----------
    deck = small_deck(n=8, sn=4, nm=2, iterations=4, mk=2)
    print(f"deck: {deck.grid.shape} cells, S{deck.sn}, nm={deck.nm}, "
          f"{deck.iterations} iterations")

    serial = SerialSweep3D(deck).solve()
    print(f"serial:   total scalar flux = {serial.total_scalar_flux():.6f}, "
          f"leakage = {serial.tally.leakage:.6f}")

    kba = KBASweep3D(deck, P=2, Q=2).solve()
    print(f"KBA 2x2:  bitwise equal to serial: "
          f"{np.array_equal(kba.flux, serial.flux)}")

    cell = CellSweep3D(deck).solve()
    print(f"Cell BE:  bitwise equal to serial: "
          f"{np.array_equal(cell.flux, serial.flux)}")

    balance = verify.balance_residual(deck, serial)
    print(f"particle balance residual: {balance:.2e} "
          f"(source iteration truncation)")

    # -- the paper's benchmark configuration ------------------------------
    bench = benchmark_deck(fixup=False)
    config = measured_cell_config()
    report = predict(bench, config)
    print("\n50-cubed benchmark prediction (measured configuration):")
    print(f"  run time          {report.seconds:6.2f} s   (paper: 1.33 s)")
    print(f"  DMA traffic       {report.dma_bytes / 1e9:6.1f} GB  (paper: 17.6 GB)")
    print(f"  bandwidth bound   {bandwidth_bound(bench, config):6.2f} s   (paper: 0.70 s)")
    print(f"  compute bound     {compute_bound(bench, config):6.2f} s   (paper: 0.68 s)")
    print(f"  achieved          {report.achieved_gflops:6.2f} Gflop/s")


if __name__ == "__main__":
    main()
