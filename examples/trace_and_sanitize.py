#!/usr/bin/env python
"""Watch the simulated Cell run, then catch a planted DMA hazard.

Part 1 traces the Figure-5 ladder's double-buffered rung on a small
deck: every MFC command, memory-bank access, sync round-trip and
kernel invocation lands on one event bus, which is exported as a
Perfetto-loadable Chrome trace and summarized per track (utilization,
DMA/compute overlap potential, MFC queue depth).  The sanitizer
replays the stream and confirms the double-buffering discipline holds:
no local-store bytes are touched while DMA into them is in flight.

Part 2 breaks the discipline on purpose -- a second GET issued into
the *same* buffer set before the first tag drained, the classic bug
double buffering exists to prevent -- and shows the sanitizer flag it.

Usage:  python examples/trace_and_sanitize.py [trace.json]
"""

from __future__ import annotations

import sys

from repro.cell.dma import DMAKind
from repro.core import CellSweep3D
from repro.core.optimizations import stage
from repro.core.streaming import GET_TAGS
from repro.sweep import small_deck
from repro.trace import (
    aggregate_stats,
    format_hazards,
    sanitize,
    timeline_summary,
    write_chrome_trace,
)


def main() -> None:
    deck = small_deck(n=8, sn=4, nm=2, iterations=1, mk=2)

    # -- part 1: trace the ladder's double-buffered rung ------------------
    rung = stage("double-buffer")
    print(f"tracing rung {rung.key!r}: {rung.description}\n")
    solver = CellSweep3D(deck, rung.config.with_(trace=True))
    solver.solve()
    bus = solver.trace

    print(timeline_summary(bus))

    stats = aggregate_stats(bus)
    print("\nper-SPE double-buffering figure of merit:")
    for track, spe in sorted(stats["per_spe"].items()):
        print(f"  {track}: overlap potential {spe['overlap_fraction']:.1%} "
              f"(dma {spe['dma_cycles']:.0f}cy vs compute "
              f"{spe['compute_cycles']:.0f}cy), "
              f"MFC queue depth max {spe['queue_depth_max']}")

    hazards = sanitize(bus)
    print(f"\n{format_hazards(hazards)}")
    assert not hazards, "the disciplined configuration must be clean"

    if len(sys.argv) > 1:
        path = write_chrome_trace(sys.argv[1], bus)
        print(f"\nwrote {len(bus)} events to {path} "
              f"(open in https://ui.perfetto.dev)")

    # -- part 2: plant the bug double buffering prevents ------------------
    print("\nnow breaking the discipline on purpose:")
    print("  GET into buffer set 0 (tag 2), then a second GET into the "
          "same set\n  (tag 3) WITHOUT draining tag 2 first ...")
    broken = CellSweep3D(deck, rung.config.with_(trace=True))
    bufs = broken.buffers[0]

    # the first line of two of the sweep's diagonals, one per program:
    # this rung predates DMA lists, so each line is 8 individual
    # commands and both programs fit the 16-entry MFC queue at once --
    # the hazard, not back-pressure, is what we are demonstrating.
    diagonals = broken.shape.octant(0)[0]
    first_line = slice(0, 1)

    bufs.issue(
        bufs._program(broken.host, diagonals[0], first_line, DMAKind.GET, 0,
                      GET_TAGS[0]),
        GET_TAGS[0],
    )
    # the bug: rotate into the same set while tag 2 is still in flight
    bufs.issue(
        bufs._program(broken.host, diagonals[1], first_line, DMAKind.GET, 0,
                      GET_TAGS[1]),
        GET_TAGS[1],
    )

    hazards = sanitize(broken.trace)
    print()
    print(format_hazards(hazards))
    assert hazards, "the planted hazard must be caught"
    assert all(h.kind == "reuse-before-drain" for h in hazards)
    print("\nthe sanitizer caught the planted race -- on real hardware "
          "this reads\ntorn local-store bytes silently; here it is a "
          "diagnosis, not wrong flux.")


if __name__ == "__main__":
    main()
