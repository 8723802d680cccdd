"""repro: reproduction of "Multicore Surprises: Lessons Learned from
Optimizing Sweep3D on the Cell Broadband Engine" (IPDPS 2007).

Subpackages
-----------
``repro.cell``
    Cell Broadband Engine simulator: the parts a Sweep3D solve drives
    (SPU ISA + pipeline, local stores, MFC/DMA, memory banks,
    mailboxes, local-store pokes and atomics).
``repro.sweep``
    Discrete-ordinates Sweep3D numerics: quadrature, diamond-difference
    kernel with flux fixups, MK/MMI pipelining, serial reference solver.
``repro.mpi``
    The KBA wavefront decomposition of Figure 1 (rank grid, tile plan,
    face-message boundary); its ranks run on ``repro.cluster``.
``repro.core``
    The paper's contribution: the five-level parallelization of Sweep3D
    on the simulated Cell, the Figure 5 optimization ladder, and the
    Figure 10 projections.
``repro.perf``
    Performance models: work counting, the per-diagonal discrete-event
    execution model, processor comparisons, grind-time analysis.
``repro.trace``
    Machine-wide event tracing: the TraceBus every instrumented unit
    emits into, Perfetto/Chrome-trace export, timeline summaries, and
    the DMA-hazard sanitizer (see ``docs/TRACING.md``).

See ``DESIGN.md`` for the full inventory and ``EXPERIMENTS.md`` for
paper-versus-measured results.
"""

__version__ = "1.0.0"

from . import cell, core, errors, mpi, perf, sweep, trace, units

__all__ = [
    "cell", "core", "errors", "mpi", "perf", "sweep", "trace", "units",
    "__version__",
]
