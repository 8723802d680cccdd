"""The Figure-10 projections: planned optimizations and what-ifs.

Sec. 6 lists four cumulative directions beyond the measured 1.33 s:

1. larger DMA granularity (beyond the 512-byte list elements) -> 1.2 s;
2. distributed (SPE-side) task scheduling replacing the PPE loop ->
   0.9 s;
3. a fully pipelined double-precision unit -- "Contrary to our
   expectations, [it] would provide only a marginal improvement" ->
   0.85 s, because the application is bandwidth-bound by then;
4. single-precision floating point -> ~0.45 s, "again determined by the
   main memory bandwidth".

Each projection is the measured configuration with one more knob turned;
the series is cumulative, like the paper's figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sweep.input import InputDeck
from .levels import MachineConfig, Precision, SchedulerKind


@dataclass(frozen=True)
class Projection:
    """One Figure-10 bar."""

    key: str
    description: str
    paper_seconds: float
    config: MachineConfig


def projection_series(base: MachineConfig) -> tuple[Projection, ...]:
    """The cumulative Figure-10 series starting from the measured config."""
    c1 = base.with_(large_dma_granularity=True)
    c2 = c1.with_(scheduler=SchedulerKind.DISTRIBUTED)
    c3 = c2.with_(pipelined_dp=True)
    c4 = c3.with_(precision=Precision.SINGLE)
    return (
        Projection("measured", "measured implementation (Figure 5 final)",
                   1.33, base),
        Projection("dma-granularity",
                   "larger DMA granularity than 512-byte list elements",
                   1.2, c1),
        Projection("distributed-scheduling",
                   "SPE-side distributed task scheduling (atomic work queue)",
                   0.9, c2),
        Projection("pipelined-dp",
                   "architectural what-if: fully pipelined DP unit",
                   0.85, c3),
        Projection("single-precision",
                   "single-precision kernel (bandwidth halves)",
                   0.45, c4),
    )


def project(deck: InputDeck, base: MachineConfig) -> list[tuple[Projection, float]]:
    """Model predictions for the whole cumulative series."""
    from ..perf.model import predict

    return [(p, predict(deck, p.config).seconds) for p in projection_series(base)]


# ---------------------------------------------------------------------------
# Cluster-scale projections (Figs. 10-11 extrapolated to rank grids)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterProjection:
    """The analytic model's view of one P x Q rank grid on one deck.

    ``model_seconds`` is the Hoisie-style KBA makespan of
    :func:`repro.core.cluster.cluster_time`.  The message combinatorics
    are *exact* -- counted from the same decomposition the runtime
    executes -- so a measured cluster solve must match them with zero
    deviation; ``tests/cluster/test_cluster_identity.py`` holds that
    equality (wall clocks oversubscribed onto one host are information,
    not a gate).
    """

    P: int
    Q: int
    model_seconds: float
    msgs_per_solve: int
    bytes_per_solve: int


def cluster_projection(
    deck: InputDeck, base: MachineConfig, P: int, Q: int
) -> ClusterProjection:
    """Model seconds plus the exact face-message counts of one solve.

    Per octant, exactly one I-direction and one J-direction is
    downstream, so a rank sends its I-face on the 4 octants pointing at
    each existing I-neighbour (and likewise J); every send moves one
    ``(mmi, mk, edge)`` float64 block per (angle-block, K-block) step.
    """
    from ..mpi.wavefront import KBASweep3D
    from .cluster import cluster_time

    kba = KBASweep3D(deck, P=P, Q=Q)
    quad = deck.quadrature()
    ablocks = quad.per_octant // deck.mmi
    kblocks = deck.grid.nz // deck.mk
    steps = ablocks * kblocks * deck.iterations
    msgs = 0
    nbytes = 0
    for rank in range(P * Q):
        plan = kba.plan(rank)
        cart = kba.cart
        i_dirs = 4 * ((cart.east(rank) is not None)
                      + (cart.west(rank) is not None))
        j_dirs = 4 * ((cart.south(rank) is not None)
                      + (cart.north(rank) is not None))
        msgs += (i_dirs + j_dirs) * steps
        nbytes += steps * 8 * deck.mmi * deck.mk * (
            i_dirs * plan.ny + j_dirs * plan.nx
        )
    return ClusterProjection(
        P=P, Q=Q,
        model_seconds=cluster_time(deck, base, P, Q),
        msgs_per_solve=msgs,
        bytes_per_solve=nbytes,
    )


def pipelined_dp_is_marginal(deck: InputDeck, base: MachineConfig) -> bool:
    """The paper's headline Figure-10 observation, as a checkable claim:
    once scheduling is distributed, pipelining the DP unit buys little
    (< 15 % here; the paper's figure shows ~6 %)."""
    series = dict(
        (p.key, t) for p, t in project(deck, base)
    )
    before = series["distributed-scheduling"]
    after = series["pipelined-dp"]
    return (before - after) / before < 0.15
