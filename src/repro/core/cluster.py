"""A cluster of simulated Cell BE chips: all five levels at once.

The paper's whole point about migration (Sec. 4, level 1): "At the
highest level, we maintain the wavefront parallelism already implemented
in MPI ...; this guarantees portability of existing parallel software",
while levels 2-5 live inside each process.  This module realizes that
claim end to end in the simulator: the KBA wavefront of
:mod:`repro.mpi.wavefront` runs its per-rank tiles on full
:class:`~repro.core.solver.CellSweep3D` instances -- one simulated Cell
chip per MPI rank, each with its own local stores, DMA programs and
scheduler -- and the assembled flux must still equal the serial solve
bit for bit.

This is also the configuration the paper's conclusions aim at
("the multi-core design space ... provides various opportunities to
achieve, in a single chip, performance typical of entire clusters"):
:func:`cluster_time` extends the timing model with the per-octant
wavefront pipeline fill of a P x Q chip grid, using the classic KBA
makespan (the Hoisie et al. wavefront model the paper cites).
"""

from __future__ import annotations

from ..cell import constants
from ..errors import ConfigurationError
from ..mpi.topology import Cart2D, split_extent
from ..mpi.wavefront import KBASweep3D
from ..sweep.flux import SolveResult
from ..sweep.input import InputDeck
from .levels import MachineConfig
from .solver import CellSweep3D


class CellClusterSweep3D:
    """Sweep3D on a P x Q grid of simulated Cell BE chips, every rank a
    thread of this process (the threaded KBA runtime).  This is the
    in-process referee the multi-process
    :class:`repro.cluster.driver.ClusterDriver` is SHA-compared
    against; to spread the ranks over host processes use the driver
    (``repro cluster --transport socket``)."""

    def __init__(
        self,
        deck: InputDeck,
        P: int,
        Q: int,
        config: MachineConfig | None = None,
    ) -> None:
        self.deck = deck
        self.config = config or MachineConfig(
            aligned_rows=True, structured_loops=True, double_buffer=True,
            simd=True, dma_lists=True, bank_offsets=True,
        )
        if not self.config.uses_spes:
            raise ConfigurationError("cluster ranks need at least one SPE")
        #: the per-rank solvers the KBA factory built, so their metrics
        #: registries survive the threaded solve
        self._rank_sweepers: list[CellSweep3D] = []

        def _factory(local: InputDeck) -> CellSweep3D:
            sweeper = CellSweep3D(local, self.config)
            self._rank_sweepers.append(sweeper)
            return sweeper

        self._kba = KBASweep3D(deck, P=P, Q=Q, sweeper_factory=_factory)
        # face sends count cluster.* into each rank's registry, so the
        # merged aggregate carries the wire counts
        # core/projections.cluster_projection predicts
        self._kba.count_wire = bool(self.config.metrics)

    @property
    def cart(self) -> Cart2D:
        return self._kba.cart

    def plan(self, rank: int):
        return self._kba.plan(rank)

    def solve(self) -> SolveResult:
        """Run the cluster job; every rank simulates a whole Cell BE."""
        return self._kba.solve()

    def aggregate_metrics(self):
        """Cluster-wide metrics registry, merged across ranks.

        Rank registries merge per SPE slot -- rank 0's SPE3 and rank
        1's SPE3 land in the same ``spe3.*`` counters -- so the
        attribution table reads as "the average chip" of the cluster.
        All aggregates are integer ticks/counts, so the merge is
        order-free.
        """
        from ..metrics.registry import NULL_REGISTRY, MetricsRegistry

        if not self.config.metrics:
            return NULL_REGISTRY
        merged = MetricsRegistry()
        for sweeper in self._rank_sweepers:
            merged.merge(sweeper.metrics)
        return merged

    def cycle_attribution(self):
        """Cluster-wide cycle attribution (see :meth:`aggregate_metrics`
        for the per-SPE-slot merge semantics)."""
        from ..metrics.attribution import attribution_from_registry

        return attribution_from_registry(
            self.aggregate_metrics(), self.config.num_spes,
            self.deck.nm, self.deck.fixup,
        )

    def close(self) -> None:
        """Nothing to release (kept so ``with`` works)."""

    def __enter__(self) -> "CellClusterSweep3D":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def cluster_time(
    deck: InputDeck, config: MachineConfig, P: int, Q: int
) -> float:
    """Predicted wall-clock of a P x Q Cell cluster on one deck.

    The per-chip tile time comes from :func:`repro.perf.model.predict`
    on the local deck; the cross-chip wavefront adds the KBA pipeline
    fill: per octant, the farthest corner starts after ``(P-1) + (Q-1)``
    pipeline stages of one K-block x angle-block each, and MPI messages
    cost latency + bytes/bandwidth per stage (10 us / 1 GB/s -- a 2006
    cluster interconnect).
    """
    from ..perf.model import predict

    if P < 1 or Q < 1:
        raise ConfigurationError(f"invalid chip grid {P}x{Q}")
    nx_chunks = split_extent(deck.grid.nx, P)
    ny_chunks = split_extent(deck.grid.ny, Q)
    # the largest tile dominates each pipeline stage
    local = deck.with_(
        grid=deck.grid.__class__(
            max(c for _, c in nx_chunks),
            max(c for _, c in ny_chunks),
            deck.grid.nz,
            deck.grid.dx, deck.grid.dy, deck.grid.dz,
        )
    )
    tile_seconds = predict(local, config).seconds
    quad = deck.quadrature()
    blocks_per_octant = (quad.per_octant // deck.mmi) * (deck.grid.nz // deck.mk)
    stage_seconds = tile_seconds / (8 * blocks_per_octant) / deck.iterations
    # message cost per stage: J-face row block (na x mk x it doubles)
    msg_bytes = deck.mmi * deck.mk * local.grid.nx * 8
    msg_seconds = 10e-6 + msg_bytes / 1e9
    fill_stages = (P - 1) + (Q - 1)
    fill = 8 * deck.iterations * fill_stages * (stage_seconds + msg_seconds)
    return tile_seconds + fill


def cluster_speedup(deck: InputDeck, config: MachineConfig, P: int, Q: int) -> float:
    """Speedup of the P x Q cluster over a single chip."""
    from ..perf.model import predict

    single = predict(deck, config).seconds
    return single / cluster_time(deck, config, P, Q)


def weak_scaling_efficiency(
    base_deck: InputDeck, config: MachineConfig, P: int, Q: int
) -> float:
    """Weak-scaling efficiency: grow the I/J domain with the chip grid.

    Each chip keeps a tile the size of ``base_deck``'s whole grid; ideal
    weak scaling keeps the time constant, so efficiency is
    ``t(1 chip) / t(P x Q chips, P*Q x the cells)``.  Wavefront codes
    weak-scale far better than they strong-scale -- the pipeline fill is
    amortized over tiles whose work stays constant -- which is why the
    production Sweep3D runs the paper cites are weak-scaled; this
    function quantifies that on the model.
    """
    from ..perf.model import predict

    g = base_deck.grid
    grown = base_deck.with_(
        grid=g.__class__(g.nx * P, g.ny * Q, g.nz, g.dx, g.dy, g.dz)
    )
    single = predict(base_deck, config).seconds
    return single / cluster_time(grown, config, P, Q)
