"""Extension: multi-chip cluster scaling (the analytic model).

Beyond the paper's single-chip measurements, its Sec. 4 design claim --
"we maintain the wavefront parallelism already implemented in MPI" --
implies multi-chip operation.  This bench characterizes that regime with
the Hoisie-style KBA makespan model of
:func:`repro.core.cluster.cluster_time` over a grid ladder (the Fig. 11
shape: time vs processor count).  The functional P x Q runtime
(:mod:`repro.cluster`) is held to the model's exact message and byte
counts by ``tests/cluster/test_cluster_identity.py``.
"""

from __future__ import annotations

from repro.core.cluster import cluster_speedup, cluster_time
from repro.perf.processors import measured_cell_config
from repro.perf.report import format_series
from repro.sweep.input import benchmark_deck

from _bench_utils import write_artifact

#: the model ladder (50-cubed, paper-sized)
GRIDS = ((1, 1), (2, 1), (2, 2), (4, 2), (4, 4), (5, 5))


def sweep_grids():
    deck = benchmark_deck(fixup=False)
    cfg = measured_cell_config()
    return {
        (p, q): cluster_time(deck, cfg, p, q) for p, q in GRIDS
    }


def test_cluster_scaling(benchmark, out_dir):
    times = benchmark(sweep_grids)
    chips = [p * q for p, q in GRIDS]
    write_artifact(
        out_dir, "cluster_scaling.txt",
        format_series("Extension - Cell cluster scaling (50-cubed)",
                      chips, [times[g] for g in GRIDS], "chips", "time [s]"),
    )
    deck = benchmark_deck(fixup=False)
    cfg = measured_cell_config()
    # speedup grows with chip count but pipeline fill keeps it sublinear
    s4 = cluster_speedup(deck, cfg, 2, 2)
    s16 = cluster_speedup(deck, cfg, 4, 4)
    assert 1.0 < s4 < 4.0
    assert s4 < s16 < 16.0
    # parallel efficiency decays with scale (the KBA fill term)
    assert s16 / 16 < s4 / 4
