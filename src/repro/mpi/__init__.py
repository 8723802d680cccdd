"""The KBA wavefront decomposition of Sweep3D (Sec. 4, level 1).

Figure 1's two-dimensional process grid (:class:`Cart2D`,
remainder-leading :func:`split_extent`), the
per-rank tile plan and face-message boundary, and :class:`KBASweep3D`.
The ranks themselves run on :mod:`repro.cluster`: threads on its
in-process fabric, or OS processes over sockets.
"""

from .topology import Cart2D, split_extent
from .wavefront import KBASweep3D, RankBoundary, TilePlan

__all__ = [
    "Cart2D",
    "KBASweep3D",
    "RankBoundary",
    "TilePlan",
    "split_extent",
]
