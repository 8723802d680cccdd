"""Small unit helpers used across the performance model.

All sizes are bytes, all rates are bytes/second or flops/second, all times
are seconds, and all on-chip delays are SPU cycles unless a name says
otherwise.  These helpers exist so that calibration constants in
:mod:`repro.perf.calibration` read like the paper ("25.6 GB/s", "256 KB")
instead of bare exponents.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

NS = 1e-9
US = 1e-6
MS = 1e-3


def kib(n: float) -> int:
    """``n`` binary kilobytes, in bytes."""
    return int(n * KIB)


def gb_per_s(n: float) -> float:
    """``n`` gigabytes/second, in bytes/second (decimal GB, as the paper uses)."""
    return n * GB


def ghz(n: float) -> float:
    """``n`` GHz, in Hz."""
    return n * 1e9


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``.

    ``alignment`` must be a positive power of two; DMA and local-store code
    relies on this for address arithmetic.
    """
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a positive power of two, got {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)


def is_aligned(value: int, alignment: int) -> bool:
    """True if ``value`` is a multiple of ``alignment`` (power of two)."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a positive power of two, got {alignment}")
    return (value & (alignment - 1)) == 0
