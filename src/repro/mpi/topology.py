"""Two-dimensional Cartesian process topology.

"Grid cells are evenly distributed across a two-dimensional array of
processes.  In this way, each process owns a three-dimensional tile of
cells" (Sec. 3, Figure 1).  The I axis is split across ``P`` columns and
the J axis across ``Q`` rows; the K axis is never decomposed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CommunicatorError


@dataclass(frozen=True)
class Cart2D:
    """A P x Q Cartesian layout over ``P * Q`` ranks.

    Rank layout is row-major: ``rank = q * P + p`` with ``p`` the I-column
    and ``q`` the J-row, matching Figure 1's P(column, row) labelling.
    """

    P: int
    Q: int

    def __post_init__(self) -> None:
        if self.P < 1 or self.Q < 1:
            raise CommunicatorError(f"invalid process grid {self.P}x{self.Q}")

    @property
    def size(self) -> int:
        return self.P * self.Q

    def coords(self, rank: int) -> tuple[int, int]:
        """(p, q) coordinates of a rank."""
        if not 0 <= rank < self.size:
            raise CommunicatorError(
                f"rank {rank} outside {self.P}x{self.Q} grid"
            )
        return rank % self.P, rank // self.P

    def rank_of(self, p: int, q: int) -> int:
        if not (0 <= p < self.P and 0 <= q < self.Q):
            raise CommunicatorError(
                f"coords ({p}, {q}) outside {self.P}x{self.Q} grid"
            )
        return q * self.P + p

    def neighbor(self, rank: int, dp: int, dq: int) -> int | None:
        """Neighbouring rank at offset (dp, dq), or None at the boundary."""
        p, q = self.coords(rank)
        np_, nq = p + dp, q + dq
        if 0 <= np_ < self.P and 0 <= nq < self.Q:
            return self.rank_of(np_, nq)
        return None

    def west(self, rank: int) -> int | None:
        return self.neighbor(rank, -1, 0)

    def east(self, rank: int) -> int | None:
        return self.neighbor(rank, +1, 0)

    def north(self, rank: int) -> int | None:
        return self.neighbor(rank, 0, -1)

    def south(self, rank: int) -> int | None:
        return self.neighbor(rank, 0, +1)


def split_extent(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``n`` cells into ``parts`` contiguous (start, count) chunks,
    distributing the remainder to the leading chunks (MPI block layout)."""
    if parts < 1 or parts > n:
        raise CommunicatorError(
            f"cannot split {n} cells across {parts} processes"
        )
    base, extra = divmod(n, parts)
    out = []
    start = 0
    for i in range(parts):
        count = base + (1 if i < extra else 0)
        out.append((start, count))
        start += count
    return out
