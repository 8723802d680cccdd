"""I-line chunking and assignment to SPEs (thread-level parallelism).

"In our initial implementation, the I-lines for each jkm iteration are
assigned to each SPE in a cyclic manner" (Sec. 4), in "chunks of four
iterations" (Sec. 6).  Optimal load balance therefore needs the line
count to be a multiple of ``chunk_lines x num_spes`` = 32 -- the origin
of the "minor dents" in Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulerError


@dataclass(frozen=True)
class Chunk:
    """A contiguous run of a diagonal's I-lines, its rows
    ``start:stop``, scheduled as one unit."""

    index: int        # chunk number within the diagonal
    spe: int          # owning SPE
    start: int        # first row
    stop: int         # past the last row

    @property
    def num_lines(self) -> int:
        return self.stop - self.start

    @property
    def rows(self) -> slice:
        return slice(self.start, self.stop)


def make_chunks(num_lines: int, chunk_lines: int) -> list[range]:
    """Cut a diagonal's ``num_lines`` rows into runs of at most
    ``chunk_lines``."""
    if chunk_lines < 1:
        raise SchedulerError(f"chunk_lines must be >= 1, got {chunk_lines}")
    return [
        range(i, min(i + chunk_lines, num_lines))
        for i in range(0, num_lines, chunk_lines)
    ]


def assign_cyclic(
    num_lines: int, chunk_lines: int, num_spes: int
) -> list[Chunk]:
    """Cyclic chunk assignment: chunk ``c`` goes to SPE ``c mod num_spes``."""
    if num_spes < 1:
        raise SchedulerError(f"num_spes must be >= 1, got {num_spes}")
    return [
        Chunk(c, c % num_spes, rows.start, rows.stop)
        for c, rows in enumerate(make_chunks(num_lines, chunk_lines))
    ]


def assign_block(
    num_lines: int, chunk_lines: int, num_spes: int
) -> list[Chunk]:
    """Block chunk assignment: consecutive chunks to the same SPE.

    The alternative the paper *didn't* pick.  For wavefront diagonals it
    is strictly worse than cyclic: a diagonal of C chunks gives the
    first SPE ``ceil(C / S)``-chunk runs whose tail the other SPEs wait
    on, and short diagonals load one SPE only.  Kept as the comparison
    baseline for the scheduling ablation bench.
    """
    chunks = make_chunks(num_lines, chunk_lines)
    if num_spes < 1:
        raise SchedulerError(f"num_spes must be >= 1, got {num_spes}")
    per_spe = -(-len(chunks) // num_spes) if chunks else 0
    return [
        Chunk(c, min(c // per_spe, num_spes - 1) if per_spe else 0,
              rows.start, rows.stop)
        for c, rows in enumerate(chunks)
    ]


def makespan_lines_block(num_lines: int, chunk_lines: int, num_spes: int) -> int:
    """Busiest-SPE lines under block assignment (closed form)."""
    if num_lines == 0:
        return 0
    assignment = assign_block(num_lines, chunk_lines, num_spes)
    counts = [0] * num_spes
    for chunk in assignment:
        counts[chunk.spe] += chunk.num_lines
    return max(counts)


def per_spe_line_counts(
    num_lines: int, chunk_lines: int, num_spes: int
) -> list[int]:
    """Closed-form line count per SPE for a diagonal of ``num_lines``.

    Used by the performance model; must agree with :func:`assign_cyclic`
    (property-tested).
    """
    if num_lines < 0:
        raise SchedulerError(f"num_lines must be >= 0, got {num_lines}")
    counts = [0] * num_spes
    full_chunks, tail = divmod(num_lines, chunk_lines)
    for c in range(full_chunks):
        counts[c % num_spes] += chunk_lines
    if tail:
        counts[full_chunks % num_spes] += tail
    return counts


def makespan_lines(num_lines: int, chunk_lines: int, num_spes: int) -> int:
    """Lines processed by the busiest SPE -- the diagonal's critical path.

    Perfect balance gives ``num_lines / num_spes``; the ceil effects
    above it are the Figure 9 load-imbalance dents.
    """
    return max(per_spe_line_counts(num_lines, chunk_lines, num_spes), default=0)


def imbalance(num_lines: int, chunk_lines: int, num_spes: int) -> float:
    """Ratio of busiest-SPE lines to the perfectly balanced share (>= 1)."""
    if num_lines == 0:
        return 1.0
    return makespan_lines(num_lines, chunk_lines, num_spes) / (
        num_lines / num_spes
    )
