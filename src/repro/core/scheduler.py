"""Work distribution: the centralized PPE scheduler and its distributed
replacement.

The paper's measured implementation has the PPE farm chunks of four
I-lines to the SPEs ("Our load balancing algorithm farms chunks of four
iterations to each SPE", Sec. 6) and observes: "the PPE cannot
distribute efficiently the chunks of iterations across the SPEs,
becoming a bottleneck.  By replacing the centralized task distribution
algorithm with a distributed algorithm across the SPEs, we expect to
reduce the run time to 0.9 seconds" (Figure 10).

Both schedulers run *functionally* here: the centralized one pushes
work ids through the configured sync protocol; the distributed one has
the SPEs claim chunks with a real load-reserve/store-conditional
fetch-and-add on the shared atomic domain.  Both produce identical work
assignments in aggregate; they differ in who pays cycles, which the
performance model reads back.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..cell.atomic import ATOMIC_OP_CYCLES
from ..cell.chip import CellBE
from ..errors import SchedulerError
from ..metrics.registry import spe_metric
from ..trace.bus import PPE_TRACK, spe_track
from .sync import LSPokeSync, MailboxSync
from .worklist import Chunk, assign_cyclic

ExecuteFn = Callable[[Chunk], None]


class CentralizedScheduler:
    """PPE-driven dispatch: one sync round trip per chunk, serialized on
    the PPE."""

    def __init__(self, chip: CellBE, sync: MailboxSync | LSPokeSync) -> None:
        self.chip = chip
        self.sync = sync
        self.chunks_dispatched = 0

    def run_chunk(self, chunk: Chunk, execute: ExecuteFn) -> None:
        """One chunk through the full dispatch protocol: sync round trip,
        kernel execution, completion.  The per-chunk unit of
        :meth:`run_diagonal`."""
        trace = self.chip.trace
        spe = self.chip.spes[chunk.spe]
        if trace.enabled:
            trace.instant(
                PPE_TRACK, "WorkAssigned", chunk=chunk.index,
                spe=chunk.spe, lines=len(chunk.lines),
                scheduler="centralized",
            )
        self.sync.dispatch(spe, chunk.index)
        execute(chunk)
        self.sync.complete(spe, chunk.index)
        self.chunks_dispatched += 1
        if self.chip.metrics.enabled:
            self.chip.metrics.count("sched.chunks")
        if trace.enabled:
            trace.instant(
                PPE_TRACK, "WorkDone", chunk=chunk.index, spe=chunk.spe,
                scheduler="centralized",
            )

    def run_diagonal(
        self,
        lines: Sequence,
        chunk_lines: int,
        execute: ExecuteFn,
        prepare: Callable[[list[Chunk]], None] | None = None,
    ) -> list[Chunk]:
        """Dispatch one jkm diagonal's lines cyclically across the SPEs.

        ``prepare`` sees the full chunk list before any dispatch --- the
        hook the solver uses to compute a diagonal's independent lines
        in one kernel call, whichever kernel.  It runs on the host clock
        only; the per-chunk dispatch protocol below is unchanged.
        """
        chunks = assign_cyclic(lines, chunk_lines, len(self.chip.spes))
        if prepare is not None:
            prepare(chunks)
        for chunk in chunks:
            self.run_chunk(chunk, execute)
        return chunks


class DistributedScheduler:
    """SPE self-scheduling from a shared atomic work counter.

    Each SPE fetch-and-adds the head index to claim the next chunk; the
    PPE only publishes the diagonal's chunk count.  Claim order is
    simulated round-robin (any order is correct: chunks of one diagonal
    are independent), so the *assignment* differs from the cyclic
    scheduler but the executed set is identical.
    """

    def __init__(self, chip: CellBE) -> None:
        self.chip = chip
        if "work_head" not in chip.atomics.values:
            chip.atomics.define("work_head", 0)
        self.chunks_dispatched = 0

    def run_diagonal(
        self,
        lines: Sequence,
        chunk_lines: int,
        execute: ExecuteFn,
        prepare: Callable[[list[Chunk]], None] | None = None,
    ) -> list[Chunk]:
        chunks = assign_cyclic(lines, chunk_lines, len(self.chip.spes))
        if prepare is not None:
            # Chunk indices survive the re-wrapping below, so results
            # keyed by index reach the claiming SPE's execution.
            prepare(chunks)
        self.chip.atomics.plain_store("ppe", "work_head", 0)
        claimed = 0
        spe_cycle = 0
        executed: list[Chunk] = []
        while claimed < len(chunks):
            spe = self.chip.spes[spe_cycle % len(self.chip.spes)]
            spe_cycle += 1
            old, attempts = self.chip.atomics.fetch_and_add(
                f"spe{spe.spe_id}", "work_head", 1
            )
            if old >= len(chunks):  # pragma: no cover - loop bound guards
                raise SchedulerError("work counter overran the chunk list")
            spe.sync_budget.charge(
                "atomic_claim", 2 * ATOMIC_OP_CYCLES * attempts
            )
            if self.chip.metrics.enabled:
                m = self.chip.metrics
                m.add_cycles(
                    spe_metric(spe.spe_id, "sync_wait_ticks"),
                    2 * ATOMIC_OP_CYCLES * attempts,
                )
                m.count("sched.chunks")
                m.count("sched.atomic_attempts", attempts)
            chunk = chunks[old]
            # the claiming SPE executes it regardless of the cyclic hint
            executed.append(Chunk(chunk.index, spe.spe_id, chunk.lines))
            if self.chip.trace.enabled:
                self.chip.trace.instant(
                    spe_track(spe.spe_id), "WorkAssigned", chunk=chunk.index,
                    spe=spe.spe_id, lines=len(chunk.lines),
                    scheduler="distributed", attempts=attempts,
                )
            execute(executed[-1])
            claimed += 1
            self.chunks_dispatched += 1
            if self.chip.trace.enabled:
                self.chip.trace.instant(
                    spe_track(spe.spe_id), "WorkDone", chunk=chunk.index,
                    spe=spe.spe_id, scheduler="distributed",
                )
        return executed
