"""Tests for the sync protocols and the two schedulers."""

from __future__ import annotations

import pytest

from repro.cell.atomic import ATOMIC_OP_CYCLES
from repro.cell.chip import CellBE
from repro.core.scheduler import CentralizedScheduler, DistributedScheduler
from repro.core.sync import LSPokeSync, MailboxSync
from repro.core.worklist import Chunk
from repro.metrics.registry import MetricsRegistry, spe_metric, ticks


@pytest.fixture
def chip():
    return CellBE(num_spes=8)


class TestMailboxSync:
    def test_round_trip(self, chip):
        registry = MetricsRegistry()
        chip.install_metrics(registry)
        sync = MailboxSync(chip)
        spe = chip.spes[3]
        sync.dispatch(spe, 17)
        sync.complete(spe, 17)
        assert registry.get("mailbox.ppe_ops") == 2
        assert registry.get("ppe.mailbox_mmio_ticks") > 0
        assert registry.get(spe_metric(3, "mailbox_wait_ticks")) > 0

    def test_ppe_cost_dominates(self, chip):
        # the architectural asymmetry that motivates the LS-poke protocol
        sync = MailboxSync(chip)
        assert sync.dispatch_ppe_cycles >= 1000
        assert sync.complete_ppe_cycles >= 1000


class TestLSPokeSync:
    def test_round_trip_delivers_work_id(self, chip):
        sync = LSPokeSync(chip)
        spe = chip.spes[0]
        sync.dispatch(spe, 123456)
        sync.complete(spe, 123456)
        assert sync._completion[0, 0] == 123456

    def test_cheaper_than_mailbox_on_ppe(self, chip):
        poke = LSPokeSync(chip)
        mail = MailboxSync(chip)
        poke_total = poke.dispatch_ppe_cycles + poke.complete_ppe_cycles
        mail_total = mail.dispatch_ppe_cycles + mail.complete_ppe_cycles
        assert poke_total < mail_total / 5

    def test_control_blocks_live_in_each_ls(self, chip):
        sync = LSPokeSync(chip)
        assert len(sync._control) == 8
        for spe in chip.spes:
            assert sync._control[spe.spe_id].nbytes == 16


class TestCentralizedScheduler:
    def test_executes_every_chunk_cyclically(self, chip):
        sched = CentralizedScheduler(chip, LSPokeSync(chip))
        seen: list[Chunk] = []
        chunks = sched.run_diagonal(37, 4, seen.append)
        assert len(seen) == 10
        assert [c.spe for c in seen] == [i % 8 for i in range(10)]
        assert sum(c.num_lines for c in seen) == 37
        assert sched.chunks_dispatched == 10

    def test_work_content_preserved(self, chip):
        sched = CentralizedScheduler(chip, MailboxSync(chip))
        seen = []
        sched.run_diagonal(9, 4, seen.append)
        flattened = [x for c in seen for x in range(c.start, c.stop)]
        assert flattened == list(range(9))


class TestDistributedScheduler:
    def test_executes_every_chunk_via_atomics(self, chip):
        registry = MetricsRegistry()
        chip.install_metrics(registry)
        sched = DistributedScheduler(chip)
        seen = []
        sched.run_diagonal(37, 4, seen.append)
        assert sum(c.num_lines for c in seen) == 37
        flattened = [x for c in seen for x in range(c.start, c.stop)]
        assert sorted(flattened) == list(range(37))
        # every claim attempt costs a load-reserve plus a
        # store-conditional, charged to the claiming SPE
        waited = sum(
            registry.get(spe_metric(spe.spe_id, "sync_wait_ticks"))
            for spe in chip.spes
        )
        attempts = registry.get("sched.atomic_attempts")
        assert attempts >= 10
        assert waited == ticks(2 * ATOMIC_OP_CYCLES) * attempts

    def test_counter_resets_between_diagonals(self, chip):
        sched = DistributedScheduler(chip)
        sched.run_diagonal(8, 4, lambda c: None)
        sched.run_diagonal(8, 4, lambda c: None)
        assert sched.chunks_dispatched == 4

    def test_same_work_as_centralized(self, chip):
        central = CentralizedScheduler(chip, LSPokeSync(chip))
        distributed = DistributedScheduler(chip)
        a, b = [], []
        central.run_diagonal(21, 4, a.append)
        distributed.run_diagonal(21, 4, b.append)
        assert sorted(x for c in a for x in range(c.start, c.stop)) == sorted(
            x for c in b for x in range(c.start, c.stop)
        )
