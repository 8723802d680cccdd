"""Tests for mailboxes and the atomic unit."""

from __future__ import annotations

import pytest

from repro.cell.atomic import AtomicDomain
from repro.cell.mailbox import (
    PPE_MAILBOX_MMIO_CYCLES,
    SPU_MAILBOX_ACCESS_CYCLES,
    MailboxPair,
)
from repro.errors import AtomicError, MailboxError


class TestMailboxes:
    def test_fifo_order(self):
        mb = MailboxPair(0)
        mb.ppe_send(1)
        mb.ppe_send(2)
        assert mb.spu_receive()[0] == 1
        assert mb.spu_receive()[0] == 2

    def test_inbound_depth_is_four(self):
        mb = MailboxPair(0)
        for v in range(4):
            mb.ppe_send(v)
        with pytest.raises(MailboxError, match="full"):
            mb.ppe_send(99)

    def test_outbound_depth_is_one(self):
        mb = MailboxPair(0)
        mb.spu_send(7)
        with pytest.raises(MailboxError, match="full"):
            mb.spu_send(8)

    def test_read_empty_raises(self):
        mb = MailboxPair(0)
        with pytest.raises(MailboxError, match="empty"):
            mb.spu_receive()

    def test_try_variants_do_not_raise(self):
        mb = MailboxPair(0)
        assert mb.inbound.try_read() is None
        assert mb.outbound.try_write(1)
        assert not mb.outbound.try_write(2)

    def test_values_are_32_bit(self):
        mb = MailboxPair(0)
        with pytest.raises(MailboxError):
            mb.ppe_send(2**32)
        with pytest.raises(MailboxError):
            mb.ppe_send(-1)

    def test_ppe_side_costs_mmio(self):
        # The asymmetry that motivates the LS-poke protocol: PPE-side
        # mailbox access is ~2 orders of magnitude pricier than SPU-side.
        mb = MailboxPair(0)
        assert mb.ppe_send(1) == PPE_MAILBOX_MMIO_CYCLES
        _, spu_cost = mb.spu_receive()
        assert spu_cost == SPU_MAILBOX_ACCESS_CYCLES
        assert PPE_MAILBOX_MMIO_CYCLES > 10 * SPU_MAILBOX_ACCESS_CYCLES


class TestAtomicUnit:
    def test_reserve_then_store_succeeds(self):
        dom = AtomicDomain()
        dom.define("head", 0)
        assert dom.load_reserve("spe0", "head") == 0
        assert dom.store_conditional("spe0", "head", 5)
        assert dom.values["head"] == 5

    def test_intervening_store_kills_reservation(self):
        dom = AtomicDomain()
        dom.define("head", 0)
        dom.load_reserve("spe0", "head")
        dom.plain_store("ppe", "head", 9)
        assert not dom.store_conditional("spe0", "head", 5)
        assert dom.values["head"] == 9

    def test_competing_store_conditional(self):
        dom = AtomicDomain()
        dom.define("head", 0)
        dom.load_reserve("spe0", "head")
        dom.load_reserve("spe1", "head")
        assert dom.store_conditional("spe0", "head", 1)
        # spe1's reservation died with spe0's successful store
        assert not dom.store_conditional("spe1", "head", 2)
        assert dom.values["head"] == 1

    def test_store_without_reservation_fails(self):
        dom = AtomicDomain()
        dom.define("x", 0)
        assert not dom.store_conditional("spe0", "x", 1)

    def test_unknown_variable_rejected(self):
        dom = AtomicDomain()
        with pytest.raises(AtomicError):
            dom.load_reserve("spe0", "nope")
        with pytest.raises(AtomicError):
            dom.define("x", 0) or dom.define("x", 0)

    def test_fetch_and_add_returns_old_value(self):
        dom = AtomicDomain()
        dom.define("ctr", 10)
        old, attempts = dom.fetch_and_add("spe0", "ctr", 4)
        assert (old, attempts) == (10, 1)
        assert dom.values["ctr"] == 14

    def test_fetch_and_add_serialises_many_units(self):
        dom = AtomicDomain()
        dom.define("ctr", 0)
        for i in range(8):
            dom.fetch_and_add(f"spe{i}", "ctr", 1)
        assert dom.values["ctr"] == 8
