"""Tests for the TraceBus event collector and the null bus."""

from __future__ import annotations

import pytest

from repro.trace.bus import (
    EVENT_NAMES,
    MIC_TRACK,
    NULL_BUS,
    PPE_TRACK,
    NullTraceBus,
    TraceBus,
    TraceEvent,
    spe_track,
)


class TestTraceBus:
    def test_instant_does_not_advance_timeline(self):
        bus = TraceBus()
        ev = bus.instant(PPE_TRACK, "MailboxSend", spe=0, value=7)
        assert bus.now == 0.0
        assert ev.ts == 0.0 and ev.dur == 0.0
        assert ev.args == {"spe": 0, "value": 7}

    def test_span_advances_timeline(self):
        bus = TraceBus()
        a = bus.span(spe_track(0), "DmaComplete", 100.0, tags=[2])
        b = bus.span(spe_track(0), "KernelExec", 50.0)
        assert a.ts == 0.0 and a.dur == 100.0 and a.end == 100.0
        assert b.ts == 100.0 and b.end == 150.0
        assert bus.now == 150.0

    def test_negative_span_rejected(self):
        bus = TraceBus()
        with pytest.raises(ValueError):
            bus.span(PPE_TRACK, "SyncDispatch", -1.0)

    def test_seq_is_emission_order(self):
        bus = TraceBus()
        evs = [bus.instant(PPE_TRACK, "WorkAssigned", chunk=i) for i in range(5)]
        assert [ev.seq for ev in evs] == [0, 1, 2, 3, 4]
        assert len(bus) == 5

    def test_by_name_and_by_track(self):
        bus = TraceBus()
        bus.instant(spe_track(0), "DmaEnqueue", tag=2)
        bus.instant(spe_track(1), "DmaEnqueue", tag=2)
        bus.span(spe_track(0), "DmaComplete", 10.0, tags=[2])
        assert len(bus.by_name("DmaEnqueue")) == 2
        assert len(bus.by_track(spe_track(0))) == 2
        assert bus.by_track("SPE9") == []

    def test_tracks_in_first_appearance_order(self):
        bus = TraceBus()
        for track in (PPE_TRACK, spe_track(1), MIC_TRACK, spe_track(1), PPE_TRACK):
            bus.instant(track, "MailboxSend")
        assert bus.tracks() == [PPE_TRACK, "SPE1", MIC_TRACK]

    def test_event_is_frozen(self):
        ev = TraceEvent(seq=0, ts=0.0, dur=1.0, track=PPE_TRACK, name="KernelExec")
        with pytest.raises(AttributeError):
            ev.ts = 5.0


class TestNullBus:
    def test_disabled_and_inert(self):
        assert NULL_BUS.enabled is False
        assert NULL_BUS.instant(PPE_TRACK, "MailboxSend", value=1) is None
        assert NULL_BUS.span(PPE_TRACK, "SyncDispatch", 100.0) is None
        assert len(NULL_BUS) == 0
        assert NULL_BUS.tracks() == []
        assert NULL_BUS.by_name("DmaEnqueue") == []
        assert NULL_BUS.by_track(PPE_TRACK) == []
        assert NULL_BUS.now == 0.0

    def test_singleton_shared(self):
        assert isinstance(NULL_BUS, NullTraceBus)
        # units share the singleton; emitting must never accumulate state
        NULL_BUS.span(PPE_TRACK, "SyncDispatch", 1e9)
        assert NULL_BUS.now == 0.0


class TestVocabulary:
    def test_track_names(self):
        assert spe_track(0) == "SPE0"
        assert spe_track(7) == "SPE7"
        assert (PPE_TRACK, MIC_TRACK) == ("PPE", "MIC")

    def test_event_names_fixed(self):
        assert "DmaEnqueue" in EVENT_NAMES
        assert "KernelExec" in EVENT_NAMES
        assert len(EVENT_NAMES) == 11
