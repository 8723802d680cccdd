"""Tests for the DMA-hazard sanitizer, on synthetic streams and on a
real solver with a deliberately broken buffer rotation."""

from __future__ import annotations

import pytest

from repro.trace.bus import TraceBus, spe_track
from repro.trace.sanitizer import (
    KERNEL_TOUCH_IN_FLIGHT,
    LS_CAPACITY,
    REUSE_BEFORE_DRAIN,
    DmaHazardSanitizer,
    format_hazards,
    sanitize,
)

INFO = {"num_spes": 2, "ls_capacity": 262144, "ls_code_bytes": 4096}
T = spe_track(0)


def enqueue(bus, tag, start, size, kind="get", track=T):
    bus.instant(track, "DmaEnqueue", tag=tag, kind=kind, depth=1,
                regions=[[start, size]])


def drain(bus, tags, track=T):
    bus.span(track, "DmaComplete", 100.0, tags=list(tags))


class TestCleanStreams:
    def test_disciplined_double_buffer_is_clean(self):
        """GET(s0) -> drain -> compute(s0) while GET(s1) -> drain -> ..."""
        bus = TraceBus()
        bus.machine_info = INFO
        for i in range(4):
            s = i % 2
            start = 8192 + s * 65536
            enqueue(bus, tag=2 + s, start=start, size=4096)
            drain(bus, [2 + s])
            bus.span(T, "KernelExec", 500.0, regions=[[start, 4096]])
        assert sanitize(bus) == []

    def test_disjoint_concurrent_tags_are_clean(self):
        bus = TraceBus()
        bus.machine_info = INFO
        enqueue(bus, tag=2, start=8192, size=4096)
        enqueue(bus, tag=3, start=65536, size=4096)   # different bytes: fine
        drain(bus, [2, 3])
        assert sanitize(bus) == []

    def test_tracks_are_independent(self):
        """The same LS offsets on two SPEs are different local stores."""
        bus = TraceBus()
        bus.machine_info = INFO
        enqueue(bus, tag=2, start=8192, size=4096, track=spe_track(0))
        enqueue(bus, tag=2, start=8192, size=4096, track=spe_track(1))
        assert sanitize(bus) == []


class TestHazards:
    def test_reuse_before_drain(self):
        bus = TraceBus()
        bus.machine_info = INFO
        enqueue(bus, tag=2, start=8192, size=4096)
        enqueue(bus, tag=3, start=8192, size=4096)  # no drain in between
        hazards = sanitize(bus)
        assert [h.kind for h in hazards] == [REUSE_BEFORE_DRAIN]
        assert hazards[0].tag == 3 and hazards[0].track == T
        assert "tag 2" in hazards[0].message

    def test_partial_overlap_flags(self):
        bus = TraceBus()
        bus.machine_info = INFO
        enqueue(bus, tag=2, start=8192, size=4096)
        enqueue(bus, tag=3, start=12000, size=4096)  # overlaps the tail
        assert [h.kind for h in sanitize(bus)] == [REUSE_BEFORE_DRAIN]

    def test_drain_clears_the_footprint(self):
        bus = TraceBus()
        bus.machine_info = INFO
        enqueue(bus, tag=2, start=8192, size=4096)
        drain(bus, [2])
        enqueue(bus, tag=3, start=8192, size=4096)
        assert sanitize(bus) == []

    def test_drain_of_other_tag_does_not_clear(self):
        bus = TraceBus()
        bus.machine_info = INFO
        enqueue(bus, tag=2, start=8192, size=4096)
        drain(bus, [5])  # PUT tag drained; GET still in flight
        enqueue(bus, tag=3, start=8192, size=4096)
        assert [h.kind for h in sanitize(bus)] == [REUSE_BEFORE_DRAIN]

    def test_kernel_touch_in_flight(self):
        bus = TraceBus()
        bus.machine_info = INFO
        enqueue(bus, tag=2, start=8192, size=4096)
        bus.span(T, "KernelExec", 500.0, regions=[[8192, 4096]])
        hazards = sanitize(bus)
        assert [h.kind for h in hazards] == [KERNEL_TOUCH_IN_FLIGHT]
        assert hazards[0].tag == 2

    def test_ls_capacity_below_code_image(self):
        bus = TraceBus()
        bus.machine_info = INFO
        enqueue(bus, tag=2, start=1024, size=512)  # inside the code image
        hazards = sanitize(bus)
        assert [h.kind for h in hazards] == [LS_CAPACITY]
        assert "code image" in hazards[0].message

    def test_ls_capacity_past_end(self):
        bus = TraceBus()
        bus.machine_info = INFO
        enqueue(bus, tag=2, start=262144 - 256, size=512)
        hazards = sanitize(bus)
        assert [h.kind for h in hazards] == [LS_CAPACITY]
        assert "past the" in hazards[0].message


class TestStreamingApi:
    def test_accepts_raw_event_iterable(self):
        bus = TraceBus()
        enqueue(bus, tag=2, start=8192, size=4096)
        enqueue(bus, tag=3, start=8192, size=4096)
        hazards = sanitize(list(bus.events), machine_info=INFO)
        assert [h.kind for h in hazards] == [REUSE_BEFORE_DRAIN]

    def test_in_flight_tags_reports_leaks(self):
        san = DmaHazardSanitizer(INFO)
        bus = TraceBus()
        enqueue(bus, tag=2, start=8192, size=4096)
        for ev in bus.events:
            san.feed(ev)
        assert san.in_flight_tags(T) == {2}
        assert san.in_flight_tags("SPE7") == set()

    def test_no_machine_info_skips_capacity_checks(self):
        bus = TraceBus()
        enqueue(bus, tag=2, start=0, size=1 << 30)
        assert sanitize(bus) == []  # no capacity metadata, nothing to check

    def test_format_hazards(self):
        assert format_hazards([]) == "sanitizer: 0 hazards"
        bus = TraceBus()
        bus.machine_info = INFO
        enqueue(bus, tag=2, start=8192, size=4096)
        enqueue(bus, tag=3, start=8192, size=4096)
        text = format_hazards(sanitize(bus))
        assert "1 hazard" in text and REUSE_BEFORE_DRAIN in text


class TestRealSolverInjection:
    def test_broken_buffer_rotation_is_flagged(self):
        """Issue two GET programs into the *same* buffer set without
        draining the first tag -- the bug double buffering exists to
        prevent -- and the sanitizer must flag it."""
        from repro.cell.dma import DMAKind
        from repro.core.levels import MachineConfig, SyncProtocol
        from repro.core.solver import CellSweep3D
        from repro.core.streaming import GET_TAGS
        from repro.sweep.input import small_deck

        deck = small_deck(n=6, sn=4, nm=1, iterations=1, mk=2)
        config = MachineConfig(
            aligned_rows=True, double_buffer=True, simd=True, dma_lists=True,
            bank_offsets=True, sync=SyncProtocol.LS_POKE, num_spes=2,
            trace=True,
        )
        solver = CellSweep3D(deck, config)
        bufs = solver.buffers[0]

        # two lines of each of two diagonals of the sweep
        diagonals = solver.shape.octant(0)[0]
        rows = slice(0, 2)

        bufs.issue(
            bufs._program(solver.host, diagonals[1], rows, DMAKind.GET, 0,
                          GET_TAGS[0]),
            GET_TAGS[0],
        )
        # second GET into buffer set 0 under a new tag, first still in flight
        bufs.issue(
            bufs._program(solver.host, diagonals[2], rows, DMAKind.GET, 0,
                          GET_TAGS[1]),
            GET_TAGS[1],
        )
        hazards = sanitize(solver.trace)
        assert hazards
        assert all(h.kind == REUSE_BEFORE_DRAIN for h in hazards)
        assert all(h.track == spe_track(0) for h in hazards)
