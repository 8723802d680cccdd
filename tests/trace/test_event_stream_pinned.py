"""The simulated event stream is pinned, not assumed.

How the *host* computes a diagonal (one kernel call per chunk, per
diagonal, per anything) must never show in what the simulated Cell is
seen to do.  The digests below were recorded at the parent of PR 24
(per-chunk kernel calls) and cover every trace event -- per-chunk
``KernelExec`` fixups/lines/cells/regions, ``WorkAssigned``/``WorkDone``,
``BufferSwap``, every DMA event and its timestamp -- and every
``kernel.*``/``sched.*``/``stream.*``/``dma.*`` counter of the registry.
A change that batches host work differently and moves one of them has
changed the simulation, not just its cost.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.levels import SchedulerKind
from repro.core.solver import CellSweep3D
from repro.perf.processors import measured_cell_config
from repro.sweep.geometry import Grid
from repro.sweep.input import InputDeck, small_deck
from repro.trace.export import to_chrome_trace


def uniform_deck() -> InputDeck:
    """7^3 S4 nm=2, a corner source in an absorber: odd extents, ragged
    last chunks, and the fixup branch live on the ISA path too."""
    return dataclasses.replace(
        small_deck(n=7, sn=4, nm=2, iterations=1, mk=1),
        sigma_t=4.0, scattering_ratio=0.1,
        source_box=(0, 2, 0, 2, 0, 2), source=50.0,
    )


def shield_deck() -> InputDeck:
    """10x7x5 source/shield deck: per-cell sigt rows, ~2k fixups."""
    return InputDeck(
        grid=Grid(10, 7, 5), mk=5, iterations=1, scattering_ratio=0.9,
        source=1.5, source_box=(3, 6, 2, 5, 1, 4),
        material_box=(7, 9, 0, 7, 0, 5),
        material_sigma_t=8.0, material_scattering_ratio=0.1,
    )


def sha(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


#: (deck, scheduler, isa_kernel) -> (trace digest, metrics digest, fixups);
#: the kernel choice is host-only, so each ISA row equals its reference
#: row.
PINNED = {
    ("uniform", SchedulerKind.CENTRALIZED, False): (
        "181d2f76085356816356ad3f413793984393cd1ac37e34c91a15a8e696f82481",
        "00780e30286c5d91d0615efc28c652cefedb65466ef07b707dc2370c75f6d315",
        321,
    ),
    ("uniform", SchedulerKind.DISTRIBUTED, False): (
        "a11c62003c80ea5ac4b40384b9b2b50b4416e820a57db33633cb433a130122f6",
        "e9c3593d382c8f2c0d5111d5cc2e1132d5a909f634f29fcfc4d40be03d32e742",
        321,
    ),
    ("uniform", SchedulerKind.CENTRALIZED, True): (
        "181d2f76085356816356ad3f413793984393cd1ac37e34c91a15a8e696f82481",
        "00780e30286c5d91d0615efc28c652cefedb65466ef07b707dc2370c75f6d315",
        321,
    ),
    ("uniform", SchedulerKind.DISTRIBUTED, True): (
        "a11c62003c80ea5ac4b40384b9b2b50b4416e820a57db33633cb433a130122f6",
        "e9c3593d382c8f2c0d5111d5cc2e1132d5a909f634f29fcfc4d40be03d32e742",
        321,
    ),
    ("shield", SchedulerKind.CENTRALIZED, False): (
        "a0d8ea3be74a05362a70c527c45a38206d246274931bd413cb7705a2d208c4f1",
        "d3ff4062bfe42e35b5b4a4958c660ceab499fb74f96446a776787c4fec5a6236",
        2036,
    ),
    ("shield", SchedulerKind.DISTRIBUTED, False): (
        "537e915fa49be84fc7558bfed38e59679eeb82190a8d7c49126d27ca2626ccd1",
        "dcfb12ae1144773909ab2ffd32807fa0a9fd87192d23d6a20f2b3bacde6a264a",
        2036,
    ),
}

DECKS = {"uniform": uniform_deck, "shield": shield_deck}


def run(deck_name: str, scheduler: SchedulerKind, isa: bool):
    """``(Perfetto document, registry dict, fixups)`` of one traced,
    metered solve."""
    config = measured_cell_config().with_(
        trace=True, metrics=True, num_spes=3, scheduler=scheduler,
        isa_kernel=isa,
    )
    with CellSweep3D(DECKS[deck_name](), config) as solver:
        result = solver.solve()
        return (
            to_chrome_trace(solver.trace),
            solver.metrics.to_dict(),
            result.tally.fixups,
        )


@pytest.mark.parametrize(
    "deck_name, scheduler, isa", list(PINNED),
    ids=lambda v: getattr(v, "value", v),
)
def test_event_stream_and_registry_digests(deck_name, scheduler, isa):
    trace, registry, fixups = run(deck_name, scheduler, isa)
    assert (sha(trace), sha(registry), fixups) == PINNED[
        deck_name, scheduler, isa
    ]


def test_kernel_choice_is_invisible_to_the_registry():
    """The registry counts what the simulated machine did, never which
    host kernel computed the values."""
    _, isa, _ = run("uniform", SchedulerKind.CENTRALIZED, True)
    _, reference, _ = run("uniform", SchedulerKind.CENTRALIZED, False)
    assert isa == reference

