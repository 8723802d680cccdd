"""The SPE atomic unit: lwarx/stwcx-style reservations on cache lines.

Sec. 2: "More complex synchronization mechanisms are supported by a set of
atomic operations available to the SPU that operate in a very similar
manner to the lwarx/stwcx atomic instructions of the PowerPC architecture.
In fact, the SPEs' atomic operations can seamlessly interoperate with
PPE's atomic instructions."

The model provides load-with-reservation / store-conditional over 128-byte
lines of a shared :class:`AtomicDomain`.  Any intervening store to the
same line (by any unit) kills outstanding reservations, exactly the
semantics the distributed work-queue scheduler
(:mod:`repro.core.scheduler`) needs for its fetch-and-add of the global
work index -- the Figure 10 "distributed algorithm across the SPEs".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import AtomicError

#: Cycles for one atomic load-and-reserve or store-conditional round trip
#: through the atomic unit (cache-line granularity over the EIB).
ATOMIC_OP_CYCLES: int = 200


@dataclass
class AtomicDomain:
    """A set of word-addressed shared variables with line reservations.

    Variables are identified by name; each lives on its own 128-byte line
    (the paper's code pads shared words to line granularity to avoid false
    sharing, and so do we -- by construction).
    """

    values: dict[str, int] = field(default_factory=dict)
    #: name -> set of unit ids holding a reservation
    _reservations: dict[str, set[str]] = field(default_factory=dict)

    def define(self, name: str, initial: int = 0) -> None:
        """Create a shared variable."""
        if name in self.values:
            raise AtomicError(f"atomic variable {name!r} already defined")
        self.values[name] = initial
        self._reservations[name] = set()

    def load_reserve(self, unit: str, name: str) -> int:
        """``lwarx``: load and establish a reservation for ``unit``."""
        if name not in self.values:
            raise AtomicError(f"unknown atomic variable {name!r}")
        self._reservations[name].add(unit)
        return self.values[name]

    def store_conditional(self, unit: str, name: str, value: int) -> bool:
        """``stwcx``: store iff ``unit`` still holds its reservation.

        A successful store invalidates everyone's reservations on the
        line; a failed store leaves the value untouched.
        """
        if name not in self.values:
            raise AtomicError(f"unknown atomic variable {name!r}")
        holders = self._reservations[name]
        if unit not in holders:
            return False
        self.values[name] = value
        holders.clear()
        return True

    def plain_store(self, unit: str, name: str, value: int) -> None:
        """A non-atomic store: kills all reservations on the line."""
        if name not in self.values:
            raise AtomicError(f"unknown atomic variable {name!r}")
        self.values[name] = value
        self._reservations[name].clear()

    def fetch_and_add(self, unit: str, name: str, delta: int) -> tuple[int, int]:
        """Retry loop of load-reserve/store-conditional.

        Returns ``(previous_value, attempts)``.  Contention shows up as
        extra attempts, each costing :data:`ATOMIC_OP_CYCLES` twice -- the
        cycles the distributed scheduler records per claim as
        ``spe*.sync_wait_ticks``.
        """
        attempts = 0
        while True:
            attempts += 1
            if attempts > 10_000:  # pragma: no cover - defensive
                raise AtomicError(f"livelock on atomic variable {name!r}")
            old = self.load_reserve(unit, name)
            if self.store_conditional(unit, name, old + delta):
                return old, attempts
