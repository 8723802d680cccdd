"""Whole-chip composition: one Cell Broadband Engine.

A :class:`CellBE` owns the PPE, the eight SPEs, the shared main-memory
address space, the memory timing model and the atomic domain.
Application layers (:mod:`repro.core`) drive Sweep3D through this
object; its simulated costs reach the metrics registry and trace bus it
installs chip-wide, and :meth:`CellBE.traffic` sums the MFC statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..metrics.registry import NULL_REGISTRY
from ..trace.bus import NULL_BUS
from .atomic import AtomicDomain
from .dma import AddressSpace
from .mic import MemoryTimingModel
from .ppe import PPE
from .spe import SPE
from . import constants


@dataclass(frozen=True)
class ChipTraffic:
    """Aggregate DMA traffic of a run, chip-wide."""

    bytes_get: int
    bytes_put: int
    commands: int
    list_elements: int

    @property
    def total_bytes(self) -> int:
        return self.bytes_get + self.bytes_put


class CellBE:
    """A simulated Cell Broadband Engine processor."""

    def __init__(
        self,
        num_spes: int = constants.NUM_SPES,
        ls_capacity: int = constants.LOCAL_STORE_BYTES,
        spe_code_bytes: int = 24 * 1024,
    ) -> None:
        if not 1 <= num_spes <= constants.NUM_SPES:
            raise ConfigurationError(
                f"Cell BE has 1..{constants.NUM_SPES} usable SPEs, got {num_spes}"
            )
        self.memory_timing = MemoryTimingModel()
        self.ppe = PPE()
        self.spes = [
            SPE(i, timing=self.memory_timing, ls_capacity=ls_capacity,
                code_bytes=spe_code_bytes)
            for i in range(num_spes)
        ]
        self.address_space = AddressSpace()
        self.atomics = AtomicDomain()
        #: chip-wide trace bus; the null bus until ``install_trace``
        self.trace = NULL_BUS
        #: chip-wide metrics registry; the null registry until
        #: ``install_metrics``
        self.metrics = NULL_REGISTRY
        #: optional allocator override for :meth:`host_alloc`:
        #: ``callable(name, shape, dtype) -> ndarray`` (or None to use
        #: plain ``np.zeros``).  :mod:`repro.parallel` installs a
        #: shared-memory factory here so selected host arrays become
        #: visible to worker processes without copying.
        self.host_array_factory = None

    @property
    def num_spes(self) -> int:
        return len(self.spes)

    def install_trace(self, bus) -> None:
        """Point every instrumented unit of the chip at ``bus``.

        One bus observes the whole machine: the per-SPE MFCs, the shared
        memory-controller model and the mailbox pairs, plus anything that
        reads ``chip.trace`` dynamically (sync protocols, schedulers, the
        solver).  Also stamps the machine metadata the DMA-hazard
        sanitizer's capacity checks need.  Install
        :data:`repro.trace.NULL_BUS` to switch tracing back off.
        """
        self.trace = bus
        self.memory_timing.trace = bus
        for spe in self.spes:
            spe.trace = bus
            spe.mfc.trace = bus
            spe.mailboxes.trace = bus
        if bus.enabled:
            bus.machine_info = {
                "num_spes": self.num_spes,
                "ls_capacity": self.spes[0].local_store.capacity,
                "ls_code_bytes": self.spes[0].local_store.reserved_code_bytes,
            }

    def install_metrics(self, registry) -> None:
        """Point every instrumented unit of the chip at ``registry``.

        The metrics twin of :meth:`install_trace`: one registry collects
        the whole machine's counters -- per-SPE MFCs and mailbox pairs,
        the shared memory-timing model, plus everything that reads
        ``chip.metrics`` dynamically (sync protocols, schedulers, the
        streaming layer, the solver).  Install
        :data:`repro.metrics.NULL_REGISTRY` to switch collection back
        off.
        """
        self.metrics = registry
        self.memory_timing.metrics = registry
        for spe in self.spes:
            spe.metrics = registry
            spe.mfc.metrics = registry
            spe.mailboxes.metrics = registry

    def host_alloc(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
        bank_offset: int = 0,
        pad_rows_to_line: bool = False,
    ) -> "np.ndarray":
        """Allocate a main-memory array registered in the address space.

        ``pad_rows_to_line`` pads the last dimension so each row starts on
        a 128-byte boundary -- the paper's "array allocation to ensure
        that the rows of the 'multi-dimensional' arrays are 128-byte
        aligned" (Sec. 5).  Returns the *logical* (unpadded) view; the
        padded storage is what the address space registers.
        """
        if isinstance(shape, int):
            shape = (shape,)
        dt = np.dtype(dtype)

        def zeros(shape_: tuple[int, ...]) -> np.ndarray:
            if self.host_array_factory is not None:
                return self.host_array_factory(name, shape_, dt)
            return np.zeros(shape_, dtype=dt)

        if pad_rows_to_line and len(shape) >= 1:
            row = shape[-1]
            per_line = constants.CACHE_LINE_BYTES // dt.itemsize
            padded_row = -(-row // per_line) * per_line
            storage = zeros(shape[:-1] + (padded_row,))
            self.address_space.allocate(name, storage, bank_offset=bank_offset)
            return storage[..., :row]
        storage = zeros(shape)
        self.address_space.allocate(name, storage, bank_offset=bank_offset)
        return storage

    def traffic(self) -> ChipTraffic:
        """Sum of all SPEs' MFC statistics."""
        return ChipTraffic(
            bytes_get=sum(s.mfc.stats.bytes_get for s in self.spes),
            bytes_put=sum(s.mfc.stats.bytes_put for s in self.spes),
            commands=sum(s.mfc.stats.commands for s in self.spes),
            list_elements=sum(s.mfc.stats.list_elements for s in self.spes),
        )
