"""DMA commands, DMA lists, and the simulated main-memory address space.

The MFC moves data between an SPE local store and "effective addresses"
(EAs) in main memory.  The architecture imposes hard rules (Sec. 2, "DMA
Transfers") which this module enforces exactly:

* a single transfer is 1, 2, 4 or 8 bytes, or a multiple of 16 bytes up to
  16 KB;
* source and destination must be naturally aligned (16-byte alignment for
  quadword-granular transfers);
* peak performance requires both EA and LS address 128-byte aligned and a
  size that is a multiple of 128 bytes;
* a DMA *list* bundles up to 2,048 transfers under one MFC command, and
  only the SPU that owns the MFC can issue list commands.

Main memory is modelled by :class:`AddressSpace`, which assigns effective
addresses to real NumPy arrays.  Addresses matter because the memory
controller interleaves 128-byte blocks across 16 banks; the paper's
"adding offsets to the array allocation to more fairly spread the memory
accesses across the 16 main memory banks" (Sec. 5) is reproduced by the
``bank_offset`` argument of :meth:`AddressSpace.allocate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from ..errors import DMAError
from ..units import align_up, is_aligned
from . import constants
from .local_store import LSBuffer


class DMAKind(Enum):
    """Transfer direction, named from the SPE's point of view."""

    GET = "get"   # main memory -> local store
    PUT = "put"   # local store -> main memory


def validate_transfer_size(size: int) -> None:
    """Enforce the CBEA transfer-size rule; raises :class:`DMAError`."""
    if size in constants.DMA_SMALL_SIZES:
        return
    if size <= 0:
        raise DMAError(f"DMA size must be positive, got {size}")
    if size % constants.DMA_QUANTUM:
        raise DMAError(
            f"DMA size {size} is not 1/2/4/8 bytes or a multiple of "
            f"{constants.DMA_QUANTUM} bytes"
        )
    if size > constants.DMA_MAX_BYTES:
        raise DMAError(
            f"DMA size {size} exceeds the {constants.DMA_MAX_BYTES}-byte maximum; "
            f"use a DMA list"
        )


def validate_alignment(ea: int, ls_offset: int, size: int) -> None:
    """Enforce natural-alignment rules for one transfer."""
    unit = size if size in constants.DMA_SMALL_SIZES else constants.DMA_QUANTUM
    if not is_aligned(ea, unit):
        raise DMAError(f"effective address {ea:#x} not {unit}-byte aligned")
    if not is_aligned(ls_offset, unit):
        raise DMAError(f"local-store offset {ls_offset:#x} not {unit}-byte aligned")


def is_peak_rate(ea: int, ls_offset: int, size: int) -> bool:
    """True when the transfer qualifies for peak bandwidth.

    "Peak performance can be achieved for transfers when both the EA and
    LSA are 128-byte aligned and the size of the transfer is an even
    multiple of 128 bytes" (Sec. 2).
    """
    line = constants.CACHE_LINE_BYTES
    return (
        is_aligned(ea, line)
        and is_aligned(ls_offset, line)
        and size % line == 0
        and size > 0
    )


@dataclass
class HostArray:
    """A main-memory resident array with an assigned effective address."""

    name: str
    ea: int
    data: np.ndarray = field(repr=False)

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @cached_property
    def _bytes(self) -> np.ndarray:
        # ``data`` is made contiguous by AddressSpace.allocate, so this is
        # a genuine view over the live storage and can be cached safely.
        return np.ascontiguousarray(self.data).view(np.uint8).reshape(-1)

    def bytes_view(self) -> np.ndarray:
        """Flat ``uint8`` view over the array storage."""
        return self._bytes

    def ea_of(self, byte_offset: int) -> int:
        """Effective address of a byte offset within this array."""
        if not 0 <= byte_offset <= self.nbytes:
            raise DMAError(
                f"offset {byte_offset} outside array {self.name!r} "
                f"({self.nbytes} bytes)"
            )
        return self.ea + byte_offset


class AddressSpace:
    """Assigns effective addresses to host arrays.

    ``allocate`` mimics an aligned allocator: each array is placed at the
    next address with the requested alignment, plus an optional
    ``bank_offset`` measured in 128-byte memory-bank strides.  Staggering
    the bank offset of successive row allocations is exactly the paper's
    bank-spreading optimization.
    """

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base
        self._arrays: dict[str, HostArray] = {}

    def allocate(
        self,
        name: str,
        data: np.ndarray,
        alignment: int = constants.CACHE_LINE_BYTES,
        bank_offset: int = 0,
    ) -> HostArray:
        """Register ``data`` (not copied) at a fresh effective address."""
        if name in self._arrays:
            raise DMAError(f"array {name!r} already allocated")
        if not 0 <= bank_offset < constants.NUM_MEMORY_BANKS:
            raise DMAError(
                f"bank offset must be in [0, {constants.NUM_MEMORY_BANKS}), "
                f"got {bank_offset}"
            )
        data = np.ascontiguousarray(data)
        ea = align_up(self._next, alignment)
        ea += bank_offset * constants.MEMORY_BANK_STRIDE
        arr = HostArray(name, ea, data)
        self._arrays[name] = arr
        self._next = ea + data.nbytes
        return arr

    def __getitem__(self, name: str) -> HostArray:
        return self._arrays[name]

    def arrays(self) -> list[HostArray]:
        return list(self._arrays.values())


#: Bytes after which the bank pattern of an address repeats: block
#: counts and bank histograms depend on an effective address only
#: modulo this (16 banks of 128-byte blocks).
BANK_INTERLEAVE_BYTES: int = constants.MEMORY_BANK_STRIDE * constants.NUM_MEMORY_BANKS


def bank_of(ea: int) -> int:
    """Memory bank holding the 128-byte block at ``ea``."""
    return (ea // constants.MEMORY_BANK_STRIDE) % constants.NUM_MEMORY_BANKS


@dataclass(frozen=True)
class DMAElement:
    """One (EA, size) element of a transfer or a DMA list."""

    ea: int
    size: int

    def banks(self) -> list[int]:
        """The memory banks this element's 128-byte blocks touch."""
        stride = constants.MEMORY_BANK_STRIDE
        first = self.ea // stride
        last = (self.ea + max(self.size, 1) - 1) // stride
        return [(b % constants.NUM_MEMORY_BANKS) for b in range(first, last + 1)]


@dataclass
class DMACommand:
    """A single validated MFC DMA command."""

    kind: DMAKind
    host: HostArray
    host_offset: int
    ls_buffer: LSBuffer
    ls_offset: int
    size: int
    tag: int = 0

    def __post_init__(self) -> None:
        validate_transfer_size(self.size)
        if not 0 <= self.tag < 32:
            raise DMAError(f"MFC tag must be in [0, 32), got {self.tag}")
        if self.host_offset + self.size > self.host.nbytes:
            raise DMAError(
                f"transfer of {self.size} B at host offset {self.host_offset} "
                f"overruns array {self.host.name!r} ({self.host.nbytes} B)"
            )
        if self.ls_offset + self.size > self.ls_buffer.nbytes:
            raise DMAError(
                f"transfer of {self.size} B at LS offset {self.ls_offset} "
                f"overruns buffer {self.ls_buffer.label!r} "
                f"({self.ls_buffer.nbytes} B)"
            )
        ea = self.host.ea_of(self.host_offset)
        validate_alignment(ea, self.ls_buffer.offset + self.ls_offset, self.size)

    @property
    def ea(self) -> int:
        return self.host.ea_of(self.host_offset)

    @property
    def peak_rate(self) -> bool:
        return is_peak_rate(self.ea, self.ls_buffer.offset + self.ls_offset, self.size)

    @property
    def bank_signature(self) -> tuple[int, ...]:
        """Everything the MIC timing model reads from this command, as
        flat integers: 0 (a list command gives its length here), then
        the effective address modulo the bank interleave and the size."""
        return (0, self.ea % BANK_INTERLEAVE_BYTES, self.size)

    def ls_regions(self) -> tuple[tuple[int, int], ...]:
        """Absolute local-store (start, size) byte ranges this command
        reads or writes -- the footprint the trace sanitizer checks for
        overlap with other in-flight commands."""
        return ((self.ls_buffer.offset + self.ls_offset, self.size),)

    def elements(self) -> list[DMAElement]:
        return [DMAElement(self.ea, self.size)]

    @property
    def total_bytes(self) -> int:
        return self.size

    def execute(self) -> None:
        """Perform the copy between host memory and the local store."""
        hview = self.host.bytes_view()[self.host_offset : self.host_offset + self.size]
        lview = self.ls_buffer.as_bytes()[self.ls_offset : self.ls_offset + self.size]
        if self.kind is DMAKind.GET:
            lview[:] = hview
        else:
            hview[:] = lview


@dataclass
class DMAListCommand:
    """A DMA-list command: many (EA, size) elements, one LS region.

    List elements fill the local-store region contiguously in order, which
    is how Sweep3D's strided rows are gathered into a dense working set.
    """

    kind: DMAKind
    host: HostArray
    elements_spec: list[tuple[int, int]]  # (host byte offset, size)
    ls_buffer: LSBuffer
    ls_offset: int = 0
    tag: int = 0

    def __post_init__(self) -> None:
        if not self.elements_spec:
            raise DMAError("DMA list must contain at least one element")
        if len(self.elements_spec) > constants.DMA_LIST_MAX_ELEMENTS:
            raise DMAError(
                f"DMA list of {len(self.elements_spec)} elements exceeds the "
                f"{constants.DMA_LIST_MAX_ELEMENTS}-element maximum"
            )
        if not 0 <= self.tag < 32:
            raise DMAError(f"MFC tag must be in [0, 32), got {self.tag}")
        cursor = self.ls_offset
        for off, size in self.elements_spec:
            validate_transfer_size(size)
            if off + size > self.host.nbytes:
                raise DMAError(
                    f"list element ({off}, {size}) overruns array "
                    f"{self.host.name!r} ({self.host.nbytes} B)"
                )
            validate_alignment(
                self.host.ea_of(off), self.ls_buffer.offset + cursor, size
            )
            cursor += size
        if cursor > self.ls_buffer.nbytes:
            raise DMAError(
                f"DMA list of {cursor - self.ls_offset} B overruns LS buffer "
                f"{self.ls_buffer.label!r} ({self.ls_buffer.nbytes} B)"
            )

    @property
    def total_bytes(self) -> int:
        return sum(size for _, size in self.elements_spec)

    @property
    def bank_signature(self) -> tuple[int, ...]:
        """Everything the MIC timing model reads from this command, as
        flat integers: the list length, then each element's effective
        address modulo the bank interleave and its size."""
        ea = self.host.ea
        flat = [len(self.elements_spec)]
        for off, size in self.elements_spec:
            flat += ((ea + off) % BANK_INTERLEAVE_BYTES, size)
        return tuple(flat)

    def ls_regions(self) -> tuple[tuple[int, int], ...]:
        """List elements fill the local store contiguously from
        ``ls_offset``, so the footprint is one dense range."""
        return (
            (self.ls_buffer.offset + self.ls_offset, self.total_bytes),
        )

    @property
    def peak_rate(self) -> bool:
        cursor = self.ls_offset
        ok = True
        for off, size in self.elements_spec:
            ok = ok and is_peak_rate(
                self.host.ea_of(off), self.ls_buffer.offset + cursor, size
            )
            cursor += size
        return ok

    def elements(self) -> list[DMAElement]:
        return [DMAElement(self.host.ea_of(off), size) for off, size in self.elements_spec]

    def execute(self) -> None:
        hview = self.host.bytes_view()
        lview = self.ls_buffer.as_bytes()
        cursor = self.ls_offset
        for off, size in self.elements_spec:
            if self.kind is DMAKind.GET:
                lview[cursor : cursor + size] = hview[off : off + size]
            else:
                hview[off : off + size] = lview[cursor : cursor + size]
            cursor += size


@dataclass
class LSToLSCommand:
    """An SPE-to-SPE local-store transfer.

    "DMA operations can transfer data between the local store and any
    resources connected via the on-chip interconnect (i.e. main memory,
    the LS of another SPE, or an I/O device)" (Sec. 2).  LS-to-LS moves
    ride the EIB only -- they never touch the 25.6 GB/s memory interface,
    which is why the architecture can sustain them at per-port rates.
    """

    kind: DMAKind              # GET: remote -> local; PUT: local -> remote
    remote: LSBuffer           # the other SPE's buffer
    remote_offset: int
    ls_buffer: LSBuffer        # the issuing SPE's buffer
    ls_offset: int
    size: int
    tag: int = 0

    def __post_init__(self) -> None:
        validate_transfer_size(self.size)
        if not 0 <= self.tag < 32:
            raise DMAError(f"MFC tag must be in [0, 32), got {self.tag}")
        for name, buf, off in (
            ("remote", self.remote, self.remote_offset),
            ("local", self.ls_buffer, self.ls_offset),
        ):
            if off + self.size > buf.nbytes:
                raise DMAError(
                    f"LS-to-LS transfer of {self.size} B at {name} offset "
                    f"{off} overruns buffer {buf.label!r} ({buf.nbytes} B)"
                )
        validate_alignment(
            self.remote.offset + self.remote_offset,
            self.ls_buffer.offset + self.ls_offset,
            self.size,
        )

    @property
    def total_bytes(self) -> int:
        return self.size

    def ls_regions(self) -> tuple[tuple[int, int], ...]:
        """The issuing SPE's local footprint (the remote store belongs
        to another track; its MFC sees nothing of this command)."""
        return ((self.ls_buffer.offset + self.ls_offset, self.size),)

    def elements(self) -> list[DMAElement]:
        """LS-to-LS transfers touch no main-memory banks."""
        return []

    def execute(self) -> None:
        rview = self.remote.as_bytes()[
            self.remote_offset : self.remote_offset + self.size
        ]
        lview = self.ls_buffer.as_bytes()[
            self.ls_offset : self.ls_offset + self.size
        ]
        if self.kind is DMAKind.GET:
            lview[:] = rview
        else:
            rview[:] = lview


AnyDMACommand = DMACommand | DMAListCommand | LSToLSCommand
