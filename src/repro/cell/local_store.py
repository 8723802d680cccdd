"""Software-managed 256 KB SPE local store.

Each SPE's local store holds *both* code and data and has no hardware
caching or prefetch: "No hardware data load prediction structures exist for
LS management, and each LS must be managed by software" (Sec. 2).  The
paper's data-streaming design exists because working sets must be staged
into this small memory explicitly by DMA.

This module models the LS as a real byte buffer with an explicit
allocator.  The allocator enforces the two facts the paper's porting steps
revolve around:

* capacity -- an allocation that does not fit raises
  :class:`~repro.errors.LocalStoreError` (this is how the tests prove the
  double-buffered working set of :mod:`repro.core.streaming` actually fits);
* alignment -- DMA targets must be 16-byte aligned, and 128-byte alignment
  is required for peak bandwidth (porting step 3 in Sec. 5).

Buffers hand out NumPy views into the backing storage so the functional
kernel reads and writes the very bytes a DMA engine would move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import LocalStoreError
from ..units import align_up
from . import constants


@dataclass
class LSBuffer:
    """A live allocation inside a local store."""

    offset: int
    nbytes: int
    label: str
    _memory: np.ndarray = field(repr=False)
    _freed: bool = field(default=False, repr=False)

    def _view(self) -> np.ndarray:
        if self._freed:
            raise LocalStoreError(f"use of freed LS buffer {self.label!r}")
        return self._memory[self.offset : self.offset + self.nbytes]

    def as_bytes(self) -> np.ndarray:
        """Raw ``uint8`` view of the allocation."""
        return self._view()

    def as_array(self, dtype: np.dtype | type, shape: tuple[int, ...] | None = None) -> np.ndarray:
        """Typed view of the allocation.

        The requested dtype/shape must tile the allocation exactly when a
        shape is given, or divide it exactly when only a dtype is given.
        """
        dt = np.dtype(dtype)
        view = self._view()
        if self.nbytes % dt.itemsize:
            raise LocalStoreError(
                f"buffer {self.label!r} of {self.nbytes} B is not a whole number "
                f"of {dt} items"
            )
        arr = view.view(dt)
        if shape is not None:
            expected = int(np.prod(shape)) * dt.itemsize
            if expected > self.nbytes:
                raise LocalStoreError(
                    f"shape {shape} of {dt} needs {expected} B but buffer "
                    f"{self.label!r} holds {self.nbytes} B"
                )
            arr = arr[: int(np.prod(shape))].reshape(shape)
        return arr

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


class LocalStore:
    """First-fit allocator over a real byte buffer.

    Free regions are kept sorted and coalesced so that the streaming layer
    can allocate/free per-chunk buffers indefinitely without fragmenting
    the modelled 256 KB.
    """

    def __init__(
        self,
        capacity: int = constants.LOCAL_STORE_BYTES,
        reserved_code_bytes: int = 0,
    ) -> None:
        """``reserved_code_bytes`` models the SPU program image, which
        shares the LS with data (Sec. 2: "to store both the instructions
        and data of an SPU program")."""
        if capacity <= 0:
            raise LocalStoreError(f"capacity must be positive, got {capacity}")
        if not 0 <= reserved_code_bytes <= capacity:
            raise LocalStoreError(
                f"reserved code size {reserved_code_bytes} outside [0, {capacity}]"
            )
        self.capacity = capacity
        self.reserved_code_bytes = reserved_code_bytes
        self._memory = np.zeros(capacity, dtype=np.uint8)
        #: sorted list of (offset, nbytes) free extents
        self._free: list[tuple[int, int]] = [
            (reserved_code_bytes, capacity - reserved_code_bytes)
        ]
        self._live: dict[int, LSBuffer] = {}

    # -- accounting ------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        """Total free capacity (may be fragmented)."""
        return sum(n for _, n in self._free)

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated to live buffers (excludes code)."""
        return sum(b.nbytes for b in self._live.values())

    @property
    def largest_free_extent(self) -> int:
        """Largest single allocation that could currently succeed."""
        return max((n for _, n in self._free), default=0)

    # -- allocation ------------------------------------------------------

    def alloc(
        self,
        nbytes: int,
        alignment: int = constants.DMA_QUANTUM,
        label: str = "buffer",
    ) -> LSBuffer:
        """Allocate ``nbytes`` at the given alignment (first fit).

        Raises :class:`LocalStoreError` when no free extent can satisfy the
        request -- the error message reports occupancy, because "working
        set does not fit in the local store" is the failure mode the
        paper's streaming design is built around.
        """
        if nbytes <= 0:
            raise LocalStoreError(f"allocation size must be positive, got {nbytes}")
        for idx, (off, length) in enumerate(self._free):
            start = align_up(off, alignment)
            pad = start - off
            if pad + nbytes <= length:
                # carve [start, start+nbytes) out of this extent
                del self._free[idx]
                if pad:
                    self._free.insert(idx, (off, pad))
                    idx += 1
                tail = length - pad - nbytes
                if tail:
                    self._free.insert(idx, (start + nbytes, tail))
                buf = LSBuffer(start, nbytes, label, self._memory)
                self._live[start] = buf
                return buf
        raise LocalStoreError(
            f"local store exhausted allocating {nbytes} B for {label!r}: "
            f"{self.used_bytes} B live + {self.reserved_code_bytes} B code of "
            f"{self.capacity} B total, largest free extent "
            f"{self.largest_free_extent} B"
        )

    def alloc_aligned_line(self, nbytes: int, label: str = "line") -> LSBuffer:
        """Allocate at 128-byte (cache-line) alignment for peak-rate DMA.

        This is porting step 3 of Sec. 5 ("cache-line (128 bytes) alignment
        was enforced for the start addresses of each chunk of memory to be
        loaded into the SPU").
        """
        return self.alloc(nbytes, alignment=constants.CACHE_LINE_BYTES, label=label)

    def free(self, buf: LSBuffer) -> None:
        """Release an allocation, coalescing adjacent free extents."""
        if buf._freed or self._live.get(buf.offset) is not buf:
            raise LocalStoreError(f"double free or foreign buffer {buf.label!r}")
        del self._live[buf.offset]
        buf._freed = True
        self._free.append((buf.offset, buf.nbytes))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for off, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((off, length))
        self._free = merged

    def memset_zero(self, buf: LSBuffer) -> None:
        """Zero a buffer (porting step 5: "a memset call was issued to zero
        out each big array")."""
        buf.as_bytes()[:] = 0
