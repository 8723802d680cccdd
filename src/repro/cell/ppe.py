"""The Power Processing Element: control processor of the Cell BE.

The PPE runs the operating system, the MPI process-level code, and -- in
the paper's design -- the task-distribution loop that farms I-line chunks
to the SPEs (Sec. 6 identifies this centralized distribution as a
bottleneck, motivating the Figure 10 distributed-scheduler projection).

For compute, the PPE is a conventional dual-issue in-order 2-way SMT
PowerPC core; the paper's baseline numbers (22.3 s under GCC, 19.9 s under
XLC for the 50-cubed problem) are PPE-only runs.  Those appear in the
performance model as grind-time constants in
:mod:`repro.perf.processors`; this class models the PPE's *interaction*
costs: MMIO accesses to SPE resources and direct local-store pokes.
"""

from __future__ import annotations

from ..errors import CellError
from .spe import SPE

#: PPE MMIO store into an SPE's local store ("direct local store memory
#: poking from the PPE", the Figure-5 final synchronization protocol).
#: A posted store is far cheaper than a mailbox MMIO *read*.
PPE_LS_POKE_CYCLES: int = 120


class PPE:
    """The control processor's local-store access path."""

    def poke_ls(self, spe: SPE, offset: int, values: bytes) -> int:
        """Write ``values`` directly into an SPE local store over MMIO.

        "the Cell BE allows memory-mapped access to nearly all resources
        on the SPEs, including the entire local store" (Sec. 2).
        Returns the modelled cycle cost.
        """
        memory = spe.local_store._memory
        if offset < 0 or offset + len(values) > memory.size:
            raise CellError(
                f"LS poke of {len(values)} B at {offset:#x} outside the "
                f"{memory.size}-byte local store of SPE {spe.spe_id}"
            )
        import numpy as np

        memory[offset : offset + len(values)] = np.frombuffer(values, dtype=np.uint8)
        return PPE_LS_POKE_CYCLES
