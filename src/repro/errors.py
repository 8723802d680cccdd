"""Exception hierarchy for the repro package.

Every subsystem raises subclasses of :class:`ReproError` so that callers can
catch library failures without masking programming errors.  Hardware-model
violations (DMA alignment, local-store overflow, …) get their own types
because the tests assert on them specifically: the paper's porting steps
(Sec. 5) exist precisely to avoid these failure modes, and the simulator
must reject code that skips them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A solver / machine configuration is inconsistent or unsupported."""


class CellError(ReproError):
    """Base class for Cell BE hardware-model violations."""


class LocalStoreError(CellError):
    """Local-store allocation failure (overflow, bad alignment, bad free)."""


class DMAError(CellError):
    """Invalid DMA command (size, alignment, or list-length violation)."""


class MFCError(CellError):
    """Memory-flow-controller protocol violation (bad tag, queue misuse)."""


class MailboxError(CellError):
    """Mailbox protocol violation (read from empty, write to full mailbox)."""


class AtomicError(CellError):
    """Atomic-unit protocol violation (update without reservation, ...)."""


class PipelineError(CellError):
    """Malformed instruction stream fed to the SPU pipeline model."""


class SweepError(ReproError):
    """Base class for transport-solver errors."""


class QuadratureError(SweepError):
    """Unknown or inconsistent angular quadrature set."""


class InputDeckError(SweepError):
    """Invalid problem specification (grid, cross sections, iterations)."""


class ConvergenceError(SweepError):
    """Source iteration failed to converge within the allowed iterations."""


class MPIError(ReproError):
    """Base class for the simulated message-passing runtime."""


class CommunicatorError(MPIError):
    """Invalid rank, tag, or communicator operation."""


class DeadlockError(MPIError):
    """The cooperative rank scheduler detected that no rank can make progress."""


class SchedulerError(ReproError):
    """Work-distribution protocol violation in :mod:`repro.core.scheduler`."""


class ParallelError(ReproError):
    """Host-parallel engine failure (worker crash, timeout, bad state)."""


class ClusterError(ReproError):
    """Multi-host cluster transport failure (rendezvous, wire, rank death)."""
