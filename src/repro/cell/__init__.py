"""Cell Broadband Engine simulator substrate.

Functional + timing models of the parts of the chip a Sweep3D solve
drives: the SPU dual-issue pipeline and SIMD ISA, 256 KB local stores,
MFC DMA queues and DMA lists, the 16-bank memory controller, mailboxes
and PPE local-store pokes, and the atomic unit.  See DESIGN.md Sec. 2.1
for the module map.
"""

from . import constants
from .atomic import AtomicDomain
from .chip import CellBE, ChipTraffic
from .dma import (
    AddressSpace,
    DMACommand,
    DMAKind,
    DMAListCommand,
    HostArray,
    bank_of,
    is_peak_rate,
)
from .isa import Instruction, InstructionStream, OpClass, Pipe, SPUContext, Vec
from .local_store import LocalStore, LSBuffer
from .mailbox import Mailbox, MailboxPair
from .mfc import MFC
from .mic import MemoryTimingModel, TransferCost, bank_spread_factor
from .isa_compile import (
    CompiledProgram,
    ExecutionPlan,
    TraceContext,
    compiled_program,
    optimize_program,
)
from .pipeline import PipelineReport, simulate, simulate_cached
from .ppe import PPE
from .registers import PressureReport, analyze_pressure, kernel_code_bytes, kernel_pressure
from .schedule_view import format_schedule, occupancy_histogram
from .spe import SPE

__all__ = [
    "AddressSpace",
    "AtomicDomain",
    "CellBE",
    "ChipTraffic",
    "CompiledProgram",
    "ExecutionPlan",
    "DMACommand",
    "DMAKind",
    "DMAListCommand",
    "HostArray",
    "Instruction",
    "InstructionStream",
    "LSBuffer",
    "LocalStore",
    "MFC",
    "Mailbox",
    "MailboxPair",
    "MemoryTimingModel",
    "OpClass",
    "PPE",
    "Pipe",
    "PipelineReport",
    "PressureReport",
    "analyze_pressure",
    "format_schedule",
    "kernel_code_bytes",
    "kernel_pressure",
    "occupancy_histogram",
    "SPE",
    "SPUContext",
    "TraceContext",
    "TransferCost",
    "Vec",
    "bank_of",
    "bank_spread_factor",
    "compiled_program",
    "constants",
    "is_peak_rate",
    "optimize_program",
    "simulate",
    "simulate_cached",
]
