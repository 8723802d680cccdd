"""Cell Broadband Engine simulator substrate.

Functional + timing models of the hardware the paper tunes for: the SPU
dual-issue pipeline and SIMD ISA, 256 KB local stores, MFC DMA queues and
DMA lists, the EIB, the 16-bank memory controller, mailboxes, signals and
the atomic unit.  See DESIGN.md Sec. 2.1 for the module map.
"""

from . import constants
from .atomic import AtomicDomain
from .chip import CellBE, ChipTraffic
from .clock import CycleBudget, CycleClock
from .dma import (
    AddressSpace,
    DMACommand,
    DMAKind,
    DMAListCommand,
    HostArray,
    LSToLSCommand,
    bank_of,
    is_peak_rate,
)
from .eib import EIBModel
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
from .signals import SignalRegister, SignalUnit
from .spe import SPE, SPU

__all__ = [
    "AddressSpace",
    "AtomicDomain",
    "CellBE",
    "ChipTraffic",
    "CompiledProgram",
    "ExecutionPlan",
    "CycleBudget",
    "CycleClock",
    "DMACommand",
    "DMAKind",
    "DMAListCommand",
    "EIBModel",
    "HostArray",
    "Instruction",
    "InstructionStream",
    "LSBuffer",
    "LSToLSCommand",
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
    "SignalRegister",
    "SignalUnit",
    "SPE",
    "SPU",
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
