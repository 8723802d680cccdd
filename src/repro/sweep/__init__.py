"""Sweep3D numerics substrate: quadrature, geometry, kernels, solvers.

Implements the discrete-ordinates neutron-transport problem of the
paper's Sec. 3 from scratch: LQn angular quadrature, Pn scattering
moments, the diamond-difference cell solve with negative-flux fixups,
the MK/MMI pipelined tile sweep of Figure 2/3, and a serial reference
solver.
"""

from .flux import SolveResult, SweepTally, relative_change
from .geometry import Grid, hyperplanes, octant_direction, oriented_view
from .input import InputDeck, benchmark_deck, cube_deck, small_deck
from .kernel import CellResult, dd_line_block_solve, dd_solve, flops_per_cell
from .moments import MomentBasis, legendre_basis
from .pipelining import (
    BoundaryIO,
    TileSweeper,
    VacuumBoundary,
    angle_blocks,
    diagonal_lines,
    diagonal_sizes,
    k_blocks,
    num_diagonals,
)
from .deckfile import format_deck, load_deck, parse_deck, save_deck
from .dsa import DSAAccelerator, accelerated_solve
from .quadrature import (
    OCTANT_SIGNS,
    Ordinate,
    Quadrature,
    derive_class_weights,
    sweep3d_quadrature,
    weight_classes,
)
from .serial import SerialSweep3D
from .timestep import TimeDependentSweep3D, TimeStepResult, TransientResult
from . import verify

__all__ = [
    "BoundaryIO",
    "CellResult",
    "Grid",
    "InputDeck",
    "MomentBasis",
    "OCTANT_SIGNS",
    "Ordinate",
    "Quadrature",
    "SerialSweep3D",
    "SolveResult",
    "SweepTally",
    "TileSweeper",
    "TimeDependentSweep3D",
    "TimeStepResult",
    "TransientResult",
    "DSAAccelerator",
    "VacuumBoundary",
    "accelerated_solve",
    "angle_blocks",
    "benchmark_deck",
    "cube_deck",
    "dd_line_block_solve",
    "dd_solve",
    "derive_class_weights",
    "diagonal_lines",
    "diagonal_sizes",
    "flops_per_cell",
    "format_deck",
    "load_deck",
    "parse_deck",
    "save_deck",
    "weight_classes",
    "hyperplanes",
    "k_blocks",
    "legendre_basis",
    "num_diagonals",
    "octant_direction",
    "oriented_view",
    "relative_change",
    "small_deck",
    "sweep3d_quadrature",
    "verify",
]
