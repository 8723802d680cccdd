"""The diamond-difference Sn cell solve, with negative-flux fixups.

Sec. 3: "Each grid cell has 4 equations with 7 unknowns (6 faces plus 1
central).  Boundary conditions complete the system of equations.  The
solution is reached by a direct ordered solver, i.e., a sweep.  Three
known inflows allow the cell center and three outflows to be solved."

For direction cosines ``(mu, eta, xi)`` and cell sizes ``(dx, dy, dz)``
define ``cx = |mu|/dx`` etc.  The balance + diamond-difference closure
give the classic update::

    psi_c   = (S + 2 cx psi_in_x + 2 cy psi_in_y + 2 cz psi_in_z)
              / (sigma_t + 2 cx + 2 cy + 2 cz)
    psi_out = 2 psi_c - psi_in            (each face)

The *fixup* path (the paper's ``do_fixups`` branch, Figure 2 lines 12-14)
handles the diamond closure's known flaw: outflows can go negative.  The
standard set-to-zero fixup zeroes a negative outflow, replaces its
diamond relation by ``psi_out = 0`` (which changes that face's balance
coefficient from ``2 cx`` to ``cx``), re-solves, and repeats until all
outflows are non-negative -- at most three passes since faces are only
ever removed from the diamond set.

All functions are vectorised over arbitrary leading shapes: the
hyperplane reference solver passes gathered 1-D cell sets, the tile
sweeper passes ``(lines, it)`` blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SweepError


@dataclass(frozen=True)
class CellResult:
    """Outputs of one vectorised diamond-difference solve."""

    psi_c: np.ndarray
    out_x: np.ndarray
    out_y: np.ndarray
    out_z: np.ndarray
    #: number of cells whose solution needed at least one fixup pass
    fixups_applied: int


def dd_solve(
    source: np.ndarray,
    sigma_t: np.ndarray | float,
    in_x: np.ndarray,
    in_y: np.ndarray,
    in_z: np.ndarray,
    cx: np.ndarray | float,
    cy: np.ndarray | float,
    cz: np.ndarray | float,
    fixup: bool = False,
) -> CellResult:
    """Solve the Sn balance equation for a batch of cells.

    ``cx``/``cy``/``cz`` must be positive (use the magnitudes of the
    direction cosines; orientation is the sweeper's job).  Shapes
    broadcast against ``source``.
    """
    source = np.asarray(source, dtype=np.float64)
    cx = np.broadcast_to(np.asarray(cx, dtype=np.float64), source.shape)
    cy = np.broadcast_to(np.asarray(cy, dtype=np.float64), source.shape)
    cz = np.broadcast_to(np.asarray(cz, dtype=np.float64), source.shape)
    if np.any(cx < 0) or np.any(cy < 0) or np.any(cz < 0):
        raise SweepError("dd_solve expects non-negative face coefficients")

    denom = sigma_t + 2.0 * (cx + cy + cz)
    psi_c = (
        source + 2.0 * (cx * in_x + cy * in_y + cz * in_z)
    ) / denom
    out_x = 2.0 * psi_c - in_x
    out_y = 2.0 * psi_c - in_y
    out_z = 2.0 * psi_c - in_z

    if not fixup:
        return CellResult(psi_c, out_x, out_y, out_z, 0)
    psi_c, out_x, out_y, out_z, touched = _set_to_zero_fixup(
        source, sigma_t, in_x, in_y, in_z, cx, cy, cz, psi_c, out_x, out_y, out_z
    )
    return CellResult(psi_c, out_x, out_y, out_z, int(touched.sum()))


def _set_to_zero_fixup(
    source: np.ndarray,
    sigma_t: np.ndarray | float,
    in_x: np.ndarray,
    in_y: np.ndarray,
    in_z: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    cz: np.ndarray,
    psi_c: np.ndarray,
    out_x: np.ndarray,
    out_y: np.ndarray,
    out_z: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Set-to-zero fixup of a batch of plain diamond solutions; the last
    element returned is the boolean mask of the cells it touched.

    dd_x/dd_y/dd_z track which faces still use the diamond relation.
    Balance: sigma_t psi_c = S + sum_f c_f (in - out).  A diamond face
    (out = 2 psi_c - in) contributes 2c*in to the numerator and 2c to
    the denominator; a zeroed face (out = 0) contributes c*in to the
    numerator and nothing to the denominator.

    Cells never touched by a fixup keep their *plain* diamond values
    (not the all-diamond masked formula, which is mathematically equal
    but rounds differently): a cell's result is then a deterministic
    function of its own inputs, independent of which other cells share
    the batch -- the property the hyperplane/tile/SIMD equivalence
    tests rely on bit for bit.
    """
    plain = (psi_c, out_x, out_y, out_z)
    dd_x = np.ones(source.shape, dtype=bool)
    dd_y = np.ones(source.shape, dtype=bool)
    dd_z = np.ones(source.shape, dtype=bool)
    touched = np.zeros(source.shape, dtype=bool)
    for _ in range(3):
        bad = (out_x < 0) & dd_x
        bad_y = (out_y < 0) & dd_y
        bad_z = (out_z < 0) & dd_z
        any_bad = bad | bad_y | bad_z
        if not any_bad.any():
            break
        touched |= any_bad
        dd_x &= ~bad
        dd_y &= ~bad_y
        dd_z &= ~bad_z
        fx = np.where(dd_x, 2.0, 1.0)
        fy = np.where(dd_y, 2.0, 1.0)
        fz = np.where(dd_z, 2.0, 1.0)
        denom = (
            sigma_t
            + np.where(dd_x, 2.0, 0.0) * cx
            + np.where(dd_y, 2.0, 0.0) * cy
            + np.where(dd_z, 2.0, 0.0) * cz
        )
        psi_c = (
            source + fx * cx * in_x + fy * cy * in_y + fz * cz * in_z
        ) / denom
        out_x = np.where(dd_x, 2.0 * psi_c - in_x, 0.0)
        out_y = np.where(dd_y, 2.0 * psi_c - in_y, 0.0)
        out_z = np.where(dd_z, 2.0 * psi_c - in_z, 0.0)
        # merge inside the loop so even the *mask checks* of later passes
        # see plain values for untouched cells (full batch independence).
        psi_c = np.where(touched, psi_c, plain[0])
        out_x = np.where(touched, out_x, plain[1])
        out_y = np.where(touched, out_y, plain[2])
        out_z = np.where(touched, out_z, plain[3])
    return psi_c, out_x, out_y, out_z, touched


def line_block_shape(
    source: np.ndarray,
    phi_i_in: np.ndarray,
    phi_j: np.ndarray,
    phi_k: np.ndarray,
) -> tuple[int, int]:
    """``(lines, it)`` of a line kernel's operands.

    Every line kernel -- :func:`dd_line_block_solve` and the ISA kernels
    of :mod:`repro.core.spe_kernel`, which share its signature -- checks
    its arguments here: the face buffers must be ``(lines, it)`` like
    ``source`` and the I-inflows ``(lines,)``, else
    :class:`~repro.errors.SweepError`.
    """
    nlines, it = np.shape(source)
    if np.shape(phi_j) != (nlines, it) or np.shape(phi_k) != (nlines, it):
        raise SweepError(
            f"face buffers must be {(nlines, it)}, "
            f"got {np.shape(phi_j)} / {np.shape(phi_k)}"
        )
    if np.shape(phi_i_in) != (nlines,):
        raise SweepError(
            f"phi_i_in must be ({nlines},), got {np.shape(phi_i_in)}"
        )
    return nlines, it


def dd_line_block_solve(
    source: np.ndarray,
    sigma_t: np.ndarray | float,
    phi_i_in: np.ndarray,
    phi_j: np.ndarray,
    phi_k: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    cz: np.ndarray,
    fixup: bool = False,
    *,
    line_fixups: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Solve a block of independent I-lines (the paper's inner work unit).

    This is the "stride-1 line-recursion in the I-direction" of Sec. 3,
    vectorised across the block: cell ``i`` of every line is solved
    simultaneously, with the I-recursion carried sequentially.  Every
    line's result is a function of that line's operands alone -- NaNs
    included -- so a block may be any subset or superset of another (a
    four-line chunk, a whole jkm diagonal) and each line still gets the
    same bits.

    Parameters
    ----------
    source, sigma_t:
        ``(L, it)`` arrays (``sigma_t`` may be scalar).
    phi_i_in:
        ``(L,)`` I-inflows (west face of each line's first cell).
    phi_j, phi_k:
        ``(L, it)`` J- and K-inflow faces; **updated in place** to the
        outflow faces, exactly how Sweep3D reuses its ``phij``/``phik``
        buffers.
    cx, cy, cz:
        ``(L,)`` per-line face coefficients (lines may belong to
        different angles under MMI pipelining).
    line_fixups:
        optional ``(L,)`` integer array; the number of cells fixed up in
        each line is **added** to it, so a caller that batches several
        work units into one block can split the count again.

    Returns
    -------
    (psi_c, phi_i_out, fixups):
        ``psi_c`` is ``(L, it)`` (the paper's ``Phi[i]`` scratch, fed to
        the flux-moment accumulation); ``phi_i_out`` is ``(L,)``.
    """
    nlines, it = line_block_shape(source, phi_i_in, phi_j, phi_k)
    source = np.asarray(source, dtype=np.float64)
    psi_c = np.empty_like(source)
    phi_i = np.array(phi_i_in, dtype=np.float64, copy=True)

    # The fused fast path: everything :func:`dd_solve` would redo per
    # I-column -- dtype coercion, coefficient broadcasting, the
    # non-negativity check, and the constant part of the denominator --
    # is hoisted out of the i-loop, and the diamond-difference update is
    # inlined.  Every floating-point expression below is *literally* the
    # one in :func:`dd_solve` (only loop-invariant subexpressions are
    # hoisted, which is bitwise neutral), so results stay bit-identical
    # to the per-column reference path.
    cx = np.broadcast_to(np.asarray(cx, dtype=np.float64), (nlines,))
    cy = np.broadcast_to(np.asarray(cy, dtype=np.float64), (nlines,))
    cz = np.broadcast_to(np.asarray(cz, dtype=np.float64), (nlines,))
    if np.any(cx < 0) or np.any(cy < 0) or np.any(cz < 0):
        raise SweepError("dd_solve expects non-negative face coefficients")
    sigma_arr = np.asarray(sigma_t, dtype=np.float64)
    sigma_col = np.broadcast_to(sigma_arr, source.shape)
    two_csum = 2.0 * (cx + cy + cz)
    # uniform cross section: the denominator is the same for every column
    denom_const = sigma_arr + two_csum if sigma_arr.ndim == 0 else None
    check_fixup = fixup and nlines > 0

    # Faces are stacked on a leading axis so each column is a handful of
    # whole-array operations: faces_in[0] = I-inflow, [1] = J, [2] = K.
    # ``coef * faces_in`` gives the three per-face products in one
    # multiply and ``2.0 * psi - faces_in`` the three outflows in one
    # subtract; per element every operation (and its order) is exactly
    # dd_solve's, so the results remain bit-identical.
    coef = np.empty((3, nlines))
    coef[0] = cx
    coef[1] = cy
    coef[2] = cz
    faces_in = np.empty((3, nlines))

    fixups = 0
    for i in range(it):
        src_i = source[:, i]
        faces_in[0] = phi_i
        faces_in[1] = phi_j[:, i]
        faces_in[2] = phi_k[:, i]
        prod = coef * faces_in
        csum = (prod[0] + prod[1]) + prod[2]
        denom = denom_const if denom_const is not None else sigma_col[:, i] + two_csum
        psi = (src_i + 2.0 * csum) / denom
        faces_out = 2.0 * psi - faces_in
        # lazy fixup, per line: the whole-column test is one reduction
        # (written ``not >=`` so a NaN anywhere only sends the column to
        # the per-line mask, where ``NaN < 0`` is false for that line
        # alone); the fixup then runs on the offending lines only, which
        # is bit-identical to running it on all of them because
        # _set_to_zero_fixup is independent of its batch.
        if check_fixup and not faces_out.min() >= 0.0:
            rows = np.flatnonzero((faces_out < 0.0).any(axis=0))
            if rows.size:
                psi[rows], out_x, out_y, out_z, touched = _set_to_zero_fixup(
                    src_i[rows], sigma_col[rows, i],
                    faces_in[0, rows], faces_in[1, rows], faces_in[2, rows],
                    cx[rows], cy[rows], cz[rows],
                    psi[rows], faces_out[0, rows], faces_out[1, rows],
                    faces_out[2, rows],
                )
                faces_out[0, rows] = out_x
                faces_out[1, rows] = out_y
                faces_out[2, rows] = out_z
                fixups += int(touched.sum())
                if line_fixups is not None:
                    line_fixups[rows] += touched
        psi_c[:, i] = psi
        phi_i = faces_out[0]
        phi_j[:, i] = faces_out[1]
        phi_k[:, i] = faces_out[2]
    return psi_c, phi_i, fixups


def flops_per_cell(nm: int, fixup: bool) -> int:
    """Useful floating-point operations per cell visit.

    Counts the operations of :func:`dd_solve` plus the source evaluation
    and flux-moment accumulation the full kernel performs per cell, the
    way the paper counts its "216 Flops" (fixup bookkeeping -- compares,
    selects, recomputation -- is overhead, not useful flops, which is
    why the fixup-on kernel is *slower* at the same flop count):

    * source from moments:       ``nm`` fused multiply-adds = ``2 nm``
    * numerator:                 3 fmas = 6
    * centre flux:               1 multiply (by precomputed 1/denom)
    * outflows:                  3 fmas (``2 psi_c - in``) = 6
    * flux-moment accumulation:  ``nm`` fmas = ``2 nm``
    """
    del fixup  # same useful-flop count; kept in the signature for intent
    return 4 * nm + 13
