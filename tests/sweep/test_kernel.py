"""Tests for the diamond-difference kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SweepError
from repro.sweep.kernel import dd_line_block_solve, dd_solve, flops_per_cell

pos = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


class TestDDSolve:
    def test_balance_equation_holds(self):
        """sigma_t psi_c = S + sum_f c_f (in - out) must hold exactly."""
        res = dd_solve(1.0, 2.0, 0.5, 0.25, 0.75, 0.3, 0.4, 0.5)
        lhs = 2.0 * res.psi_c
        rhs = (
            1.0
            + 0.3 * (0.5 - res.out_x)
            + 0.4 * (0.25 - res.out_y)
            + 0.5 * (0.75 - res.out_z)
        )
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_diamond_closure(self):
        res = dd_solve(1.0, 1.0, 0.2, 0.4, 0.6, 0.5, 0.5, 0.5)
        assert res.out_x == pytest.approx(2 * res.psi_c - 0.2)
        assert res.out_y == pytest.approx(2 * res.psi_c - 0.4)
        assert res.out_z == pytest.approx(2 * res.psi_c - 0.6)

    def test_vectorised_over_shape(self):
        src = np.ones((3, 5))
        res = dd_solve(src, 1.0, src * 0, src * 0, src * 0, 0.5, 0.5, 0.5)
        assert res.psi_c.shape == (3, 5)
        np.testing.assert_allclose(res.psi_c, res.psi_c.flat[0])

    def test_negative_coefficient_rejected(self):
        with pytest.raises(SweepError):
            dd_solve(1.0, 1.0, 0.0, 0.0, 0.0, -0.5, 0.5, 0.5)

    @given(nonneg, pos, nonneg, nonneg, nonneg, pos, pos, pos)
    @settings(max_examples=200)
    def test_balance_property(self, s, sig, ix, iy, iz, cx, cy, cz):
        res = dd_solve(s, sig, ix, iy, iz, cx, cy, cz)
        lhs = sig * float(res.psi_c)
        rhs = (
            s
            + cx * (ix - float(res.out_x))
            + cy * (iy - float(res.out_y))
            + cz * (iz - float(res.out_z))
        )
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestFixup:
    def test_no_fixup_can_go_negative(self):
        # a strongly forward-peaked cell with one large inflow goes negative
        res = dd_solve(0.0, 10.0, 1.0, 0.0, 0.0, 0.1, 0.1, 0.1, fixup=False)
        assert res.out_x < 0
        assert res.fixups_applied == 0

    def test_fixup_restores_nonnegativity(self):
        res = dd_solve(0.0, 10.0, 1.0, 0.0, 0.0, 0.1, 0.1, 0.1, fixup=True)
        assert res.out_x >= 0
        assert res.out_y >= 0
        assert res.out_z >= 0
        assert res.psi_c >= 0
        assert res.fixups_applied == 1

    def test_fixup_preserves_balance(self):
        """Set-to-zero fixup re-solves the balance equation: with the fixed
        face's outflow pinned to zero, production still equals removal."""
        s, sig = 0.0, 10.0
        ix, iy, iz = 1.0, 0.0, 0.0
        cx, cy, cz = 0.1, 0.1, 0.1
        res = dd_solve(s, sig, ix, iy, iz, cx, cy, cz, fixup=True)
        lhs = sig * float(res.psi_c)
        rhs = (
            s
            + cx * (ix - float(res.out_x))
            + cy * (iy - float(res.out_y))
            + cz * (iz - float(res.out_z))
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_fixup_noop_when_positive(self):
        plain = dd_solve(1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, fixup=False)
        fixed = dd_solve(1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, fixup=True)
        assert fixed.fixups_applied == 0
        assert fixed.psi_c == pytest.approx(plain.psi_c)

    @given(nonneg, pos, nonneg, nonneg, nonneg, pos, pos, pos)
    @settings(max_examples=200)
    def test_fixup_nonnegativity_property(self, s, sig, ix, iy, iz, cx, cy, cz):
        """With non-negative source and inflows, the fixed-up solution has
        non-negative centre and outflows -- the physical invariant."""
        res = dd_solve(s, sig, ix, iy, iz, cx, cy, cz, fixup=True)
        assert float(res.psi_c) >= -1e-14
        assert float(res.out_x) >= -1e-14
        assert float(res.out_y) >= -1e-14
        assert float(res.out_z) >= -1e-14


class TestLineBlockSolve:
    def _line_reference(self, src, sig, pi, pj, pk, cx, cy, cz, fixup):
        """Scalar re-implementation: solve each line cell by cell."""
        L, it = src.shape
        psi = np.empty_like(src)
        pj, pk = pj.copy(), pk.copy()
        pi = pi.copy()
        fixups = 0
        for l in range(L):
            for i in range(it):
                res = dd_solve(
                    src[l, i], sig, pi[l], pj[l, i], pk[l, i],
                    cx[l], cy[l], cz[l], fixup=fixup,
                )
                psi[l, i] = res.psi_c
                pi[l] = res.out_x
                pj[l, i] = res.out_y
                pk[l, i] = res.out_z
                fixups += res.fixups_applied
        return psi, pi, pj, pk, fixups

    @pytest.mark.parametrize("fixup", [False, True])
    def test_matches_scalar_recursion(self, fixup, rng):
        L, it = 4, 7
        src = rng.random((L, it))
        pi = rng.random(L)
        pj = rng.random((L, it))
        pk = rng.random((L, it))
        cx, cy, cz = rng.random(3 * L).reshape(3, L) + 0.1
        ref_psi, ref_pi, ref_pj, ref_pk, ref_fixups = self._line_reference(
            src, 1.0, pi, pj, pk, cx, cy, cz, fixup
        )
        pj2, pk2 = pj.copy(), pk.copy()
        psi, pi_out, fixups = dd_line_block_solve(
            src, 1.0, pi, pj2, pk2, cx, cy, cz, fixup=fixup
        )
        np.testing.assert_allclose(psi, ref_psi, rtol=1e-14)
        np.testing.assert_allclose(pi_out, ref_pi, rtol=1e-14)
        np.testing.assert_allclose(pj2, ref_pj, rtol=1e-14)
        np.testing.assert_allclose(pk2, ref_pk, rtol=1e-14)
        assert fixups == ref_fixups

    def test_lazy_fixup_mixed_columns(self, rng):
        """The fused kernel enters the fixup path lazily -- only for
        I-columns where a negative outflow actually occurs.  With spikes
        driving *some* columns into fixups and others not, the result and
        the fixup count must exactly match the old-style path that calls
        :func:`dd_solve` on every column unconditionally."""
        L, it = 3, 6
        src = rng.random((L, it))
        pi = rng.random(L)
        pj = rng.random((L, it))
        pk = rng.random((L, it))
        # inflow spikes that drive specific cells' outflows negative
        pj[0, 2] = 40.0
        pk[2, 4] = 60.0
        cx, cy, cz = rng.random(3 * L).reshape(3, L) + 0.1
        sig = 1.0

        # old-style per-column reference: unconditional dd_solve per column
        ref_psi = np.empty_like(src)
        ref_pi = pi.copy()
        ref_pj, ref_pk = pj.copy(), pk.copy()
        col_fixups = []
        for i in range(it):
            res = dd_solve(
                src[:, i], sig, ref_pi, ref_pj[:, i], ref_pk[:, i],
                cx, cy, cz, fixup=True,
            )
            ref_psi[:, i] = res.psi_c
            ref_pi = res.out_x
            ref_pj[:, i] = res.out_y
            ref_pk[:, i] = res.out_z
            col_fixups.append(res.fixups_applied)
        # the scenario must actually be mixed for the test to mean anything
        assert any(f == 0 for f in col_fixups)
        assert any(f > 0 for f in col_fixups)

        pj2, pk2 = pj.copy(), pk.copy()
        psi, pi_out, fixups = dd_line_block_solve(
            src, sig, pi, pj2, pk2, cx, cy, cz, fixup=True
        )
        np.testing.assert_array_equal(psi, ref_psi)
        np.testing.assert_array_equal(pi_out, ref_pi)
        np.testing.assert_array_equal(pj2, ref_pj)
        np.testing.assert_array_equal(pk2, ref_pk)
        assert fixups == sum(col_fixups)

    def test_faces_updated_in_place(self, rng):
        src = rng.random((2, 5))
        pj = np.zeros((2, 5))
        pk = np.zeros((2, 5))
        dd_line_block_solve(
            src, 1.0, np.zeros(2), pj, pk,
            np.full(2, 0.5), np.full(2, 0.5), np.full(2, 0.5),
        )
        assert pj.any() and pk.any()

    def test_shape_validation(self):
        with pytest.raises(SweepError):
            dd_line_block_solve(
                np.ones((2, 4)), 1.0, np.zeros(2),
                np.zeros((2, 3)), np.zeros((2, 4)),
                np.ones(2), np.ones(2), np.ones(2),
            )
        with pytest.raises(SweepError):
            dd_line_block_solve(
                np.ones((2, 4)), 1.0, np.zeros(3),
                np.zeros((2, 4)), np.zeros((2, 4)),
                np.ones(2), np.ones(2), np.ones(2),
            )

    def test_fixup_count_propagates(self):
        src = np.zeros((1, 3))
        pi = np.array([5.0])
        pj = np.zeros((1, 3))
        pk = np.zeros((1, 3))
        c = np.array([0.05])
        _, _, fixups = dd_line_block_solve(
            src, 10.0, pi, pj, pk, c, c, c, fixup=True
        )
        assert fixups >= 1

    def test_nan_line_does_not_switch_the_fixup_off_for_its_batch(self):
        """The lazy gate used to be ``faces_out.min() < 0``: ``min()`` of
        a column holding a NaN is NaN and ``NaN < 0`` is false, so one
        NaN line silently disabled the fixup for every healthy line
        solved with it.  Each line's result is a function of its own
        operands, NaNs or not."""
        it = 4

        def solve(src):
            L = len(src)
            return dd_line_block_solve(
                np.array(src, dtype=float), 1.0, np.full(L, 5.0),
                np.zeros((L, it)), np.zeros((L, it)),
                np.ones(L), np.ones(L), np.ones(L), fixup=True,
            )

        alone_psi, alone_out, alone_fixups = solve([[0.0] * it])
        np.testing.assert_array_equal(alone_psi, [[1.0, 0.0, 0.0, 0.0]])
        assert alone_fixups == 1

        psi, out, fixups = solve([[np.nan] * it, [0.0] * it])
        assert np.isnan(psi[0]).all() and np.isnan(out[0])
        np.testing.assert_array_equal(psi[1:], alone_psi)
        np.testing.assert_array_equal(out[1:], alone_out)
        assert fixups == alone_fixups

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_independence_property(self, data):
        """A block solved whole equals any partition of it solved block
        by block -- psi, I-outflow, in-place J/K faces bit for bit, the
        fixup total, and the per-line counts of ``line_fixups`` against
        every line solved alone.  This is what lets the Cell solver
        hand the kernel a whole jkm diagonal and still report each
        four-line chunk's own results."""
        L = data.draw(st.integers(1, 12), label="L")
        it = data.draw(st.integers(1, 6), label="it")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # mixed-sign sources on some lines and occasional inflow spikes:
        # the fixup fires on about a third of the cells, on some lines
        # and columns and not on others
        src = rng.random((L, it)) * 2.0 - rng.choice(
            [0.0, 1.0], (L, 1), p=[0.6, 0.4]
        )
        pi = rng.random(L) * rng.choice([0.5, 10.0], L, p=[0.8, 0.2])
        pj = rng.random((L, it)) * rng.choice(
            [1.0, 20.0], (L, it), p=[0.9, 0.1]
        )
        pk = rng.random((L, it))
        cx, cy, cz = rng.random((3, L)) + 0.3
        if data.draw(st.booleans(), label="per-cell sigma_t"):
            sigma = rng.random((L, it)) * 8.0 + 0.1
            rows_of = lambda rows: sigma[rows]
        else:
            sigma = float(rng.random() * 8.0 + 0.1)
            rows_of = lambda rows: sigma

        def solve(rows):
            fj, fk = pj[rows].copy(), pk[rows].copy()
            line_fixups = np.zeros(fj.shape[0], dtype=np.intp)
            psi, out, fixups = dd_line_block_solve(
                src[rows], rows_of(rows), pi[rows], fj, fk,
                cx[rows], cy[rows], cz[rows],
                fixup=True, line_fixups=line_fixups,
            )
            assert fixups == line_fixups.sum()
            return psi, out, fj, fk, fixups, line_fixups

        whole = solve(slice(0, L))
        cuts = sorted(data.draw(
            st.sets(st.integers(1, L - 1), max_size=L - 1) if L > 1
            else st.just(set()), label="cuts",
        ))
        parts = [
            solve(slice(lo, hi)) for lo, hi in zip([0, *cuts], [*cuts, L])
        ]
        for k in range(4):
            np.testing.assert_array_equal(
                whole[k], np.concatenate([part[k] for part in parts])
            )
        assert whole[4] == sum(part[4] for part in parts)
        alone = [solve(slice(l, l + 1))[4] for l in range(L)]
        np.testing.assert_array_equal(whole[5], alone)


class TestFlopCount:
    def test_formula(self):
        assert flops_per_cell(1, False) == 17
        assert flops_per_cell(4, False) == 29
        assert flops_per_cell(4, True) == 29  # useful flops identical
