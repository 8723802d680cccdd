"""Tests for diffusion synthetic acceleration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ConvergenceError
from repro.sweep import SerialSweep3D, small_deck
from repro.sweep.dsa import DSAAccelerator, accelerated_solve


def thick_deck(n: int, sn: int):
    return small_deck(n=n, sn=sn, nm=1, iterations=500, mk=2).with_(
        scattering_ratio=0.95
    )


@pytest.fixture(scope="module")
def thick_scatterer():
    return thick_deck(6, 2)


class TestAccelerator:
    def test_zero_residual_zero_correction(self):
        deck = small_deck(n=5, sn=4, nm=1, mk=5)
        dsa = DSAAccelerator(deck)
        phi = np.random.default_rng(1).random(deck.grid.shape)
        np.testing.assert_allclose(dsa.correct(phi, phi), phi, atol=1e-14)

    def test_correction_sign(self):
        """A uniformly rising iterate means the converged flux is still
        higher: the correction must push upward."""
        deck = small_deck(n=5, sn=4, nm=1, mk=5).with_(scattering_ratio=0.8)
        dsa = DSAAccelerator(deck)
        old = np.zeros(deck.grid.shape)
        new = np.ones(deck.grid.shape)
        corrected = dsa.correct(old, new)
        assert (corrected >= new - 1e-14).all()
        assert corrected.mean() > new.mean()

    def test_shape_validated(self):
        deck = small_deck(n=5, sn=4, nm=1, mk=5)
        dsa = DSAAccelerator(deck)
        with pytest.raises(ConfigurationError):
            dsa.correct(np.zeros((4, 4, 4)), np.zeros((4, 4, 4)))

    def test_reflective_rejected(self):
        deck = small_deck(n=4, sn=2, nm=1, mk=2).with_(
            reflect_low=(True, False, False)
        )
        with pytest.raises(ConfigurationError):
            DSAAccelerator(deck)

    def test_operator_is_spd_like(self):
        """The diffusion solve of a non-negative source is non-negative
        (M-matrix property of the 7-point operator with our BCs)."""
        deck = small_deck(n=6, sn=4, nm=1, mk=3)
        dsa = DSAAccelerator(deck)
        rhs = np.zeros(deck.grid.shape)
        rhs[3, 3, 3] = 1.0
        f = dsa._lu.solve(rhs.ravel())
        assert (f > -1e-14).all()
        assert f.max() > 0


class TestAcceleratedIteration:
    def test_big_speedup_at_high_c(self, thick_scatterer):
        plain = SerialSweep3D(thick_scatterer.with_(epsilon=1e-6)).solve()
        _, iters, _ = accelerated_solve(thick_scatterer, epsilon=1e-6)
        assert iters < plain.iterations / 2.5

    def test_same_answer(self, thick_scatterer):
        plain = SerialSweep3D(thick_scatterer.with_(epsilon=1e-8)).solve()
        flux, _, _ = accelerated_solve(thick_scatterer, epsilon=1e-8)
        rel = np.max(np.abs(flux[0] - plain.flux[0])) / np.max(plain.flux[0])
        assert rel < 1e-5

    def test_spectral_radius_reduced(self, thick_scatterer):
        plain = SerialSweep3D(thick_scatterer.with_(epsilon=1e-6)).solve()
        _, _, hist = accelerated_solve(thick_scatterer, epsilon=1e-6)
        rho_plain = plain.history[-1] / plain.history[-2]
        rho_dsa = hist[-1] / hist[-2]
        assert rho_dsa < 0.75 * rho_plain

    def test_pure_absorber_one_sweepish(self):
        deck = small_deck(n=5, sn=4, nm=1, iterations=10, mk=5).with_(
            scattering_ratio=0.0
        )
        _, iters, _ = accelerated_solve(deck, epsilon=1e-10)
        assert iters <= 2  # nothing to accelerate: converges immediately

    def test_budget_exhaustion_raises(self, thick_scatterer):
        with pytest.raises(ConvergenceError):
            accelerated_solve(thick_scatterer, epsilon=1e-12, max_iterations=3)


@pytest.mark.slow
class TestAcceleratedIterationEightCubed(TestAcceleratedIteration):
    """The same acceleration claims on an 8^3 S4 scatterer (about 6x
    the sweeps' cost)."""

    @pytest.fixture(scope="class")
    def thick_scatterer(self):
        return thick_deck(8, 4)


def test_importing_the_package_does_not_import_scipy():
    """Only a DSA solve needs SciPy: every CLI run, pool worker and
    set-up probe imports ``repro`` and should not pay for it -- and the
    accelerated solve still works from such an interpreter."""
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    script = (
        "import sys\n"
        "import repro, repro.core.solver, repro.serve, repro.parallel.pool\n"
        "assert 'scipy' not in sys.modules, 'import repro pulled in scipy'\n"
        "from repro.sweep import accelerated_solve, small_deck\n"
        "deck = small_deck(n=4, sn=4, nm=1, iterations=50, mk=2)\n"
        "flux, iterations, _ = accelerated_solve(deck, epsilon=1e-6)\n"
        "assert 'scipy' in sys.modules and iterations < 50\n"
        "print(float(flux[0].sum()))\n"
    )
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0.0
