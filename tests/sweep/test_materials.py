"""Tests for heterogeneous materials (material_box)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CellSweep3D, MachineConfig
from repro.errors import ConfigurationError, InputDeckError
from repro.mpi import KBASweep3D
from repro.sweep import SerialSweep3D, small_deck, verify
from repro.sweep.deckfile import format_deck, parse_deck


@pytest.fixture(scope="module")
def shielded_deck():
    """A source region behind an absorbing shield slab."""
    return small_deck(n=6, sn=4, nm=2, iterations=2, mk=3).with_(
        source_box=(0, 2, 0, 6, 0, 6),
        source=10.0,
        material_box=(3, 5, 0, 6, 0, 6),
        material_sigma_t=8.0,
        material_scattering_ratio=0.1,
    )


class TestFields:
    def test_sigma_fields(self, shielded_deck):
        sig_t = shielded_deck.sigma_t_field()
        sig_s = shielded_deck.sigma_s_field()
        assert sig_t[0, 0, 0] == 1.0 and sig_t[4, 0, 0] == 8.0
        assert sig_s[0, 0, 0] == pytest.approx(0.5)
        assert sig_s[4, 0, 0] == pytest.approx(0.8)

    def test_heterogeneous_flag(self, shielded_deck):
        assert shielded_deck.heterogeneous
        assert not small_deck().heterogeneous
        same = small_deck(n=6, sn=4, nm=1, mk=3).with_(
            material_box=(0, 2, 0, 2, 0, 2),
            material_sigma_t=1.0,
            material_scattering_ratio=0.5,
        )
        assert not same.heterogeneous  # box present but identical material

    def test_validation(self):
        deck = small_deck(n=6, sn=4, nm=1, mk=3)
        with pytest.raises(InputDeckError):
            deck.with_(material_box=(0, 2, 0, 2, 0, 2), material_sigma_t=0.0)
        with pytest.raises(InputDeckError):
            deck.with_(
                material_box=(0, 2, 0, 2, 0, 2), material_scattering_ratio=1.0
            )
        with pytest.raises(InputDeckError, match="outside grid"):
            deck.with_(material_box=(0, 9, 0, 6, 0, 6))

    def test_tile_preserves_material_semantics(self, shielded_deck):
        # a tile fully inside the base material reverts to homogeneous
        from repro.sweep.geometry import Grid

        outside = shielded_deck.tile((0, 0, 0), Grid(2, 6, 6))
        assert outside.material_box is None
        assert not outside.heterogeneous
        inside = shielded_deck.tile((3, 0, 0), Grid(3, 6, 6))
        assert inside.material_box == (0, 2, 0, 6, 0, 6)


class TestPhysics:
    def test_shield_attenuates(self, shielded_deck):
        phi = SerialSweep3D(shielded_deck).solve().scalar_flux
        # flux just before the shield vs just behind it
        before = phi[2, 3, 3]
        behind = phi[5, 3, 3]
        assert behind < before / 5

    def test_balance_with_materials(self):
        deck = small_deck(n=6, sn=4, nm=1, iterations=1, fixup=False, mk=3).with_(
            scattering_ratio=0.0,
            material_box=(2, 4, 2, 4, 2, 4),
            material_sigma_t=5.0,
            material_scattering_ratio=0.0,
        )
        result = SerialSweep3D(deck).solve()
        assert verify.balance_residual(deck, result) < 1e-12

    def test_more_absorber_less_flux(self, shielded_deck):
        weak = shielded_deck.with_(material_sigma_t=2.0)
        strong = shielded_deck.with_(material_sigma_t=12.0)
        phi_weak = SerialSweep3D(weak).solve().total_scalar_flux()
        phi_strong = SerialSweep3D(strong).solve().total_scalar_flux()
        assert phi_strong < phi_weak


class TestEngineEquivalence:
    def test_all_engines_agree(self, shielded_deck):
        serial = SerialSweep3D(shielded_deck).solve()
        tile = SerialSweep3D(shielded_deck, method="tile").solve()
        kba = KBASweep3D(shielded_deck, P=2, Q=2).solve()
        cell = CellSweep3D(shielded_deck, MachineConfig()).solve()
        np.testing.assert_array_equal(serial.flux, tile.flux)
        np.testing.assert_array_equal(serial.flux, kba.flux)
        np.testing.assert_array_equal(serial.flux, cell.flux)

    def test_uneven_kba_partition_cuts_the_shield(self, shielded_deck):
        serial = SerialSweep3D(shielded_deck).solve()
        kba = KBASweep3D(shielded_deck, P=3, Q=2).solve()
        np.testing.assert_array_equal(serial.flux, kba.flux)

    def test_fixups_with_materials(self, shielded_deck):
        deck = shielded_deck.with_(fixup=True, material_sigma_t=12.0)
        serial = SerialSweep3D(deck).solve()
        cell = CellSweep3D(deck, MachineConfig(chunk_lines=3)).solve()
        assert serial.tally.fixups > 0
        assert cell.tally.fixups == serial.tally.fixups
        np.testing.assert_array_equal(serial.flux, cell.flux)

    def test_simd_executor_rejects_mixed_blocks(self, shielded_deck):
        """The SIMD kernel hoists sigma per call: heterogeneous lines
        must be rejected, not silently mis-solved."""
        from repro.core.spe_kernel import simd_execute_block

        args = line_args(np.random.default_rng(3),
                         np.array([[1.0, 1.0, 8.0, 8.0]]))
        with pytest.raises(ConfigurationError, match="single-material"):
            simd_execute_block(**args)

    def test_simd_executor_accepts_constant_array_sigma(self):
        from repro.core.spe_kernel import simd_execute_block
        from repro.sweep.kernel import dd_line_block_solve

        a = line_args(np.random.default_rng(4), np.full((1, 4), 2.0))
        b = {**a, "sigma_t": 2.0,
             "phi_j": a["phi_j"].copy(), "phi_k": a["phi_k"].copy()}
        psi_a, _, _ = simd_execute_block(**a)
        psi_b, _, _ = dd_line_block_solve(**b)
        np.testing.assert_array_equal(psi_a, psi_b)


def line_args(rng, sigma_t) -> dict:
    """Line-kernel arguments of one 4-cell line under ``sigma_t``."""
    return dict(
        source=rng.random((1, 4)), sigma_t=sigma_t, phi_i_in=rng.random(1),
        phi_j=rng.random((1, 4)), phi_k=rng.random((1, 4)),
        cx=np.array([0.5]), cy=np.array([0.5]), cz=np.array([0.5]),
    )


class TestDeckFile:
    def test_round_trip(self, shielded_deck):
        assert parse_deck(format_deck(shielded_deck)) == shielded_deck
