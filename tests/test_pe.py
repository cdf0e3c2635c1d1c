"""Positional encoding tests: fixed sinusoid table and rotary rotations."""

import numpy as np
import pytest

from tfse import pe
from tfse import tensor as T
from tfse.attention import MultiHeadSelfAttention
from tfse.config import ModelConfig
from tfse.errors import ConfigError
from tfse.tensor import Tensor, grad_check, grad_check_params


class TestSinusoidalTable:
    def test_shape_and_dtype(self):
        tab = pe.sinusoidal_table(10, 8, np.float32)
        assert tab.shape == (10, 8)
        assert tab.dtype == np.float32

    def test_matches_closed_form(self):
        tab = pe.sinusoidal_table(6, 8, np.float64)
        for pos in range(6):
            for i in range(4):
                angle = pos / 10000.0 ** (2 * i / 8)
                assert tab[pos, 2 * i] == pytest.approx(np.sin(angle), abs=1e-12)
                assert tab[pos, 2 * i + 1] == pytest.approx(np.cos(angle), abs=1e-12)

    def test_position_zero_row(self):
        tab = pe.sinusoidal_table(4, 6, np.float64)
        np.testing.assert_allclose(tab[0, 0::2], 0.0, atol=1e-15)
        np.testing.assert_allclose(tab[0, 1::2], 1.0, atol=1e-15)

    def test_regeneration_is_bit_identical(self):
        a = pe.sinusoidal_table(50, 32, np.float32)
        b = pe.sinusoidal_table(50, 32, np.float32)
        assert np.array_equal(a, b)

    def test_odd_width_rejected(self):  # by the config, before any table is built
        with pytest.raises(ConfigError, match=r"^pe: sin needs an even d_model, got 7$"):
            ModelConfig(backbone="transformer", pe="sin", d_model=7, heads=1).validate()

    def test_add_sinusoidal_offsets_input(self, rng):
        x = Tensor(rng.normal(size=(5, 8)).astype(np.float64))
        y = pe.add_sinusoidal(x)
        np.testing.assert_allclose(
            y.data - x.data, pe.sinusoidal_table(5, 8, np.float64), atol=1e-12
        )


class TestRotary:
    def test_tables_shape(self):
        cos, sin = pe.rotary_tables(12, 8, np.float64)
        assert cos.shape == (12, 4)
        assert sin.shape == (12, 4)

    def test_rotation_preserves_pair_norms(self, rng):
        x = Tensor(rng.normal(size=(2, 10, 8)).astype(np.float64))
        cos, sin = pe.rotary_tables(10, 8, np.float64)
        y = pe.apply_rotary(x, cos, sin)
        xp = x.data.reshape(2, 10, 4, 2)
        yp = y.data.reshape(2, 10, 4, 2)
        np.testing.assert_allclose(
            np.linalg.norm(yp, axis=-1), np.linalg.norm(xp, axis=-1), atol=1e-12
        )

    def test_position_zero_is_identity(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 8)).astype(np.float64))
        cos, sin = pe.rotary_tables(4, 8, np.float64)
        y = pe.apply_rotary(x, cos, sin)
        np.testing.assert_allclose(y.data[:, 0], x.data[:, 0], atol=1e-12)

    def test_relative_phase_property(self):
        # dot product of rotated queries/keys depends only on position offset
        d = 8
        q = np.random.default_rng(3).normal(size=d)
        k = np.random.default_rng(4).normal(size=d)
        cos, sin = pe.rotary_tables(32, d, np.float64)

        def dot_at(i, j):
            qi = pe.apply_rotary(Tensor(np.tile(q, (1, 32, 1))), cos, sin).data[0, i]
            kj = pe.apply_rotary(Tensor(np.tile(k, (1, 32, 1))), cos, sin).data[0, j]
            return float(qi @ kj)

        assert dot_at(5, 3) == pytest.approx(dot_at(12, 10), abs=1e-9)
        assert dot_at(9, 2) == pytest.approx(dot_at(17, 10), abs=1e-9)

    def test_odd_head_dim_rejected(self):  # by the config, before any table is built
        with pytest.raises(ConfigError, match=r"^pe: rope needs an even head dim, got 7$"):
            ModelConfig(backbone="transformer", pe="rope", d_model=14, heads=2).validate()

    def test_matches_the_rotation_formula(self, rng):
        # a rotation by -theta keeps norms and relative phases, but not this
        x = rng.normal(size=(2, 3, 10, 8))
        cos, sin = pe.rotary_tables(10, 8, np.float64)
        y = pe.apply_rotary(Tensor(x), cos, sin).data
        x0, x1 = x[..., 0::2], x[..., 1::2]
        np.testing.assert_array_equal(y[..., 0::2], x0 * cos - x1 * sin)
        np.testing.assert_array_equal(y[..., 1::2], x0 * sin + x1 * cos)

    def test_gradients_match_finite_differences(self, rng):
        cos, sin = pe.rotary_tables(5, 6, np.float64)
        w = Tensor(rng.normal(size=(2, 5, 6)))
        x = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
        assert grad_check(lambda t: T.sum_(T.mul(pe.apply_rotary(t, cos, sin), w)), x) < 1e-6
        mhsa = MultiHeadSelfAttention(8, 2, np.random.default_rng(7), np.float64, causal=True, rope=True)
        xa = Tensor(rng.normal(size=(6, 8)))

        def loss_fn():
            y = mhsa(xa)
            return T.sum_(T.mul(y, y))

        errs = grad_check_params(loss_fn, mhsa.named_parameters(), h=1e-6)
        assert max(errs.values()) < 1e-3, errs
