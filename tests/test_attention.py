"""Attention and block tests: masking, causality, equivariance, gradients."""

import numpy as np
import pytest

from tfse import tensor as T
from tfse.attention import ConformerBlock, MultiHeadSelfAttention, TransformerBlock
from tfse.tensor import Tensor, grad_check_params, no_grad

F64 = np.float64


def make_rng():
    return np.random.default_rng(7)


@pytest.fixture
def x16(rng):
    return Tensor(rng.normal(size=(16, 24)).astype(F64))


class TestMultiHeadSelfAttention:
    def test_output_shape(self, x16):
        mhsa = MultiHeadSelfAttention(24, 4, make_rng(), F64)
        assert mhsa(x16).shape == (16, 24)

    def test_causal_prefix_is_future_proof(self, rng, x16):
        mhsa = MultiHeadSelfAttention(24, 4, make_rng(), F64, causal=True)
        with no_grad():
            y1 = mhsa(x16).data.copy()
            x2 = Tensor(np.concatenate([x16.data[:9], rng.normal(size=(7, 24))]))
            y2 = mhsa(x2).data
        np.testing.assert_allclose(y1[:9], y2[:9], atol=1e-12)

    def test_noncausal_sees_the_future(self, rng, x16):
        mhsa = MultiHeadSelfAttention(24, 4, make_rng(), F64, causal=False)
        with no_grad():
            y1 = mhsa(x16).data.copy()
            x2 = Tensor(np.concatenate([x16.data[:9], rng.normal(size=(7, 24))]))
            y2 = mhsa(x2).data
        assert np.max(np.abs(y1[:9] - y2[:9])) > 1e-9

    def test_rope_changes_scores(self, x16):
        plain_mhsa = MultiHeadSelfAttention(24, 4, make_rng(), F64, rope=False)
        roped_mhsa = MultiHeadSelfAttention(24, 4, make_rng(), F64, rope=True)
        with no_grad():
            plain = plain_mhsa(x16).data
            roped = roped_mhsa(x16).data
        assert np.max(np.abs(plain - roped)) > 1e-9

    def test_gradients_match_finite_differences(self, rng):
        x = Tensor(rng.normal(size=(6, 8)).astype(F64))
        mhsa = MultiHeadSelfAttention(8, 2, make_rng(), F64, causal=True)

        def loss_fn():
            y = mhsa(x)
            return T.sum_(T.mul(y, y))

        errs = grad_check_params(loss_fn, mhsa.named_parameters(), h=1e-6)
        assert max(errs.values()) < 1e-3, errs

    @pytest.mark.parametrize("shape", [(16, 24), (2, 16, 24)], ids=["2d", "3d"])
    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "noncausal"])
    def test_head_h_reads_features_h_times_d_head_onward(self, rng, shape, causal):
        mhsa = MultiHeadSelfAttention(24, 4, make_rng(), F64, causal=causal)
        x = rng.normal(size=shape)
        q, k, v = (x @ lin.w.data + lin.b.data for lin in (mhsa.wq, mhsa.wk, mhsa.wv))
        ctx = np.empty_like(x)
        for h in range(mhsa.heads):  # one head at a time on its own run of features
            cols = slice(h * mhsa.d_head, (h + 1) * mhsa.d_head)
            scores = q[..., cols] @ k[..., cols].swapaxes(-1, -2) * (1.0 / np.sqrt(mhsa.d_head))
            if causal:
                scores = scores + np.triu(np.full(scores.shape[-2:], -np.inf), 1)
            p = np.exp(scores - scores.max(axis=-1, keepdims=True))
            ctx[..., cols] = (p / p.sum(axis=-1, keepdims=True)) @ v[..., cols]
        want = ctx @ mhsa.wo.w.data + mhsa.wo.b.data
        with no_grad():
            got = mhsa(Tensor(x)).data
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestTransformerBlock:
    def test_permuting_positions_permutes_outputs(self, rng):
        # no mask, no positional encoding: the block must be equivariant
        blk = TransformerBlock(24, 48, 4, make_rng(), F64, causal=False)
        x = rng.normal(size=(10, 24)).astype(F64)
        perm = rng.permutation(10)
        with no_grad():
            y = blk(Tensor(x)).data
            yp = blk(Tensor(x[perm])).data
        np.testing.assert_allclose(yp, y[perm], atol=1e-10)

    def test_causal_variant_is_not_equivariant(self, rng):
        blk = TransformerBlock(24, 48, 4, make_rng(), F64, causal=True)
        x = rng.normal(size=(10, 24)).astype(F64)
        perm = rng.permutation(10)
        with no_grad():
            y = blk(Tensor(x)).data
            yp = blk(Tensor(x[perm])).data
        assert np.max(np.abs(yp - y[perm])) > 1e-6

    def test_gradients(self, rng):
        blk = TransformerBlock(8, 16, 2, make_rng(), F64, causal=False)
        x = Tensor(rng.normal(size=(5, 8)).astype(F64))

        def loss_fn():
            y = blk(x)
            return T.sum_(T.mul(y, y))

        # h=1e-4: post-norm blocks leave tiny q/k grads at init, so smaller
        # steps drown in finite-difference rounding noise
        errs = grad_check_params(loss_fn, blk.named_parameters(), h=1e-4)
        assert max(errs.values()) < 1e-3, errs


class TestConformerBlock:
    def test_output_shape(self, x16):
        blk = ConformerBlock(24, 48, 4, make_rng(), F64, conv_kernel=7, causal=False)
        assert blk(x16).shape == (16, 24)

    def test_causal_prefix_stability(self, rng, x16):
        blk = ConformerBlock(24, 48, 4, make_rng(), F64, conv_kernel=7, causal=True)
        with no_grad():
            y1 = blk(x16).data.copy()
            x2 = Tensor(np.concatenate([x16.data[:9], rng.normal(size=(7, 24))]))
            y2 = blk(x2).data
        np.testing.assert_allclose(y1[:9], y2[:9], atol=1e-12)

    def test_noncausal_conv_reaches_backward_in_time(self, rng, x16):
        blk = ConformerBlock(24, 48, 4, make_rng(), F64, conv_kernel=7, causal=False)
        with no_grad():
            y1 = blk(x16).data.copy()
            x2 = Tensor(np.concatenate([x16.data[:9], rng.normal(size=(7, 24))]))
            y2 = blk(x2).data
        assert np.max(np.abs(y1[:9] - y2[:9])) > 1e-9

    def test_gradients(self, rng):
        blk = ConformerBlock(8, 16, 2, make_rng(), F64, conv_kernel=3, causal=True)
        x = Tensor(rng.normal(size=(5, 8)).astype(F64))

        def loss_fn():
            y = blk(x)
            return T.sum_(T.mul(y, y))

        errs = grad_check_params(loss_fn, blk.named_parameters(), h=1e-4)
        assert max(errs.values()) < 1e-3, errs

    def test_half_step_ffn_scaling(self, rng):
        # zeroing everything but the first feed-forward must leave x + 0.5*ffn(x)
        blk = ConformerBlock(8, 16, 2, make_rng(), F64, conv_kernel=3, causal=True)
        x = Tensor(rng.normal(size=(4, 8)).astype(F64))
        with no_grad():
            for name, p in blk.named_parameters():
                if not name.startswith("ffn1") and not name.startswith("final_norm"):
                    if name.endswith(".gain"):
                        p.data[:] = 1.0
                    else:
                        p.data[:] = 0.0
            y = blk(x).data
            h = blk._ffn(x, blk.ffn1_norm, blk.ffn1_in, blk.ffn1_out)
        manual = x.data + 0.5 * h.data
        mu = manual.mean(axis=-1, keepdims=True)
        var = manual.var(axis=-1, keepdims=True)
        np.testing.assert_allclose(y, (manual - mu) / np.sqrt(var + 1e-5), atol=1e-10)
