"""Multi-head self-attention and the two attention-based blocks.

The transformer block is the original post-norm layout (MHSA -> add & norm
-> FFN -> add & norm). The conformer block is the macaron sandwich: two
half-step feed-forward modules around self-attention and a
GLU/depthwise-convolution module, all pre-normed, with layer norm standing
in for batch norm inside the convolution module so inference is
batch-independent. Causality (attention mask and conformer convolution) and
rotary embeddings are fixed at construction.
"""

from __future__ import annotations

from . import pe as PE
from . import tensor as T
from .module import DepthwiseConv1d, LayerNorm, Linear, Module
from .tensor import Tensor


class MultiHeadSelfAttention(Module):
    """Scaled dot-product attention over frames, H heads of size d_model/H."""

    def __init__(self, d_model: int, heads: int, rng, dtype, causal: bool = False, rope: bool = False):
        self.heads = heads
        self.d_head = d_model // heads
        self.causal = causal
        self.rope = rope
        self.wq = Linear(d_model, d_model, rng, dtype)
        self.wk = Linear(d_model, d_model, rng, dtype)
        self.wv = Linear(d_model, d_model, rng, dtype)
        self.wo = Linear(d_model, d_model, rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        """x [..., L, d_model] (leading axes are batch axes)."""
        L = x.shape[-2]
        heads = (-1, L, self.heads, self.d_head), (0, 2, 1, 3)  # -> [N, H, L, d_head], clips folded
        q = T.rearrange(self.wq(x), *heads)
        k = T.rearrange(self.wk(x), *heads)
        v = T.rearrange(self.wv(x), *heads)
        if self.rope:
            cos, sin = PE.rotary_tables(L, self.d_head, x.dtype)
            q = PE.apply_rotary(q, cos, sin)
            k = PE.apply_rotary(k, cos, sin)
        ctx = T.attention(q, k, v, self.causal)  # [N, H, L, d_head]
        return self.wo(T.rearrange(ctx, ctx.shape, (0, 2, 1, 3), x.shape))


class TransformerBlock(Module):
    def __init__(self, d_model: int, d_ff: int, heads: int, rng, dtype, causal: bool = False, rope: bool = False):
        self.attn = MultiHeadSelfAttention(d_model, heads, rng, dtype, causal, rope)
        self.norm1 = LayerNorm(d_model, dtype)
        self.ffn_in = Linear(d_model, d_ff, rng, dtype)
        self.ffn_out = Linear(d_ff, d_model, rng, dtype)
        self.norm2 = LayerNorm(d_model, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        x = self.norm1(T.add(x, self.attn(x)))
        h = self.ffn_out(T.relu(self.ffn_in(x)))
        return self.norm2(T.add(x, h))


class ConformerBlock(Module):
    def __init__(self, d_model: int, d_ff: int, heads: int, rng, dtype,
                 conv_kernel: int = 31, causal: bool = False, rope: bool = False):
        self.ffn1_norm = LayerNorm(d_model, dtype)
        self.ffn1_in = Linear(d_model, d_ff, rng, dtype)
        self.ffn1_out = Linear(d_ff, d_model, rng, dtype)
        self.attn_norm = LayerNorm(d_model, dtype)
        self.attn = MultiHeadSelfAttention(d_model, heads, rng, dtype, causal, rope)
        self.conv_norm = LayerNorm(d_model, dtype)
        self.conv_in = Linear(d_model, 2 * d_model, rng, dtype)  # GLU halves it back
        self.conv_dw = DepthwiseConv1d(d_model, conv_kernel, rng, dtype, causal)
        self.conv_mid_norm = LayerNorm(d_model, dtype)
        self.conv_out = Linear(d_model, d_model, rng, dtype)
        self.ffn2_norm = LayerNorm(d_model, dtype)
        self.ffn2_in = Linear(d_model, d_ff, rng, dtype)
        self.ffn2_out = Linear(d_ff, d_model, rng, dtype)
        self.final_norm = LayerNorm(d_model, dtype)
        self.d_model = d_model

    def _ffn(self, x: Tensor, norm: LayerNorm, lin_in: Linear, lin_out: Linear) -> Tensor:
        return lin_out(T.silu(lin_in(norm(x))))

    def _conv_module(self, x: Tensor) -> Tensor:
        d = self.d_model
        h = self.conv_in(self.conv_norm(x))  # [..., L, 2d]
        a = h[..., :d]
        b = h[..., d:]
        h = T.mul(a, T.sigmoid(b))  # GLU
        h = self.conv_dw(h)
        h = T.silu(self.conv_mid_norm(h))
        return self.conv_out(h)

    def __call__(self, x: Tensor) -> Tensor:
        x = T.add(x, T.mul(self._ffn(x, self.ffn1_norm, self.ffn1_in, self.ffn1_out), 0.5))
        x = T.add(x, self.attn(self.attn_norm(x)))
        x = T.add(x, self._conv_module(x))
        x = T.add(x, T.mul(self._ffn(x, self.ffn2_norm, self.ffn2_in, self.ffn2_out), 0.5))
        return self.final_norm(x)
