"""Matrix-memory LSTM blocks with stabilized exponential gating.

The cell keeps, per head, a matrix memory C [d_head, d_head], a normalizer
n [d_head], and a running stabilizer m (the max of the log-domain gate
accumulations). Raw gates are exponentiated only after subtracting m, so the
recurrence is overflow-free for arbitrarily large gate pre-activations while
remaining exactly equal to the naive form

    C_t = exp(f_t) C_{t-1} + exp(i_t) v_t k_t^T
    n_t = exp(f_t) n_{t-1} + exp(i_t) k_t
    h_t = C_t q_t / max(|n_t . q_t|, 1)

because every term in numerator and denominator carries the same exp(-m_t)
factor: the stabilized denominator floor is exp(-m_t), which is the naive
floor 1 rescaled. A final floor at the dtype's smallest positive normal
guards exp(-m_t) underflow; 0/0 cannot occur.

The scan over time is sequential by construction: each step needs the
previous stabilizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import NumericError
from .module import BlockDiagonal, DepthwiseConv1d, LayerNorm, Linear, Module
from .tensor import Tensor

QKV_BLOCK_SIZE = 4
CONV_WIDTH = 4


@dataclass
class MLSTMState:
    """Per-head recurrent state: C [H, dh, dh], n [H, dh, 1], m [H, 1, 1]."""

    C: Tensor
    n: Tensor
    m: Tensor

    @classmethod
    def zeros(cls, heads: int, d_head: int, dtype) -> "MLSTMState":
        return cls(
            C=Tensor(np.zeros((heads, d_head, d_head), dtype=dtype)),
            n=Tensor(np.zeros((heads, d_head, 1), dtype=dtype)),
            m=Tensor(np.zeros((heads, 1, 1), dtype=dtype)),
        )


def mlstm_cell_step(
    state: MLSTMState,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    i_raw: Tensor,
    f_raw: Tensor,
) -> tuple[MLSTMState, Tensor]:
    """One stabilized update. q/k/v are [H, dh, 1]; gates are [H, 1, 1].

    Returns the new state and h_t [H, dh, 1].
    """
    m_new = T.maximum(T.add(f_raw, state.m), i_raw)
    i_p = T.exp(T.sub(i_raw, m_new))
    f_p = T.exp(T.sub(T.add(f_raw, state.m), m_new))
    C = T.add(T.mul(f_p, state.C), T.mul(i_p, T.matmul(v, T.swapaxes(k, -1, -2))))
    n = T.add(T.mul(f_p, state.n), T.mul(i_p, k))
    num = T.matmul(C, q)  # [H, dh, 1]
    dot = T.abs_(T.matmul(T.swapaxes(n, -1, -2), q))  # [H, 1, 1]
    tiny = float(np.finfo(q.dtype).tiny)
    denom = T.maximum(dot, T.maximum(T.exp(T.neg(m_new)), tiny))
    h = T.div(num, denom)
    return MLSTMState(C=C, n=n, m=m_new), h


class MLSTMCore(Module):
    """Pre-normed mLSTM mixer (no outer residual).

    Pipeline: norm -> up-projection split into (cell branch, gate branch) ->
    causal depthwise conv + SiLU -> block-diagonal q/k/v (k pre-scaled by
    d_head^-1/2) and dense input/forget gate heads -> sequential stabilized
    scan -> per-head norm (gain only) -> learnable skip from the conv branch
    -> SiLU(gate branch) -> down-projection.
    """

    def __init__(self, d_model: int, rng, dtype, heads: int = 4, proj_factor: float = 2.0):
        d_inner = int(round(proj_factor * d_model))
        if d_inner % heads:
            raise ValueError(f"d_inner {d_inner} not divisible by {heads} heads")
        self.heads = heads
        self.d_inner = d_inner
        self.d_head = d_inner // heads
        self.norm = LayerNorm(d_model, dtype)
        self.up_proj = Linear(d_model, 2 * d_inner, rng, dtype, bias=False)
        self.conv = DepthwiseConv1d(d_inner, CONV_WIDTH, rng, dtype)
        self.q_proj = BlockDiagonal(d_inner, QKV_BLOCK_SIZE, rng, dtype)
        self.k_proj = BlockDiagonal(d_inner, QKV_BLOCK_SIZE, rng, dtype)
        self.v_proj = BlockDiagonal(d_inner, QKV_BLOCK_SIZE, rng, dtype)
        self.i_gate = Linear(d_inner, heads, rng, dtype)
        self.f_gate = Linear(d_inner, heads, rng, dtype)
        self.skip = Tensor(np.ones(d_inner, dtype=dtype), requires_grad=True)
        self.out_gain = Tensor(np.ones(d_inner, dtype=dtype), requires_grad=True)
        self.down_proj = Linear(d_inner, d_model, rng, dtype, bias=False)

    def _head_norm(self, h: Tensor, L: int) -> Tensor:
        # zero-mean unit-variance per head, then a per-feature gain
        hh = T.reshape(h, L, self.heads, self.d_head)
        mu = T.mean(hh, axis=-1, keepdims=True)
        hc = T.sub(hh, mu)
        var = T.mean(T.mul(hc, hc), axis=-1, keepdims=True)
        normed = T.mul(hc, T.pow_const(T.add(var, 1e-5), -0.5))
        return T.mul(T.reshape(normed, L, self.d_inner), self.out_gain)

    def __call__(self, x: Tensor) -> Tensor:
        L = x.shape[0]
        H, dh, di = self.heads, self.d_head, self.d_inner
        up = self.up_proj(self.norm(x))  # [L, 2*d_inner]
        z = up[:, di:]
        xc = T.silu(self.conv(up[:, :di], causal=True))
        q = T.transpose(T.reshape(self.q_proj(xc), L, H, dh), (1, 0, 2))  # [H, L, dh]
        k = T.transpose(T.reshape(T.mul(self.k_proj(xc), dh ** -0.5), L, H, dh), (1, 0, 2))
        v = T.transpose(T.reshape(self.v_proj(xc), L, H, dh), (1, 0, 2))
        ig = T.transpose(self.i_gate(xc), (1, 0))  # [H, L]
        fg = T.transpose(self.f_gate(xc), (1, 0))
        state = MLSTMState.zeros(H, dh, x.dtype)
        rows = []
        for t in range(L):
            state, h_t = mlstm_cell_step(
                state,
                T.reshape(q[:, t], H, dh, 1),
                T.reshape(k[:, t], H, dh, 1),
                T.reshape(v[:, t], H, dh, 1),
                T.reshape(ig[:, t], H, 1, 1),
                T.reshape(fg[:, t], H, 1, 1),
            )
            rows.append(T.reshape(T.transpose(h_t, (1, 0, 2)), 1, di))
        h = T.concat(rows, axis=0)  # [L, d_inner]
        if not np.all(np.isfinite(h.data)):
            raise NumericError("mlstm scan produced non-finite state")
        h = self._head_norm(h, L)
        h = T.add(h, T.mul(self.skip, xc))
        h = T.mul(h, T.silu(z))
        return self.down_proj(h)


class MLSTMBlock(Module):
    """Causal residual block: x + core(x)."""

    def __init__(self, d_model: int, rng, dtype, heads: int = 4, proj_factor: float = 2.0):
        self.core = MLSTMCore(d_model, rng, dtype, heads, proj_factor)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(x, self.core(x))


class CBiXLSTMBlock(Module):
    """Cascaded bidirectional pair: a forward block, then a backward block
    run on the reversed intermediate, reversed back:
    y = reverse(bwd(reverse(fwd(x))))."""

    def __init__(self, d_model: int, rng, dtype, heads: int = 4, proj_factor: float = 2.0):
        self.fwd = MLSTMBlock(d_model, rng, dtype, heads, proj_factor)
        self.bwd = MLSTMBlock(d_model, rng, dtype, heads, proj_factor)

    def __call__(self, x: Tensor) -> Tensor:
        return self.bwd(self.fwd(x)[::-1])[::-1]


class PBiXLSTMBlock(Module):
    """Parallel bidirectional pair with one shared residual:
    y = x + fwd_core(x) + reverse(bwd_core(reverse(x)))."""

    def __init__(self, d_model: int, rng, dtype, heads: int = 4, proj_factor: float = 2.0):
        self.fwd = MLSTMCore(d_model, rng, dtype, heads, proj_factor)
        self.bwd = MLSTMCore(d_model, rng, dtype, heads, proj_factor)

    def __call__(self, x: Tensor) -> Tensor:
        back = self.bwd(x[::-1])[::-1]
        return T.add(x, T.add(self.fwd(x), back))
