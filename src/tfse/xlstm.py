"""Matrix-memory LSTM mixer with stabilized exponential gating. Blocks wrap
MLSTMCore: module.Residual (xlstm), module.Bidirectional (p-bixlstm), or two
Residual blocks cascaded in CBiXLSTMBlock (c-bixlstm).

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

mlstm_cell_step is one step of that recurrence built from graph primitives and
is the reference. mlstm_branch runs it as one graph node from the conv output,
chunkwise-parallel (the parallel mLSTM form of Beck et al., xLSTM, arXiv
2405.04517, in the chunked layout of TFLA, arXiv 2503.14376): it projects q, k
and v a chunk at a time and rebuilds them for its backward (Chen et al., arXiv
1604.06174). Frames are cut into fixed chunks of CHUNK frames from t = 0.
Within a chunk, with b the cumulative sum of the forget pre-activations and
(C, n, m) the state carried in from the previous chunk, h_t reads the
log-weights b_t - b_j + i_j of frames j <= t and b_t + m of the carried state;
their max is the cell's m_t, so the readout is three matrix products
(Q K^T * W) V, Q C^T and Q n, each stabilized by the same exp(-m_t). The state
at the chunk's end is carried on: chunk 0 enters none, so it skips Q C^T and
Q n, and the last chunk passes none on, except in the windows of a clip
(module.carrying), which carry it on. A weight below tiny / eps of the dtype
is flushed to exactly 0 before the exp: when the forget pre-activations drift
positive, m climbs (into the hundreds on 40 s of audio) and a chunk's small
weights would otherwise turn subnormal, which slows every product they enter.
The backward runs over the chunks in reverse, carrying dC and dn (none out of
the last chunk or chunk 0) and recomputing each chunk's terms (the last one's
weights are kept) from its start; m is a constant there: h does not read it.
Causal prefixes are bit-exact: the chunk grid is fixed, and frames after t
enter h_t only through weights that are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import QKV_BLOCK_SIZE
from .module import BlockDiagonal, DepthwiseConv1d, LayerNorm, Linear, Module, Residual, carried
from .tensor import Tensor

CONV_WIDTH = 4
CHUNK = 64  # frames per chunk of the mLSTM scan; the grid starts at t = 0


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
    H, dh, _ = k.shape
    C = T.add(T.mul(f_p, state.C), T.mul(i_p, T.matmul(v, T.rearrange(k, (H, 1, dh)))))
    n = T.add(T.mul(f_p, state.n), T.mul(i_p, k))
    num = T.matmul(C, q)  # [H, dh, 1]
    dot = T.abs_(T.matmul(T.rearrange(n, (H, 1, dh)), q))  # [H, 1, 1]
    tiny = float(np.finfo(q.dtype).tiny)
    denom = T.maximum(dot, T.maximum(T.exp(T.neg(m_new)), tiny))
    h = T.div(num, denom)
    return MLSTMState(C=C, n=n, m=m_new), h


def _chunk_weights(i_raw, f_raw, m_prev, mask):
    """Stabilized weights of one chunk. i_raw, f_raw [H, K]; m_prev [H]; mask the -inf upper triangle, >= K x K.

    Returns W [H, K, K] (W[t, j] = exp(b_t - b_j + i_j - m_t) for j <= t,
    else 0), a [H, K] (the carried state's weight exp(b_t + m_prev - m_t))
    and m [H, K], the cell's stabilizer at each frame. A weight below
    tiny / eps of the dtype is set to exactly 0: next to the weight 1 that
    every row holds it is below rounding for terms of comparable size.
    """
    K = i_raw.shape[-1]
    b = np.cumsum(f_raw, axis=-1)
    log_w = b[:, :, None] - b[:, None, :] + i_raw[:, None, :]
    log_w += mask[:K, :K]
    carry = b + m_prev[:, None]
    m = np.maximum(carry, log_w.max(axis=-1))
    log_w -= m[:, :, None]
    carry -= m
    fi = np.finfo(i_raw.dtype)
    floor = np.log(fi.tiny / fi.eps)
    log_w[log_w < floor] = -np.inf
    carry[carry < floor] = -np.inf
    return np.exp(log_w, out=log_w), np.exp(carry, out=carry), m


def _chunk_terms(q, k, weights, C, n):
    """The readout terms of one chunk with weights (W, a, m) (_chunk_weights),
    entered with state (C, n): the scores S = q k^T and P = S * W, the
    carried-state readouts q C^T and q . n, the normalizer n_t . q_t and the
    denominator max(|n_t . q_t|, floor). Chunk 0 enters no state: C, n and
    their readouts are None."""
    W, a, m = weights
    S = q @ np.ascontiguousarray(k.swapaxes(-1, -2))  # OpenBLAS is 2-3x slower on the transposed view here
    P = S * W
    qC = qn = None
    dot = P.sum(axis=-1)
    if C is not None:
        qC, qn = q @ C.swapaxes(-1, -2), (q @ n[:, :, None])[:, :, 0]
        dot += a * qn
    with np.errstate(over="ignore"):  # exp(-m) may overflow to inf; then h -> 0, its limit
        floor = np.maximum(np.exp(-m), np.finfo(q.dtype).tiny)
    return S, P, qC, qn, dot, np.maximum(np.abs(dot), floor)


def _scan(chunk_qkv, ig, fg, h, record, state=None):
    """The chunk loops of mlstm_branch: fill h [H, L, dh] from the gates [H, L] and chunk_qkv(sl), the
    q, k and v [H, K, dh] of frames sl, from the (C, n, m) a carry slot (module.carried) holds, if any,
    leaving the last chunk's end state in it. Return the reverse loop scan_grad(g) -> (dq, dk, dv, di,
    df), which forms each chunk's q, k and v by chunk_qkv(sl) again and reads the chunk starts kept when record."""
    H, L = ig.shape
    chunks = [slice(s, min(s + CHUNK, L)) for s in range(0, L, CHUNK)]
    mask = np.triu(np.full((min(CHUNK, L),) * 2, -np.inf, dtype=ig.dtype), 1)
    starts = [] if record else None  # (C, n, m) entering each chunk
    C, n, m = state if state else (None, None, np.zeros(H, dtype=h.dtype))
    for sl in chunks:
        if starts is not None:
            starts.append((C, n, m))
        qc, kc, vc = chunk_qkv(sl)
        W, a, mc = last = _chunk_weights(ig[:, sl], fg[:, sl], m, mask)
        _, P, qC, _, _, denom = _chunk_terms(qc, kc, last, C, n)
        h[:, sl] = (P @ vc if C is None else P @ vc + a[:, :, None] * qC) / denom[:, :, None]
        if sl.stop == L and state is None:  # the last chunk passes no state on; the backward starts from its weights
            break
        w, a_end = W[:, -1], a[:, -1]
        C_in, n_in = (vc * w[:, :, None]).swapaxes(-1, -2) @ kc, (w[:, None, :] @ kc)[:, 0]
        C, n = (C_in, n_in) if C is None else (a_end[:, None, None] * C + C_in, a_end[:, None] * n + n_in)
        m = mc[:, -1]
    if state is not None:
        state[:] = C, n, m

    def scan_grad(g):
        dq, dk, dv = np.empty_like(h), np.empty_like(h), np.empty_like(h)
        di, df = np.empty_like(ig), np.empty_like(fg)
        dC = dn = None  # the last chunk passes no state on
        for sl, (C0, n0, m0) in zip(reversed(chunks), reversed(starts)):
            (qc, kc, vc), gc = chunk_qkv(sl), g[:, sl]
            W, a, _ = weights = last if dC is None else _chunk_weights(ig[:, sl], fg[:, sl], m0, mask)
            S, P, qC, qn, dot, denom = _chunk_terms(qc, kc, weights, C0, n0)
            d_num = gc / denom[:, :, None]
            # h = num / max(|dot|, floor); the floor is inactive where denom == |dot|,
            # and ties go to |dot| as in T.maximum
            d_dot = np.where(
                np.abs(dot) == denom, -np.sign(dot) * (gc * h[:, sl]).sum(axis=-1) / denom, 0.0
            )
            w, a_end = W[:, -1], a[:, -1]
            # the in-chunk weights W: the readout's scores, and row K-1 again for the end state
            dP = d_num @ vc.swapaxes(-1, -2) + d_dot[:, :, None]
            dW, dS = dP * S, dP * W
            dq[:, sl], dk[:, sl], dv[:, sl] = dS @ kc, dS.swapaxes(-1, -2) @ qc, P.swapaxes(-1, -2) @ d_num
            if dC is not None:
                vdC = vc @ dC
                dW[:, -1] += (vdC * kc).sum(axis=-1) + (kc @ dn[:, :, None])[:, :, 0]
                dk[:, sl] += w[:, :, None] * (vdC + dn[:, None, :])
                dv[:, sl] += w[:, :, None] * (kc @ dC.swapaxes(-1, -2))
            # log-weights: W[t, j] = exp(b_t - b_j + i_j - m_t), a_t = exp(b_t + m0 - m_t)
            d_log = dW * W
            di[:, sl] = d_log.sum(axis=-2)
            db = d_log.sum(axis=-1) - di[:, sl]
            if C0 is not None:  # the carried-state weights a, through the readout and the end state
                ad_num, ad_dot = a[:, :, None] * d_num, a * d_dot
                dq[:, sl] = dq[:, sl] + ad_num @ C0 + ad_dot[:, :, None] * n0[:, None, :]
                da = (d_num * qC).sum(axis=-1) + d_dot * qn
                if dC is not None:
                    da[:, -1] += (dC * C0).sum(axis=(-2, -1)) + (dn * n0).sum(axis=-1)
                db += da * a
                dC_in, dn_in = ad_num.swapaxes(-1, -2) @ qc, (ad_dot[:, None, :] @ qc)[:, 0]
                dC, dn = (dC_in, dn_in) if dC is None else (a_end[:, None, None] * dC + dC_in, a_end[:, None] * dn + dn_in)
            df[:, sl] = np.cumsum(db[:, ::-1], axis=-1)[:, ::-1]
        return dq, dk, dv, di, df

    return scan_grad


def project_heads(x: np.ndarray, w: np.ndarray, heads: int) -> np.ndarray:
    """Block-diagonal map of x [..., L, d_inner] by w [n_blocks, bs, bs] into
    the scan's heads-first [N * H, L, d_head] (clips folded into heads): a
    batched matmul from a strided view of x into one of the output."""
    (nb, bs, _), L = w.shape, x.shape[-2]
    J, N = nb // heads, x.size // (L * nb * bs)
    out = np.empty((N * heads, L, J * bs), dtype=np.result_type(x, w))
    np.matmul(x.reshape(N, L, heads, J, bs).transpose(2, 3, 0, 1, 4), w.reshape(heads, J, 1, bs, bs),  # [H, J, N, L, bs]
              out=out.reshape(N, heads, L, J, bs).transpose(1, 3, 0, 2, 4))
    return out


def project_qkv(x: np.ndarray, ws, heads: int, k_scale) -> tuple[np.ndarray, ...]:
    """q, k and v of frames x by the block weights ws = (wq, wk, wv), k scaled."""
    q, k, v = (project_heads(x, w, heads) for w in ws)
    k *= k_scale
    return q, k, v


def mlstm_branch(xc: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, i_raw: Tensor, f_raw: Tensor, heads: int,
                 state: list | None = None) -> Tensor:
    """The mlstm_cell_step chain up to summation order, h [N * H, L, dh], on the gates [N * H, L] and on
    q, k and v, the block maps of the conv output xc [..., L, d_inner] (project_heads), k scaled by
    d_head^-1/2, as one node, from a zero state or a carry slot's (_scan). The forward and the backward
    each project a chunk at a time, the same way; the backward maps the whole clip's dq, dk and dv back."""
    inputs = (xc, wq, wk, wv, i_raw, f_raw)
    xd, ig, fg = (np.ascontiguousarray(x.data) for x in (xc, i_raw, f_raw))
    (nb, bs, _), (L, d_inner), ws = wq.shape, xd.shape[-2:], (wq.data, wk.data, wv.data)
    J, N = nb // heads, xd.size // (L * d_inner)
    h = np.empty((N * heads, L, d_inner // heads), dtype=np.result_type(xd, *ws))
    k_scale = np.asarray(h.shape[-1] ** -0.5, dtype=h.dtype)  # as T.mul casts a constant: in the operands' dtype
    scan_grad = _scan(lambda sl: project_qkv(xd[..., sl, :], ws, heads, k_scale), ig, fg, h, T.is_recording(inputs), state)

    def grad_fn(g):
        dq, dk, dv, di, df = scan_grad(g)
        dk *= k_scale
        for w, d in zip((wq, wk, wv), (dq, dk, dv)):  # heads ahead of clips: a block's N * L rows evenly spaced
            d = np.ascontiguousarray(d.reshape(N, heads, L, -1).swapaxes(0, 1))  # [H, N, L, dh]
            d = d.reshape(heads, N * L, J, bs).transpose(0, 2, 1, 3)  # [H, J, N * L, bs]
            dx = np.empty(xd.shape, dtype=xd.dtype)  # w^T made contiguous: numpy's matmul is slow on the transposed view
            np.matmul(d, np.ascontiguousarray(w.data.reshape(heads, J, bs, bs).swapaxes(-1, -2)),
                      out=dx.reshape(N * L, heads, J, bs).transpose(1, 2, 0, 3))
            xc._accumulate(dx, owned=True)
            w._accumulate((xd.reshape(N * L, heads, J, bs).transpose(1, 2, 3, 0) @ d).reshape(w.shape), owned=True)
        i_raw._accumulate(di, owned=True)
        f_raw._accumulate(df, owned=True)

    return T._make(h, inputs, grad_fn, "mlstm_branch")


class MLSTMCore(Module):
    """Pre-normed mLSTM mixer (no outer residual).

    Pipeline: norm -> up-projection split into (cell branch, gate branch) ->
    causal depthwise conv + SiLU -> block-diagonal q/k/v (k pre-scaled by
    d_head^-1/2) and dense input/forget gate heads -> chunkwise stabilized
    scan -> group norm (gain only) -> learnable skip from the conv branch ->
    SiLU(gate branch) -> down-projection.

    The q/k/v projection and the scan are one mlstm_branch node: it maps each
    chunk's rows of the conv output by block (project_heads) straight into the
    scan's heads-first [N * H, L, d_head]. Each head must hold whole blocks,
    so d_inner must be a multiple of heads x QKV_BLOCK_SIZE (ModelConfig.validate).

    The scan's output is laid out d-major (feature d * heads + head), and
    the norm takes groups of d_head consecutive features, so each group
    holds d_head / heads features of every head, not one head's features.
    """

    def __init__(self, d_model: int, rng, dtype, heads: int = 4, proj_factor: float = 2.0):
        d_inner = int(round(proj_factor * d_model))
        self.heads = heads
        self.d_inner = d_inner
        self.d_head = d_inner // heads
        self.norm = LayerNorm(d_model, dtype)
        self.up_proj = Linear(d_model, 2 * d_inner, rng, dtype, bias=False)
        self.conv = DepthwiseConv1d(d_inner, CONV_WIDTH, rng, dtype, causal=True)
        n_blocks = d_inner // QKV_BLOCK_SIZE
        self.q_proj = BlockDiagonal(n_blocks, QKV_BLOCK_SIZE, rng, dtype)
        self.k_proj = BlockDiagonal(n_blocks, QKV_BLOCK_SIZE, rng, dtype)
        self.v_proj = BlockDiagonal(n_blocks, QKV_BLOCK_SIZE, rng, dtype)
        self.i_gate = Linear(d_inner, heads, rng, dtype)
        self.f_gate = Linear(d_inner, heads, rng, dtype)
        self.skip = Tensor(np.ones(d_inner, dtype=dtype), requires_grad=True)
        self.out_gain = Tensor(np.ones(d_inner, dtype=dtype), requires_grad=True)
        self.down_proj = Linear(d_inner, d_model, rng, dtype, bias=False)

    def __call__(self, x: Tensor) -> Tensor:
        """x [..., L, d_model] (leading axes are batch axes)."""
        *lead, L, _ = x.shape
        H, dh, di = self.heads, self.d_head, self.d_inner
        up = self.up_proj(self.norm(x))  # [..., L, 2*d_inner]
        xc = T.silu(self.conv(up[..., :di]))
        gate = T.silu(up[..., di:])
        del up  # unrecorded, an array lives only while named: drop each after its last read
        gates = (-1, L, H), (0, 2, 1), (-1, L)  # [..., L, H] -> [N * H, L]
        ig = T.rearrange(self.i_gate(xc), *gates)
        fg = T.rearrange(self.f_gate(xc), *gates)
        h = mlstm_branch(xc, self.q_proj.w, self.k_proj.w, self.v_proj.w, ig, fg, H, carried(self))
        del ig, fg
        # [N * H, L, dh] -> [..., L, d_inner] with features in d-major order (index d * H + head)
        h = T.rearrange(h, (-1, H, L, dh), (0, 2, 3, 1), (*lead, L, di))
        h = T.layer_norm(h, self.out_gain, groups=H)  # per group of d_head consecutive features
        h = T.add(h, T.mul(self.skip, xc))
        return self.down_proj(T.mul(h, gate))


class CBiXLSTMBlock(Module):
    """Cascaded bidirectional pair of residual blocks: the backward block runs
    on the reversed output of the forward one, reversed back:
    y = reverse(bwd(reverse(fwd(x))))."""

    def __init__(self, fwd: Residual, bwd: Residual):
        self.fwd = fwd
        self.bwd = bwd

    def __call__(self, x: Tensor) -> Tensor:
        return self.bwd(self.fwd(x)[..., ::-1, :])[..., ::-1, :]  # frames, not the batch
