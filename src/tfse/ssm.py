"""Selective state-space mixer with a sequential reference scan and a fused scan.
Blocks wrap MambaCore: module.Residual (mamba) or module.Bidirectional (bimamba).

The recurrence per channel and state dim is

    h_t = exp(delta_t * A) h_{t-1} + (delta_t * u_t) B_t
    y_t = C_t . h_t + D * u_t

with input-dependent delta, B, C (the selection mechanism) and A = -exp(A_log)
strictly negative, so exp(delta*A) lies in (0, 1) and the state stays bounded
for bounded inputs.

selective_scan_seq builds the recurrence from graph primitives one step at a
time and is the reference. selective_scan_par is the engine the models use:
one graph node whose forward runs the recurrence in place over one
d_inner x d_state state per clip of a batch, O(L) work, forming delta * u
and the D * u skip one SEG-frame segment at a time. When the graph is
recorded it keeps only the state entering each segment. Its backward forms
everything else again from the six inputs by the forward's own ops: the
time-major copies of u, delta, B and C, then per segment delta * u and the
segment's states from its kept start, bit for bit, before the reverse scan
over that segment

    dh_t = C_t (x) dy_t + exp(delta_{t+1} * A) * dh_{t+1}

from which the gradients of all six inputs follow in closed form. The Mamba
kernel recomputes its states the same way (Gu & Dao, arXiv 2312.00752, 3.3.2).
Causal prefixes are bit-exact: h_t is computed from inputs up to t only,
always in the same order, so frames after t cannot change y_t.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .module import DepthwiseConv1d, LayerNorm, Linear, Module
from .tensor import Tensor

SEG = 16  # frames per segment whose entering state the fused scan keeps for its backward; from t = 0


def selective_scan_seq(u, delta, A, B, C, D) -> Tensor:
    """Step-by-step reference engine. Shapes: u, delta [..., L, d_inner];
    A [d_inner, d_state]; B, C [..., L, d_state]; D [d_inner]. Leading
    axes are batch axes."""
    *lead, L, d_inner = u.shape
    d_state = A.shape[1]
    dA = T.exp(T.mul(T.rearrange(delta, (*lead, L, d_inner, 1)), A))
    dBu = T.mul(T.rearrange(T.mul(delta, u), (*lead, L, d_inner, 1)), T.rearrange(B, (*lead, L, 1, d_state)))
    h_t = Tensor(np.zeros((*lead, d_inner, d_state), dtype=u.dtype))
    rows = []
    for t in range(L):
        h_t = T.add(T.mul(dA[..., t, :, :], h_t), dBu[..., t, :, :])
        rows.append(T.rearrange(h_t, (*lead, 1, d_inner, d_state)))
    h = T.concat(rows, axis=-3)
    y = T.sum_(T.mul(h, T.rearrange(C, (*lead, L, 1, d_state))), axis=-1)
    return T.add(y, T.mul(u, D))


def _time_major(x: np.ndarray) -> np.ndarray:
    """[..., L, c] -> contiguous [L, N, c], the N clips of the leading axes folded."""
    L, c = x.shape[-2:]
    return np.ascontiguousarray(x.reshape(-1, L, c).swapaxes(0, 1))


def _operands(u, delta, A, B, C):
    """The scan's time-major u, delta, B and C, its A as [d_state, d_inner], and advance(h, t, du, a,
    out), one step: h_t into out from h = h_{t-1}, exp(delta_t * A) into a, given du = delta_t u_t.
    Time-major, [L, N, ...] over the N folded clips, makes every per-frame slice one basic index into
    a contiguous block. The state is held as [N, d_state, d_inner], so every per-step op runs along the
    long d_inner rows; numpy's broadcasting loops are much slower over the short d_state rows. The
    backward forms all of this again rather than keep it, and steps as the forward did, bit for bit."""
    ud, dt, Bd, Cd = (_time_major(x.data) for x in (u, delta, B, C))
    At = np.ascontiguousarray(A.data.T)
    dt_t, B_t, outer = dt[:, :, None, :], Bd[:, :, :, None], np.empty((ud.shape[1],) + At.shape, dtype=ud.dtype)

    def advance(h, t, du, a, out):
        np.exp(np.multiply(dt_t[t], At, out=a), out=a)
        np.multiply(h, a, out=out)
        # (delta_t u_t) B_t as a broadcast copy scaled in place: numpy runs
        # that faster than a multiply that broadcasts both operands
        np.copyto(outer, du[:, None, :])
        np.multiply(outer, B_t[t], out=outer)
        out += outer
        return out

    return ud, dt, Bd, Cd, At, advance


def selective_scan_par(u, delta, A, B, C, D) -> Tensor:
    """Fused engine: one graph node with an analytic reverse-scan backward.
    Same contract (leading batch axes included) and result as the
    sequential one up to floating-point summation order."""
    inputs = (u, delta, A, B, C, D)
    ud, dt, Bd, Cd, At, advance = _operands(u, delta, A, B, C)
    L, shape = len(ud), (ud.shape[1],) + At.shape
    starts = np.empty((-(-L // SEG),) + shape, dtype=ud.dtype) if T.is_recording(inputs) else None
    y = np.empty_like(ud)
    C_t, y_t = Cd[:, :, None, :], y[:, :, None, :]
    h, a, du = np.zeros(shape, dtype=ud.dtype), np.empty(shape, dtype=ud.dtype), np.empty_like(ud[:SEG])
    for t0 in range(0, L, SEG):  # delta u, then the D u skip, formed one segment at a time in one buffer
        n = min(SEG, L - t0)
        if starts is not None:
            starts[t0 // SEG] = h
        np.multiply(dt[t0:t0 + n], ud[t0:t0 + n], out=du[:n])
        for t in range(t0, t0 + n):
            advance(h, t, du[t - t0], a, h)
            np.matmul(C_t[t], h, out=y_t[t])
        y[t0:t0 + n] += np.multiply(ud[t0:t0 + n], D.data, out=du[:n])

    def grad_fn(g):
        g = _time_major(g)
        # One reverse pass over the segments: each first forms its delta u
        # and recomputes its h_t and exp(delta_t * A) from its kept start, by
        # the forward's own step.
        # dh_t, the gradient of h_t, gives frame t its u, B and C gradients
        # and carries to t-1 as dh_t * exp(delta_t * A); that carry times
        # h_{t-1} is the gradient of delta_t * A taken before the exp, which
        # gives the delta and A gradients. Every reduction runs on one frame's
        # slices while they are in cache.
        ud, dt, Bd, Cd, At, advance = _operands(u, delta, A, B, C)
        d_du, d_delta, dB, dC = np.empty_like(ud), np.empty_like(ud), np.empty_like(Bd), np.empty_like(Cd)
        dA_sum = np.zeros_like(At)
        g_t, g_col = g[:, :, None, :], g[:, :, :, None]
        C_col, B_row = Cd[:, :, :, None], Bd[:, :, None, :]
        d_du_t, dB_t, dC_t = d_du[:, :, None, :], dB[:, :, :, None], dC[:, :, :, None]
        dh, tmp, du = np.zeros(shape, dtype=ud.dtype), np.empty(shape, dtype=ud.dtype), np.empty_like(ud[:SEG])
        hseg, aseg = (np.empty((min(SEG, L),) + shape, dtype=ud.dtype) for _ in range(2))
        for s in reversed(range(len(starts))):
            t0, n = s * SEG, min(SEG, L - s * SEG)
            np.multiply(dt[t0:t0 + n], ud[t0:t0 + n], out=du[:n])
            h = starts[s]  # read, never written
            for j in range(n):
                h = advance(h, t0 + j, du[j], aseg[j], hseg[j])
            for j in reversed(range(n)):
                t = t0 + j
                np.copyto(tmp, g_t[t])
                tmp *= C_col[t]
                dh += tmp
                np.matmul(B_row[t], dh, out=d_du_t[t])
                np.matmul(dh, du[j, :, :, None], out=dB_t[t])
                np.matmul(hseg[j], g_col[t], out=dC_t[t])
                dh *= aseg[j]  # carry to t-1
                if t:
                    d_pre = np.multiply(dh, hseg[j - 1] if j else starts[s], out=tmp)
                    np.einsum("nji,ji->ni", d_pre, At, out=d_delta[t])
                    dA_sum += np.einsum("ni,nji->ji", dt[t], d_pre)
        d_delta[0] = 0.0  # h_{-1} = 0
        d_delta += d_du * ud
        d_du *= dt
        d_du += g * D.data
        for x, dx in ((u, d_du), (delta, d_delta), (B, dB), (C, dC)):
            x._accumulate(dx.swapaxes(0, 1).reshape(x.shape), owned=True)
        A._accumulate(dA_sum.T, owned=True)
        D._accumulate((g * ud).sum(axis=(0, 1)), owned=True)

    return T._make(y.swapaxes(0, 1).reshape(u.shape), inputs, grad_fn, "selective_scan")


class MambaCore(Module):
    """Pre-normed selective-SSM mixer (no outer residual).

    Pipeline: norm -> in-proj (2x split) -> causal depthwise conv + SiLU ->
    (delta, B, C) projections -> selective scan -> SiLU(z) gate -> out-proj.

    Special initializations: A_log starts at log(1..d_state) per channel
    (a spread of stable decay rates), D at ones, and the delta projection
    bias is set so softplus(bias) is log-uniform on [1e-3, 1e-1].
    """

    def __init__(self, d_model: int, rng, dtype, d_state: int = 16, expand: int = 2, d_conv: int = 4):
        d_inner = expand * d_model
        dt_rank = math.ceil(d_model / 16)
        self.d_inner = d_inner
        self.d_state = d_state
        self.dt_rank = dt_rank
        self.norm = LayerNorm(d_model, dtype)
        self.in_proj = Linear(d_model, 2 * d_inner, rng, dtype, bias=False)
        self.conv = DepthwiseConv1d(d_inner, d_conv, rng, dtype, causal=True)
        self.x_proj = Linear(d_inner, dt_rank + 2 * d_state, rng, dtype, bias=False)
        self.dt_proj = Linear(dt_rank, d_inner, rng, dtype)
        if rng is not None:
            dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=d_inner))
            self.dt_proj.b.data[:] = (dt + np.log(-np.expm1(-dt))).astype(dtype)
        a_init = np.tile(np.arange(1, d_state + 1, dtype=np.float64), (d_inner, 1))
        self.A_log = Tensor(np.log(a_init).astype(dtype), requires_grad=True)
        self.D = Tensor(np.ones(d_inner, dtype=dtype), requires_grad=True)
        self.out_proj = Linear(d_inner, d_model, rng, dtype, bias=False)

    def __call__(self, x: Tensor) -> Tensor:
        di, ds, dr = self.d_inner, self.d_state, self.dt_rank
        h = self.in_proj(self.norm(x))  # [..., L, 2*d_inner]
        u = T.silu(self.conv(h[..., :di]))
        gate = T.silu(h[..., di:])
        del h  # unrecorded, an array lives only while named: drop each after its last read
        dbc = self.x_proj(u)  # [..., L, dt_rank + 2*d_state]
        delta = T.softplus(self.dt_proj(dbc[..., :dr]))
        B = dbc[..., dr:dr + ds]
        C = dbc[..., dr + ds:]
        A = T.neg(T.exp(self.A_log))
        y = selective_scan_par(u, delta, A, B, C, self.D)
        del u, dbc, delta, B, C
        return self.out_proj(T.mul(y, gate))
