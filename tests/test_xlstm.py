"""Matrix-memory recurrent tests: the stabilized exponential-gating cell is
checked against a direct unstabilized recurrence, fuzzed at extreme gate
values, the chunkwise scan is checked against the cell chain (values and
gradients), and the bidirectional compositions are verified definitionally."""

import numpy as np
import pytest

from tfse import tensor as T
from tfse import xlstm
from tfse.config import ModelConfig
from tfse.errors import ConfigError
from tfse.module import Bidirectional, Residual
from tfse.xlstm import (
    CHUNK,
    QKV_BLOCK_SIZE,
    CBiXLSTMBlock,
    MLSTMCore,
    MLSTMState,
    mlstm_cell_step,
)
from tfse.tensor import CompGraph, Tensor, grad_check, grad_check_params, no_grad

F64 = np.float64


def run_cell_chain(rng, H, dh, L, gate_lo, gate_hi, dtype=F64):
    state = MLSTMState.zeros(H, dh, dtype)
    outs = []
    steps = []
    for _ in range(L):
        q = rng.normal(size=(H, dh, 1)).astype(dtype)
        k = rng.normal(size=(H, dh, 1)).astype(dtype)
        v = rng.normal(size=(H, dh, 1)).astype(dtype)
        ig = rng.uniform(gate_lo, gate_hi, size=(H, 1, 1)).astype(dtype)
        fg = rng.uniform(gate_lo, gate_hi, size=(H, 1, 1)).astype(dtype)
        state, h = mlstm_cell_step(
            state, Tensor(q), Tensor(k), Tensor(v), Tensor(ig), Tensor(fg)
        )
        outs.append(h.data.copy())
        steps.append((q, k, v, ig, fg))
    return outs, steps


def naive_chain(steps):
    """Unstabilized reference: raw exponential gates, denominator floor 1."""
    H, dh, _ = steps[0][0].shape
    C = np.zeros((H, dh, dh))
    n = np.zeros((H, dh, 1))
    outs = []
    for q, k, v, ig, fg in steps:
        C = np.exp(fg) * C + np.exp(ig) * (v @ np.swapaxes(k, -1, -2))
        n = np.exp(fg) * n + np.exp(ig) * k
        denom = np.maximum(np.abs(np.swapaxes(n, -1, -2) @ q), 1.0)
        outs.append((C @ q) / denom)
    return outs


class TestCellStep:
    def test_matches_unstabilized_reference(self, rng):
        with no_grad():
            outs, steps = run_cell_chain(rng, H=2, dh=4, L=24, gate_lo=-5, gate_hi=5)
        refs = naive_chain(steps)
        for got, want in zip(outs, refs):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_single_step_closed_form(self):
        # from zero state: C1 = e^(i-m) v k^T, n1 = e^(i-m) k, m1 = max(f, i)
        q = np.array([[[1.0], [0.0]]])
        k = np.array([[[0.5], [2.0]]])
        v = np.array([[[3.0], [-1.0]]])
        ig = np.array([[[0.7]]])
        fg = np.array([[[-0.2]]])
        with no_grad():
            _, h = mlstm_cell_step(
                MLSTMState.zeros(1, 2, F64),
                Tensor(q), Tensor(k), Tensor(v), Tensor(ig), Tensor(fg),
            )
        m1 = max(fg[0, 0, 0], ig[0, 0, 0])
        ip = np.exp(ig[0, 0, 0] - m1)
        num = ip * (v[0] @ k[0].T) @ q[0]
        den = max(abs(ip * (k[0].T @ q[0]).item()), np.exp(-m1))
        np.testing.assert_allclose(h.data[0], num / den, rtol=1e-12)

    def test_extreme_gates_stay_finite_float32(self, rng):
        with no_grad():
            outs, _ = run_cell_chain(
                rng, H=2, dh=4, L=50, gate_lo=-100, gate_hi=100, dtype=np.float32
            )
        for h in outs:
            assert np.all(np.isfinite(h))

    def test_extreme_gates_stay_finite_float64(self, rng):
        with no_grad():
            outs, _ = run_cell_chain(rng, H=2, dh=4, L=200, gate_lo=-1000, gate_hi=1000)
        for h in outs:
            assert np.all(np.isfinite(h))

    def test_strong_forget_gate_preserves_memory_direction(self):
        # write once, then run pure-forget steps; the stored outer product
        # keeps pointing the readout at the written value
        k0 = np.array([[[1.0], [0.0]]])
        v0 = np.array([[[0.0], [4.0]]])
        state = MLSTMState.zeros(1, 2, F64)
        with no_grad():
            state, _ = mlstm_cell_step(
                state, Tensor(k0), Tensor(k0), Tensor(v0),
                Tensor(np.full((1, 1, 1), 5.0)), Tensor(np.full((1, 1, 1), -5.0)),
            )
            for _ in range(5):
                state, h = mlstm_cell_step(
                    state, Tensor(k0), Tensor(k0), Tensor(np.zeros((1, 2, 1))),
                    Tensor(np.full((1, 1, 1), -20.0)), Tensor(np.full((1, 1, 1), 10.0)),
                )
        direction = h.data[0, :, 0] / np.linalg.norm(h.data[0, :, 0])
        np.testing.assert_allclose(direction, [0.0, 1.0], atol=1e-9)


def scan_inputs(rng, L, gate_lo=-5, gate_hi=5, H=2, dh=4, dtype=F64):
    """q, k, v [H, L, dh] and the two gates [H, L], all requiring grad."""
    qkv = [rng.normal(size=(H, L, dh)) for _ in range(3)]
    gates = [rng.uniform(gate_lo, gate_hi, size=(H, L)) for _ in range(2)]
    return [Tensor(a.astype(dtype), requires_grad=True) for a in qkv + gates]


def cell_scan(q, k, v, i_raw, f_raw):
    """mlstm_cell_step chained over time from a zero state; h [H, L, dh]."""
    H, L, dh = q.shape
    state = MLSTMState.zeros(H, dh, q.dtype)
    rows = []
    for t in range(L):
        state, h = mlstm_cell_step(
            state,
            T.rearrange(q[:, t], (H, dh, 1)),
            T.rearrange(k[:, t], (H, dh, 1)),
            T.rearrange(v[:, t], (H, dh, 1)),
            T.rearrange(i_raw[:, t], (H, 1, 1)),
            T.rearrange(f_raw[:, t], (H, 1, 1)),
        )
        rows.append(T.rearrange(h, (H, 1, dh)))
    return T.concat(rows, axis=1)


def chunked_scan(q, k, v, i_raw, f_raw, state=None):
    """xlstm._scan on whole-clip q, k and v [H, L, dh] as one graph node, h [H, L, dh]: the chunk
    loops of mlstm_branch without its projection; state is a carry slot (module.carried)."""
    inputs = (q, k, v, i_raw, f_raw)
    qd, kd, vd, ig, fg = (np.ascontiguousarray(x.data) for x in inputs)
    h = np.empty_like(vd)
    scan_grad = xlstm._scan(lambda sl: (qd[:, sl], kd[:, sl], vd[:, sl]), ig, fg, h, T.is_recording(inputs), state)

    def grad_fn(g):
        for x, dx in zip(inputs, scan_grad(g)):
            x._accumulate(dx, owned=True)

    return T._make(h, inputs, grad_fn, "chunked_scan")


class TestChunkedScan:
    @pytest.mark.parametrize("L", [1, CHUNK - 1, CHUNK, CHUNK + 1, 200])
    def test_matches_cell_chain(self, rng, L):
        args = scan_inputs(rng, L)
        with no_grad():
            got = chunked_scan(*args).data
            want = cell_scan(*args).data
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    @pytest.mark.parametrize("dtype,gate", [(np.float32, 100.0), (F64, 1000.0)])
    def test_extreme_gates_stay_finite(self, rng, dtype, gate):
        args = scan_inputs(rng, 2 * CHUNK + 5, -gate, gate, dtype=dtype)
        with no_grad():
            h = chunked_scan(*args).data
        assert h.dtype == dtype and np.all(np.isfinite(h))

    @pytest.mark.parametrize("which", range(5))
    def test_gradients_match_finite_differences(self, rng, which):
        args = scan_inputs(rng, 2 * CHUNK + 5, -2, 2, dh=2)
        w = Tensor(rng.normal(size=args[0].shape))
        # grad_check perturbs args[which] in place, so f reads it from args
        assert grad_check(lambda _x: T.sum_(T.mul(chunked_scan(*args), w)), args[which]) < 1e-7

    # one chunk that is both the first and the last, a full one, and a first
    # chunk that carries its state into a one-frame last chunk
    @pytest.mark.parametrize("L", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
    def test_gradients_match_cell_chain(self, rng, L):
        args = scan_inputs(rng, L)
        w = Tensor(rng.normal(size=args[0].shape))
        grads = []
        for scan in (chunked_scan, cell_scan):
            for a in args:
                a.zero_grad()
            T.backward(T.sum_(T.mul(scan(*args), w)))
            grads.append([a.grad.copy() for a in args])
        # the first forget gate only scales the zero entry state (m cancels), so
        # its exact gradient is 0; the chain's holds rounding, the only term at L = 1
        grads[1][4][:, 0] = 0.0
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())

    def test_is_one_graph_node(self, rng):
        args = scan_inputs(rng, CHUNK + 3)
        h = chunked_scan(*args)
        assert h.op == "chunked_scan" and h._parents == tuple(args)

    def test_under_no_grad_has_no_parents(self, rng):
        args = scan_inputs(rng, CHUNK + 3)
        with no_grad():
            h = chunked_scan(*args)
        assert h._parents == () and h._grad_fn is None and not h.requires_grad

    @pytest.mark.parametrize("cut", [2 * CHUNK, 2 * CHUNK + 12], ids=["later-chunk", "same-chunk"])
    def test_causal_prefix_is_bit_exact(self, rng, cut):
        # L = 150 has chunks [0, 64), [64, 128), [128, 150): changing the frames
        # from 128 on touches only a later chunk than the prefix, changing
        # those from 140 on also touches the chunk the prefix ends in
        args = [a.data for a in scan_inputs(rng, 150)]
        changed = [a.copy() for a in args]
        for a in changed:
            a[:, cut:] += rng.normal(size=a[:, cut:].shape)
        with no_grad():
            h1 = chunked_scan(*map(Tensor, args)).data
            h2 = chunked_scan(*map(Tensor, changed)).data
        np.testing.assert_array_equal(h1[:, :cut], h2[:, :cut])
        assert np.abs(h1[:, cut:] - h2[:, cut:]).max() > 0.0

    @pytest.mark.parametrize("cut", [CHUNK, 2 * CHUNK])
    def test_halves_with_a_carry_give_the_whole_scan_bit_for_bit(self, rng, cut):
        # the second half enters the (C, n, m) the first half's last chunk formed
        args = [a.data for a in scan_inputs(rng, 3 * CHUNK + 5)]
        slot = []
        with no_grad():
            whole = chunked_scan(*map(Tensor, args)).data
            halves = [chunked_scan(*(Tensor(a[:, sl]) for a in args), state=slot).data
                      for sl in (slice(0, cut), slice(cut, None))]
        assert np.concatenate(halves, axis=1).tobytes() == whole.tobytes()


class TestForgetDrift:
    """Forget pre-activations that drift positive make the carried
    stabilizer m climb by about 0.15 per frame, so after a few chunks most
    in-chunk weights are far below the weight 1 of each row. Those weights
    must be exactly 0, never subnormal."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (F64, 1e-10)], ids=["f32", "f64"])
    def test_no_subnormal_weights_and_matches_cell_chain(self, rng, monkeypatch, dtype, tol):
        H, dh, L = 2, 4, 12 * CHUNK
        # q and k positive, so n . q never cancels and a float32 difference
        # measures the scan, not the conditioning of the normalizer
        q, k = (np.abs(rng.normal(size=(H, L, dh))) for _ in range(2))
        v = rng.normal(size=(H, L, dh))
        ig = rng.uniform(-5, 5, size=(H, L))
        fg = rng.normal(0.15, 1.0, size=(H, L))
        args = [Tensor(a.astype(dtype)) for a in (q, k, v, ig, fg)]
        tiny = np.finfo(dtype).tiny
        subnormal = []
        chunk_weights = xlstm._chunk_weights

        def recorded(*a):
            W, carry, m = chunk_weights(*a)
            subnormal.append(int(np.sum((W > 0) & (W < tiny)) + np.sum((carry > 0) & (carry < tiny))))
            return W, carry, m

        monkeypatch.setattr(xlstm, "_chunk_weights", recorded)
        with no_grad():
            got = chunked_scan(*args).data
            want = cell_scan(*args).data
        assert subnormal == [0] * 12
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


def branch_inputs(rng, lead, L, heads=2, d_inner=16, gate_lo=-5, gate_hi=5):
    """xc [*lead, L, d_inner], the three block weights [d_inner / bs, bs, bs]
    and the gates [N * heads, L], float64, all requiring grad."""
    nb, bs, n = d_inner // QKV_BLOCK_SIZE, QKV_BLOCK_SIZE, int(np.prod(lead))
    arrays = [rng.normal(size=(*lead, L, d_inner))] + [rng.normal(size=(nb, bs, bs)) * 0.5 for _ in range(3)]
    arrays += [rng.uniform(gate_lo, gate_hi, size=(n * heads, L)) for _ in range(2)]
    return [Tensor(a, requires_grad=True) for a in arrays]


def block_projection(xc, w, heads):
    """project_heads from graph primitives: block i of w maps features
    i * bs onward, then heads-first, clips folded into heads."""
    L, di = xc.shape[-2:]
    nb, bs, _ = w.shape
    y = T.matmul(T.rearrange(xc, (-1, L, nb, bs), (2, 0, 1, 3), (nb, -1, bs)), w)  # [nb, N * L, bs]
    return T.rearrange(y, (heads, nb // heads, -1, L, bs), (2, 0, 3, 1, 4), (-1, L, di // heads))


def branch_oracle(xc, wq, wk, wv, i_raw, f_raw, heads):
    """mlstm_branch composed: the three block projections, k scaled, then the cell chain."""
    q, k, v = (block_projection(xc, w, heads) for w in (wq, wk, wv))
    return cell_scan(q, T.mul(k, q.shape[-1] ** -0.5), v, i_raw, f_raw)


class TestBranch:
    """mlstm_branch, the models' projection and scan in one node, against
    the projection built from graph primitives followed by the cell chain."""

    @pytest.mark.parametrize("L", [1, CHUNK, 2 * CHUNK + 5])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "batched"])
    def test_matches_projection_then_cell_chain(self, rng, lead, L):
        args = branch_inputs(rng, lead, L)
        w = Tensor(rng.normal(size=(args[-1].shape[0], L, 8)))
        results = []
        for f in (xlstm.mlstm_branch, branch_oracle):
            for a in args:
                a.zero_grad()
            h = f(*args, 2)
            T.backward(T.sum_(T.mul(h, w)))
            results.append([h.data] + [a.grad for a in args])
        # the first forget gate only scales the zero entry state: exactly 0, rounding in the chain
        results[1][-1][:, 0] = 0.0
        (got, *grads), (want, *grads_want) = results
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
        for got, want in zip(grads, grads_want):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("which", range(4), ids=["xc", "wq", "wk", "wv"])
    def test_gradients_match_finite_differences(self, rng, which):
        L = 2 * CHUNK + 5
        args = branch_inputs(rng, (), L, d_inner=8, gate_lo=-2, gate_hi=2)  # d_head 4: one block a head
        w = Tensor(rng.normal(size=(2, L, 4)))
        # grad_check perturbs args[which] in place, so f reads it from args; a weight
        # enters every frame, and the central difference's h^2 error is 3e-6 at h = 1e-5
        def f(_x):
            return T.sum_(T.mul(xlstm.mlstm_branch(*args, 2), w))

        assert grad_check(f, args[which], h=1e-6) < 1e-6


class TestMLSTMCore:
    @pytest.fixture
    def core(self):
        return MLSTMCore(16, np.random.default_rng(3), F64, heads=4, proj_factor=2.0)

    def test_output_shape(self, core, rng):
        x = Tensor(rng.normal(size=(12, 16)).astype(F64))
        assert core(x).shape == (12, 16)

    def test_causal_prefix_is_bit_exact(self, core, rng):
        x = rng.normal(size=(12, 16)).astype(F64)
        x2 = x.copy()
        x2[8:] += rng.normal(size=(4, 16))
        with no_grad():
            y1 = core(Tensor(x)).data
            y2 = core(Tensor(x2)).data
        np.testing.assert_array_equal(y1[:8], y2[:8])

    # the config rejects a core whose heads do not hold whole q/k/v blocks, before it is built
    def test_rejects_indivisible_head_split(self):  # d_inner 22 over 4 heads
        with pytest.raises(ConfigError, match=r"^heads: d_inner 22 not a multiple of 4 heads x block size 4$"):
            ModelConfig(backbone="xlstm", d_model=20, heads=4, proj_factor=1.1).validate()

    def test_rejects_indivisible_qkv_blocks(self):  # d_head 6 is not whole blocks of 4
        with pytest.raises(ConfigError, match=r"^heads: d_inner 24 not a multiple of 4 heads x block size 4$"):
            ModelConfig(backbone="xlstm", d_model=24, heads=4, proj_factor=1.0).validate()

    # two chunks: the branch forms q/k/v a chunk at a time in its forward, and
    # again a chunk at a time, last chunk first, in its backward
    @pytest.mark.parametrize("shape", [(CHUNK + 7, 12), (2, CHUNK + 7, 12)], ids=["2d", "3d"])
    def test_block_i_maps_features_i_times_block_size_onward(self, rng, shape, monkeypatch):
        core = MLSTMCore(12, np.random.default_rng(3), F64, heads=3, proj_factor=2.0)  # d_head 8: 2 blocks a head
        H, dh, di, bs = core.heads, core.d_head, core.d_inner, QKV_BLOCK_SIZE
        formed = []
        project_qkv = xlstm.project_qkv

        def recorded(*args):
            formed.append(project_qkv(*args))
            return formed[-1]

        monkeypatch.setattr(xlstm, "project_qkv", recorded)
        x = Tensor(rng.normal(size=shape))
        L = shape[-2]
        with no_grad():
            core(x)
            xc = T.silu(core.conv(core.up_proj(core.norm(x))[..., :di])).data
        assert [q.shape[1] for q, _, _ in formed] == [CHUNK, 7]
        formed.clear()
        T.backward(T.sum_(core(x)))
        assert [q.shape[1] for q, _, _ in formed] == [CHUNK, 7, 7, CHUNK]
        chunked = [np.concatenate(parts, axis=1) for parts in zip(*formed[:2])]
        rebuilt = [np.concatenate(parts, axis=1) for parts in zip(*reversed(formed[2:]))]  # in frame order
        for proj, got, again, scale in zip(
            (core.q_proj, core.k_proj, core.v_proj), chunked, rebuilt, (1.0, dh ** -0.5, 1.0)
        ):
            want = np.empty_like(xc)
            for i in range(di // bs):  # one block at a time on its own run of features
                cols = slice(i * bs, (i + 1) * bs)
                want[..., cols] = xc[..., cols] @ proj.w.data[i] * scale
            # heads-first, clips folded into heads: [..., L, H * dh] -> [N * H, L, dh]
            want = want.reshape(-1, L, H, dh).transpose(0, 2, 1, 3).reshape(-1, L, dh)
            np.testing.assert_allclose(got, want, rtol=1e-12)
            np.testing.assert_array_equal(again, got)

    def test_branch_is_one_graph_node(self, rng):
        core = MLSTMCore(12, np.random.default_rng(4), F64, heads=3, proj_factor=2.0)
        args = branch_inputs(rng, (2,), 5, heads=core.heads, d_inner=core.d_inner)
        h = xlstm.mlstm_branch(*args, core.heads)
        assert h.shape == (2 * core.heads, 5, core.d_head)
        assert h.op == "mlstm_branch" and h._parents == tuple(args)
        with no_grad():
            h = xlstm.mlstm_branch(*args, core.heads)
        assert h._parents == () and h._grad_fn is None and not h.requires_grad
        # in the core, the branch reads the conv output and the three block weights
        ops = [n for n in CompGraph(core(Tensor(rng.normal(size=(2, 5, 12))))).order if n.op != "leaf"]
        (branch,) = [n for n in ops if n.op == "mlstm_branch"]
        assert branch._parents[0].op == "silu"
        assert branch._parents[1:4] == (core.q_proj.w, core.k_proj.w, core.v_proj.w)
        assert not any(n.op == "project_heads" for n in ops)

    # d_head 8 (two blocks a head) in both; the second has a batch axis of 2 and 3 heads
    @pytest.mark.parametrize("d_model,heads,shape", [(8, 2, (5, 8)), (12, 3, (2, 5, 12))], ids=["2d", "3d"])
    def test_gradients(self, rng, d_model, heads, shape):
        core = MLSTMCore(d_model, np.random.default_rng(4), F64, heads=heads, proj_factor=2.0)
        x = Tensor(rng.normal(size=shape).astype(F64), requires_grad=True)

        def loss_fn(_x=None):
            y = core(x)
            return T.sum_(T.mul(y, y))

        errs = grad_check_params(loss_fn, core.named_parameters(), h=1e-5)
        assert max(errs.values()) < 1e-3, errs
        assert grad_check(loss_fn, x) < 1e-6


def cbixlstm_block(seed):
    r = np.random.default_rng(seed)
    return CBiXLSTMBlock(Residual(MLSTMCore(16, r, F64)), Residual(MLSTMCore(16, r, F64)))


def pbixlstm_block(seed):
    r = np.random.default_rng(seed)
    return Bidirectional(MLSTMCore(16, r, F64), MLSTMCore(16, r, F64))


class TestBidirectionalBlocks:
    def test_cascaded_composition_definition(self, rng):
        blk = cbixlstm_block(5)
        x = Tensor(rng.normal(size=(10, 16)).astype(F64))
        with no_grad():
            got = blk(x).data
            mid = blk.fwd(x)
            want = blk.bwd(Tensor(mid.data[::-1].copy())).data[::-1]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_parallel_composition_definition(self, rng):
        blk = pbixlstm_block(6)
        x = Tensor(rng.normal(size=(10, 16)).astype(F64))
        with no_grad():
            got = blk(x).data
            fwd = blk.fwd(x).data
            bwd = blk.bwd(Tensor(x.data[::-1].copy())).data[::-1]
        np.testing.assert_allclose(got, x.data + fwd + bwd, atol=1e-12)

    @pytest.mark.parametrize("make", [cbixlstm_block, pbixlstm_block], ids=["CBiXLSTMBlock", "PBiXLSTMBlock"])
    def test_bidirectional_blocks_read_the_future(self, rng, make):
        blk = make(7)
        x = rng.normal(size=(10, 16)).astype(F64)
        x2 = x.copy()
        x2[9] += rng.normal(size=16)
        with no_grad():
            d = np.abs(blk(Tensor(x)).data[:4] - blk(Tensor(x2)).data[:4]).max()
        assert d > 0.0

    def test_causal_block_does_not(self, rng):
        blk = Residual(MLSTMCore(16, np.random.default_rng(8), F64))
        x = rng.normal(size=(10, 16)).astype(F64)
        x2 = x.copy()
        x2[9] += rng.normal(size=16)
        with no_grad():
            y1 = blk(Tensor(x)).data
            y2 = blk(Tensor(x2)).data
        np.testing.assert_array_equal(y1[:9], y2[:9])
