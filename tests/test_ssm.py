"""Selective state-space tests: scan engines against a plain-numpy oracle,
parallel/sequential agreement, long-input stability, and block semantics."""

import gc
import time
import tracemalloc

import numpy as np
import pytest

from tfse import ssm
from tfse import tensor as T
from tfse.module import Bidirectional, Residual
from tfse.ssm import SEG, MambaCore, selective_scan_par, selective_scan_seq
from tfse.tensor import CompGraph, Tensor, grad_check, grad_check_params, no_grad

F64 = np.float64


def random_scan_inputs(rng, L, d_inner=6, d_state=5, dtype=F64):
    u = Tensor(rng.normal(size=(L, d_inner)).astype(dtype))
    delta = Tensor(rng.uniform(1e-3, 1e-1, size=(L, d_inner)).astype(dtype))
    A = Tensor((-rng.uniform(0.5, 4.0, size=(d_inner, d_state))).astype(dtype))
    B = Tensor(rng.normal(size=(L, d_state)).astype(dtype))
    C = Tensor(rng.normal(size=(L, d_state)).astype(dtype))
    D = Tensor(rng.normal(size=d_inner).astype(dtype))
    return u, delta, A, B, C, D


def numpy_scan_oracle(u, delta, A, B, C, D):
    """Direct recurrence in plain numpy: h_t = exp(delta A) h + delta u B."""
    L, d_inner = u.shape
    d_state = A.shape[1]
    h = np.zeros((d_inner, d_state))
    out = np.zeros((L, d_inner))
    for t in range(L):
        dA = np.exp(delta[t][:, None] * A)
        dBu = (delta[t] * u[t])[:, None] * B[t][None, :]
        h = dA * h + dBu
        out[t] = (h * C[t][None, :]).sum(axis=1) + u[t] * D
    return out


class TestScanAgainstOracle:
    def test_sequential_matches_plain_numpy(self, rng):
        for L in (1, 2, 9, 33):
            args = random_scan_inputs(rng, L)
            with no_grad():
                got = selective_scan_seq(*args).data
            want = numpy_scan_oracle(*(a.data for a in args))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_parallel_matches_plain_numpy(self, rng):
        for L in (1, 2, 9, 33):
            args = random_scan_inputs(rng, L)
            with no_grad():
                got = selective_scan_par(*args).data
            want = numpy_scan_oracle(*(a.data for a in args))
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


class TestScanEquivalence:
    def test_float64_agreement(self):
        worst = 0.0
        for trial in range(20):
            r = np.random.default_rng(trial)
            L = int(r.integers(1, 65))
            args = random_scan_inputs(r, L)
            with no_grad():
                ys = selective_scan_seq(*args).data
                yp = selective_scan_par(*args).data
            worst = max(worst, np.abs(ys - yp).max() / max(np.abs(ys).max(), 1e-12))
        assert worst < 1e-10, worst

    def test_float32_agreement(self):
        worst = 0.0
        for trial in range(10):
            r = np.random.default_rng(100 + trial)
            L = int(r.integers(1, 65))
            args = random_scan_inputs(r, L, dtype=np.float32)
            with no_grad():
                ys = selective_scan_seq(*args).data
                yp = selective_scan_par(*args).data
            worst = max(worst, np.abs(ys - yp).max() / max(np.abs(ys).max(), 1e-6))
        assert worst < 1e-5, worst

    def test_gradients_agree_between_engines(self, rng):
        args = random_scan_inputs(rng, 12)
        grads = {}
        for name, scan in (("seq", selective_scan_seq), ("par", selective_scan_par)):
            for a in args:
                a.requires_grad = True
                a.grad = None
            loss = T.sum_(T.mul(scan(*args), scan(*args)))
            T.backward(loss)
            grads[name] = [a.grad.copy() for a in args]
        for gs, gp in zip(grads["seq"], grads["par"]):
            np.testing.assert_allclose(gs, gp, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("L", [1, SEG - 1, SEG, SEG + 1, 2 * SEG + 3])
    def test_gradients_agree_across_segment_boundaries(self, L):
        # the fused backward recomputes the states one SEG-frame segment at a time
        r = np.random.default_rng(L)
        u, delta, A, B, C, D = random_scan_inputs(r, 2 * L)
        args = [Tensor(x.data.reshape(2, L, -1)) for x in (u, delta)] + [A]
        args += [Tensor(x.data.reshape(2, L, -1)) for x in (B, C)] + [D]
        w = Tensor(r.normal(size=(2, L, 6)))
        grads = {}
        for name, scan in (("seq", selective_scan_seq), ("par", selective_scan_par)):
            for a in args:
                a.requires_grad = True
                a.grad = None
            T.backward(T.sum_(T.mul(scan(*args), w)))
            grads[name] = [a.grad.copy() for a in args]
        for gs, gp in zip(grads["seq"], grads["par"]):
            np.testing.assert_allclose(gs, gp, rtol=1e-9, atol=1e-11)

    def test_recorded_forward_keeps_segment_starts_not_the_state_history(self, rng):
        L, d_inner, d_state = 256, 64, 16
        args = random_scan_inputs(rng, L, d_inner, d_state)
        for a in args:
            a.requires_grad = True
        history = L * d_inner * d_state * np.dtype(F64).itemsize
        tracemalloc.start()
        try:
            y = selective_scan_par(*args)
            kept = tracemalloc.get_traced_memory()[0]  # the output and everything its backward holds
        finally:
            tracemalloc.stop()
        assert y.requires_grad and kept < history / 4, (kept, history)


    @pytest.mark.parametrize("which", range(6), ids=["u", "delta", "A", "B", "C", "D"])
    def test_fused_gradients_match_finite_differences(self, rng, which):
        args = random_scan_inputs(rng, 40)
        w = Tensor(rng.normal(size=(40, 6)))
        args[which].requires_grad = True
        # grad_check perturbs args[which] in place, so f reads it from args
        assert grad_check(lambda _x: T.sum_(T.mul(selective_scan_par(*args), w)), args[which]) < 1e-7

    @pytest.mark.parametrize("which", range(6), ids=["u", "delta", "A", "B", "C", "D"])
    def test_fused_gradients_from_a_carried_state_match_finite_differences(self, rng, which):
        args = random_scan_inputs(rng, 40)
        w = Tensor(rng.normal(size=(40, 6)))
        h0 = rng.normal(size=(1, 5, 6))  # [clips, d_state, d_inner]; the scan advances it in place
        args[which].requires_grad = True
        loss = lambda _x: T.sum_(T.mul(selective_scan_par(*args, state=[h0.copy()]), w))
        assert grad_check(loss, args[which]) < 1e-7

    @pytest.mark.parametrize("cut", [2 * SEG, 2 * SEG + 5])
    def test_halves_with_a_carry_give_the_whole_scan_bit_for_bit(self, rng, cut):
        # the second half starts from the h the first half ends in
        u, delta, A, B, C, D = random_scan_inputs(rng, 5 * SEG + 3)
        slot = []
        with no_grad():
            whole = selective_scan_par(u, delta, A, B, C, D).data
            halves = [selective_scan_par(Tensor(u.data[sl]), Tensor(delta.data[sl]), A, Tensor(B.data[sl]),
                                         Tensor(C.data[sl]), D, state=slot).data
                      for sl in (slice(0, cut), slice(cut, None))]
        assert np.concatenate(halves).tobytes() == whole.tobytes()

    def test_fused_backward_leaves_its_saved_state_intact(self, rng):
        # the backward rebuilds its operands from the inputs and reads its
        # kept segment starts, so it must leave both as the forward did
        args = random_scan_inputs(rng, 30)
        w = Tensor(rng.normal(size=(30, 6)))
        before = [a.data.copy() for a in args]
        grads = []
        for _ in range(2):  # two fresh graphs
            for a in args:
                a.requires_grad, a.grad = True, None
            y = selective_scan_par(*args)
            cells = dict(zip(y._grad_fn.__code__.co_freevars, y._grad_fn.__closure__))
            starts = cells["starts"].cell_contents
            kept = starts.copy()
            T.backward(T.sum_(T.mul(y, w)))
            grads.append([a.grad for a in args])
            np.testing.assert_array_equal(starts, kept)
            for a, b in zip(args, before):
                np.testing.assert_array_equal(a.data, b)
        for g1, g2 in zip(*grads):
            np.testing.assert_array_equal(g1, g2)

    def test_fused_scan_is_one_graph_node(self, rng):
        args = random_scan_inputs(rng, 9)
        for a in args:
            a.requires_grad = True
        y = selective_scan_par(*args)
        assert y._parents == tuple(args)
        assert [n for n in CompGraph(y).order if n.op != "leaf"] == [y]

    def test_fused_scan_under_no_grad_has_no_parents(self, rng):
        args = random_scan_inputs(rng, 9)
        for a in args:
            a.requires_grad = True
        with no_grad():
            y = selective_scan_par(*args)
        assert y._parents == () and y._grad_fn is None and not y.requires_grad


class TestOneClipBlockScan:
    """One clip (N = 1) scans in SEG-frame blocks and a batch frame by frame; they give the same bits."""

    @staticmethod
    def batch_and_clip(L, seed=0):
        # float32 and d_inner 40, so the vector loops run their remainders too
        u, delta, A, B, C, D = random_scan_inputs(np.random.default_rng(seed), 2 * L, 40, 16, np.float32)
        batch = [Tensor(x.data.reshape(2, L, -1)) for x in (u, delta)] + [A]
        batch += [Tensor(x.data.reshape(2, L, -1)) for x in (B, C)] + [D]
        return batch, [Tensor(x.data[0]) if x.data.ndim == 3 else x for x in batch]

    @pytest.mark.parametrize("L", [1, SEG - 1, SEG, SEG + 1, 2 * SEG + 5])
    def test_block_form_gives_the_per_frame_bits(self, L):
        batch, clip = self.batch_and_clip(L)
        with no_grad():
            per_frame = selective_scan_par(*batch).data[0]
            block = selective_scan_par(*clip).data
        for x in clip:
            x.requires_grad = True
        recorded = selective_scan_par(*clip)
        assert recorded.requires_grad
        assert block.tobytes() == per_frame.tobytes() and recorded.data.tobytes() == per_frame.tobytes()

    @pytest.mark.parametrize("cut", [SEG, SEG + 3])
    def test_carried_split_gives_the_per_frame_bits_and_state(self, cut):
        L = 2 * SEG + 5
        batch, clip = self.batch_and_clip(L, seed=cut)
        batch_slot, clip_slot = [], []
        with no_grad():
            per_frame = selective_scan_par(*batch, state=batch_slot).data[0]
            halves = [selective_scan_par(*[Tensor(x.data[sl]) if i in (0, 1, 3, 4) else x for i, x in enumerate(clip)],
                                         state=clip_slot).data for sl in (slice(0, cut), slice(cut, None))]
        assert np.concatenate(halves).tobytes() == per_frame.tobytes()
        assert clip_slot[0][0].tobytes() == batch_slot[0][0].tobytes()


class TestScanStability:
    def test_hundred_thousand_steps_stay_bounded(self, rng):
        L = 100_000
        args = random_scan_inputs(rng, L, d_inner=4, d_state=4)
        with no_grad():
            y = selective_scan_par(*args).data
        assert np.all(np.isfinite(y))
        assert np.abs(y).max() < 1e3

    def test_cost_scales_subquadratically(self, rng):
        # min-of-3 CPU times, the two lengths interleaved and GC off around each
        # call, so neither descheduling nor a collection lands on one length only.
        # An 8x longer clip costs ~8x; the bound, twice that, leaves room for a
        # busy host, while a quadratic algorithm would give ~64 and a scan that
        # adds O(t) work every frame or every second frame reads ~36 and ~27
        inputs = {L: random_scan_inputs(rng, L, d_inner=4, d_state=4) for L in (1024, 32768, 4096)}

        def cpu_time(L):
            gc.disable()
            try:
                with no_grad():
                    t0 = time.process_time()
                    selective_scan_par(*inputs[L])
                    return time.process_time() - t0
            finally:
                gc.enable()

        cpu_time(1024)  # warm caches
        best = {32768: np.inf, 4096: np.inf}
        for _ in range(3):
            for L in best:
                best[L] = min(best[L], cpu_time(L))
        ratio = best[32768] / best[4096]
        assert ratio < 16.0, f"an 8x longer clip multiplied cost by {ratio:.2f}"


class TestMambaCore:
    @pytest.fixture
    def core(self):
        return MambaCore(16, np.random.default_rng(3), F64, d_state=4, expand=2, d_conv=4)

    def test_output_shape(self, core, rng):
        x = Tensor(rng.normal(size=(12, 16)).astype(F64))
        assert core(x).shape == (12, 16)

    def test_scan_engines_agree_inside_the_core(self, core, rng, monkeypatch):
        x = Tensor(rng.normal(size=(12, 16)).astype(F64))
        calls = []

        def sequential(*args, state=None):  # the carry slot, None outside module.carrying
            calls.append((len(args), state))
            return selective_scan_seq(*args)

        with no_grad():
            fused = core(x).data
            monkeypatch.setattr(ssm, "selective_scan_par", sequential)
            np.testing.assert_allclose(fused, core(x).data, rtol=1e-10, atol=1e-12)
        assert calls == [(6, None)]  # the core ran the sequential scan once, on six inputs and no carry

    def test_causal_prefix_is_bit_exact(self, core, rng):
        x = rng.normal(size=(12, 16)).astype(F64)
        x2 = x.copy()
        x2[8:] += rng.normal(size=(4, 16))
        with no_grad():
            y1 = core(Tensor(x)).data
            y2 = core(Tensor(x2)).data
        np.testing.assert_array_equal(y1[:8], y2[:8])

    def test_delta_bias_gives_expected_timescales(self, core):
        # softplus of the stored bias must land in the configured range
        dt = np.log1p(np.exp(core.dt_proj.b.data))
        assert dt.min() >= 1e-3 * 0.99
        assert dt.max() <= 1e-1 * 1.01

    def test_gradients(self, rng):
        core = MambaCore(8, np.random.default_rng(4), F64, d_state=3, expand=2, d_conv=3)
        x = Tensor(rng.normal(size=(6, 8)).astype(F64))

        def loss_fn():
            y = core(x)
            return T.sum_(T.mul(y, y))

        errs = grad_check_params(loss_fn, core.named_parameters(), h=1e-5)
        assert max(errs.values()) < 1e-3, errs


def bimamba_block(seed):
    r = np.random.default_rng(seed)
    return Bidirectional(MambaCore(16, r, F64, d_state=4), MambaCore(16, r, F64, d_state=4))


class TestMambaBlocks:
    def test_residual_definition(self, rng):
        blk = Residual(MambaCore(16, np.random.default_rng(5), F64, d_state=4))
        x = Tensor(rng.normal(size=(10, 16)).astype(F64))
        with no_grad():
            np.testing.assert_array_equal(blk(x).data, x.data + blk.core(x).data)

    def test_bidirectional_composition_definition(self, rng):
        blk = bimamba_block(6)
        x = Tensor(rng.normal(size=(10, 16)).astype(F64))
        with no_grad():
            got = blk(x).data
            fwd = blk.fwd(x).data
            bwd = blk.bwd(Tensor(x.data[::-1].copy())).data[::-1]
        np.testing.assert_allclose(got, x.data + fwd + bwd, atol=1e-12)

    def test_bidirectional_block_reads_the_future(self, rng):
        blk = bimamba_block(6)
        x = rng.normal(size=(10, 16)).astype(F64)
        x2 = x.copy()
        x2[9] += rng.normal(size=16)
        with no_grad():
            d = np.abs(blk(Tensor(x)).data[:4] - blk(Tensor(x2)).data[:4]).max()
        assert d > 0.0

    def test_directions_use_distinct_parameters(self):
        blk = bimamba_block(6)
        names = [n for n, _ in blk.named_parameters()]
        assert any(n.startswith("fwd.") for n in names)
        assert any(n.startswith("bwd.") for n in names)
        fwd_w = dict(blk.named_parameters())["fwd.in_proj.w"].data
        bwd_w = dict(blk.named_parameters())["bwd.in_proj.w"].data
        assert not np.array_equal(fwd_w, bwd_w)
