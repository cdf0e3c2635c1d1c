"""Engine tests: every differentiable op is checked against central
finite differences in float64, plus graph mechanics and error paths."""

import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfse import tensor as T
from tfse.config import read_config, resolve_config_arg
from tfse.errors import DimensionError, GraphError
from tfse.model import build_model
from tfse.module import DepthwiseConv1d, carrying
from tfse.ssm import SEG, selective_scan_par
from tfse.xlstm import CHUNK, QKV_BLOCK_SIZE, mlstm_branch
from tfse.tensor import CompGraph, Tensor, backward, grad_check, no_grad
from tfse.training import clip_loss

F64 = np.float64


def t64(rng, *shape, lo=-2.0, hi=2.0, requires_grad=True):
    return Tensor(rng.uniform(lo, hi, shape).astype(F64), requires_grad=requires_grad)


class TestTensorBasics:
    def test_float_inputs_keep_precision(self):
        assert Tensor(np.zeros(2, dtype=np.float32)).dtype == np.float32
        assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64

    def test_non_float_inputs_coerce_to_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_scalar_tensor_stays_zero_dim(self):
        t = Tensor(3.5)
        assert t.shape == ()
        assert t.item() == pytest.approx(3.5)

    def test_item_rejects_non_scalar(self):
        with pytest.raises(GraphError):
            Tensor([1.0, 2.0]).item()

    def test_leaves_start_without_grad(self):
        assert Tensor([1.0], requires_grad=True).grad is None


class TestGraphMechanics:
    def test_diamond_graph_visits_each_node_once(self, rng):
        x = t64(rng, 3)
        y = T.mul(x, x)
        z = T.add(y, y)  # y reachable twice
        loss = T.sum_(z)
        order = CompGraph(loss).order
        assert len(order) == len(set(id(n) for n in order))
        assert order.index(order[order.index(y)]) < order.index(loss)

    def test_backward_rejects_non_scalar(self, rng):
        x = t64(rng, 3)
        with pytest.raises(GraphError):
            backward(T.mul(x, x))

    def test_leaf_grads_accumulate_across_backward_calls(self, rng):
        x = t64(rng, 4)
        loss = T.sum_(T.mul(x, x))
        backward(loss)
        g1 = x.grad.copy()
        loss2 = T.sum_(T.mul(x, x))
        backward(loss2)
        np.testing.assert_allclose(x.grad, 2.0 * g1)

    def test_backward_frees_every_intermediate_grad(self, rng):
        x, w = t64(rng, 3, 4), t64(rng, 3, 4)
        y = T.mul(x, w)
        loss = T.sum_(T.exp(T.add(y, y)))
        order = CompGraph(loss).order
        backward(loss)
        assert all(n.grad is None for n in order if n.op != "leaf")
        e = np.exp(2 * x.data * w.data)
        np.testing.assert_allclose(x.grad, 2 * w.data * e, rtol=1e-14)
        np.testing.assert_allclose(w.grad, 2 * x.data * e, rtol=1e-14)

    def test_a_gradient_passed_to_two_parents_is_copied_for_each(self, rng):
        x, w = t64(rng, 3, 4), t64(rng, 3, 4)
        backward(T.sum_(T.mul(T.add(x, w), t64(rng, 3, 4, requires_grad=False))))
        assert not np.shares_memory(x.grad, w.grad)

    def test_diamond_grad_counts_both_paths(self):
        x = Tensor(np.array(3.0, dtype=F64), requires_grad=True)
        y = T.mul(x, x)
        backward(T.add(y, y))  # d/dx 2x^2 = 4x
        assert x.grad == pytest.approx(12.0)

    def test_no_grad_builds_no_graph(self, rng):
        x = t64(rng, 3)
        with no_grad():
            y = T.mul(x, x)
        assert not y.requires_grad
        assert y._grad_fn is None

    def test_backward_ignores_disconnected_leaves(self, rng):
        x = t64(rng, 3)
        other = t64(rng, 3)
        backward(T.sum_(x))
        assert other.grad is None

    def test_grad_shape_mismatch_raises(self):
        x = Tensor(np.zeros(3, dtype=F64), requires_grad=True)
        with pytest.raises(GraphError):
            x._accumulate(np.zeros((2, 2)))

    def test_backward_consumes_every_node_of_its_graph(self, rng):
        x, w = t64(rng, 3, 4), t64(rng, 3, 4)
        loss = T.sum_(T.exp(T.mul(x, w)))
        nodes = [n for n in CompGraph(loss).order if n.op != "leaf"]
        backward(loss)
        assert len(nodes) == 3 and all(n._grad_fn is None and n._parents == () for n in nodes)

    def test_a_second_backward_on_the_same_loss_raises(self, rng):
        x = t64(rng, 4)
        loss = T.sum_(T.mul(x, x))
        backward(loss)
        once = x.grad.copy()
        with pytest.raises(GraphError, match="already run backward"):
            backward(loss)
        np.testing.assert_array_equal(x.grad, once)

    def test_a_loss_on_a_consumed_subgraph_raises_before_any_gradient_moves(self, rng):
        x, w = t64(rng, 4), t64(rng, 4)
        y = T.exp(T.mul(x, x))
        backward(T.sum_(y))
        once = x.grad.copy()
        with pytest.raises(GraphError, match="'exp' node"):
            backward(T.sum_(T.mul(y, w)))  # w's path is fresh, y's subgraph is spent
        np.testing.assert_array_equal(x.grad, once)
        assert w.grad is None

    def test_a_closure_buffer_is_freed_before_an_earlier_node_runs_backward(self, rng):
        # the attention probabilities live only in the attention node's
        # closure; the node that made its input runs backward after it
        x = t64(rng, 5, 4)
        h = T.mul(x, 2.0)
        att = T.attention(h, h, h, causal=True)
        (probs,) = [c.cell_contents for c in att._grad_fn.__closure__
                    if isinstance(c.cell_contents, np.ndarray) and c.cell_contents.shape == (5, 5)]
        loss = T.sum_(T.mul(att, t64(rng, 5, 4, requires_grad=False)))
        freed, h_grad_fn, seen = weakref.ref(probs), h._grad_fn, []
        del probs, att

        def probe(g):  # h's backward, reading the weakref first
            seen.append(freed() is None)
            h_grad_fn(g)

        h._grad_fn = probe
        assert freed() is not None
        backward(loss)
        assert seen == [True] and x.grad is not None


@pytest.mark.parametrize("preset", ["toy-mamba", "toy-xlstm", "toy-conformer"])
def test_leaf_grads_share_no_memory_after_a_train_step(preset):
    """A gradient array handed over to a leaf belongs to that leaf alone: it
    aliases neither another leaf's grad nor any value in the graph."""
    model = build_model(read_config(resolve_config_arg(preset)).model_config(), seed=0)
    rng = np.random.default_rng(1)
    mag = rng.uniform(0, 1.5, (2, 20, 257)).astype(np.float32)
    loss = clip_loss(model(Tensor(mag)), rng.uniform(0, 1, mag.shape).astype(np.float32), mag, "mask-mse")
    order = CompGraph(loss).order
    backward(loss)
    grads = [n.grad for n in order if n.op == "leaf" and n.grad is not None]
    assert len(grads) == sum(1 for _ in model.parameters())
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, other) for other in grads[i + 1:])
        assert not any(np.shares_memory(g, n.data) for n in order)


UNARY_CASES = [
    ("neg", lambda x: T.neg(x), (-2.0, 2.0)),
    ("abs", lambda x: T.abs_(x), (0.5, 2.0)),
    ("exp", lambda x: T.exp(x), (-2.0, 2.0)),
    ("sigmoid", lambda x: T.sigmoid(x), (-4.0, 4.0)),
    ("relu", lambda x: T.relu(x), (0.3, 2.0)),
    ("silu", lambda x: T.silu(x), (-3.0, 3.0)),
    ("softplus", lambda x: T.softplus(x), (-3.0, 3.0)),
    ("reshape", lambda x: T.rearrange(x, (12,)), (-2.0, 2.0)),
    ("transpose", lambda x: T.rearrange(x, x.shape, (1, 0)), (-2.0, 2.0)),
    ("swapaxes", lambda x: T.rearrange(x, (3, 2, 2), (2, 1, 0)), (-2.0, 2.0)),
    ("split_permute_merge", lambda x: T.rearrange(x, (3, 2, 2), (1, 0, 2), (2, 6)), (-2.0, 2.0)),
    ("slice", lambda x: x[1:, ::2], (-2.0, 2.0)),
    ("sum_all", lambda x: T.sum_(x), (-2.0, 2.0)),
    ("sum_axis0", lambda x: T.sum_(x, axis=0), (-2.0, 2.0)),
    ("mean_keepdims", lambda x: T.mean(x, axis=1, keepdims=True), (-2.0, 2.0)),
]


class TestGradientOracle:
    """Reverse-mode gradients must match central finite differences."""

    @pytest.mark.parametrize("name,fn,box", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
    def test_unary_like_ops(self, rng, name, fn, box):
        x = t64(rng, 3, 4, lo=box[0], hi=box[1])
        err = grad_check(lambda t: T.sum_(T.mul(fn(t), fn(t))), x)
        assert err < 1e-6, f"{name}: {err:.3e}"

    def test_add_broadcast(self, rng):
        x = t64(rng, 3, 4)
        other = Tensor(rng.normal(size=(4,)).astype(F64))
        err = grad_check(lambda t: T.sum_(T.mul(T.add(t, other), T.add(t, other))), x)
        assert err < 1e-6

    def test_broadcast_grad_flows_to_small_side(self, rng):
        small = t64(rng, 4)
        big = Tensor(rng.normal(size=(3, 4)).astype(F64))
        err = grad_check(lambda t: T.sum_(T.mul(T.mul(t, big), T.mul(t, big))), small)
        assert err < 1e-6

    def test_div(self, rng):
        x = t64(rng, 3, 4, lo=0.5, hi=2.0)
        d = Tensor(rng.uniform(0.5, 2.0, (3, 4)).astype(F64))
        err = grad_check(lambda t: T.sum_(T.div(d, t)), x)
        assert err < 1e-6

    def test_maximum_both_sides(self, rng):
        # keep operands well separated so FD never straddles the tie
        a = Tensor(rng.uniform(2.0, 3.0, (3, 4)).astype(F64), requires_grad=True)
        b = Tensor(rng.uniform(0.0, 1.0, (3, 4)).astype(F64), requires_grad=True)
        backward(T.sum_(T.maximum(a, b)))
        np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
        assert b.grad is None or np.all(b.grad == 0)

    def test_maximum_tie_goes_to_first_argument(self):
        a = Tensor(np.ones(3, dtype=F64), requires_grad=True)
        b = Tensor(np.ones(3, dtype=F64), requires_grad=True)
        backward(T.sum_(T.maximum(a, b)))
        np.testing.assert_array_equal(a.grad, np.ones(3))
        assert b.grad is None or np.all(b.grad == 0)

    def test_matmul_2d(self, rng):
        x = t64(rng, 3, 5)
        w = Tensor(rng.normal(size=(5, 4)).astype(F64))
        err = grad_check(lambda t: T.sum_(T.mul(T.matmul(t, w), T.matmul(t, w))), x)
        assert err < 1e-6

    def test_matmul_batched(self, rng):
        x = t64(rng, 2, 3, 5)
        w = Tensor(rng.normal(size=(2, 5, 4)).astype(F64))
        err = grad_check(lambda t: T.sum_(T.matmul(t, w)), x)
        assert err < 1e-6

    def test_matmul_right_operand(self, rng):
        a = Tensor(rng.normal(size=(3, 5)).astype(F64))
        w = t64(rng, 5, 4)
        err = grad_check(lambda t: T.sum_(T.mul(T.matmul(a, t), T.matmul(a, t))), w)
        assert err < 1e-6

    def test_concat(self, rng):
        x = t64(rng, 3, 4)
        other = Tensor(rng.normal(size=(2, 4)).astype(F64))
        err = grad_check(lambda t: T.sum_(T.mul(T.concat([t, other], axis=0), 1.5)), x)
        assert err < 1e-6

    def test_layer_norm(self, rng):
        x = t64(rng, 4, 6)
        g = Tensor(rng.uniform(0.5, 1.5, 6).astype(F64))
        b = Tensor(rng.normal(size=6).astype(F64))
        err = grad_check(lambda t: T.sum_(T.mul(T.layer_norm(t, g, b), T.layer_norm(t, g, b))), x)
        assert err < 1e-5

    def test_conv1d_same_padding(self, rng):
        x = t64(rng, 8, 3)
        k = Tensor(rng.normal(size=(5, 3)).astype(F64))
        err = grad_check(lambda t: T.sum_(T.mul(T.depthwise_conv1d(t, k), T.depthwise_conv1d(t, k))), x)
        assert err < 1e-6

    def test_conv1d_kernel_grad(self, rng):
        x = Tensor(rng.normal(size=(8, 3)).astype(F64))
        k = t64(rng, 5, 3)
        err = grad_check(lambda t: T.sum_(T.depthwise_conv1d(x, t, causal=True)), k)
        assert err < 1e-6

    def test_depthwise_conv1d(self, rng):
        x = t64(rng, 8, 3)
        k = Tensor(rng.normal(size=(5, 3)).astype(F64))
        err = grad_check(lambda t: T.sum_(T.mul(T.depthwise_conv1d(t, k, causal=True), 2.0)), x)
        assert err < 1e-6

    def test_composite_network_gradient(self, rng):
        x = t64(rng, 5, 7)
        w1 = Tensor(rng.normal(size=(7, 6)).astype(F64))
        g = Tensor(np.ones(6, dtype=F64))
        b = Tensor(np.zeros(6, dtype=F64))

        def f(t):
            h = T.layer_norm(T.matmul(t, w1), g, b)
            a = T.rearrange(h, (5, 2, 3), (1, 0, 2))  # two heads of three features
            return T.sum_(T.mul(T.attention(a, T.silu(a), a, causal=True), T.silu(a)))

        assert grad_check(f, x) < 1e-6


def _ref_pad(a, pad_width):
    inner = tuple(slice(lo, lo + n) for (lo, _), n in zip(pad_width, a.shape))

    def grad_fn(g):
        a._accumulate(g[inner])

    return T._make(np.pad(a.data, pad_width), (a,), grad_fn, "pad")


def _ref_pow(a, p):
    ad = a.data

    def grad_fn(g):
        a._accumulate(g * p * ad ** (p - 1.0))

    return T._make(ad**p, (a,), grad_fn, "pow")


def ref_layer_norm(x, gain, bias=None, groups=1):
    """The node-by-node composition that T.layer_norm fuses."""
    xg = x if groups == 1 else T.rearrange(x, (*x.shape[:-1], groups, x.shape[-1] // groups))
    mu = T.mean(xg, axis=-1, keepdims=True)
    xc = T.sub(xg, mu)
    var = T.mean(T.mul(xc, xc), axis=-1, keepdims=True)
    normed = T.mul(xc, _ref_pow(T.add(var, T.LAYER_NORM_EPS), -0.5))
    if groups != 1:
        normed = T.rearrange(normed, x.shape)
    out = T.mul(normed, gain)
    return out if bias is None else T.add(out, bias)


def ref_depthwise_conv1d(x, kernel, bias=None, causal=False):
    """The per-tap getitem/mul/add composition that T.depthwise_conv1d fuses."""
    k = kernel.shape[0]
    L = x.shape[-2]
    lo = k - 1 if causal else (k - 1) // 2
    xp = _ref_pad(x, ((0, 0),) * (x.ndim - 2) + ((lo, k - 1 - lo), (0, 0)))
    out = None
    for j in range(k):
        term = T.mul(xp[..., j:j + L, :], kernel[j])
        out = term if out is None else T.add(out, term)
    return out if bias is None else T.add(out, bias)


def _n_recorded(out):
    return sum(1 for n in CompGraph(out).order if n._grad_fn is not None)


class TestFusedNormAndConv:
    """The fused ops against the compositions they replace: the forward bit
    for bit, the backward against the composition's and finite differences."""

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("shape", [(7, 8), (2, 5, 8)], ids=["2d", "3d"])
    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
    def test_layer_norm_forward_is_the_composition_bit_for_bit(self, rng, dtype, shape, groups, with_bias):
        x = Tensor((rng.normal(size=shape) * 3 + 1).astype(dtype))
        gain = Tensor(rng.uniform(0.5, 1.5, shape[-1]).astype(dtype))
        bias = Tensor(rng.normal(size=shape[-1]).astype(dtype)) if with_bias else None
        got = T.layer_norm(x, gain, bias, groups=groups).data
        want = ref_layer_norm(x, gain, bias, groups=groups).data
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("shape", [(9, 3), (2, 9, 3)], ids=["2d", "3d"])
    @pytest.mark.parametrize("k", [1, 4, 5])
    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "centred"])
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
    def test_conv_forward_is_the_composition_bit_for_bit(self, rng, dtype, shape, k, causal, with_bias):
        x = Tensor(rng.normal(size=shape).astype(dtype))
        kernel = Tensor(rng.normal(size=(k, shape[-1])).astype(dtype))
        bias = Tensor(rng.normal(size=shape[-1]).astype(dtype)) if with_bias else None
        got = T.depthwise_conv1d(x, kernel, bias, causal=causal).data
        want = ref_depthwise_conv1d(x, kernel, bias, causal=causal).data
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "3d"])
    def test_causal_conv_halves_with_a_carry_give_the_whole_conv_bit_for_bit(self, rng, k, lead):
        # inside carrying(), the second window is padded with the first one's last k - 1 frames
        conv = DepthwiseConv1d(6, k, rng, F64, causal=True)
        x = rng.normal(size=(*lead, 20, 6))
        with carrying():
            whole = conv(Tensor(x)).data
        with carrying():
            halves = [conv(Tensor(x[..., sl, :])).data for sl in (slice(0, 7), slice(7, None))]
        assert np.concatenate(halves, axis=-2).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("which", ["x", "kernel"])
    def test_causal_conv_gradients_past_a_carried_window_match_finite_differences(self, rng, which):
        x, kernel, past = t64(rng, 6, 3), t64(rng, 4, 3), rng.normal(size=(3, 3))
        w = Tensor(rng.normal(size=(6, 3)))
        loss = lambda _t: T.sum_(T.mul(T.depthwise_conv1d(x, kernel, causal=True, past=past), w))
        assert grad_check(loss, x if which == "x" else kernel) < 1e-7

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("shape", [(63, 256), (2, 63, 512), (2, 63, 256), (1, 2500, 512), (3, 7, 16), (2, 1, 8)])
    def test_conv_forward_is_the_tap_loop_bit_for_bit(self, rng, dtype, shape):
        """At model sizes, against the loop that adds one tap's product at a time."""
        x, L = rng.normal(size=shape).astype(dtype), shape[-2]
        for k, causal in ((4, True), (4, False), (31, True), (31, False)):
            kernel = rng.normal(size=(k, shape[-1])).astype(dtype)
            lo = k - 1 if causal else (k - 1) // 2
            xp = np.pad(x, ((0, 0),) * (x.ndim - 2) + ((lo, k - 1 - lo), (0, 0)))
            want = xp[..., :L, :] * kernel[0]
            for j in range(1, k):
                want += xp[..., j:j + L, :] * kernel[j]
            got = T.depthwise_conv1d(Tensor(x), Tensor(kernel), causal=causal).data
            assert got.dtype == dtype and got.tobytes() == want.tobytes(), (k, causal)

    def test_each_op_records_one_node_and_none_without_grad(self, rng):
        x, gain, bias = t64(rng, 2, 6, 8), t64(rng, 8), t64(rng, 8)
        kernel = t64(rng, 3, 8)
        ops = (
            lambda: T.layer_norm(x, gain, bias, groups=2),
            lambda: T.depthwise_conv1d(x, kernel, bias),
            lambda: T.attention(x, x, x, causal=True),
        )
        assert all(_n_recorded(op()) == 1 for op in ops)
        with no_grad():
            for out in (op() for op in ops):
                assert not out.requires_grad and out._grad_fn is None and out._parents == ()

    def test_backward_matches_the_composition(self, rng):
        x, gain, bias, kernel = t64(rng, 2, 7, 8), t64(rng, 8), t64(rng, 8), t64(rng, 4, 8)
        w = rng.normal(size=(2, 7, 8))
        grads = []
        for norm, conv in ((T.layer_norm, T.depthwise_conv1d), (ref_layer_norm, ref_depthwise_conv1d)):
            for p in (x, gain, bias, kernel):
                p.zero_grad()
            h = conv(norm(x, gain, bias, groups=2), kernel, bias, causal=False)
            backward(T.sum_(T.mul(h, w)))
            grads.append([p.grad.copy() for p in (x, gain, bias, kernel)])
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_layer_norm_gain_grad(self, rng):
        x, b = Tensor(rng.normal(size=(2, 4, 6))), Tensor(rng.normal(size=6))
        err = grad_check(lambda t: T.sum_(T.mul(T.layer_norm(x, t, b), T.layer_norm(x, t, b))), t64(rng, 6))
        assert err < 1e-6

    def test_layer_norm_bias_grad(self, rng):
        x, g = Tensor(rng.normal(size=(2, 4, 6))), Tensor(rng.uniform(0.5, 1.5, 6))
        err = grad_check(lambda t: T.sum_(T.mul(T.layer_norm(x, g, t), T.layer_norm(x, g, t))), t64(rng, 6))
        assert err < 1e-6

    def test_layer_norm_grouped_input_grad(self, rng):
        g, b = Tensor(rng.uniform(0.5, 1.5, 8)), Tensor(rng.normal(size=8))
        w = Tensor(rng.normal(size=(3, 8)))
        err = grad_check(lambda t: T.sum_(T.mul(T.layer_norm(t, g, b, groups=4), w)), t64(rng, 3, 8))
        assert err < 1e-6

    def test_conv_bias_grad(self, rng):
        x, k = Tensor(rng.normal(size=(2, 8, 3))), Tensor(rng.normal(size=(3, 3)))
        err = grad_check(lambda t: T.sum_(T.mul(T.depthwise_conv1d(x, k, t), T.depthwise_conv1d(x, k, t))), t64(rng, 3))
        assert err < 1e-6

    def test_centred_even_k_input_grad(self, rng):
        k, w = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(8, 3)))
        err = grad_check(lambda t: T.sum_(T.mul(T.depthwise_conv1d(t, k), w)), t64(rng, 8, 3))
        assert err < 1e-6

    def test_batched_kernel_grad(self, rng):
        x, w = Tensor(rng.normal(size=(2, 8, 3))), Tensor(rng.normal(size=(2, 8, 3)))
        err = grad_check(lambda t: T.sum_(T.mul(T.depthwise_conv1d(x, t), w)), t64(rng, 5, 3))
        assert err < 1e-6


def closure_arrays(fn):
    """(free variable, array) for every ndarray fn's closure reaches, through
    the closures of nested functions, tuples and the data of Tensors."""
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        stack = [cell.cell_contents]
        while stack:
            v = stack.pop()
            if isinstance(v, Tensor):
                v = v.data
            if isinstance(v, np.ndarray):
                yield name, v
            elif isinstance(v, (tuple, list)):
                stack.extend(v)
            elif isinstance(v, types.FunctionType):
                yield from closure_arrays(v)


def _fused(op, *inputs, **kw):
    return op(*inputs, **kw), inputs


def _scan_case(rng):
    args = (t64(rng, 2, 20, 6), t64(rng, 2, 20, 6, lo=1e-3, hi=0.1), t64(rng, 6, 5, lo=-4.0, hi=-0.5),
            t64(rng, 2, 20, 5), t64(rng, 2, 20, 5), t64(rng, 6))
    return _fused(selective_scan_par, *args)


TRIMMED_OPS = {
    "silu": lambda r: _fused(T.silu, t64(r, 2, 7, 8)),
    "softplus": lambda r: _fused(T.softplus, t64(r, 2, 7, 8)),
    "layer_norm": lambda r: _fused(T.layer_norm, t64(r, 2, 7, 8), t64(r, 8), t64(r, 8)),
    "layer_norm-groups": lambda r: _fused(T.layer_norm, t64(r, 2, 7, 8), t64(r, 8), t64(r, 8), groups=4),
    "conv-causal": lambda r: _fused(T.depthwise_conv1d, t64(r, 2, 7, 8), t64(r, 4, 8), t64(r, 8), causal=True),
    "conv-centred": lambda r: _fused(T.depthwise_conv1d, t64(r, 2, 7, 8), t64(r, 4, 8), t64(r, 8)),
    "selective_scan": _scan_case,
}


class TestFusedClosures:
    """A fused op's backward keeps no array it can rebuild: every array its
    closure reaches is an input's or the output's data or a per-row
    reduction (keepdims over the last axis), except the scan's segment starts.
    The mLSTM branch keeps its scan's chunk starts and last-chunk terms, and
    no whole-clip q, k or v."""

    @pytest.mark.parametrize("case", TRIMMED_OPS)
    def test_closure_holds_only_inputs_outputs_and_row_reductions(self, rng, case):
        out, inputs = TRIMMED_OPS[case](rng)
        held = list(closure_arrays(out._grad_fn))
        assert held
        for name, arr in held:
            if name == "starts":  # the scan's deliberate store, one state per SEG-frame segment
                assert case == "selective_scan" and arr.shape == (-(-20 // SEG), 2, 5, 6)
                continue
            shared = any(np.shares_memory(arr, t.data) for t in (*inputs, out))
            reduced = arr.ndim > 0 and arr.shape[-1] == 1 and arr.size < out.size
            assert shared or reduced, (name, arr.shape)

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "batched"])
    def test_mlstm_branch_holds_no_whole_clip_q_k_or_v(self, rng, lead):
        # two chunks, the second 6 frames: only the output is [N * H, L, d_head]
        heads, L, bs, n = 2, CHUNK + 6, QKV_BLOCK_SIZE, int(np.prod(lead))
        weights = (t64(rng, 4, bs, bs) for _ in range(3))  # d_head 2 * bs
        inputs = (t64(rng, *lead, L, 4 * bs), *weights, t64(rng, n * heads, L), t64(rng, n * heads, L))
        out = mlstm_branch(*inputs, heads)
        held = list(closure_arrays(out._grad_fn))
        assert held and out.shape == (n * heads, L, 2 * bs)
        for name, arr in held:
            if arr.shape == out.shape:
                assert np.shares_memory(arr, out.data), name
            elif name not in ("starts", "last", "mask", "k_scale"):  # the scan's stores, its constants
                assert any(np.shares_memory(arr, t.data) for t in inputs), (name, arr.shape)


class TestLinearAndSilu:
    """T.linear against the folded matmul and the add it replaces, bit for
    bit, and the one-exp SiLU against x * sigmoid(x)."""

    @pytest.mark.parametrize("k", [1, 5, 64])
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
    def test_linear_is_matmul_then_add_bit_for_bit(self, rng, k, with_bias):
        x, w, b = (Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for s in ((2, 63, k), (k, 7), (7,)))
        b = b if with_bias else None
        g = Tensor(rng.normal(size=(2, 63, 7)).astype(np.float32))

        def oracle(x, w, b):  # one GEMM over the 126 rows, then the bias as an add node on [2, 63, 7]
            y = T.rearrange(T.matmul(T.rearrange(x, (-1, k)), w), (2, 63, 7))
            return y if b is None else T.add(y, b)

        results = []
        for f in (T.linear, oracle):
            params = (x, w) if b is None else (x, w, b)
            for p in params:
                p.zero_grad()
            out = f(x, w, b)
            backward(T.sum_(T.mul(out, g)))
            results.append([out.data] + [p.grad for p in params])
        assert _n_recorded(T.linear(x, w, b)) == 1
        for got, want in zip(*results):
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)], ids=["2d", "3d"])
    def test_linear_gradients(self, rng, shape):
        x, w, b = t64(rng, *shape), t64(rng, 4, 5), t64(rng, 5)
        wt = Tensor(rng.normal(size=(*shape[:-1], 5)))
        for t in (x, w, b):
            assert grad_check(lambda _t: T.sum_(T.mul(T.linear(x, w, b), wt)), t) < 1e-8

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_silu_is_x_times_sigmoid_within_four_ulp(self, rng, dtype):
        x = (rng.normal(size=4000) * 20).astype(dtype)
        x[:10] = [0.0, -0.0, 1.0, -1.0, -90.0, 1000.0, -1000.0, np.inf, -np.inf, np.nan]
        with np.errstate(invalid="ignore"):  # -inf is NaN in both forms: -inf / inf and -inf * 0
            got = T.silu(Tensor(x)).data
            want = x * T.sigmoid(Tensor(x)).data
        assert got.dtype == dtype and np.isnan(got[9])
        # 4 ulp relative; absolutely below 1000 smallest normals where exp(-x)
        # overflows (x below about -88 in float32), which gives -0.0
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(dtype).eps, atol=1000 * np.finfo(dtype).tiny)

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_silu_and_its_gradient_are_the_plain_quotient_bit_for_bit(self, rng, dtype):
        x = (rng.normal(size=1000) * 20).astype(dtype)
        x[:8] = [0.0, -0.0, 1.0, -1.0, -100.0, 100.0, -1000.0, np.nan]
        w = rng.normal(size=1000).astype(dtype)
        t = Tensor(x, requires_grad=True)
        with np.errstate(over="ignore"):  # exp(100) overflows float32, exp(1000) both
            out = T.silu(t)
            T.backward(T.sum_(T.mul(out, Tensor(w))))
            want = x / (1.0 + np.exp(-x))
            s = 1.0 / (1.0 + np.exp(-x))
        assert out.data.dtype == dtype and out.data.tobytes() == want.tobytes()
        assert t.grad.tobytes() == (w * (s + want * (1.0 - s))).tobytes()
        assert np.isnan(out.data[7]) and out.data[6] == 0.0 and np.signbit(out.data[6])  # x / inf is -0.0
        if dtype == np.float32:
            assert out.data[4] == 0.0 and np.signbit(out.data[4])

    def test_silu_gradient(self, rng):
        assert grad_check(lambda t: T.sum_(T.mul(T.silu(t), t)), t64(rng, 40, lo=-40.0, hi=40.0)) < 1e-8


def ref_attention(q, k, v, causal):
    """The score -> scale -> mask -> softmax -> @ v sequence that T.attention
    fuses, in numpy: the scale is cast to the operands' dtype first."""
    L, d = q.shape[-2:]
    s = (q @ k.swapaxes(-1, -2)) * np.asarray(1.0 / np.sqrt(d), dtype=q.dtype)
    if causal:
        s = s + np.triu(np.full((L, L), -np.inf, dtype=q.dtype), 1)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)) @ v


class TestAttention:
    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["LD", "HLD", "NHLD"])
    @pytest.mark.parametrize("L", [1, 70])
    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "noncausal"])
    def test_forward_is_the_composition_bit_for_bit(self, rng, dtype, lead, L, causal):
        q, k, v = (rng.normal(size=(*lead, L, 8)).astype(dtype) for _ in range(3))
        got = T.attention(Tensor(q), Tensor(k), Tensor(v), causal).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, ref_attention(q, k, v, causal))

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["q", "k", "v"])
    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "noncausal"])
    def test_gradients_match_finite_differences(self, rng, which, causal):
        qkv = [Tensor(rng.normal(size=(2, 5, 3))) for _ in range(3)]
        w = Tensor(rng.normal(size=(2, 5, 3)))

        def f(t):
            args = list(qkv)
            args[which] = t
            return T.sum_(T.mul(T.attention(*args, causal=causal), w))

        x = qkv[which]
        x.requires_grad = True
        assert grad_check(f, x) < 1e-6

    def test_causal_rows_never_read_later_frames(self, rng):
        q, k, v = (rng.normal(size=(2, 12, 4)) for _ in range(3))
        y1 = T.attention(Tensor(q), Tensor(k), Tensor(v), causal=True).data
        for a in (q, k, v):
            a[:, 6:] = rng.normal(size=(2, 6, 4))
        y2 = T.attention(Tensor(q), Tensor(k), Tensor(v), causal=True).data
        np.testing.assert_array_equal(y1[:, :6], y2[:, :6])


# (input shape, shape, axes, to)
REARRANGES = {
    "minus_one": ((2, 3, 4), (-1, 4), None, None),
    "axes": ((2, 3, 4), (2, 3, 4), (2, 0, 1), None),
    "to": ((2, 3, 4), (6, 4), None, (4, 6)),
    "split_permute_merge": ((2, 5, 12), (-1, 5, 3, 4), (0, 2, 1, 3), (-1, 5, 4)),
}


class TestRearrange:
    """The one layout op: numpy's reshape -> transpose -> reshape as one node,
    its backward the same data movement undone."""

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("case", REARRANGES.values(), ids=REARRANGES.keys())
    def test_forward_is_numpy_bit_for_bit(self, rng, case, dtype):
        src, shape, axes, to = case
        x = rng.normal(size=src).astype(dtype)
        want = x.reshape(shape)
        if axes is not None:
            want = want.transpose(axes)
        if to is not None:
            want = want.reshape(to)
        got = T.rearrange(Tensor(x), shape, axes, to).data
        assert got.shape == want.shape and got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", REARRANGES.values(), ids=REARRANGES.keys())
    def test_records_one_node_and_none_without_grad(self, rng, case):
        src, shape, axes, to = case
        x = t64(rng, *src)
        assert _n_recorded(T.rearrange(x, shape, axes, to)) == 1
        with no_grad():
            out = T.rearrange(x, shape, axes, to)
        assert not out.requires_grad and out._grad_fn is None and out._parents == ()

    @pytest.mark.parametrize("case", REARRANGES.values(), ids=REARRANGES.keys())
    def test_backward_hands_back_the_upstream_gradient_arranged_inversely(self, rng, case):
        src, shape, axes, to = case
        n = int(np.prod(src))
        # where each input element lands: rearrange the element indices themselves
        with no_grad():
            dest = T.rearrange(Tensor(np.arange(n, dtype=F64)), shape, axes, to).data.astype(int)
        x = t64(rng, *src)
        g = rng.normal(size=dest.shape)
        backward(T.sum_(T.mul(T.rearrange(x, shape, axes, to), Tensor(g))))
        want = np.empty(n)
        want[dest.reshape(-1)] = g.reshape(-1)
        np.testing.assert_array_equal(x.grad, want.reshape(src))


class TestGradCheckDetectsCorruption:
    """The finite-difference comparison itself must be able to fail."""

    def test_wrong_backward_is_flagged(self, rng):
        x = t64(rng, 4, 3)

        def bad_square(t):
            def gfn(g):
                t._accumulate(3.0 * t.data * g)  # true gradient is 2 * t

            return T._make(t.data * t.data, (t,), gfn, "bad-square")

        err = grad_check(lambda t: T.sum_(bad_square(t)), x)
        assert err > 1e-2

    def test_identity_function_has_near_zero_error(self, rng):
        x = t64(rng, 4, 3)
        assert grad_check(lambda t: T.sum_(t), x) < 1e-9


class TestForwardSemantics:
    def test_causal_conv_never_reads_the_future(self, rng):
        x = Tensor(rng.normal(size=(10, 2)).astype(F64))
        k = Tensor(rng.normal(size=(4, 2)).astype(F64))
        y1 = T.depthwise_conv1d(x, k, causal=True).data.copy()
        x2 = Tensor(np.concatenate([x.data[:6], rng.normal(size=(4, 2))]))
        y2 = T.depthwise_conv1d(x2, k, causal=True).data
        np.testing.assert_array_equal(y1[:6], y2[:6])

    def test_conv1d_matches_manual_correlation(self, rng):
        x = rng.normal(size=(6, 2))
        k = rng.normal(size=(3, 2))
        y = T.depthwise_conv1d(Tensor(x), Tensor(k), causal=True).data
        xp = np.concatenate([np.zeros((2, 2)), x])
        want = np.array([sum(xp[t + j] * k[j] for j in range(3)) for t in range(6)])
        np.testing.assert_allclose(y, want, atol=1e-12)

    def test_matmul_dim_mismatch_raises(self, rng):
        with pytest.raises(DimensionError):
            T.matmul(t64(rng, 3, 4), t64(rng, 5, 6))

    def test_getitem_gradients_add_into_the_parent_gradient(self, rng):
        x = t64(rng, 6, 3)
        w1, w2, w3 = (rng.normal(size=(k, 3)) for k in (4, 4, 6))
        loss = T.add(
            T.add(T.sum_(T.mul(x[:4], w1)), T.sum_(T.mul(x[2:], w2))),
            T.sum_(T.mul(x[::-1], w3)),
        )
        want = w3[::-1].copy()
        want[:4] += w1
        want[2:] += w2
        backward(loss)
        np.testing.assert_allclose(x.grad, want, atol=1e-12)
        backward(T.sum_(T.mul(x[2:], w2)))  # a fresh graph adds into the leaf gradient the first one left
        want[2:] += w2
        np.testing.assert_allclose(x.grad, want, atol=1e-12)

    def test_getitem_rejects_index_arrays(self, rng):
        x = t64(rng, 5)
        with pytest.raises(GraphError):
            x[np.array([0, 0, 1])]

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_sigmoid_is_the_two_branch_form_bit_for_bit(self, rng, dtype):
        x = (rng.normal(size=200) * 30).astype(dtype)
        x[:6] = [0.0, -0.0, 1000.0, -1000.0, np.inf, -np.inf]
        pos = x >= 0
        want = np.empty_like(x)
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        want[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
        got = T.sigmoid(Tensor(x)).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
        xs = Tensor(x[6:], requires_grad=True)
        backward(T.sum_(T.softplus(xs)))
        np.testing.assert_array_equal(xs.grad, want[6:])


class TestPropertyBased:
    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_mul_gradient_is_other_operand(self, rows, cols, seed):
        r = np.random.default_rng(seed)
        a = Tensor(r.normal(size=(rows, cols)).astype(F64), requires_grad=True)
        b = Tensor(r.normal(size=(rows, cols)).astype(F64), requires_grad=True)
        backward(T.sum_(T.mul(a, b)))
        np.testing.assert_allclose(a.grad, b.data, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.data, atol=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_sigmoid_stays_in_unit_interval(self, seed):
        r = np.random.default_rng(seed)
        x = Tensor(r.uniform(-50, 50, size=16).astype(F64))
        y = T.sigmoid(x).data
        assert np.all(y >= 0.0) and np.all(y <= 1.0)
        assert np.all(np.isfinite(y))


class FakeLibc:
    """Stands in for ctypes.CDLL(None) and records mallopt calls."""

    def __init__(self, calls):
        self.calls = calls
        self.gnu_get_libc_version = lambda: b"2.99"

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        self.mallopt = mallopt


class TestMallocPin:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for key in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
            monkeypatch.delenv(key, raising=False)
        monkeypatch.setattr("ctypes.CDLL", lambda name: FakeLibc(calls))
        return calls

    def test_sets_both_thresholds(self, calls):
        T.pin_malloc_thresholds()
        assert sorted(calls) == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_no_libc_is_a_no_op(self, monkeypatch):
        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr("ctypes.CDLL", no_libc)
        T.pin_malloc_thresholds()

    def test_not_glibc_is_a_no_op(self, calls, monkeypatch):
        libc = FakeLibc(calls)
        del libc.gnu_get_libc_version
        monkeypatch.setattr("ctypes.CDLL", lambda name: libc)
        T.pin_malloc_thresholds()
        assert calls == []

    @pytest.mark.parametrize("key", ["MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"])
    def test_user_setting_wins(self, calls, monkeypatch, key):
        monkeypatch.setenv(key, "1000000")
        T.pin_malloc_thresholds()
        assert calls == []
