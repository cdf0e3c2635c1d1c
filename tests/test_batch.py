"""Batch axis: a model run on [B, L, 257] equals the per-clip runs stacked,
forward and backward, for every backbone; train_step's loss is the mean of
the per-clip losses whatever the mix of clip lengths, and its graph and
its traced memory peak stay within a budget."""

import tracemalloc

import numpy as np
import pytest

from tfse import tensor as T
from tfse import training
from tfse.config import RunConfig, read_config, resolve_config_arg
from tfse.errors import DimensionError
from tfse.model import build_model
from tfse.tensor import CompGraph, Tensor, backward, no_grad
from tfse.training import AdamState, clip_loss, train_step

TINY = dict(d_model=32, d_ff=64, heads=4, d_state=4, conv_kernel=7)

# every backbone; the noncausal ones catch a reversal on the batch axis
BACKBONES = [
    ("transformer", True, "none"),
    ("transformer", False, "rope"),
    ("transformer", True, "sin"),
    ("conformer", True, "none"),
    ("conformer", False, "none"),
    ("mamba", True, "none"),
    ("bimamba", False, "none"),
    ("xlstm", True, "none"),
    ("c-bixlstm", False, "none"),
    ("p-bixlstm", False, "none"),
]
IDS = [f"{b}-{'causal' if c else 'noncausal'}-{pe}" for b, c, pe in BACKBONES]


def tiny_model(backbone, causal, pe, dtype, seed=0):
    cfg = RunConfig(backbone=backbone, blocks=2, causal=causal, pe=pe, **TINY).model_config()
    return build_model(cfg, seed=seed, dtype=dtype)


def clips(dtype, batch=3, frames=70, seed=0):
    # 70 frames: more than one 64-frame mLSTM chunk
    return np.random.default_rng(seed).uniform(0.0, 1.5, (batch, frames, 257)).astype(dtype)


@pytest.mark.parametrize("backbone,causal,pe", BACKBONES, ids=IDS)
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)], ids=["f64", "f32"])
def test_batched_forward_equals_stacked_clips(backbone, causal, pe, dtype, tol):
    model = tiny_model(backbone, causal, pe, dtype)
    x = clips(dtype)
    with no_grad():
        batched = model(Tensor(x)).data
        looped = np.stack([model(Tensor(clip)).data for clip in x])
    assert batched.shape == x.shape and batched.dtype == dtype
    np.testing.assert_allclose(batched, looped, rtol=0, atol=tol)


@pytest.mark.parametrize("backbone,causal,pe", BACKBONES, ids=IDS)
def test_batched_gradients_equal_the_per_clip_sum(backbone, causal, pe):
    model = tiny_model(backbone, causal, pe, np.float64)
    x = clips(np.float64)
    w = np.random.default_rng(1).normal(size=x.shape)

    def grads(batched: bool) -> dict:
        model.zero_grad()
        if batched:
            loss = T.sum_(T.mul(model(Tensor(x)), Tensor(w)))
        else:
            loss = None
            for clip, wc in zip(x, w):
                part = T.sum_(T.mul(model(Tensor(clip)), Tensor(wc)))
                loss = part if loss is None else T.add(loss, part)
        backward(loss)
        return {name: p.grad.copy() for name, p in model.named_parameters()}

    batched, looped = grads(True), grads(False)
    scale = max(float(np.abs(g).max()) for g in looped.values())
    for name, g in looped.items():
        # relative to the largest gradient: some entries are zero in exact
        # arithmetic (attention key biases) and differ only by rounding
        np.testing.assert_allclose(batched[name], g, rtol=0, atol=1e-9 * scale, err_msg=name)


@pytest.mark.parametrize("shape", [(2, 3, 10, 257), (257,)])
def test_other_input_ranks_raise(shape):
    model = tiny_model("mamba", True, "none", np.float32)
    with pytest.raises(DimensionError):
        model(Tensor(np.zeros(shape, dtype=np.float32)))


@pytest.mark.parametrize("backbone", ["mamba", "xlstm", "transformer"])
def test_train_step_loss_is_the_mean_of_per_clip_losses_over_mixed_lengths(backbone):
    model = tiny_model(backbone, True, "none", np.float64)
    rng = np.random.default_rng(2)
    batch = [
        (rng.uniform(0, 1.5, (n, 257)), rng.uniform(0, 1, (n, 257)))
        for n in (20, 33, 20, 7, 33)
    ]
    with no_grad():
        want = np.mean([clip_loss(model(Tensor(mag)), tgt, mag, "mask-mse").item() for mag, tgt in batch])

    # the gradient of the step's loss is the per-clip loop's
    model.zero_grad()
    total = None
    for mag, tgt in batch:
        part = clip_loss(model(Tensor(mag)), tgt, mag, "mask-mse")
        total = part if total is None else T.add(total, part)
    backward(T.mul(total, 1.0 / len(batch)))
    want_grad = {name: p.grad.copy() for name, p in model.named_parameters()}

    loss, grad_max = train_step(model, AdamState(), batch, 0.0, "mask-mse")
    assert loss == pytest.approx(want, rel=1e-12)
    assert grad_max == pytest.approx(max(float(np.abs(g).max()) for g in want_grad.values()), rel=1e-9)
    for name, p in model.named_parameters():  # lr 0 leaves the weights; grads are clipped in place
        np.testing.assert_allclose(p.grad, np.clip(want_grad[name], -1, 1), rtol=1e-9, atol=1e-15, err_msg=name)


def test_train_step_with_masked_magnitude_mse_weights_each_error_by_its_magnitude():
    model = tiny_model("mamba", True, "none", np.float64)
    rng = np.random.default_rng(4)
    batch = [(rng.uniform(0, 1.5, (n, 257)), rng.uniform(0, 1, (n, 257))) for n in (20, 33, 20)]
    with no_grad():
        want = np.mean([np.mean(((model(Tensor(mag)).data - tgt) * mag) ** 2) for mag, tgt in batch])
    before = {name: p.data.copy() for name, p in model.named_parameters()}
    loss, grad_max = train_step(model, AdamState(), batch, 1e-3, "masked-magnitude-mse")
    assert loss == pytest.approx(want, rel=1e-12) and 0 < grad_max < np.inf
    assert all(not np.array_equal(p.data, before[name]) for name, p in model.named_parameters())


# one node per head split or merge, per attention, per rotary pair swap and
# per Linear, bias included: a block that rebuilds a chain of layout,
# score/mask/softmax or matmul-then-bias ops goes over its preset's budget
# (each budget is its graph's own count)
@pytest.mark.parametrize(
    "preset,budget",
    [("xlstm-7", 142), ("mamba-7", 142), ("transformer-4", 73), ("transformer-4-rope", 121), ("conformer-4", 149)],
)
def test_train_step_graph_stays_within_its_node_budget(preset, budget, monkeypatch):
    model = build_model(read_config(resolve_config_arg(preset)).model_config(), seed=0)
    rng = np.random.default_rng(3)
    batch = [
        (rng.uniform(0, 1.5, (63, 257)).astype(np.float32), rng.uniform(0, 1, (63, 257)).astype(np.float32))
        for _ in range(2)
    ]
    nodes = []

    def counting_backward(loss):
        nodes.append(sum(1 for n in CompGraph(loss).order if n.op != "leaf"))
        backward(loss)

    monkeypatch.setattr(training, "backward", counting_backward)
    train_step(model, AdamState(), batch, 0.0, "mask-mse")
    assert len(nodes) == 1 and nodes[0] <= budget, nodes


# tracemalloc peak of one batch-2, 63-frame train step, taken after a first
# step so the Adam moments exist. Freeing each intermediate grad once used,
# handing fresh gradient arrays over uncopied, recomputing the Mamba scan
# states per segment, consuming the graph as the backward runs, rebuilding
# the fused ops' one-pass intermediates and forming the mLSTM q, k and v a
# chunk at a time hold it near 27 MB (mamba-7) and 28 MB (xlstm-7). Whole-clip
# q, k and v held from the forward to the backward took xlstm-7 to 36 MB. A
# graph held to the end of the backward peaked at 53 and 57 MB; one that also
# kept every grad and the scan's whole state history, at 107 and 105 MB
@pytest.mark.parametrize("preset,budget_mb", [("mamba-7", 33), ("xlstm-7", 35)])
def test_train_step_peak_memory_stays_within_its_budget(preset, budget_mb):
    model = build_model(read_config(resolve_config_arg(preset)).model_config(), seed=0)
    rng = np.random.default_rng(3)
    batch = [
        (rng.uniform(0, 1.5, (63, 257)).astype(np.float32), rng.uniform(0, 1, (63, 257)).astype(np.float32))
        for _ in range(2)
    ]
    opt = AdamState()
    train_step(model, opt, batch, 1e-3, "mask-mse")
    tracemalloc.start()
    try:
        train_step(model, opt, batch, 1e-3, "mask-mse")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= budget_mb, f"{peak / 1e6:.1f} MB"
