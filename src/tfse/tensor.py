"""Dense real tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 by default, float64 on request); every
operation records a backward closure so scalar losses differentiate through
arbitrary compositions. The op set is exactly what the enhancement models
need: elementwise arithmetic and activations, batched matmul, one layout
op (rearrange: reshape, permute, reshape) beside basic indexing and
concat, sum and mean, and four fused ops of one node and a closed-form
backward each: the affine map of a Linear layer, scaled dot-product
attention, (grouped) layer norm and depthwise 1-D convolution.

Gradient accumulation is additive: backward() calls on fresh graphs keep
adding to leaf .grad buffers until zero_grad(). A graph runs backward once,
each node freeing its grad, closure and parent links as its backward runs,
and a fused op's closure keeps no array its backward can rebuild in a pass
or two from the inputs. _accumulate keeps an array an op allocated for one
parent alone (owned=True) as that parent's first .grad; a g passed through
to a parent, a broadcast view or a slice of a larger buffer is copied, as
others may hold it.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError, GraphError

DEFAULT_DTYPE = np.float32
LAYER_NORM_EPS = 1e-5


def pin_malloc_thresholds() -> None:
    """Keep freed op buffers below 32 MB in glibc's heap.

    By default glibc serves a large allocation by mmap and unmaps it on
    free until a free of that size raises its dynamic threshold, so whether
    an op's per-call temporaries (scan states, einsum outputs, gradient
    buffers) are faulted in afresh on every call depends on what the
    process freed before. Fixed thresholds make it the same for every
    process. Nothing is done off glibc, or when the user has set either
    threshold through glibc's own environment variables.
    """
    if "MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ:
        return
    try:
        libc = ctypes.CDLL(None)
        mallopt = libc.mallopt
        libc.gnu_get_libc_version  # present in glibc only
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD (-3) at the values glibc's
    # dynamic threshold reaches after one 32 MB free; 32 MB is also the
    # largest mmap threshold it accepts on 64-bit
    mallopt(-1, 64 << 20)
    mallopt(-3, 32 << 20)


pin_malloc_thresholds()

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the with-block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """N-d real tensor participating in a dynamically built graph.

    Attributes:
        data: numpy ndarray, C-contiguous, float32 or float64.
        grad: accumulated gradient (ndarray of the same shape) or None.
        requires_grad: whether gradients should flow to this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != np.float32 and arr.dtype != np.float64:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], None] | None = None

    # ---- basic introspection -------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_scalar(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={self.op!r})"

    # ---- gradient plumbing ---------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        if not self.requires_grad:
            return
        g = _unbroadcast(np.asarray(g), self.data.shape)
        if g.shape != self.data.shape:
            raise GraphError(f"gradient shape {g.shape} does not match value shape {self.data.shape}")
        if self.grad is None:
            self.grad = g if owned and g.dtype == self.data.dtype else np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g.astype(self.data.dtype, copy=False)

    def _accumulate_at(self, idx, g: np.ndarray) -> None:
        """Add g into the region self.grad[idx] (basic indexing, no duplicates), for getitem's node."""
        if self.grad is None:
            self.grad = np.zeros(self.data.shape, dtype=self.data.dtype)
        self.grad[idx] += g

    # ---- indexing --------------------------------------------------------

    def __getitem__(self, idx):
        return getitem(self, idx)


def _raise_scalar(t: Tensor):
    raise GraphError(f"item() needs a single-element tensor, got shape {t.shape}")


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def is_recording(parents: Sequence[Tensor]) -> bool:
    """Whether an op on `parents` records a graph node (and so needs its backward buffers)."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], grad_fn, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    req = is_recording(parents)
    out.requires_grad = req
    if req:
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    else:
        out._parents = ()
        out._grad_fn = None
    return out


# ---- graph traversal ------------------------------------------------------


class CompGraph:
    """Topologically ordered view of the graph reachable from a root.

    order lists parents before children; each node appears exactly once.
    """

    def __init__(self, root: Tensor):
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.order = order


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss, consuming its graph.

    Leaf gradients add onto any existing .grad (call zero_grad between
    steps). Nodes run in reverse topological order, and each drops its grad,
    its backward closure and its parents once its backward has run, so a
    buffer lives only until the last backward that reads it. A graph runs
    backward once: reaching a consumed node (a second call on the same loss,
    or a loss built on an already differentiated subgraph) raises GraphError
    before any gradient moves.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = CompGraph(loss).order
    for node in order:
        if node._grad_fn is None and node.requires_grad and node.op != "leaf":
            raise GraphError(f"backward reached a {node.op!r} node whose graph has already run backward")
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._grad_fn is not None:
            if node.grad is not None:
                node._grad_fn(node.grad)
            node.grad, node._grad_fn, node._parents = None, None, ()


# ---- arithmetic -------------------------------------------------------------


def add(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _coerce(a, b)
    b = _coerce(b, a)

    def grad_fn(g):
        a._accumulate(g)
        b._accumulate(g)

    return _make(a.data + b.data, (a, b), grad_fn, "add")


def sub(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _coerce(a, b)
    b = _coerce(b, a)

    def grad_fn(g):  # no -g for a b that takes no gradient (a loss target)
        a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g, owned=True)

    return _make(a.data - b.data, (a, b), grad_fn, "sub")


def mul(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _coerce(a, b)
    b = _coerce(b, a)
    ad, bd = a.data, b.data

    def grad_fn(g):  # no product for an operand that takes no gradient (a constant)
        if a.requires_grad:
            a._accumulate(g * bd, owned=True)
        if b.requires_grad:
            b._accumulate(g * ad, owned=True)

    return _make(ad * bd, (a, b), grad_fn, "mul")


def div(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _coerce(a, b)
    b = _coerce(b, a)
    ad, bd = a.data, b.data
    out = ad / bd

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g / bd, owned=True)
        if b.requires_grad:
            b._accumulate(-g * out / bd, owned=True)

    return _make(out, (a, b), grad_fn, "div")


def neg(a: Tensor) -> Tensor:
    def grad_fn(g):
        a._accumulate(-g, owned=True)

    return _make(-a.data, (a,), grad_fn, "neg")


def maximum(a, b) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    a = a if isinstance(a, Tensor) else _coerce(a, b)
    b = _coerce(b, a)
    take_a = a.data >= b.data

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(g * take_a, owned=True)
        if b.requires_grad:
            b._accumulate(g * ~take_a, owned=True)

    return _make(np.maximum(a.data, b.data), (a, b), grad_fn, "maximum")


def abs_(a: Tensor) -> Tensor:
    sgn = np.sign(a.data)

    def grad_fn(g):
        a._accumulate(g * sgn, owned=True)

    return _make(np.abs(a.data), (a,), grad_fn, "abs")


# ---- elementwise transcendental --------------------------------------------


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def grad_fn(g):
        a._accumulate(g * out, owned=True)

    return _make(out, (a,), grad_fn, "exp")


def _sigmoid_nd(x: np.ndarray) -> np.ndarray:
    # Two-branch form: never exponentiates a positive number. With
    # e = exp(-|x|) it is 1 / (1 + e) for x >= 0 and e / (1 + e) below,
    # computed in whole-array passes (boolean-mask indexing is several times
    # slower on activation-sized arrays). Since e <= 1, maximum(e, x >= 0)
    # is that numerator, NaN included, in one pass (where() is slower).
    e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0)
    return np.divide(out, 1.0 + e, out=out)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_nd(a.data)

    def grad_fn(g):
        a._accumulate(g * out * (1.0 - out), owned=True)

    return _make(out, (a,), grad_fn, "sigmoid")


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def grad_fn(g):
        a._accumulate(g * mask, owned=True)

    return _make(np.maximum(a.data, 0), (a,), grad_fn, "relu")  # passes NaN on, where a mask would zero it


def _one_plus_exp_neg(x: np.ndarray) -> np.ndarray:
    buf = np.negative(x)
    with np.errstate(over="ignore"):  # where exp(-x) overflows, inf: x / it is -0.0, silu's limit
        return np.add(np.exp(buf, out=buf), 1.0, out=buf)


def silu(a: Tensor) -> Tensor:
    """x / (1 + exp(-x)): one exp, and one buffer that holds 1 + exp(-x) and then the quotient."""
    d = _one_plus_exp_neg(a.data)
    out = np.divide(a.data, d, out=d)

    def grad_fn(g):  # the backward rebuilds 1 + exp(-x) rather than keep it
        s = np.reciprocal(_one_plus_exp_neg(a.data))  # sigmoid(x)
        a._accumulate(g * (s + out * (1.0 - s)), owned=True)

    return _make(out, (a,), grad_fn, "silu")


def softplus(a: Tensor) -> Tensor:
    x = a.data
    out = np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)

    def grad_fn(g):  # sigmoid(x) forms exp(-|x|) again rather than keep it
        a._accumulate(g * _sigmoid_nd(x), owned=True)

    return _make(out.astype(x.dtype, copy=False), (a,), grad_fn, "softplus")


# ---- matmul and layout ops --------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product [..., m, k] @ [..., k, n] with broadcasting."""
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise DimensionError("matmul takes two tensors")
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def grad_fn(g):
        a._accumulate(np.matmul(g, bd.swapaxes(-1, -2)), owned=True)
        b._accumulate(np.matmul(ad.swapaxes(-1, -2), g), owned=True)

    return _make(np.matmul(ad, bd), (a, b), grad_fn, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) as one node for rows x [..., k], w [k, n] and a bias b [n]: one GEMM over the
    folded leading axes for the product and for w's gradient (no [..., k, n] stack), b added in place."""
    rows, wd = x.data.reshape(-1, x.shape[-1]), w.data
    out = (rows @ wd).reshape(*x.shape[:-1], -1)
    if b is not None:
        out += b.data

    def grad_fn(g):
        if b is not None:
            b._accumulate(g)  # summed over the unfolded leading axes, as an add node sums it
        g = g.reshape(-1, g.shape[-1])
        x._accumulate((g @ wd.T).reshape(x.shape), owned=True)
        w._accumulate(rows.T @ g, owned=True)

    return _make(out, (x, w) if b is None else (x, w, b), grad_fn, "linear")


def rearrange(a: Tensor, shape, axes=None, to=None) -> Tensor:
    """Reshape a to `shape`, permute the axes by `axes` when given, then
    reshape to `to` when given: a head split or merge as one node. The
    backward undoes the three steps in reverse order."""
    x = a.data.reshape(shape)
    if axes is not None:
        x = x.transpose(axes)
    permuted = x.shape
    if to is not None:
        x = x.reshape(to)

    def grad_fn(g):
        if to is not None:
            g = g.reshape(permuted)
        if axes is not None:
            g = g.transpose(np.argsort(axes))
        a._accumulate(g.reshape(a.data.shape))

    return _make(x, (a,), grad_fn, "rearrange")


def getitem(a: Tensor, idx) -> Tensor:
    """Basic indexing (ints, slices, ellipsis); backward scatter-adds."""
    items = idx if isinstance(idx, tuple) else (idx,)
    for item in items:
        if not isinstance(item, (int, np.integer, slice, type(Ellipsis), type(None))):
            # integer/boolean arrays can alias elements; += would drop duplicates
            raise GraphError(f"getitem supports basic indexing only, got {type(item).__name__}")
    out = a.data[idx]

    def grad_fn(g):
        a._accumulate_at(idx, g)

    return _make(out, (a,), grad_fn, "getitem")


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise DimensionError("concat of zero tensors")
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accumulate(g[tuple(sl)])

    return _make(np.concatenate([t.data for t in ts], axis=axis), ts, grad_fn, "concat")


# ---- reductions ------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape, axis, keepdims) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.data.shape

    def grad_fn(g):
        a._accumulate(_expand_reduced(g, shape, axis, keepdims))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), grad_fn, "sum")


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.data.shape
    n = a.data.size if axis is None else shape[axis]

    def grad_fn(g):
        a._accumulate(_expand_reduced(g, shape, axis, keepdims) / n, owned=True)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), grad_fn, "mean")


# ---- fused composites -------------------------------------------------------


def attention(q: Tensor, k: Tensor, v: Tensor, causal: bool) -> Tensor:
    """Scaled dot-product attention softmax(q kᵀ / sqrt(d) + mask) v over
    [..., L, d] heads; causal masks each query's later keys. Only the [L, L]
    probabilities are kept for the backward. Every row sees at least its
    own key, so no row is fully masked."""
    L, d = q.shape[-2:]
    scale = np.asarray(1.0 / np.sqrt(d), dtype=q.dtype)
    qd, kd, vd = q.data, k.data, v.data
    p = np.matmul(qd, kd.swapaxes(-1, -2))
    p *= scale
    if causal:
        p += np.triu(np.full((L, L), -np.inf, dtype=p.dtype), 1)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        v._accumulate(np.matmul(p.swapaxes(-1, -2), g), owned=True)
        ds = np.matmul(g, vd.swapaxes(-1, -2))  # dL/dp, then in place dL/d(q kᵀ)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        q._accumulate(np.matmul(ds, kd), owned=True)
        k._accumulate(np.matmul(ds.swapaxes(-1, -2), qd), owned=True)

    return _make(np.matmul(p, vd), (q, k, v), grad_fn, "attention")


def _mean_last(a: np.ndarray) -> np.ndarray:  # a.mean(-1, keepdims=True)'s bits, without np.mean's Python wrapper
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor | None = None, groups: int = 1) -> Tensor:
    """Normalize each of `groups` equal runs of consecutive features on the
    last axis to zero mean / unit variance, then scale by gain and add bias."""
    xd = x.data
    xg = xd if groups == 1 else xd.reshape(*xd.shape[:-1], groups, xd.shape[-1] // groups)
    mu = _mean_last(xg)
    xc = xg - mu
    var = _mean_last(xc * xc)
    rstd = (var + LAYER_NORM_EPS) ** -0.5
    xc *= rstd  # now x-hat, the normalized input
    out = xc.reshape(xd.shape) * gain.data
    if bias is not None:
        out += bias.data

    def grad_fn(g):  # keeps the per-row mean and rstd, and rebuilds x-hat from them by the forward's ops
        xc = xg - mu
        xc *= rstd
        if x.requires_grad:
            gh = (g * gain.data).reshape(xg.shape)
            gh -= _mean_last(gh) + xc * _mean_last(gh * xc)
            gh *= rstd
            x._accumulate(gh.reshape(xd.shape), owned=True)
        gain._accumulate(g * xc.reshape(xd.shape), owned=True)
        if bias is not None:
            bias._accumulate(g)

    return _make(out, (x, gain) if bias is None else (x, gain, bias), grad_fn, "layer_norm")


def depthwise_conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, causal: bool = False,
                     past: np.ndarray | None = None) -> Tensor:
    """Per-channel, length-preserving 1-D convolution over frames: kernel
    [k, C] filters channel c of x [..., L, C] with its own k taps. Causal
    pads k-1 frames on the left only, the frames past [..., k-1, C] before
    x if given, else zeros; otherwise (k-1)//2 left, k//2 right."""
    if x.ndim < 2 or kernel.ndim != 2:
        raise DimensionError(f"depthwise_conv1d expects x [..., L, C], kernel [k, C]; got {x.shape}, {kernel.shape}")
    k, c = kernel.shape
    if x.shape[-1] != c:
        raise DimensionError(f"depthwise_conv1d channel mismatch: x has {x.shape[-1]}, kernel expects {c}")
    L = x.shape[-2]
    lo = k - 1 if causal else (k - 1) // 2
    kd, shape = kernel.data, (*x.shape[:-2], L + k - 1, c)

    def padded():
        xp = np.zeros(shape, dtype=x.dtype)  # zero-padded frames, np.pad's bits at half its cost
        xp[..., lo:lo + L, :] = x.data
        if past is not None:
            xp[..., :lo, :] = past
        return xp

    out = np.einsum("...kcl,kc->...lc", np.lib.stride_tricks.sliding_window_view(padded(), L, axis=-2), kd)
    if bias is not None:
        out += bias.data

    def grad_fn(g):
        if x.requires_grad:
            gp = np.zeros(shape, dtype=x.dtype)
            term = np.empty_like(g)
            for j in range(k):
                gp[..., j:j + L, :] += np.multiply(g, kd[j], out=term)
            x._accumulate(gp[..., lo:lo + L, :])
        if kernel.requires_grad:  # one einsum over the k sliding windows of the input, padded again
            xp = padded()
            windows = np.lib.stride_tricks.sliding_window_view(xp.reshape(-1, *xp.shape[-2:]), L, axis=1)
            kernel._accumulate(np.einsum("bkcl,blc->kc", windows, g.reshape(-1, L, c)), owned=True)
        if bias is not None:
            bias._accumulate(g)

    return _make(out, (x, kernel) if bias is None else (x, kernel, bias), grad_fn, "depthwise_conv1d")


# ---- gradient checking ------------------------------------------------------


def grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference grads.

    f maps the tensor to a scalar Tensor. x.data is perturbed in place one
    coordinate at a time, so f must read x on every call. Use float64 inputs
    for meaningful tolerances.

    Returns:
        max_i |ad_i - fd_i| / max(max|ad|, max|fd|, 1e-6).
    """
    x.zero_grad()
    out = f(x)
    backward(out)
    if x.grad is None:
        raise GraphError("f does not depend on x")
    g_ad = x.grad.copy()
    flat = x.data.reshape(-1)
    g_fd = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(x).item()
            flat[i] = orig - h
            fm = f(x).item()
            flat[i] = orig
            g_fd[i] = (fp - fm) / (2.0 * h)
    g_fd = g_fd.reshape(x.data.shape)
    num = float(np.max(np.abs(g_ad - g_fd)))
    den = max(float(np.max(np.abs(g_ad))), float(np.max(np.abs(g_fd))), 1e-6)
    return num / den


def grad_check_params(loss_fn, named_params, h: float = 1e-5) -> dict[str, float]:
    """grad_check over a set of named parameter tensors.

    loss_fn takes no arguments and rebuilds the scalar loss from current
    parameter values. Returns {name: max relative error}.
    """
    errs: dict[str, float] = {}
    for name, p in named_params:
        errs[name] = grad_check(lambda _t, fn=loss_fn: fn(), p, h)
    return errs

