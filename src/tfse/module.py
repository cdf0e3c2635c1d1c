"""Parameter containers, the shared trainable layers and the block wrappers.

Initialization scheme (applies everywhere unless a layer documents
otherwise): weights are uniform on [-1/sqrt(fan_in), 1/sqrt(fan_in)] drawn
in float64 from the supplied generator and cast to the build dtype, biases
and norm offsets start at zero, norm gains at one. Parameters are created
in attribute-definition order, so a given seed always yields bit-identical
models. Built with rng=None, a layer allocates its weights without drawing
them, for a caller that fills every parameter itself (a checkpoint load).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    """Base class: called as module(x), settings fixed at build; walks attributes to list parameters in order."""

    def named_parameters(self, prefix: str = ""):
        for name, val in vars(self).items():
            if isinstance(val, Tensor):
                if val.requires_grad:
                    yield prefix + name, val
            elif isinstance(val, Module):
                yield from val.named_parameters(f"{prefix}{name}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{prefix}{name}.{i}.")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())


def _uniform(rng: np.random.Generator | None, shape, fan_in: int, dtype) -> Tensor:
    if rng is None:
        return Tensor(np.empty(shape, dtype=dtype), requires_grad=True)
    bound = 1.0 / np.sqrt(float(fan_in))
    w = rng.uniform(-bound, bound, size=shape)
    return Tensor(w.astype(dtype), requires_grad=True)


class Linear(Module):
    """Affine map x @ w + b with w of shape [d_in, d_out]."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, dtype, bias: bool = True):
        self.w = _uniform(rng, (d_in, d_out), d_in, dtype)
        self.b = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, d: int, dtype):
        self.gain = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(d, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


class DepthwiseConv1d(Module):
    """Per-channel 1-D convolution, kernel [k, C], with a bias; causal or centred, fixed at build."""

    def __init__(self, channels: int, k: int, rng: np.random.Generator, dtype, causal: bool = False):
        self.kernel = _uniform(rng, (k, channels), k, dtype)
        self.b = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.causal = causal

    def __call__(self, x: Tensor) -> Tensor:
        return T.depthwise_conv1d(x, self.kernel, self.b, causal=self.causal)


class BlockDiagonal(Module):
    """Weights w [n_blocks, bs, bs] of a block-diagonal map, no bias: block i maps features
    [i * bs, (i + 1) * bs). The caller applies w by block (xlstm.project_heads)."""

    def __init__(self, n_blocks: int, block_size: int, rng: np.random.Generator, dtype):
        self.w = _uniform(rng, (n_blocks, block_size, block_size), block_size, dtype)


class Residual(Module):
    """Residual block around a pre-normed mixer: x + core(x)."""

    def __init__(self, core: Module):
        self.core = core

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(x, self.core(x))


class Bidirectional(Module):
    """Two mixers with their own parameters and one shared residual, bwd on the
    time-reversed input: y = x + fwd(x) + reverse(bwd(reverse(x)))."""

    def __init__(self, fwd: Module, bwd: Module):
        self.fwd = fwd
        self.bwd = bwd

    def __call__(self, x: Tensor) -> Tensor:
        back = self.bwd(x[..., ::-1, :])[..., ::-1, :]  # frames, not the batch
        return T.add(x, T.add(self.fwd(x), back))
