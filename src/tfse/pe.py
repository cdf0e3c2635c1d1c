"""Positional encodings for the attention backbones.

Two schemes: an additive sinusoidal table applied once after the input
projection, and rotary embeddings applied to queries and keys inside every
attention head. Both are pure functions of (length, dim), so regeneration
is bit-identical.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def sinusoidal_table(length: int, d_model: int, dtype=np.float32) -> np.ndarray:
    """Interleaved sin/cos table, shape [length, d_model].

    Column 2i holds sin(pos / 10000^(2i/d_model)), column 2i+1 the cosine at
    the same rate; d_model is even (ModelConfig.validate).
    """
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(d_model // 2, dtype=np.float64)[None, :]
    rate = pos / (10000.0 ** (2.0 * i / d_model))
    table = np.zeros((length, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(rate)
    table[:, 1::2] = np.cos(rate)
    return table.astype(dtype)


def add_sinusoidal(x: Tensor) -> Tensor:
    """x + sinusoidal table for x of shape [..., L, d_model]."""
    L, d = x.shape[-2:]
    return T.add(x, Tensor(sinusoidal_table(L, d, x.dtype)))


def rotary_tables(length: int, d_head: int, dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables for rotary application, each [length, d_head // 2].

    Pair i rotates at angle pos / 10000^(2i/d_head); d_head is even.
    """
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(d_head // 2, dtype=np.float64)[None, :]
    theta = pos / (10000.0 ** (2.0 * i / d_head))
    return np.cos(theta).astype(dtype), np.sin(theta).astype(dtype)


def apply_rotary(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate consecutive feature pairs of x by position-dependent angles.

    x is [..., L, d_head]; cos/sin broadcast as [L, d_head // 2]. Pair
    (x_2i, x_2i+1) maps to (x_2i cos - x_2i+1 sin, x_2i sin + x_2i+1 cos),
    which preserves the per-pair (and total) norm. The second term is the
    swapped pair (x_2i+1, x_2i) times (-sin, sin).
    """
    shape = x.shape
    pairs = T.rearrange(x, (*shape[:-1], shape[-1] // 2, 2))
    rot = T.add(T.mul(pairs, np.stack((cos, cos), -1)), T.mul(pairs[..., ::-1], np.stack((-sin, sin), -1)))
    return T.rearrange(rot, shape)
