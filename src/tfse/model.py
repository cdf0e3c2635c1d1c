"""Mask-estimation models: shared projection layers around a backbone stack.

Every model maps a magnitude spectrogram [L, 257] (or a batch of them,
[B, L, 257]) to a mask in (0, 1) of the same shape: frame-wise layer norm
-> ReLU -> linear projection into d_model, an optional additive sinusoidal
table, N backbone blocks, then a linear projection back to 257 bins under a
sigmoid.
Rotary embeddings, when configured, act inside every attention head
instead of on the embedding.
"""

from __future__ import annotations

import os

import numpy as np

from . import dsp
from . import pe as PE
from . import tensor as T
from .archive import load_tensors, save_tensors
from .attention import ConformerBlock, TransformerBlock
from .config import CAUSAL_ONLY, ModelConfig, RunConfig, read_config, write_config
from .dsp import N_BINS
from .errors import DegenerateInputError, DimensionError, FormatError, NumericError
from .module import Bidirectional, LayerNorm, Linear, Module, Residual, carrying
from .ssm import MambaCore
from .tensor import Tensor
from .xlstm import CBiXLSTMBlock, MLSTMCore


def _make_block(c: ModelConfig, rng, dtype) -> Module:
    """One block of backbone c.backbone, called as block(x); fwd draws its weights before bwd."""
    heads, rope = c.resolved_heads(), c.pe == "rope"
    mamba = lambda: MambaCore(c.d_model, rng, dtype, c.d_state, c.expand, c.d_conv)
    mlstm = lambda: MLSTMCore(c.d_model, rng, dtype, heads, c.proj_factor)
    by_backbone = {
        "transformer": lambda: TransformerBlock(c.d_model, c.d_ff, heads, rng, dtype, c.causal, rope),
        "conformer": lambda: ConformerBlock(c.d_model, c.d_ff, heads, rng, dtype, c.conv_kernel, c.causal, rope),
        "mamba": lambda: Residual(mamba()),
        "bimamba": lambda: Bidirectional(mamba(), mamba()),
        "xlstm": lambda: Residual(mlstm()),
        "c-bixlstm": lambda: CBiXLSTMBlock(Residual(mlstm()), Residual(mlstm())),
        "p-bixlstm": lambda: Bidirectional(mlstm(), mlstm()),
    }
    return by_backbone[c.backbone]()


class EnhancementModel(Module):
    """Backbone stack between the shared input/output projections."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None, dtype=np.float32):
        """rng=None builds the skeleton a checkpoint load fills: parameters
        allocated, no random draw."""
        cfg.validate()
        self.cfg = cfg
        self.input_norm = LayerNorm(N_BINS, dtype)
        self.input_proj = Linear(N_BINS, cfg.d_model, rng, dtype)
        self.blocks = [_make_block(cfg, rng, dtype) for _ in range(cfg.blocks)]
        self.output_proj = Linear(cfg.d_model, N_BINS, rng, dtype)

    @property
    def dtype(self):
        return self.input_norm.gain.dtype

    def __call__(self, mag) -> Tensor:
        """Magnitude frames [L, 257], or a batch of equal-length clips
        [B, L, 257] -> mask logits squashed to (0, 1), same shape."""
        x = mag if isinstance(mag, Tensor) else Tensor(np.asarray(mag, dtype=self.dtype))
        if x.ndim not in (2, 3) or x.shape[-1] != N_BINS:
            raise DimensionError(
                f"model input must be [frames, {N_BINS}] or [batch, frames, {N_BINS}], got {x.shape}"
            )
        h = self._finite("input_proj", self.input_proj(T.relu(self.input_norm(x))))
        if self.cfg.pe == "sin":
            h = PE.add_sinusoidal(h)
        for i, blk in enumerate(self.blocks):
            h = self._finite(f"blocks.{i}", blk(h))
        return T.sigmoid(self.output_proj(h))

    def _finite(self, path: str, h: Tensor) -> Tensor:
        """h, once every value is finite; the one non-finite check of a forward."""
        if not _all_finite(h.data):
            raise NumericError(f"{self.cfg.backbone} {path}: non-finite output")
        return h


def _all_finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))  # NaN and inf reach them; no temporary


def build_model(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> EnhancementModel:
    """Deterministic construction: one seed, one parameter layout, always
    the same bits."""
    rng = np.random.default_rng(seed)
    return EnhancementModel(cfg, rng, dtype)


def count_params(model: EnhancementModel) -> int:
    return model.num_params()


def param_count_str(n: int) -> str:
    return f"{n / 1e6:.2f}M ({n:,})"


WINDOW = 512  # frames per window of a carried-state enhance; a multiple of xlstm.CHUNK, ssm.SEG and 256


def enhance(model: EnhancementModel, noisy: dsp.Waveform) -> dsp.Waveform:
    """Run the full pipeline: analyze, mask, resynthesize at input length.

    A mamba or xlstm model (causal, every block carrying its state) runs in
    windows of frames that start at multiples of WINDOW, the last also taking
    the under-WINDOW remainder, so a window holds WINDOW to 2 * WINDOW - 1
    frames; any other model, or a clip under 2 * WINDOW frames, is one window.
    Each window runs STFT, model, mask and ISTFT on its own arrays under
    module.carrying and is overlap-added into the output, so memory stays
    bounded and the output is the whole clip's, bit for bit: the grid lies on
    the scans' segment and chunk grids, and OpenBLAS gives a GEMM's rows the
    whole clip's bits at 512 rows or more (not below, in the xLSTM gates).
    A frame too loud for the model's dtype raises DegenerateInputError."""
    L = dsp.num_frames(len(noisy))
    count = max(1, L // WINDOW) if model.cfg.backbone in CAUSAL_ONLY else 1  # mamba, xlstm
    edges = [i * WINDOW for i in range(count)] + [L]
    out = np.zeros(len(noisy))
    with carrying():
        for s, e in zip(edges, edges[1:]):
            spec = dsp.stft(noisy, s, e)
            mag = spec.magnitude
            # the input norm's variance sums squared magnitudes; half the maximum leaves room for float32 rounding
            if np.einsum("lf,lf->l", mag, mag).max() > np.finfo(model.dtype).max / 2:
                raise DegenerateInputError(
                    f"input level out of range: a frame's squared magnitudes sum past half the {model.dtype} maximum")
            mag = mag.astype(model.dtype)  # rebound: the float64 magnitude is not held through the forward
            spec.values *= model(mag).data.astype(np.float64)  # the mask, in place
            del mag
            y = dsp.istft(spec).samples
            del spec
            out[s * dsp.HOP:s * dsp.HOP + len(y)] += y  # two frames overlap a sample, so the order of the sum is free
    return dsp.Waveform(out)


MODEL_ARCHIVE = "model.tensors"
CONFIG_FILE = "config.cfg"


def save_model(ckpt_dir: str, model: EnhancementModel, run_cfg: RunConfig) -> None:
    """Write the weights archive plus the full config echo into a directory."""
    os.makedirs(ckpt_dir, exist_ok=True)
    save_tensors(os.path.join(ckpt_dir, MODEL_ARCHIVE), dict(model.named_parameters()))
    write_config(os.path.join(ckpt_dir, CONFIG_FILE), run_cfg, header=f"model {run_cfg.model_config().name}")


def load_model(ckpt_dir: str, dtype=np.float32) -> tuple[EnhancementModel, RunConfig]:
    """Rebuild a model from a checkpoint directory and load its weights.

    The model is built as a skeleton, its parameters allocated but never
    drawn, and each payload is read straight into its parameter; a
    checkpoint stored in another dtype is read, then cast. A parameter that
    is not finite in `dtype` raises FormatError naming the archive and it.
    """
    run_cfg = read_config(os.path.join(ckpt_dir, CONFIG_FILE))
    model = EnhancementModel(run_cfg.model_config(), None, dtype)
    params = dict(model.named_parameters())
    archive = os.path.join(ckpt_dir, MODEL_ARCHIVE)
    stored = load_tensors(archive, {k: p.data for k, p in params.items()})
    for name, param in params.items():
        arr = stored[name]
        if arr is not param.data:
            if arr.shape != param.data.shape:
                raise DimensionError(f"{name}: checkpoint shape {arr.shape} != model shape {param.data.shape}")
            param.data = arr.astype(dtype)
        if not _all_finite(param.data):
            raise FormatError(f"{archive}: parameter {name} is not finite")
    return model, run_cfg
