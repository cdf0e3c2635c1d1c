"""Time-frequency speech enhancement with interchangeable sequence backbones.

The package trains small masking models on noisy spectrogram magnitudes and
applies them to waveforms. Everything runs on numpy: the autodiff engine
(`tfse.tensor`), the signal frontend (`tfse.dsp`), seven backbone variants
(attention, convolution-augmented attention, selective state-space, and
matrix-memory recurrent, plus bidirectional compositions), deterministic
training, and an evaluation/benchmark harness.
"""

import importlib

from .config import ModelConfig, RunConfig, TrainConfig, read_config, write_config
from .dsp import (
    Mask,
    Spectrogram,
    Waveform,
    apply_mask,
    istft,
    mix_at_snr,
    phase_sensitive_mask,
    read_wav,
    snr_db,
    stft,
    write_wav,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    GraphError,
    LengthError,
    NumericError,
    SampleRateError,
    TfseError,
    TrainingAborted,
)
from .model import (
    EnhancementModel,
    build_model,
    count_params,
    enhance,
    load_model,
    param_count_str,
    save_model,
)
from .tensor import Tensor, backward, grad_check, no_grad

__version__ = "0.1.0"

# loaded on first use (PEP 562): evalbench and training, and the subprocess module evalbench imports
_LAZY = {"evalbench": ("estoi", "measure_rtf", "measure_train_step", "resample_poly", "score_model"),
         "training": ("TrainResult", "load_checkpoint", "train")}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            value = importlib.import_module(f".{module}", __name__)
            return value if name == module else getattr(value, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ConfigError",
    "DataError",
    "DegenerateInputError",
    "DimensionError",
    "EnhancementModel",
    "FormatError",
    "GraphError",
    "LengthError",
    "Mask",
    "ModelConfig",
    "NumericError",
    "RunConfig",
    "SampleRateError",
    "Spectrogram",
    "Tensor",
    "TfseError",
    "TrainConfig",
    "TrainResult",
    "TrainingAborted",
    "Waveform",
    "apply_mask",
    "backward",
    "build_model",
    "count_params",
    "enhance",
    "estoi",
    "grad_check",
    "istft",
    "load_checkpoint",
    "load_model",
    "measure_rtf",
    "measure_train_step",
    "mix_at_snr",
    "no_grad",
    "param_count_str",
    "phase_sensitive_mask",
    "read_config",
    "read_wav",
    "resample_poly",
    "save_model",
    "score_model",
    "snr_db",
    "stft",
    "train",
    "write_config",
    "write_wav",
]
