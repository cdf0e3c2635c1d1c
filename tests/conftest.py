"""Shared fixtures: deterministic RNGs and a small synthetic corpus."""

import struct

import numpy as np
import pytest

from tfse.dsp import Waveform, write_wav
from tfse.synth import make_corpus


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def corpus_manifest(tmp_path_factory) -> str:
    """A tiny clip collection reused by training, CLI, and acceptance tests."""
    root = tmp_path_factory.mktemp("corpus")
    return make_corpus(str(root), n_speech=6, n_noise=3, duration_s=1.0, seed=0)


@pytest.fixture
def nan_wav(tmp_path) -> str:
    """A 16 kHz float32 WAV whose last sample is NaN (its data chunk is the file's last)."""
    path = tmp_path / "nan.wav"
    write_wav(str(path), Waveform(np.full(1600, 0.1)), "float32")
    raw = bytearray(path.read_bytes())
    raw[-4:] = struct.pack("<f", np.nan)
    path.write_bytes(bytes(raw))
    return str(path)
