"""Synthetic desk-scale corpus: tonal "speech" against band-shaped noise.

The speech surrogate is a harmonic complex with vibrato and slow amplitude
modulation, concentrated below ~2 kHz; the noise is spectrally shaped white
noise emphasizing the band above ~2.5 kHz with a small broadband floor.
The spectral separation makes the masking task learnable by tiny models in
a few hundred steps while keeping nontrivial overlap.
"""

from __future__ import annotations

import os

import numpy as np

from . import dsp

N_HARMONICS = 6


def tonal_speech(rng: np.random.Generator, duration_s: float) -> dsp.Waveform:
    """Harmonic tone complex with vibrato, AM, and edge fades at 16 kHz; peak 0.3."""
    sr = dsp.SAMPLE_RATE
    n = int(round(duration_s * sr))
    t = np.arange(n) / sr
    f0 = rng.uniform(120.0, 280.0)
    vib_rate = rng.uniform(4.0, 7.0)
    vib = 1.0 + 0.02 * np.sin(2.0 * np.pi * vib_rate * t + rng.uniform(0, 2 * np.pi))
    phase = 2.0 * np.pi * f0 * np.cumsum(vib) / sr
    x = np.zeros(n)
    for h in range(1, N_HARMONICS + 1):
        x += (h ** -1.2) * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
    am_rate = rng.uniform(2.0, 5.0)
    x *= 0.55 + 0.45 * np.sin(2.0 * np.pi * am_rate * t + rng.uniform(0, 2 * np.pi))
    fade = min(n // 8, int(0.05 * sr))
    if fade:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
        x[:fade] *= ramp
        x[-fade:] *= ramp[::-1]
    x *= 0.3 / np.max(np.abs(x))
    return dsp.Waveform(x)


def filtered_noise(rng: np.random.Generator, duration_s: float) -> dsp.Waveform:
    """White noise shaped toward the 2.5 kHz+ band at 16 kHz, peak 0.3."""
    sr = dsp.SAMPLE_RATE
    n = int(round(duration_s * sr))
    white = rng.normal(size=n)
    spec = np.fft.rfft(white)
    f = np.fft.rfftfreq(n, d=1.0 / sr)
    weight = 0.1 + 0.9 / (1.0 + np.exp(-(f - 2500.0) / 250.0))
    x = np.fft.irfft(spec * weight, n)
    x *= 0.3 / np.max(np.abs(x))
    return dsp.Waveform(x)


def make_corpus(
    out_dir: str,
    n_speech: int = 12,
    n_noise: int = 6,
    duration_s: float = 2.0,
    seed: int = 0,
) -> str:
    """Write WAVs plus a manifest; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n_speech):
        name = f"speech_{i:03d}.wav"
        dsp.write_wav(os.path.join(out_dir, name), tonal_speech(rng, duration_s), "float32")
        lines.append(f"s {name}")
    for i in range(n_noise):
        name = f"noise_{i:03d}.wav"
        dsp.write_wav(os.path.join(out_dir, name), filtered_noise(rng, duration_s), "float32")
        lines.append(f"n {name}")
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest
