"""Waveform I/O and the time-frequency frontend.

All analysis runs at 16 kHz with 512-sample frames, hop 256, and a periodic
square-root Hann window used for both analysis and synthesis, so the
overlap-add identity holds exactly away from the first and last half frame.
Spectrograms are one-sided (257 bins) complex128 arrays of shape
[frames, bins]; waveform samples are float64 in [-1, 1].
A Waveform is 16 kHz, 1-d, non-empty and finite from construction, so its
users take those for granted; framing is half-overlap (frame_grid).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    FormatError,
    SampleRateError,
)

SAMPLE_RATE = 16000
FRAME_LEN = 512
HOP = 256
N_BINS = FRAME_LEN // 2 + 1

MAG_FLOOR = 1e-8  # |X| floor inside mask ratios


@dataclass
class Waveform:
    """Mono float64 audio at SAMPLE_RATE: the one check of rate, shape, emptiness and finiteness."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DimensionError(f"waveform must be 1-d, got shape {self.samples.shape}")
        if self.sample_rate != SAMPLE_RATE:
            raise SampleRateError(f"waveform at {self.sample_rate} Hz; tfse runs at {SAMPLE_RATE} Hz only")
        if not len(self.samples):
            raise DegenerateInputError("waveform is empty")
        if not np.all(np.isfinite(self.samples)):
            raise DegenerateInputError("waveform contains non-finite samples")

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate


@dataclass
class Spectrogram:
    """One-sided STFT, complex128, shape [frames, N_BINS]."""

    values: np.ndarray
    num_samples: int  # original waveform length, for exact-length synthesis

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 2 or self.values.shape[1] != N_BINS:
            raise DimensionError(f"spectrogram must be [frames, {N_BINS}], got {self.values.shape}")

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


@dataclass
class Mask:
    """Real-valued time-frequency mask, shape [frames, N_BINS]."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != N_BINS:
            raise DimensionError(f"mask must be [frames, {N_BINS}], got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise DegenerateInputError("mask contains non-finite values")


# ---- WAV files ---------------------------------------------------------------

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3


def read_wav(path: str) -> Waveform:
    """Read a mono 16 kHz WAV file (16-bit PCM or 32-bit IEEE float).

    Raises:
        FormatError: not a readable WAV encoding, more than one channel, a
            chunk shorter than its declared size, or a data chunk that is
            not a whole number of samples.
        SampleRateError: file is not at 16 kHz (no implicit resampling).
        DegenerateInputError: no samples, or a non-finite one (Waveform).
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        riff = fh.read(12)
        if len(riff) != 12 or riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
            raise FormatError(f"{path}: not a RIFF/WAVE file")
        fmt = None
        data = None
        while True:
            head = fh.read(8)
            if len(head) < 8:
                break
            cid, size = head[:4], struct.unpack("<I", head[4:])[0]
            body = fh.read(min(size, file_size - fh.tell()))  # a bogus size allocates nothing
            if cid in (b"fmt ", b"data") and len(body) < size:
                name = cid.decode().strip()
                raise FormatError(f"{path}: {name} chunk declares {size} bytes, file holds {len(body)}")
            if size % 2:
                fh.read(1)  # chunks are word-aligned
            if cid == b"fmt ":
                fmt = body
            elif cid == b"data":
                data = body
        if fmt is None or data is None:
            raise FormatError(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise FormatError(f"{path}: fmt chunk of {len(fmt)} bytes is too short")
    tag, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag == 0xFFFE and len(fmt) >= 40:  # WAVE_FORMAT_EXTENSIBLE
        tag = struct.unpack("<H", fmt[24:26])[0]
    if channels != 1:
        raise FormatError(f"{path}: expected mono, got {channels} channels")
    if rate != SAMPLE_RATE:
        raise SampleRateError(f"{path}: sample rate {rate} != {SAMPLE_RATE}; resample offline")
    if tag == _WAVE_FORMAT_PCM and bits == 16:
        dtype, scale = "<i2", 2.0**-15
    elif tag == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise FormatError(f"{path}: unsupported encoding (format tag {tag}, {bits}-bit)")
    if len(data) % (bits // 8):
        raise FormatError(f"{path}: data chunk of {len(data)} bytes is not whole {bits}-bit samples")
    try:
        return Waveform(np.frombuffer(data, dtype=dtype).astype(np.float64) * scale)
    except DegenerateInputError as e:  # no samples, or a non-finite one: name the file
        raise DegenerateInputError(f"{path}: {e}") from None


def write_wav(path: str, w: Waveform, encoding: str = "pcm16") -> None:
    """Write a mono WAV file.

    encoding 'pcm16' scales by 32768 and clips to int16 (round-trip error
    <= 2**-15); 'float32' stores IEEE floats untouched beyond the f64->f32
    cast, with the 18-byte fmt chunk and the fact chunk that non-PCM
    encodings carry. The RIFF size field is the file size minus 8.
    """
    if encoding == "pcm16":
        tag, width = _WAVE_FORMAT_PCM, 2
        payload = np.clip(np.rint(w.samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    elif encoding == "float32":
        tag, width = _WAVE_FORMAT_IEEE_FLOAT, 4
        payload = w.samples.astype("<f4").tobytes()
    else:
        raise FormatError(f"unknown wav encoding {encoding!r}")
    fmt = struct.pack("<HHIIHH", tag, 1, SAMPLE_RATE, SAMPLE_RATE * width, width, 8 * width)
    if tag == _WAVE_FORMAT_PCM:
        chunks = [(b"fmt ", fmt)]
    else:  # a non-PCM fmt chunk ends in a cbSize field, and a fact chunk gives the sample count
        chunks = [(b"fmt ", fmt + struct.pack("<H", 0)), (b"fact", struct.pack("<I", len(w)))]
    chunks.append((b"data", payload))
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(data)) + data for cid, data in chunks)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


# ---- STFT --------------------------------------------------------------------


def _window() -> np.ndarray:
    # periodic Hann, square-rooted; sqrt-Hann^2 overlap-adds to 1 at hop N/2
    n = np.arange(FRAME_LEN)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / FRAME_LEN)
    return np.sqrt(hann)


_WIN = _window()


def num_frames(n_samples: int) -> int:
    """Frames the analysis grid assigns to an n-sample input (n >= 1, as every Waveform has)."""
    return -(-n_samples // HOP)


def frame_grid(x: np.ndarray, n: int) -> np.ndarray:
    """[frames, n] copy whose row m is x[m * n/2:m * n/2 + n]: consecutive pairs of the n/2-sample
    blocks of x, a remainder under one block dropped; needs an even n and len(x) >= n."""
    blocks = x[:len(x) - len(x) % (n // 2)].reshape(-1, n // 2)
    return np.concatenate((blocks[:-1], blocks[1:]), axis=1)


def overlap_add(frames: np.ndarray) -> np.ndarray:
    """Sum [frames, n] rows into one float64 signal, row m at m * n/2: every row's first half, then
    every row's second half. A sample is +0.0 plus at most two terms, so the order gives in-order bits."""
    count, n = frames.shape
    blocks = np.zeros((count + 1, n // 2), dtype=np.float64)
    blocks[:-1] += frames[:, :n // 2]
    blocks[1:] += frames[:, n // 2:]
    return blocks.ravel()


def stft(w: Waveform, start: int = 0, stop: int | None = None) -> Spectrogram:
    """Analyze a waveform into [frames, 257] complex bins: the frames
    [start, stop) of its grid, by default all of them.

    The tail is zero-padded to the frame grid, so every sample including a
    final partial frame is covered. num_samples counts the samples the
    frames read, from start * HOP.
    """
    stop = num_frames(len(w)) if stop is None else stop
    padded = np.zeros((stop - start - 1) * HOP + FRAME_LEN, dtype=np.float64)
    part = w.samples[start * HOP:(stop - 1) * HOP + FRAME_LEN]
    padded[:len(part)] = part
    frames = frame_grid(padded, FRAME_LEN) * _WIN[None, :]
    return Spectrogram(np.fft.rfft(frames, axis=1), num_samples=len(part))


def istft(spec: Spectrogram, num_samples: int | None = None) -> Waveform:
    """Windowed overlap-add synthesis, cropped to num_samples."""
    out = overlap_add(np.fft.irfft(spec.values, n=FRAME_LEN, axis=1) * _WIN[None, :])
    n = spec.num_samples if num_samples is None else num_samples
    return Waveform(out[:n])


# ---- masks -------------------------------------------------------------------


def phase_sensitive_mask(clean: Spectrogram, noisy: Spectrogram, clamp: bool = True) -> Mask:
    """Phase-sensitive mask |S|/|X| * cos(angle(S) - angle(X)).

    |X| is floored at 1e-8 to keep silent bins finite. With clamp=True the
    result is clipped to [0, 1], the range a sigmoid-output model can emit;
    clamp=False returns the raw ratio.
    """
    s, x = clean.values, noisy.values
    if s.shape != x.shape:
        raise DimensionError(f"spectrogram shapes differ: {s.shape} vs {x.shape}")
    mag_x = np.maximum(np.abs(x), MAG_FLOOR)
    m = (np.abs(s) / mag_x) * np.cos(np.angle(s) - np.angle(x))
    if clamp:
        m = np.clip(m, 0.0, 1.0)
    return Mask(m)


def apply_mask(spec: Spectrogram, mask: Mask) -> Spectrogram:
    """Pointwise product; the input's phase is kept (the mask is real)."""
    if spec.values.shape != mask.values.shape:
        raise DimensionError(f"mask shape {mask.values.shape} != spectrogram shape {spec.values.shape}")
    return Spectrogram(spec.values * mask.values, num_samples=spec.num_samples)


# ---- mixing ------------------------------------------------------------------


def mix_at_snr(
    speech: Waveform,
    noise: Waveform,
    snr_db: float,
    rng: np.random.Generator,
) -> tuple[Waveform, Waveform]:
    """Mix noise into speech at an exact clip-level SNR.

    The noise is tiled if shorter than the speech, a random offset segment of
    equal length is cut, and it is scaled so that
    10*log10(P_speech / P_noise) == snr_db with full-clip mean-square powers.

    Returns:
        (mixture, scaled_noise) so callers can reuse the exact noise term.
    """
    n, d = len(speech), noise.samples
    if len(d) < n:
        d = np.tile(d, int(np.ceil(n / len(d))))
    offset = int(rng.integers(0, len(d) - n + 1))
    seg = d[offset:offset + n]
    p_s = float(np.mean(speech.samples**2))
    p_d = float(np.mean(seg**2))
    if p_s == 0.0:
        raise DegenerateInputError("speech clip is all zeros; SNR undefined")
    if p_d == 0.0:
        raise DegenerateInputError("noise segment is all zeros; SNR undefined")
    scale = np.sqrt(p_s / (p_d * 10.0 ** (snr_db / 10.0)))
    scaled = seg * scale
    return Waveform(speech.samples + scaled), Waveform(scaled)


def snr_db(reference: Waveform, estimate: Waveform) -> float:
    """SNR of estimate against reference: 10*log10(P_ref / P_err)."""
    if len(reference) != len(estimate):
        raise DimensionError(f"length mismatch: {len(reference)} vs {len(estimate)}")
    err = estimate.samples - reference.samples
    p_ref = float(np.mean(reference.samples**2))
    p_err = float(np.mean(err**2))
    if p_ref == 0.0:
        raise DegenerateInputError("reference is all zeros; SNR undefined")
    if p_err == 0.0:
        return float("inf")
    return 10.0 * np.log10(p_ref / p_err)
