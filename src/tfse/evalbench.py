"""Intelligibility scoring and throughput benchmarks.

ESTOI follows the published extended short-time objective intelligibility
procedure: resample to 10 kHz, drop frames more than 40 dB below the
loudest clean frame, analyze with 256-sample Hann frames (hop 128, 512-point
FFT), collect 15 one-third-octave band envelopes from 150 Hz, and average
row/column-normalized correlations over sliding 30-frame segments.

The 16 -> 10 kHz resampler is a polyphase windowed-sinc design, fixed here:
upsample by 5, lowpass with a Kaiser-windowed sinc (beta 8.555, half-length
10*max(up, down) taps at the upsampled rate, cutoff 1/(2*max(up, down))),
downsample by 8.

ESTOI frames and overlap-adds with dsp.frame_grid and dsp.overlap_add, the
same half-overlap grid and summation order as the STFT.

Throughput: both timers take a model. measure_rtf times one `enhance` call
(STFT -> mask -> ISTFT) per run against audio duration; measure_train_step
times whole optimizer steps on pre-generated synthetic batches, updating
the weights. `tfse bench` times one model with both, the steps last.
"""

from __future__ import annotations

import math
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import dsp, training
from .config import TrainConfig, read_text, text_lines
from .dsp import N_BINS
from .errors import DataError, LengthError
from .model import EnhancementModel, enhance, load_model

ESTOI_SR = 10000
_FRAME = 256  # hop 128: half-overlap, as dsp.frame_grid frames
_NFFT = 512
_N_BANDS = 15
_CF_MIN = 150.0
_SEG = 30
_DYN_RANGE_DB = 40.0
_TINY = 1e-30


# ---- resampling ------------------------------------------------------------


def resample_poly(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Rational-rate resampling by zero-stuffing, windowed-sinc lowpass
    (applied as an FFT product), and decimation. Output length is
    ceil(len(x) * up / down)."""
    m = max(up, down)
    half = 10 * m
    n = np.arange(-half, half + 1)
    fc = 1.0 / (2.0 * m)
    taps = 2.0 * fc * np.sinc(2.0 * fc * n) * np.kaiser(2 * half + 1, 8.555) * up
    stuffed = np.zeros(len(x) * up)
    stuffed[::up] = x
    size = 1 << (len(stuffed) + len(taps) - 2).bit_length()  # >= the full convolution's length
    filtered = np.fft.irfft(np.fft.rfft(stuffed, size) * np.fft.rfft(taps, size), size)
    return filtered[half:half + len(stuffed):down]


# ---- ESTOI ------------------------------------------------------------------


_HANN = np.hanning(_FRAME + 2)[1:-1]  # 256-point symmetric Hann without the zero endpoints


def _frame_signal(x: np.ndarray) -> np.ndarray:
    if len(x) < _FRAME:
        raise LengthError(f"signal of {len(x)} samples is shorter than one {_FRAME}-sample frame")
    return dsp.frame_grid(x, _FRAME) * _HANN[None, :]


def _remove_silent_frames(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop frames whose clean energy is more than 40 dB below the loudest,
    then overlap-add the survivors (windowed again) back to signals."""
    xf = _frame_signal(x)
    yf = _frame_signal(y)
    energy = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + 1e-300)
    keep = energy > energy.max() - _DYN_RANGE_DB
    xf, yf = xf[keep], yf[keep]
    if not len(xf):
        raise LengthError("no frames above the silence threshold")
    return dsp.overlap_add(xf * _HANN[None, :]), dsp.overlap_add(yf * _HANN[None, :])


def _band_matrix() -> np.ndarray:
    f = np.linspace(0.0, ESTOI_SR / 2.0, _NFFT // 2 + 1)
    cf = _CF_MIN * 2.0 ** (np.arange(_N_BANDS) / 3.0)
    lo_edge = cf * 2.0 ** (-1.0 / 6.0)
    hi_edge = cf * 2.0 ** (1.0 / 6.0)
    obm = np.zeros((_N_BANDS, len(f)))
    for j in range(_N_BANDS):
        lo = int(np.argmin(np.abs(f - lo_edge[j])))
        hi = int(np.argmin(np.abs(f - hi_edge[j])))
        obm[j, lo:hi] = 1.0
    return obm


_OBM = _band_matrix()


def _band_envelopes(x: np.ndarray) -> np.ndarray:
    frames = _frame_signal(x)
    spec = np.fft.rfft(frames, n=_NFFT, axis=1)
    return np.sqrt(_OBM @ (np.abs(spec).T ** 2))  # [bands, frames]


def _row_col_normalize(seg: np.ndarray) -> np.ndarray:
    seg = seg - seg.mean(axis=1, keepdims=True)
    seg = seg / np.maximum(np.linalg.norm(seg, axis=1, keepdims=True), _TINY)
    seg = seg - seg.mean(axis=0, keepdims=True)
    return seg / np.maximum(np.linalg.norm(seg, axis=0, keepdims=True), _TINY)


def estoi(clean: dsp.Waveform, processed: dsp.Waveform) -> float:
    """Extended STOI of a processed signal against its clean reference.

    Both inputs must be of equal length (a Waveform is 16 kHz). The score
    is invariant to positive rescaling of either signal and reaches 1.0 for
    identical inputs.
    """
    if len(clean) != len(processed):
        raise LengthError(f"length mismatch: {len(clean)} vs {len(processed)}")
    x = resample_poly(clean.samples, 5, 8)
    y = resample_poly(processed.samples, 5, 8)
    x, y = _remove_silent_frames(x, y)
    ex = _band_envelopes(x)
    ey = _band_envelopes(y)
    n_frames = ex.shape[1]
    if n_frames < _SEG:
        raise LengthError(f"only {n_frames} analysis frames after silence removal; need {_SEG}")
    total = 0.0
    count = 0
    for m in range(_SEG, n_frames + 1):
        sx = _row_col_normalize(ex[:, m - _SEG:m])
        sy = _row_col_normalize(ey[:, m - _SEG:m])
        total += float(np.sum(sx * sy)) / _SEG
        count += 1
    return total / count


# ---- throughput -------------------------------------------------------------


def measure_rtf(model: EnhancementModel, length_s: float, runs: int = 20, warmup: int = 3) -> tuple[float, float]:
    """Real-time factor and its coefficient of variation (std / mean across
    runs): seconds of `enhance` (STFT -> mask -> ISTFT) per second of audio.

    Each run is one `enhance` call on one uniform-noise clip of length_s,
    timed with time.perf_counter; the first `warmup` runs are discarded.
    """
    n = int(round(length_s * dsp.SAMPLE_RATE))
    wave = dsp.Waveform(np.random.default_rng(0).uniform(-0.5, 0.5, n))
    times = []
    for _ in range(warmup + runs):
        t0 = time.perf_counter()
        enhance(model, wave)
        times.append(time.perf_counter() - t0)
    times_arr = np.asarray(times[warmup:])
    mean = float(times_arr.mean())
    cv = float(times_arr.std() / mean) if mean > 0 else 0.0
    return mean / length_s, cv


def measure_train_step(
    model: EnhancementModel,
    train_cfg: TrainConfig,
    steps: int = 50,
    warmup: int = 5,
    frames: int = 63,
) -> float:
    """Mean seconds per optimizer step (forward + backward + clip + Adam) of
    `model`, timed through training.train_step, the step `train` runs.
    Adam updates the model in place.

    Batches are synthesized up front so data preparation is excluded from
    the timing.
    """
    opt = training.AdamState()
    rng = np.random.default_rng(0)
    batches = []
    for _ in range(min(steps + warmup, 8)):  # cycle a few distinct batches
        batch = [
            (
                np.abs(rng.normal(size=(frames, N_BINS))).astype(np.float32),
                rng.uniform(0, 1, size=(frames, N_BINS)).astype(np.float32),
            )
            for _ in range(train_cfg.batch_size)
        ]
        batches.append(batch)

    def step(k: int) -> None:
        lr = training.lr_at(opt.t + 1, train_cfg.step_w, model.cfg.d_model)
        training.train_step(model, opt, batches[k % len(batches)], lr, train_cfg.loss)

    for k in range(warmup):
        step(k)
    t0 = time.perf_counter()
    for k in range(steps):
        step(k)
    return (time.perf_counter() - t0) / steps


# ---- evaluation harness ------------------------------------------------------


def external_score(scorer_cmd: list[str], ref_wav: str, est_wav: str) -> float:
    """Run a plug-in scorer binary on (reference, estimate) WAV paths; it
    must print a single number on stdout."""
    proc = subprocess.run(
        [*scorer_cmd, ref_wav, est_wav], capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise DataError(f"scorer {scorer_cmd[0]!r} failed: {proc.stderr.strip()[:200]}")
    try:
        return float(proc.stdout.strip().split()[-1])
    except (ValueError, IndexError):
        raise DataError(f"scorer {scorer_cmd[0]!r} printed no number: {proc.stdout[:200]!r}") from None


def read_eval_manifest(path: str) -> list[tuple[int, str, str, float]]:
    """Lines: `<clean_rel> <noise_rel> <snr_db>`, paths relative to the
    manifest directory. Each row is (line number, clean, noise, snr_db)."""
    base = os.path.dirname(os.path.abspath(path))
    rows = []
    for lineno, body in text_lines(read_text(path, "evaluation manifest", DataError), path, DataError):
        parts = body.split()
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected '<clean> <noise> <snr_db>'")
        try:
            snr = float(parts[2])
            if not math.isfinite(snr):
                raise ValueError
        except ValueError:
            raise DataError(f"{path}:{lineno}: snr_db {parts[2]!r} is not a finite number") from None
        rows.append((lineno, os.path.join(base, parts[0]), os.path.join(base, parts[1]), snr))
    if not rows:
        raise DataError(f"{path}: empty evaluation manifest")
    return rows


@dataclass
class ScoreTable:
    snrs: list[float]
    rows: dict[str, dict[float, float]]  # metric -> snr -> mean value

    def csv(self) -> str:
        header = "metric," + ",".join(f"{s:g}" for s in self.snrs)
        lines = [header]
        for metric, per_snr in self.rows.items():
            lines.append(metric + "," + ",".join(repr(per_snr[s]) for s in self.snrs))
        return "\n".join(lines) + "\n"


def score_model(
    ckpt_dir: str,
    manifest_path: str,
    seed: int = 0,
    scorer_cmd: list[str] | None = None,
) -> ScoreTable:
    """Mix each manifest row at its SNR, enhance, and aggregate per-SNR
    means of ESTOI (noisy and enhanced) and SNR improvement. Mixtures are
    reproducible: row i uses a generator seeded with (seed, i)."""
    entries = read_eval_manifest(manifest_path)
    model, _ = load_model(ckpt_dir)
    acc: dict[str, dict[float, list[float]]] = {}

    def push(metric: str, snr: float, value: float) -> None:
        acc.setdefault(metric, {}).setdefault(snr, []).append(value)

    for i, (lineno, clean_path, noise_path, snr) in enumerate(entries):
        try:
            clean, noise = dsp.read_wav(clean_path), dsp.read_wav(noise_path)
        except OSError as e:
            raise DataError(f"{manifest_path}:{lineno}: cannot read WAV: {e}") from None
        rng = np.random.default_rng([seed, i])
        mixture, _ = dsp.mix_at_snr(clean, noise, snr, rng)
        enhanced = enhance(model, mixture)
        push("estoi_noisy", snr, estoi(clean, mixture))
        push("estoi_enhanced", snr, estoi(clean, enhanced))
        push("snr_improvement_db", snr, dsp.snr_db(clean, enhanced) - snr)
        if scorer_cmd:
            with tempfile.TemporaryDirectory() as tmp:
                ref = os.path.join(tmp, "ref.wav")
                est = os.path.join(tmp, "est.wav")
                dsp.write_wav(ref, clean, "float32")
                dsp.write_wav(est, enhanced, "float32")
                push("external", snr, external_score(scorer_cmd, ref, est))

    snrs = sorted({snr for *_, snr in entries})
    rows = {
        metric: {s: float(np.mean(vals[s])) for s in snrs if s in vals}
        for metric, vals in acc.items()
    }
    return ScoreTable(snrs, rows)
