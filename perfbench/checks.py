"""Output checks and the stored reference outputs they compare against.

References are produced by the code of the commit that defined the
benchmark, from fixed seeds, with `python3 perfbench/run.py
--write-references`. A later fast path that changes results beyond the
tolerances below fails the check; a float32 reordering passes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REF_WAVES = HERE / "references.npz"
REF_LOSSES = HERE / "references.json"

CHECK_SEED = 20250704  # inputs of every reference check
MODEL_SEED = 0  # weights of every benchmark checkpoint
CHECK_CLIP_S = 2.0  # 125 frames: longer than any plausible scan chunk of 64
ENERGY_TOL = 1e-6  # a (0, 1) mask on a tight frame cannot add energy
WAVE_RTOL = 1e-4  # ||y - ref|| / ||ref||
LOSS_RTOL = 1e-4  # per logged loss
PCM16_HEADER = 44


def relative_error(actual, reference) -> float:
    actual = np.asarray(actual, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if actual.shape != reference.shape:
        return float("inf")
    return float(np.linalg.norm(actual - reference) / max(np.linalg.norm(reference), 1e-30))


def wave_problem(actual, reference) -> str | None:
    err = relative_error(actual, reference)
    return None if err <= WAVE_RTOL else f"relative error {err:.3g} > {WAVE_RTOL}"


def enhanced_problem(noisy: np.ndarray, out: np.ndarray, out_path: str | None = None) -> str | None:
    """Why an enhanced waveform is wrong, or None when it passes."""
    if out.shape != noisy.shape:
        return f"output length {out.shape[0]} != input length {noisy.shape[0]}"
    if not np.all(np.isfinite(out)):
        return "non-finite output sample"
    e_in, e_out = float(noisy @ noisy), float(out @ out)
    if e_out > e_in * (1.0 + ENERGY_TOL):
        return f"output energy {e_out:.6g} exceeds input energy {e_in:.6g}"
    if out_path is not None and os.path.getsize(out_path) != PCM16_HEADER + 2 * noisy.shape[0]:
        return f"{out_path}: written file does not hold {noisy.shape[0]} pcm16 samples"
    return None


def losses_problem(losses, reference) -> str | None:
    losses = np.asarray(losses, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if losses.shape != reference.shape:
        return f"{losses.size} losses logged, {reference.size} expected"
    if not np.all(np.isfinite(losses)):
        return "non-finite loss"
    err = np.abs(losses - reference) / np.abs(reference)
    if np.any(err > LOSS_RTOL):
        return f"losses {losses.tolist()} differ from reference {reference.tolist()}"
    return None


def check_clip(tfse):
    """The noisy clip every enhance reference is computed from."""
    rng = np.random.default_rng(CHECK_SEED)
    speech = tfse.synth.tonal_speech(rng, CHECK_CLIP_S)
    noise = tfse.synth.filtered_noise(rng, CHECK_CLIP_S)
    return tfse.dsp.mix_at_snr(speech, noise, 0.0, rng)[0]


def load_references() -> dict:
    """{"waves": {preset: enhanced check clip}, "losses": {preset: first losses at the check seed}}."""
    with np.load(REF_WAVES) as npz:
        waves = {k: npz[k] for k in npz.files}
    with open(REF_LOSSES, encoding="utf-8") as fh:
        losses = json.load(fh)
    return {"waves": waves, "losses": losses}


def write_references(references: dict) -> None:
    waves = {k: np.asarray(v, dtype=np.float32) for k, v in references["waves"].items()}
    np.savez_compressed(REF_WAVES, **waves)
    with open(REF_LOSSES, "w", encoding="utf-8") as fh:
        json.dump(references["losses"], fh, indent=1, sort_keys=True)
        fh.write("\n")
