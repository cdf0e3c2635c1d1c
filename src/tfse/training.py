"""Deterministic training: corpus sampling, warm-up scheduler, Adam.

One integer seed fixes everything: parameter initialization, the shuffle
order, noise pairing, SNR draws, and noise offsets all come from generators
seeded with it, so two runs with the same config produce bit-identical loss
logs, and two different backbones trained with the same seed consume
identical batch sequences. Checkpoints capture model weights, optimizer
moments, the step and the data generator state, so resuming from any
checkpoint continues the exact run.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from . import dsp
from . import tensor as T
from .archive import load_tensors, save_tensors
from .config import RunConfig, read_text, text_lines
from .errors import ConfigError, DataError, FormatError, NumericError, TrainingAborted
from .model import EnhancementModel, build_model, load_model, save_model
from .tensor import Tensor, backward

OPTIM_ARCHIVE = "optim.tensors"
STATE_FILE = "state.json"
LOSS_CSV = "loss.csv"
LOSS_HEADER = "step,epoch,lr,loss"
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9


# ---- corpus -------------------------------------------------------------


@dataclass
class Corpus:
    speech: list[dsp.Waveform]
    noise: list[dsp.Waveform]


def load_corpus(manifest_path: str) -> Corpus:
    """Read a manifest of `s <relpath>` / `n <relpath>` lines (paths are
    relative to the manifest's directory)."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    speech: list[dsp.Waveform] = []
    noise: list[dsp.Waveform] = []
    text = read_text(manifest_path, "corpus manifest", DataError)
    for lineno, body in text_lines(text, manifest_path, DataError):
        parts = body.split(None, 1)
        if len(parts) != 2 or parts[0] not in ("s", "n"):
            raise DataError(f"{manifest_path}:{lineno}: expected 's <path>' or 'n <path>'")
        try:
            wave = dsp.read_wav(os.path.join(base, parts[1]))
        except OSError as e:
            raise DataError(f"{manifest_path}:{lineno}: cannot read {parts[1]!r}: {e}") from None
        (speech if parts[0] == "s" else noise).append(wave)
    if not speech or not noise:
        raise DataError(f"{manifest_path}: corpus needs at least one speech and one noise recording")
    return Corpus(speech, noise)


def make_example(speech: dsp.Waveform, noise: dsp.Waveform, snr_db: float, rng: np.random.Generator):
    """Mix, analyze, and build the clamped phase-sensitive target.

    Returns (noisy magnitude, target mask), both float32 [frames, 257].
    """
    mixture, _ = dsp.mix_at_snr(speech, noise, snr_db, rng)
    clean_spec = dsp.stft(speech)
    noisy_spec = dsp.stft(mixture)
    target = dsp.phase_sensitive_mask(clean_spec, noisy_spec, clamp=True)
    return (
        noisy_spec.magnitude.astype(np.float32),
        target.values.astype(np.float32),
    )


def epoch_batches(corpus: Corpus, batch_size: int, snr_lo: int, snr_hi: int, rng: np.random.Generator):
    """One shuffled pass over the speech list, in batches (last may be short).

    Each clip draws a noise recording, an integer SNR in [snr_lo, snr_hi],
    and (inside the mixer) a noise offset, all from `rng` in a fixed order.
    """
    perm = rng.permutation(len(corpus.speech))
    for lo in range(0, len(perm), batch_size):
        batch = []
        for idx in perm[lo:lo + batch_size]:
            noise = corpus.noise[int(rng.integers(0, len(corpus.noise)))]
            snr = int(rng.integers(snr_lo, snr_hi + 1))
            batch.append(make_example(corpus.speech[int(idx)], noise, snr, rng))
        yield batch


# ---- losses --------------------------------------------------------------


def clip_loss(pred: Tensor, target_nd: np.ndarray, mag_nd: np.ndarray, kind: str) -> Tensor:
    """Mean squared mask error; `masked-magnitude-mse` weights each error by
    the noisy magnitude first. `kind` is a validated TrainConfig.loss."""
    d = T.sub(pred, Tensor(target_nd))
    if kind == "masked-magnitude-mse":
        d = T.mul(d, Tensor(mag_nd))
    return T.mean(T.mul(d, d))


# ---- optimizer -----------------------------------------------------------


def lr_at(step_n: int, step_w: int, d_model: int) -> float:
    """Warm-up schedule: min(n^-0.5, n * w^-1.5) / sqrt(d_model).

    Rises linearly to the peak w^-0.5 * d_model^-0.5 at step w, then decays
    as n^-0.5. step_n counts from 1.
    """
    if step_n < 1:
        raise ConfigError(f"step_n counts from 1, got {step_n}")
    n, w = float(step_n), float(step_w)
    return min(n**-0.5, n * w**-1.5) * float(d_model) ** -0.5


def clip_gradients(params) -> None:
    """Clamp every gradient value into [-1, 1], in place."""
    for p in params:
        if p.grad is not None:
            np.clip(p.grad, -1.0, 1.0, out=p.grad)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(named_params, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update over (name, param) pairs.

    The update is m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g^2,
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps), computed op for op in that
    order through two scratch buffers instead of a temporary per op.
    """
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for name, p in named_params:
        g = p.grad
        if g is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p.data)
        a, b = np.empty_like(m), np.empty_like(m)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=a)
        v *= beta2
        a = np.multiply(g, g, out=a)
        a *= 1.0 - beta2
        v += a
        a = np.divide(m, bc1, out=a)
        a *= lr
        b = np.sqrt(np.divide(v, bc2, out=b), out=b)
        b += eps
        a /= b
        p.data -= a


# ---- checkpoints ----------------------------------------------------------


def save_checkpoint(
    ckpt_dir: str,
    model: EnhancementModel,
    run_cfg: RunConfig,
    opt: AdamState,
    rng_state: dict,
    epochs_done: int,
    global_step: int,
) -> None:
    """Write the checkpoint into ckpt_dir + ".tmp" and rename it into place,
    so ckpt_dir is complete whenever it exists; latest_checkpoint skips the
    ".tmp" name that a save cut short leaves behind."""
    tmp = ckpt_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    save_model(tmp, model, run_cfg)
    moments = {}
    for name, arr in opt.m.items():
        moments[f"m.{name}"] = arr
    for name, arr in opt.v.items():
        moments[f"v.{name}"] = arr
    save_tensors(os.path.join(tmp, OPTIM_ARCHIVE), moments)
    state = {
        "epochs_done": epochs_done,
        "global_step": global_step,
        "rng": rng_state,
    }
    with open(os.path.join(tmp, STATE_FILE), "w", encoding="utf-8") as fh:
        json.dump(state, fh, default=int, indent=1)
    if os.path.isdir(ckpt_dir):  # a rerun into the same output directory
        shutil.rmtree(ckpt_dir)
    os.replace(tmp, ckpt_dir)


def _read_state(path: str) -> dict:
    """state.json, checked: a JSON object with non-negative integer
    epochs_done and global_step, and an rng entry."""
    try:
        state = json.loads(read_text(path, "checkpoint state", FormatError))
    except ValueError as e:  # JSONDecodeError
        raise FormatError(f"{path}: not a JSON checkpoint state ({e})") from None
    if not isinstance(state, dict):
        raise FormatError(f"{path}: expected a JSON object, got a {type(state).__name__}")
    for key in ("epochs_done", "global_step", "rng"):
        if key not in state:
            raise FormatError(f"{path}: missing key {key!r}")
        if key != "rng" and (type(state[key]) is not int or state[key] < 0):
            raise FormatError(f"{path}: {key} must be a non-negative integer, got {state[key]!r}")
    return state


def load_checkpoint(ckpt_dir: str):
    """Returns (model, run_cfg, AdamState, rng, epochs_done, global_step).

    Raises FormatError, naming the file and the entry, on a malformed
    optimizer archive or state.json.
    """
    model, run_cfg = load_model(ckpt_dir)
    opt = AdamState()
    opt_path = os.path.join(ckpt_dir, OPTIM_ARCHIVE)
    if os.path.exists(opt_path):
        params = dict(model.named_parameters())
        for key, arr in load_tensors(opt_path).items():
            kind, _, name = key.partition(".")
            if kind not in ("m", "v") or name not in params:
                raise FormatError(f"{opt_path}: {key!r} is not an m.<param> or v.<param> moment of the model")
            if arr.shape != params[name].shape:
                raise FormatError(f"{opt_path}: {key!r} has shape {arr.shape}, its parameter {params[name].shape}")
            (opt.m if kind == "m" else opt.v)[name] = arr.astype(model.dtype, copy=False)
    state_path = os.path.join(ckpt_dir, STATE_FILE)
    state = _read_state(state_path)
    opt.t = state["global_step"]  # one Adam step per logged step
    bitgen = np.random.PCG64()
    try:
        bitgen.state = state["rng"]
    except (TypeError, ValueError, KeyError, OverflowError) as e:
        raise FormatError(f"{state_path}: 'rng' is not a PCG64 generator state ({type(e).__name__}: {e})") from None
    rng = np.random.Generator(bitgen)
    return model, run_cfg, opt, rng, state["epochs_done"], state["global_step"]


def _logged_rows(csv_path: str, global_step: int) -> list[str]:
    """loss.csv's rows for steps up to `global_step`, the step a resumed
    run's checkpoint reached; a last row that a kill cut short is dropped."""
    text = read_text(csv_path, "loss log", FormatError)
    rows = []
    for lineno, body in text_lines(text[:text.rfind("\n") + 1], csv_path, FormatError):
        if lineno == 1 and body == LOSS_HEADER:
            continue
        step = body.split(",", 1)[0]
        if body.count(",") != 3 or not step.isdecimal():
            raise FormatError(f"{csv_path}:{lineno}: expected a '{LOSS_HEADER}' row, got {body!r}")
        if int(step) <= global_step:
            rows.append(body)
    return rows


def checkpoint_dirs(out_dir: str) -> list[str]:
    """Names of the ckpt-<epoch> directories in out_dir (none if it does not
    exist), in epoch order; the ckpt-<epoch>.tmp of a save cut short is not one."""
    names = os.listdir(out_dir) if os.path.isdir(out_dir) else []
    dirs = [d for d in names if d.startswith("ckpt-") and d[5:].isdecimal() and os.path.isdir(os.path.join(out_dir, d))]
    return sorted(dirs, key=lambda d: int(d[5:]))


def latest_checkpoint(out_dir: str) -> str:
    """The ckpt-<epoch> directory with the highest epoch number."""
    dirs = checkpoint_dirs(out_dir)
    if not dirs:
        raise DataError(f"no checkpoints under {out_dir}")
    return os.path.join(out_dir, dirs[-1])


# ---- the loop --------------------------------------------------------------


def train_step(model: EnhancementModel, opt: AdamState, batch, lr: float, loss_kind: str) -> tuple[float, float]:
    """One optimizer step on a batch of (magnitude, target) clips, each
    [frames, 257]: forward, loss, backward, gradient clipping and Adam.

    Clips of equal frame count are stacked and run as one graph; a batch of
    mixed lengths runs one graph per frame count, each group's mean loss
    weighted by its share of the batch, so the loss is always the mean of
    the per-clip mean losses. Returns (loss, max |gradient| before
    clipping). Raises TrainingAborted, before any update, when a block's
    output, the loss or a parameter's gradient is not finite; the message
    names the block or the parameter.
    """
    groups: dict[int, list] = {}
    for mag, target in batch:
        groups.setdefault(mag.shape[0], []).append((mag, target))
    model.zero_grad()
    loss = None
    try:
        for clips in groups.values():
            mags = np.stack([mag for mag, _ in clips])
            targets = np.stack([target for _, target in clips])
            part = T.mul(clip_loss(model(Tensor(mags)), targets, mags, loss_kind), len(clips) / len(batch))
            loss = part if loss is None else T.add(loss, part)
        value = loss.item()
        fault = None if np.isfinite(value) else f"non-finite loss: loss={value!r}"
    except NumericError as e:  # a non-finite block output, named by the model
        fault = str(e)
    named = list(model.named_parameters())
    if fault is None:
        backward(loss)  # a NaN survives each g.max() and g.min(), though not Python's max() over them
        tops = {name: float(np.maximum(p.grad.max(), -p.grad.min())) for name, p in named if p.grad is not None}
        fault = next((f"non-finite gradient in {name}" for name, v in tops.items() if not math.isfinite(v)), None)
        grad_max = max(tops.values(), default=0.0)
    if fault is not None:
        raise TrainingAborted(
            f"{fault}, lr={lr:.6e}, max|param|={max(float(np.abs(p.data).max()) for _, p in named):.6e}"
        )
    clip_gradients(p for _, p in named)
    adam_step(named, opt, lr)
    return value, grad_max


@dataclass
class TrainResult:
    checkpoint_dir: str
    csv_path: str
    epochs_done: int
    global_step: int
    final_loss: float


def train(
    run_cfg: RunConfig,
    out_dir: str,
    resume_from: str | None = None,
    progress=None,
) -> TrainResult:
    """Run (or continue) a training job into out_dir.

    Writes loss.csv (step,epoch,lr,loss with full-precision floats) and a
    checkpoint every checkpoint_every epochs and at the last step. A resume
    redraws its epoch's done batches and cuts loss.csv back to its step.
    Raises TrainingAborted with diagnostics at a non-finite block output,
    loss or gradient.
    """
    model_cfg = run_cfg.model_config()
    train_cfg = run_cfg.train_config()
    if not train_cfg.corpus:
        raise ConfigError("corpus: required for training")
    corpus = load_corpus(train_cfg.corpus)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, LOSS_CSV)

    if resume_from is not None:
        model, saved_cfg, opt, rng, _, global_step = load_checkpoint(resume_from)
        if saved_cfg.model_config() != model_cfg:
            raise ConfigError("resume: checkpoint was trained with a different model config")
        rows = _logged_rows(csv_path, global_step) if os.path.exists(csv_path) else []
    else:
        model = build_model(model_cfg, seed=train_cfg.seed)
        opt = AdamState()
        rng = np.random.default_rng(train_cfg.seed)
        global_step = 0
        rows = []

    steps_per_epoch = math.ceil(len(corpus.speech) / train_cfg.batch_size)  # the batches epoch_batches yields
    end = min(train_cfg.epochs * steps_per_epoch, train_cfg.max_steps or math.inf)
    last_loss = float("nan")
    previous = "no step has run since the resume" if resume_from else "no previous step"
    # a fresh run always saves; a resumed one with no steps left keeps its own
    ckpt_dir = resume_from or ""

    with open(csv_path, "w", encoding="utf-8") as csv:
        csv.write("".join(f"{row}\n" for row in [LOSS_HEADER, *rows]))
        while global_step < end:
            epoch, done = divmod(global_step, steps_per_epoch)
            epoch_start = rng.bit_generator.state
            batches = epoch_batches(corpus, train_cfg.batch_size, train_cfg.snr_lo, train_cfg.snr_hi, rng)
            for batch in itertools.islice(batches, done, min(steps_per_epoch, end - epoch * steps_per_epoch)):
                global_step += 1
                lr = lr_at(global_step, train_cfg.step_w, model_cfg.d_model)
                try:
                    last_loss, grad_max = train_step(model, opt, batch, lr, train_cfg.loss)
                except TrainingAborted as e:
                    raise TrainingAborted(f"step {global_step} (epoch {epoch}): {e}, {previous}") from None
                previous = f"max|grad| at previous step={grad_max:.6e}"
                csv.write(f"{global_step},{epoch},{lr!r},{last_loss!r}\n")
                if progress is not None:
                    progress(global_step, epoch, lr, last_loss)
            epoch_end = global_step % steps_per_epoch == 0
            if global_step == end or (epoch_end and (epoch + 1) % train_cfg.checkpoint_every == 0):
                ckpt_dir = os.path.join(out_dir, f"ckpt-{epoch + 1:04d}")
                csv.flush()  # the rows this checkpoint covers must survive a kill
                rng_state = rng.bit_generator.state if epoch_end else epoch_start
                save_checkpoint(ckpt_dir, model, run_cfg, opt, rng_state, epoch + 1, global_step)

    return TrainResult(ckpt_dir, csv_path, math.ceil(global_step / steps_per_epoch), global_step, last_loss)
