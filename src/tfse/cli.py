"""Command-line interface.

Subcommands: train, enhance, params, bench, verify, synth-corpus, score.
Exit codes: 0 success, 1 a verification check or trend assertion failed,
2 usage/configuration/runtime error (including a busy benchmark lock).
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import shlex
import sys
import tempfile

import numpy as np

from . import dsp
from . import tensor as T
from .archive import load_tensors, save_tensors
from .config import (
    ATTENTION_BACKBONES,
    BACKBONES,
    NONCAUSAL_ONLY,
    ModelConfig,
    RunConfig,
    read_config,
    resolve_config_arg,
    shipped_config_names,
)
from .errors import ConfigError, DataError, TfseError
from .model import CONFIG_FILE, WINDOW, build_model, count_params, enhance, load_model, param_count_str, save_model
from .ssm import selective_scan_par, selective_scan_seq
from .tensor import Tensor, no_grad
from .xlstm import CHUNK, QKV_BLOCK_SIZE, MLSTMState, mlstm_branch, mlstm_cell_step

BENCH_LOCK = os.path.join(tempfile.gettempdir(), "tfse-bench.lock")


# ---- verification checks ----------------------------------------------------


def _check_gradients() -> tuple[bool, str]:
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 7)).astype(np.float64), requires_grad=True)
    w = Tensor(rng.normal(size=(7, 4)).astype(np.float64))
    g = Tensor(np.ones(4, dtype=np.float64))
    b = Tensor(np.zeros(4, dtype=np.float64))
    kernel = Tensor(rng.normal(size=(3, 4)).astype(np.float64))

    def f(t):
        h = T.rearrange(T.linear(t, w, b), (5, 2, 2), (2, 0, 1), (5, 4))  # a head split, permute and merge
        h = T.depthwise_conv1d(T.layer_norm(h, g, b), kernel, b)
        a = T.rearrange(h, (5, 2, 2), (1, 0, 2))  # two heads of two features
        return T.sum_(T.attention(a, T.silu(a), T.sigmoid(a), causal=True))

    err = T.grad_check(f, x)
    return err < 1e-6, f"max gradient mismatch {err:.3e} (tol 1e-6)"


def _check_scan_equivalence() -> tuple[bool, str]:
    rng = np.random.default_rng(1)
    worst = 0.0
    with no_grad():
        for L in (1, 2, 17, 64):
            u = Tensor(rng.normal(size=(L, 6)).astype(np.float64))
            delta = Tensor(rng.uniform(0.001, 0.1, size=(L, 6)).astype(np.float64))
            A = Tensor(-rng.uniform(0.5, 4.0, size=(6, 5)).astype(np.float64))
            B = Tensor(rng.normal(size=(L, 5)).astype(np.float64))
            C = Tensor(rng.normal(size=(L, 5)).astype(np.float64))
            D = Tensor(rng.normal(size=6).astype(np.float64))
            ys = selective_scan_seq(u, delta, A, B, C, D).data
            yp = selective_scan_par(u, delta, A, B, C, D).data
            worst = max(worst, float(np.abs(ys - yp).max() / max(np.abs(ys).max(), 1e-12)))
    return worst < 1e-10, f"fused vs sequential rel diff {worst:.3e} (tol 1e-10)"


def _check_chunked_mlstm() -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    H, dh, L = 2, 4, 2 * CHUNK + 7  # crosses two chunk boundaries
    x = rng.normal(size=(L, H * dh))
    ig, fg = (rng.uniform(-5, 5, size=(H, L)) for _ in range(2))
    eye = Tensor(np.tile(np.eye(QKV_BLOCK_SIZE), (H * dh // QKV_BLOCK_SIZE, 1, 1)))  # block weights
    q = x.reshape(L, H, dh, 1).swapaxes(0, 1)  # [H, L, dh, 1]: q and v of identity blocks, k = q / sqrt(dh)
    with no_grad():
        got = mlstm_branch(Tensor(x), eye, eye, eye, Tensor(ig), Tensor(fg), H).data
        state = MLSTMState.zeros(H, dh, np.float64)
        want = np.empty_like(got)
        for t in range(L):
            state, h = mlstm_cell_step(
                state, Tensor(q[:, t]), Tensor(q[:, t] * dh**-0.5), Tensor(q[:, t]),
                Tensor(ig[:, t, None, None]), Tensor(fg[:, t, None, None]),
            )
            want[:, t] = h.data[:, :, 0]
    rel = float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-12))
    return rel < 1e-10, f"chunked scan vs cell chain over {L} frames rel diff {rel:.3e} (tol 1e-10)"


def _check_recurrence_stabilizer() -> tuple[bool, str]:
    rng = np.random.default_rng(2)
    H, dh, L = 2, 4, 24
    worst = 0.0
    with no_grad():
        state = MLSTMState.zeros(H, dh, np.float64)
        Cn = np.zeros((H, dh, dh))
        nn = np.zeros((H, dh, 1))
        for _ in range(L):
            q = rng.normal(size=(H, dh, 1))
            k = rng.normal(size=(H, dh, 1))
            v = rng.normal(size=(H, dh, 1))
            ig = rng.uniform(-5, 5, size=(H, 1, 1))
            fg = rng.uniform(-5, 5, size=(H, 1, 1))
            state, h = mlstm_cell_step(
                state, Tensor(q), Tensor(k), Tensor(v), Tensor(ig), Tensor(fg)
            )
            # reference without the running-max rescaling
            Cn = np.exp(fg) * Cn + np.exp(ig) * (v @ np.swapaxes(k, -1, -2))
            nn = np.exp(fg) * nn + np.exp(ig) * k
            denom = np.maximum(np.abs(np.swapaxes(nn, -1, -2) @ q), 1.0)
            h_ref = (Cn @ q) / denom
            worst = max(worst, float(np.abs(h.data - h_ref).max() / max(np.abs(h_ref).max(), 1e-12)))
    return worst < 1e-10, f"stabilized vs direct recurrence rel diff {worst:.3e} (tol 1e-10)"


def _check_analysis_roundtrip() -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    w = dsp.Waveform(rng.uniform(-0.5, 0.5, 4096))
    back = dsp.istft(dsp.stft(w), len(w))
    lo, hi = dsp.HOP, len(w) - dsp.HOP
    err = np.abs(back.samples[lo:hi] - w.samples[lo:hi])
    ref = np.abs(w.samples[lo:hi]).max()
    snr = 20 * np.log10(ref / max(err.max(), 1e-300))
    return snr > 100.0, f"interior reconstruction {snr:.1f} dB (need > 100)"


def _check_ideal_mask() -> tuple[bool, str]:
    from .synth import filtered_noise, tonal_speech

    rng = np.random.default_rng(4)
    speech = tonal_speech(rng, duration_s=1.0)
    noise = filtered_noise(rng, duration_s=1.0)
    mixture, _ = dsp.mix_at_snr(speech, noise, 0.0, rng)
    clean_spec = dsp.stft(speech)
    mix_spec = dsp.stft(mixture)
    self_mask = dsp.phase_sensitive_mask(clean_spec, clean_spec)
    if not np.allclose(self_mask.values, 1.0):
        return False, "mask of a clip against itself is not 1"
    mask = dsp.phase_sensitive_mask(clean_spec, mix_spec)
    est = dsp.istft(dsp.apply_mask(mix_spec, mask), len(mixture))
    gain = dsp.snr_db(speech, est) - dsp.snr_db(speech, mixture)
    return gain > 10.0, f"ideal mask improves SNR by {gain:.1f} dB (need > 10)"


def _check_intelligibility_scorer() -> tuple[bool, str]:
    from .evalbench import estoi
    from .synth import tonal_speech

    rng = np.random.default_rng(5)
    x = tonal_speech(rng, duration_s=1.5)
    s_self = estoi(x, x)
    s_scaled = estoi(x, dsp.Waveform(x.samples * 2.5))
    ok = abs(s_self - 1.0) < 1e-9 and abs(s_scaled - 1.0) < 1e-9
    return ok, f"self score {s_self!r}, scaled-input score {s_scaled!r} (both must be 1)"


def _check_archive_roundtrip() -> tuple[bool, str]:
    rng = np.random.default_rng(6)
    tensors = {
        "a.w": rng.normal(size=(3, 4)).astype(np.float32),
        "b": rng.normal(size=7).astype(np.float64),
        "c.scalar": np.float32(rng.normal()),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.tensors")
        save_tensors(path, tensors)
        back = load_tensors(path)
    ok = set(back) == set(tensors) and all(
        np.array_equal(np.asarray(tensors[k]), back[k])
        and back[k].dtype == np.asarray(tensors[k]).dtype
        for k in tensors
    )
    return ok, "save/load returns identical bits" if ok else "round trip altered tensors"


def _check_deterministic_build() -> tuple[bool, str]:
    cfg = ModelConfig(backbone="transformer", blocks=1, causal=True, d_model=32, d_ff=64, heads=4)
    m1 = build_model(cfg, seed=9)
    m2 = build_model(cfg, seed=9)
    for (n1, p1), (_, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        if not np.array_equal(p1.data, p2.data):
            return False, f"parameter {n1} differs between two builds with one seed"
    x = np.random.default_rng(10).uniform(0, 1, (8, 257)).astype(np.float32)
    with no_grad():
        y1 = m1(Tensor(x)).data
        y2 = m2(Tensor(x)).data
    ok = np.array_equal(y1, y2)
    return ok, "two builds are bit-identical" if ok else "forward passes differ"


def _check_checkpoint_load() -> tuple[bool, str]:
    x = np.random.default_rng(12).uniform(0, 1, (8, 257)).astype(np.float32)
    for backbone in BACKBONES:
        rc = RunConfig(
            backbone=backbone, blocks=1, causal=backbone not in NONCAUSAL_ONLY,
            d_model=16, d_ff=32, heads=2, d_state=4, conv_kernel=3, seed=13,
        )
        built = build_model(rc.model_config(), seed=rc.seed)
        with tempfile.TemporaryDirectory() as tmp:
            save_model(tmp, built, rc)
            loaded, _ = load_model(tmp)
        for (name, p1), (_, p2) in zip(built.named_parameters(), loaded.named_parameters()):
            if p1.data.tobytes() != p2.data.tobytes():
                return False, f"{backbone}: parameter {name} differs after save and load"
        with no_grad():
            if built(x).data.tobytes() != loaded(x).data.tobytes():
                return False, f"{backbone}: the loaded model's forward differs from the built one's"
    return True, f"{len(BACKBONES)} backbones load back with identical bits and forward outputs"


def _check_windowed_enhance() -> tuple[bool, str]:
    L = 2 * WINDOW + 5  # two windows, the second taking the 5-frame remainder
    w = dsp.Waveform(np.random.default_rng(14).uniform(-0.5, 0.5, L * dsp.HOP - 100))
    spec = dsp.stft(w)
    for preset in ("toy-mamba", "toy-xlstm"):
        model = build_model(read_config(resolve_config_arg(preset)).model_config())
        with no_grad():
            mask = model(spec.magnitude.astype(model.dtype)).data.astype(np.float64)
        whole = dsp.istft(dsp.apply_mask(spec, dsp.Mask(mask)), len(w))
        if enhance(model, w).samples.tobytes() != whole.samples.tobytes():
            return False, f"{preset}: windowed enhance of {L} frames differs from the whole-clip composition"
    return True, f"toy-mamba and toy-xlstm over {L} frames give the whole-clip composition's bytes"


def _check_negative_control() -> tuple[bool, str]:
    """Feed the gradient checker an op whose backward is deliberately wrong.
    The checker must flag it; this check is expected to FAIL, proving the
    comparison is not vacuous."""
    x = Tensor(np.random.default_rng(11).normal(size=(4, 3)).astype(np.float64), requires_grad=True)

    def bad_square(t):
        def gfn(g):
            t._accumulate(3.0 * t.data * g)  # true gradient is 2 * t

        return T._make(t.data * t.data, (t,), gfn, "bad-square")

    err = T.grad_check(lambda t: T.sum_(bad_square(t)), x)
    return err < 1e-6, f"corrupted backward produced gradient mismatch {err:.3e}"


_CHECKS = [
    ("gradients-match-finite-differences", _check_gradients),
    ("parallel-scan-matches-sequential", _check_scan_equivalence),
    ("chunked-mlstm-matches-cell", _check_chunked_mlstm),
    ("stabilized-recurrence-matches-reference", _check_recurrence_stabilizer),
    ("analysis-synthesis-roundtrip", _check_analysis_roundtrip),
    ("ideal-mask-recovers-clean", _check_ideal_mask),
    ("intelligibility-self-score", _check_intelligibility_scorer),
    ("archive-roundtrip-bit-exact", _check_archive_roundtrip),
    ("deterministic-build", _check_deterministic_build),
    ("checkpoint-load-matches-build", _check_checkpoint_load),
    ("windowed-enhance-matches-whole-clip", _check_windowed_enhance),
]


def _cmd_verify(args) -> int:
    checks = list(_CHECKS)
    if args.negative_control:
        checks.append(("negative-control-corrupted-backward", _check_negative_control))
    failures = 0
    for name, fn in checks:
        ok, detail = fn()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


# ---- other subcommands -------------------------------------------------------


def _cmd_train(args) -> int:
    from .training import checkpoint_dirs, latest_checkpoint, train

    rc = read_config(resolve_config_arg(args.config))
    resume_from = latest_checkpoint(args.out) if args.resume else None
    stale = [] if args.resume else checkpoint_dirs(args.out)
    if stale:  # a fresh run among them would leave --resume continuing the old run
        raise ConfigError(f"--out {args.out} already holds {', '.join(stale)}: pass --resume, or another --out")

    def progress(step, epoch, lr, loss):
        if step % args.log_every == 0:
            print(f"step {step} epoch {epoch} lr {lr:.4e} loss {loss:.6f}", flush=True)

    result = train(rc, args.out, resume_from=resume_from, progress=progress)
    print(f"trained {result.global_step} steps over {result.epochs_done} epochs")
    if np.isfinite(result.final_loss):
        print(f"final loss {result.final_loss:.6f}")
    else:
        print("no new steps: the checkpoint already meets the configured epoch count")
    print(f"checkpoint {result.checkpoint_dir}")
    print(f"loss log {result.csv_path}")
    return 0


def _cmd_enhance(args) -> int:
    model, _ = load_model(args.checkpoint)
    if glob.has_magic(args.input):
        paths = sorted(glob.glob(args.input))
    else:
        paths = [args.input]
    if not paths:
        raise DataError(f"no input files match {args.input!r}")
    single_file_out = len(paths) == 1 and args.out.lower().endswith(".wav")
    if not single_file_out:
        os.makedirs(args.out, exist_ok=True)
    for path in paths:
        noisy = dsp.read_wav(path)
        clean = enhance(model, noisy)
        dest = args.out if single_file_out else os.path.join(args.out, os.path.basename(path))
        dsp.write_wav(dest, clean, args.encoding)
        print(f"wrote {dest}")
    return 0


def _cmd_params(args) -> int:
    rc = read_config(resolve_config_arg(args.config))
    mc = rc.model_config()
    model = build_model(mc, seed=rc.seed)
    print(f"{mc.name}: {param_count_str(count_params(model))}")
    return 0


def _cmd_synth_corpus(args) -> int:
    from .synth import make_corpus

    manifest = make_corpus(
        args.out, n_speech=args.n_speech, n_noise=args.n_noise, duration_s=args.dur, seed=args.seed
    )
    print(f"wrote {manifest}")
    return 0


def _cmd_bench(args) -> int:
    import fcntl

    from .evalbench import measure_rtf, measure_train_step

    if args.config is None and args.checkpoint is None:
        raise ConfigError("bench: pass --config or --checkpoint")
    if args.config is not None and args.checkpoint is not None:  # building from --config would ignore it
        raise ConfigError("bench: pass --config or --checkpoint, not both")
    if args.config is None and args.train_steps:  # measure_train_step builds afresh from the config's seed
        cfg = os.path.join(args.checkpoint, CONFIG_FILE)
        raise ConfigError(f"bench: --train-steps times a fresh build, not the checkpoint's weights; use --config {cfg}")
    if args.config is not None:
        rc = read_config(resolve_config_arg(args.config))
        model = build_model(rc.model_config(), seed=rc.seed)
    else:
        model, rc = load_model(args.checkpoint)

    lock = open(BENCH_LOCK, "a", encoding="utf-8")
    try:
        try:
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except (BlockingIOError, PermissionError):
            print("bench: another benchmark holds the lock; try again later", file=sys.stderr)
            return 2
        sps = ""
        if args.train_steps:
            sps = repr(measure_train_step(rc, steps=args.train_steps, warmup=2))
        results = [measure_rtf(model, L, batch=args.batch, runs=args.runs, warmup=args.warmup) for L in args.lengths]
    finally:
        lock.close()

    model_cols = f"{model.cfg.name},{count_params(model)},{str(model.cfg.causal).lower()}"
    rows = ["model,params,causal,length_s,batch,runs,rtf,rtf_cv,sec_per_step"] + [
        f"{model_cols},{r.length_s:g},{r.batch},{r.runs},{r.rtf!r},{r.cv!r},{sps}" for r in results
    ]
    print("\n".join(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"wrote {args.out}")

    if args.assert_trends:
        if len(results) < 2:
            raise ConfigError("bench: --assert-trends needs at least two lengths")
        first, last = results[0], results[-1]
        if rc.backbone in ATTENTION_BACKBONES:
            ok = last.rtf > first.rtf
            kind = f"attention cost grows with length (rtf {first.rtf:.4g} -> {last.rtf:.4g})"
        else:
            ok = last.rtf < 2.5 * first.rtf
            kind = f"recurrent cost stays near-flat (rtf {first.rtf:.4g} -> {last.rtf:.4g})"
        print(f"{'PASS' if ok else 'FAIL'} {kind}")
        if not ok:
            return 1
    return 0


def _cmd_score(args) -> int:
    from .evalbench import score_model

    scorer = shlex.split(args.scorer) if args.scorer else None
    table = score_model(args.checkpoint, args.manifest, seed=args.seed, scorer_cmd=scorer)
    csv = table.csv()
    print(csv, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
        print(f"wrote {args.out}")
    return 0


# ---- parser ------------------------------------------------------------------


def _number(convert, ok, need: str):
    """An argparse type: text that `convert` parses to a value `ok` accepts."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
        return value

    return parse


_positive = _number(int, lambda v: v >= 1, "an integer >= 1")
_non_negative = _number(int, lambda v: v >= 0, "an integer >= 0")
_seconds = _number(float, lambda v: math.isfinite(v) and v > 0, "positive finite seconds")


def _seconds_list(text: str) -> list[float]:
    """An argparse type: comma-separated positive finite seconds, sorted."""
    return sorted(_seconds(p) for p in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tfse",
        description="Masking-based speech enhancement: train, run, and benchmark "
        "interchangeable sequence backbones.",
        epilog=f"shipped configs: {', '.join(shipped_config_names())}",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a config")
    t.add_argument("--config", required=True, help="config file path or shipped config name")
    t.add_argument("--out", required=True, help="output directory for checkpoints and loss log")
    t.add_argument("--resume", action="store_true", help="continue from the latest checkpoint in --out")
    t.add_argument("--log-every", type=_positive, default=50, help="print progress every N steps")
    t.set_defaults(fn=_cmd_train)

    e = sub.add_parser("enhance", help="denoise WAV files with a trained checkpoint")
    e.add_argument("--checkpoint", required=True, help="checkpoint directory")
    e.add_argument("--in", dest="input", required=True, help="input WAV path or glob")
    e.add_argument("--out", required=True, help="output WAV path (single input) or directory")
    e.add_argument("--encoding", choices=("pcm16", "float32"), default="pcm16")
    e.set_defaults(fn=_cmd_enhance)

    pa = sub.add_parser("params", help="print a model's parameter count")
    pa.add_argument("--config", required=True, help="config file path or shipped config name")
    pa.set_defaults(fn=_cmd_params)

    b = sub.add_parser("bench", help="measure real-time factor and training throughput")
    b.add_argument("--config", help="config file path or shipped config name")
    b.add_argument("--checkpoint", help="checkpoint directory (alternative to --config)")
    b.add_argument("--lengths", type=_seconds_list, default="1,2,4", help="comma-separated clip lengths in seconds")
    b.add_argument("--batch", type=_positive, default=4)
    b.add_argument("--runs", type=_positive, default=20)
    b.add_argument("--warmup", type=_non_negative, default=3)
    b.add_argument("--train-steps", type=_non_negative, default=0, help="also time N optimizer steps (needs --config)")
    b.add_argument("--out", help="write results CSV here")
    b.add_argument("--assert-trends", action="store_true", help="fail if cost scaling looks wrong")
    b.set_defaults(fn=_cmd_bench)

    v = sub.add_parser("verify", help="run numerical self-checks")
    v.add_argument(
        "--negative-control",
        action="store_true",
        help="also run a deliberately corrupted gradient, which must be flagged",
    )
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("synth-corpus", help="generate a small synthetic training corpus")
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--n-speech", type=_positive, default=12)
    s.add_argument("--n-noise", type=_positive, default=6)
    s.add_argument("--dur", type=_seconds, default=2.0, help="clip duration in seconds")
    s.add_argument("--seed", type=_non_negative, default=0)
    s.set_defaults(fn=_cmd_synth_corpus)

    sc = sub.add_parser("score", help="evaluate a checkpoint on a mixing manifest")
    sc.add_argument("--checkpoint", required=True)
    sc.add_argument("--manifest", required=True, help="lines: <clean> <noise> <snr_db>")
    sc.add_argument("--out", help="write results CSV here")
    sc.add_argument("--seed", type=_non_negative, default=0)
    sc.add_argument("--scorer", help="external scorer command; gets <ref.wav> <est.wav> appended")
    sc.set_defaults(fn=_cmd_score)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TfseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
