"""Release gate: one test per release criterion.

Each test prints exactly one PASS/FAIL verdict line (visible with -s, or in
the failure report) and then asserts it. Tolerances are pinned here and must
not be loosened; a red test means the release bar is not met.
"""

import dataclasses

import numpy as np
import pytest

from tfse import dsp
from tfse import tensor as T
from tfse.attention import ConformerBlock, TransformerBlock
from tfse.config import RunConfig, read_config, resolve_config_arg, shipped_config_names
from tfse.evalbench import estoi, measure_rtf, measure_train_step
from tfse.model import build_model, count_params, enhance, load_model
from tfse.module import Bidirectional, Residual
from tfse.ssm import MambaCore, selective_scan_par, selective_scan_seq
from tfse.synth import filtered_noise, make_corpus, tonal_speech
from tfse.tensor import Tensor, grad_check, grad_check_params, no_grad
from tfse.training import lr_at, train
from tfse.xlstm import CBiXLSTMBlock, MLSTMCore, MLSTMState, mlstm_cell_step


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def shipped(name: str) -> RunConfig:
    return read_config(resolve_config_arg(name))


# ---- 1: parameter counts ---------------------------------------------------

# target size in millions, relative tolerance
SIZE_TARGETS = {
    "transformer-4": (3.29, 0.005),
    "transformer-4-noncausal": (3.29, 0.005),
    "transformer-4-rope": (3.29, 0.005),
    "transformer-4-sinpe": (3.29, 0.005),
    "conformer-4": (6.22, 0.05),
    "conformer-4-noncausal": (6.22, 0.05),
    "mamba-5": (2.32, 0.05),
    "mamba-7": (3.20, 0.05),
    "mamba-13": (5.83, 0.05),
    "xlstm-5": (2.21, 0.05),
    "xlstm-7": (3.04, 0.05),
    "xlstm-14": (5.95, 0.05),
    "bimamba-3": (2.76, 0.05),
    "bimamba-4": (3.64, 0.05),
    "bimamba-7": (6.26, 0.05),
    "c-bixlstm-3": (2.63, 0.05),
    "c-bixlstm-4": (3.46, 0.05),
    "c-bixlstm-7": (5.95, 0.05),
    "p-bixlstm-3": (2.63, 0.05),
    "p-bixlstm-4": (3.46, 0.05),
    "p-bixlstm-7": (5.95, 0.05),
}


def test_c01_parameter_counts_match_size_targets():
    full = [n for n in shipped_config_names() if not n.startswith("toy-")]
    assert sorted(full) == sorted(SIZE_TARGETS), "shipped zoo and target table diverge"
    misses = []
    for name, (target_m, tol) in SIZE_TARGETS.items():
        n = count_params(build_model(shipped(name).model_config(), seed=0))
        rel = abs(n / 1e6 - target_m) / target_m
        if rel > tol:
            misses.append(f"{name}: {n / 1e6:.3f}M vs {target_m}M (rel {rel:.4f} > {tol})")
    verdict(1, "parameter-counts", not misses,
            f"{len(SIZE_TARGETS)} configs within tolerance" if not misses else "; ".join(misses))


# ---- 2: causality ------------------------------------------------------------


def test_c02_causal_models_ignore_future_frames():
    frames = 48
    rng = np.random.default_rng(7)
    worst, worst_name = 0.0, ""
    checked = 0
    for name in shipped_config_names():
        mc = shipped(name).model_config()
        if not mc.causal:
            continue
        model = build_model(mc, seed=0)
        checked += 1
        for _ in range(20):
            x = np.abs(rng.normal(size=(frames, 257))).astype(np.float32)
            t = int(rng.integers(1, frames))
            x2 = x.copy()
            x2[t:] += np.abs(rng.normal(size=(frames - t, 257))).astype(np.float32)
            with no_grad():
                y = model(Tensor(x)).data
                y2 = model(Tensor(x2)).data
            d = float(np.abs(y2[:t] - y[:t]).max())
            if d > worst:
                worst, worst_name = d, name
    ok = worst < 1e-5 and checked >= 8
    verdict(2, "causality", ok,
            f"{checked} causal configs x 20 perturbations, worst prefix change "
            f"{worst:.3e}{' (' + worst_name + ')' if worst_name else ''} (tol 1e-5)")


# ---- 3: scan oracle ----------------------------------------------------------


def _scan_rel_worst(dtype, n_instances: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        L = int(rng.integers(1, 258))
        d, ns = 6, 4
        args = [
            Tensor(a.astype(dtype))
            for a in (
                rng.normal(size=(L, d)),
                rng.uniform(1e-3, 1e-1, size=(L, d)),
                -np.exp(rng.uniform(-6.9, 0.0, size=(d, ns))),
                rng.normal(size=(L, ns)),
                rng.normal(size=(L, ns)),
                rng.normal(size=d),
            )
        ]
        ys = selective_scan_seq(*args).data
        yp = selective_scan_par(*args).data
        worst = max(worst, float(np.abs(yp - ys).max() / max(np.abs(ys).max(), 1e-12)))
    return worst


def test_c03_parallel_scan_matches_sequential():
    w64 = _scan_rel_worst(np.float64, 200, seed=42)
    w32 = _scan_rel_worst(np.float32, 200, seed=43)
    ok = w64 < 1e-10 and w32 < 1e-5
    verdict(3, "scan-oracle", ok,
            f"200 instances each, L in [1, 257]: worst rel f64 {w64:.3e} (tol 1e-10), "
            f"f32 {w32:.3e} (tol 1e-5)")


# ---- 4: stabilized recurrence ------------------------------------------------


def _naive_chain(q, k, v, i_raw, f_raw):
    """Direct recurrence with raw exponential gates, denominator floored at 1."""
    heads, dh = q.shape[1], q.shape[2]
    C = np.zeros((heads, dh, dh))
    n = np.zeros((heads, dh, 1))
    outs = []
    for t in range(q.shape[0]):
        C = np.exp(f_raw[t]) * C + np.exp(i_raw[t]) * (v[t] @ np.swapaxes(k[t], -1, -2))
        n = np.exp(f_raw[t]) * n + np.exp(i_raw[t]) * k[t]
        den = np.maximum(np.abs(np.swapaxes(n, -1, -2) @ q[t]), 1.0)
        outs.append((C @ q[t]) / den)
    return np.stack(outs)


def _stabilized_chain(q, k, v, i_raw, f_raw, dtype):
    heads, dh = q.shape[1], q.shape[2]
    state = MLSTMState.zeros(heads, dh, dtype)
    outs = []
    with no_grad():
        for t in range(q.shape[0]):
            state, h = mlstm_cell_step(
                state, Tensor(q[t].astype(dtype)), Tensor(k[t].astype(dtype)),
                Tensor(v[t].astype(dtype)), Tensor(i_raw[t].astype(dtype)),
                Tensor(f_raw[t].astype(dtype)),
            )
            outs.append(h.data)
    return np.stack(outs)


def test_c04_stabilized_recurrence_matches_naive_and_survives_extremes():
    rng = np.random.default_rng(0)
    L, heads, dh = 24, 2, 4
    q = rng.normal(size=(L, heads, dh, 1))
    k = rng.normal(size=(L, heads, dh, 1))
    v = rng.normal(size=(L, heads, dh, 1))
    i_raw = rng.uniform(-5, 5, size=(L, heads, 1, 1))
    f_raw = rng.uniform(-5, 5, size=(L, heads, 1, 1))
    ref = _naive_chain(q, k, v, i_raw, f_raw)
    got = _stabilized_chain(q, k, v, i_raw, f_raw, np.float64)
    rel = float(np.abs(got - ref).max() / np.abs(ref).max())

    # 200 independent chains x 50 steps = 1e4 extreme-gate updates, 32-bit
    fuzz_heads, fuzz_len = 200, 50
    fq = rng.normal(size=(fuzz_len, fuzz_heads, dh, 1))
    fk = rng.normal(size=(fuzz_len, fuzz_heads, dh, 1))
    fv = rng.normal(size=(fuzz_len, fuzz_heads, dh, 1))
    fi = rng.uniform(-100, 100, size=(fuzz_len, fuzz_heads, 1, 1))
    ff = rng.uniform(-100, 100, size=(fuzz_len, fuzz_heads, 1, 1))
    # at strongly negative m the 32-bit normalizer floor exp(-m) saturates to
    # inf and the quotient underflows to the correct limit 0; that overflow
    # is expected, the criterion is that outputs stay finite
    with np.errstate(over="ignore"):
        fuzz = _stabilized_chain(fq, fk, fv, fi, ff, np.float32)
    finite = bool(np.all(np.isfinite(fuzz)))

    ok = rel < 1e-10 and finite
    verdict(4, "recurrence-stabilizer", ok,
            f"rel vs direct 64-bit recurrence {rel:.3e} (tol 1e-10); "
            f"{fuzz_heads * fuzz_len} extreme-gate updates all finite: {finite}")


# ---- 5: gradient checks --------------------------------------------------------


def test_c05_block_gradients_match_finite_differences():
    # h=1e-4 for the post-norm attention blocks: their true gradients at init
    # are ~1e-6 while the loss is O(10), so smaller h drowns in FD cancellation
    def mamba(r):
        return MambaCore(16, r, np.float64, d_state=4)

    def mlstm(r):
        return MLSTMCore(16, r, np.float64, heads=4)

    cases = [
        ("transformer", lambda r: TransformerBlock(16, 32, 4, r, np.float64, causal=True), 1e-4),
        ("conformer", lambda r: ConformerBlock(16, 32, 4, r, np.float64, conv_kernel=7, causal=True), 1e-4),
        ("mamba", lambda r: Residual(mamba(r)), 1e-5),
        ("bimamba", lambda r: Bidirectional(mamba(r), mamba(r)), 1e-5),
        ("mlstm", lambda r: Residual(mlstm(r)), 1e-5),
        ("c-bixlstm", lambda r: CBiXLSTMBlock(Residual(mlstm(r)), Residual(mlstm(r))), 1e-5),
        ("p-bixlstm", lambda r: Bidirectional(mlstm(r), mlstm(r)), 1e-5),
    ]
    rng = np.random.default_rng(3)
    worst, worst_at = 0.0, ""
    for name, make, h in cases:
        block = make(np.random.default_rng(1))
        x = Tensor(0.5 * rng.normal(size=(6, 16)), requires_grad=True)

        def loss_fn():
            y = block(x)
            return T.mean(T.mul(y, y))

        errs = grad_check_params(loss_fn, block.named_parameters(), h=h)
        errs["input"] = grad_check(lambda t: loss_fn(), x, h=h)
        bad = max(errs, key=errs.get)
        if errs[bad] > worst:
            worst, worst_at = errs[bad], f"{name}.{bad}"
    ok = worst < 1e-3
    verdict(5, "block-gradients", ok,
            f"7 block types, worst rel err {worst:.3e} at {worst_at} (tol 1e-3)")


# ---- 6: analysis, masking, mixing ---------------------------------------------


def test_c06_analysis_masking_and_mixing_identities():
    rng = np.random.default_rng(9)
    w = tonal_speech(rng, 1.0)
    back = dsp.istft(dsp.stft(w), len(w))
    interior = slice(512, len(w) - 512)
    rt_rel = float(np.abs(back.samples[interior] - w.samples[interior]).max()
                   / np.abs(w.samples).max())

    frames = 5
    mag = rng.uniform(0.5, 1.5, size=(frames, 257))
    phase = rng.uniform(-np.pi, np.pi, size=(frames, 257))
    x = dsp.Spectrogram(mag * np.exp(1j * phase), num_samples=frames * 256)
    same = dsp.phase_sensitive_mask(x, x).values
    zero_noise_ok = bool(np.all(same == 1.0))
    s60 = dsp.Spectrogram(x.values * np.exp(1j * np.pi / 3), num_samples=x.num_samples)
    m60 = dsp.phase_sensitive_mask(s60, x).values
    sixty_err = float(np.abs(m60 - 0.5).max())

    speech = tonal_speech(np.random.default_rng(1), 1.0)
    noise = filtered_noise(np.random.default_rng(2), 1.0)
    snr_err = 0.0
    for label in (-7.0, 0.0, 4.5):
        _, scaled = dsp.mix_at_snr(speech, noise, label, np.random.default_rng(3))
        measured = 10.0 * np.log10(
            np.mean(speech.samples**2) / np.mean(scaled.samples**2)
        )
        snr_err = max(snr_err, abs(measured - label))

    ok = rt_rel < 1e-6 and zero_noise_ok and sixty_err < 1e-12 and snr_err < 1e-6
    verdict(6, "analysis-and-masking", ok,
            f"round-trip rel {rt_rel:.3e} (tol 1e-6); zero-noise mask==1: {zero_noise_ok}; "
            f"60-degree mask err {sixty_err:.3e}; mixing err {snr_err:.3e} dB (tol 1e-6)")


# ---- 7: scheduler ---------------------------------------------------------------


def test_c07_lr_schedule_peaks_at_warmup_boundary():
    peak_exact = lr_at(40000, 40000, 256) == 3.125e-4
    closed_form_ok = all(
        lr_at(w, w, d) == pytest.approx(w**-0.5 * d**-0.5, rel=1e-12)
        for w, d in ((400, 32), (4000, 64), (40000, 256))
    )
    up = [lr_at(n, 400, 32) for n in range(1, 401)]
    down = [lr_at(n, 400, 32) for n in range(400, 4000, 50)]
    monotone = all(b > a for a, b in zip(up, up[1:])) and all(
        b < a for a, b in zip(down, down[1:])
    )
    ok = peak_exact and closed_form_ok and monotone
    verdict(7, "lr-schedule", ok,
            f"peak == 3.125e-4 at 40000/256: {peak_exact}; closed form at boundary: "
            f"{closed_form_ok}; monotone up/down: {monotone}")


# ---- 8: end-to-end toy training --------------------------------------------------


@pytest.fixture(scope="module")
def accept_corpus(tmp_path_factory):
    return make_corpus(str(tmp_path_factory.mktemp("accept_corpus")),
                       n_speech=24, n_noise=8, duration_s=1.0, seed=11)


def _held_out_gains(model, n_clips: int = 5):
    learned, oracle = [], []
    for k in range(n_clips):
        rng = np.random.default_rng(900 + k)
        clean = tonal_speech(rng, 1.0)
        noise = filtered_noise(rng, 1.0)
        mixture, _ = dsp.mix_at_snr(clean, noise, 0.0, np.random.default_rng(k))
        base = dsp.snr_db(clean, mixture)
        learned.append(dsp.snr_db(clean, enhance(model, mixture)) - base)
        spec = dsp.stft(mixture)
        ideal = dsp.phase_sensitive_mask(dsp.stft(clean), spec, clamp=True)
        restored = dsp.istft(dsp.apply_mask(spec, ideal), len(mixture))
        oracle.append(dsp.snr_db(clean, restored) - base)
    return float(np.mean(learned)), float(np.mean(oracle))


def test_c08_toy_training_halves_loss_and_improves_snr(accept_corpus, tmp_path):
    lines = []
    ok = True
    for backbone, blocks in (("transformer", 2), ("conformer", 1), ("mamba", 2), ("xlstm", 2)):
        cfg = RunConfig(
            backbone=backbone, blocks=blocks, causal=True, d_model=32, d_ff=128,
            heads=4, d_state=4, step_w=400, batch_size=4, snr_lo=-5, snr_hi=10,
            epochs=60, loss="mask-mse", corpus=accept_corpus, seed=0,
        )
        result = train(cfg, str(tmp_path / backbone))
        losses = [float(r.rsplit(",", 1)[1])
                  for r in open(result.csv_path).read().splitlines()[1:]]
        assert 300 <= len(losses) <= 1000
        first, last = float(np.mean(losses[:25])), float(np.mean(losses[-25:]))
        model, _ = load_model(result.checkpoint_dir)
        learned, oracle = _held_out_gains(model)
        this_ok = last <= 0.5 * first and learned >= 3.0 and oracle >= learned
        ok = ok and this_ok
        lines.append(f"{backbone}: loss {first:.3f}->{last:.3f}, "
                     f"gain {learned:+.1f} dB, oracle {oracle:+.1f} dB")
    verdict(8, "toy-training", ok, "; ".join(lines)
            + " (need loss halved, gain >= +3 dB at 0 dB, oracle >= learned)")


# ---- 9: throughput trends ---------------------------------------------------------


def test_c09_throughput_trends():
    def growth(name):
        model = build_model(shipped(name).model_config(), seed=0)
        r10 = measure_rtf(model, 10.0, runs=3, warmup=1)[0]
        r40 = measure_rtf(model, 40.0, runs=3, warmup=1)[0]
        return r40 / r10

    att = growth("transformer-4-noncausal")
    bim = growth("bimamba-4")
    ratio_of_ratios = att / bim

    cfg_b = dataclasses.replace(shipped("bimamba-3"), batch_size=2)
    cfg_x = dataclasses.replace(shipped("c-bixlstm-3"), batch_size=2)
    sec_b = measure_train_step(build_model(cfg_b.model_config(), seed=cfg_b.seed), cfg_b.train_config(),
                               steps=3, warmup=1, frames=63)
    sec_x = measure_train_step(build_model(cfg_x.model_config(), seed=cfg_x.seed), cfg_x.train_config(),
                               steps=3, warmup=1, frames=63)

    # The paper's "xLSTM is slowest" is reported, not gated: with the chunkwise
    # mLSTM scan the xLSTM step is no slower than bimamba's.
    ok = ratio_of_ratios >= 1.5
    verdict(9, "throughput-trends", ok,
            f"RTF(40s)/RTF(10s): attention {att:.2f} vs bimamba {bim:.2f} "
            f"(ratio {ratio_of_ratios:.2f}, need >= 1.5); sec/step "
            f"c-bixlstm-3 {sec_x:.3f}, bimamba-3 {sec_b:.3f} (reported, not gated)")


# ---- 10: intelligibility scorer ------------------------------------------------------


def _spearman(xs, ys) -> float:
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(len(v))
        return r

    rx, ry = ranks(np.asarray(xs)), ranks(np.asarray(ys))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx**2).sum() * (ry**2).sum()))


def test_c10_intelligibility_scorer_sanity():
    clean = tonal_speech(np.random.default_rng(2), 2.0)
    self_err = abs(estoi(clean, clean) - 1.0)
    scaled = dsp.Waveform(clean.samples * 0.03, clean.sample_rate)
    scale_err = abs(estoi(clean, scaled) - 1.0)

    noise = filtered_noise(np.random.default_rng(7), 2.0)
    snrs = [-10, -5, 0, 5, 10, 15, 20]
    scores = []
    for snr in snrs:
        mixture, _ = dsp.mix_at_snr(clean, noise, snr, np.random.default_rng(0))
        scores.append(estoi(clean, mixture))
    rho = _spearman(snrs, scores)

    ok = self_err < 1e-9 and scale_err < 1e-9 and rho > 0.95
    verdict(10, "intelligibility-scorer", ok,
            f"self-score err {self_err:.1e}, scale-invariance err {scale_err:.1e} "
            f"(tol 1e-9); Spearman rho over -10..20 dB = {rho:.3f} (need > 0.95)")
