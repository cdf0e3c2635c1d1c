"""Evaluation and benchmark harness tests: intelligibility scorer sanity,
resampler behavior, the timers, and scoring tables."""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tfse import evalbench
from tfse.config import RunConfig
from tfse.dsp import Waveform, mix_at_snr, write_wav
from tfse.errors import DataError, FormatError, LengthError, SampleRateError, TfseError
from tfse.evalbench import (
    estoi,
    external_score,
    measure_rtf,
    measure_train_step,
    read_eval_manifest,
    resample_poly,
    score_model,
)
from tfse.model import build_model, enhance
from tfse.synth import filtered_noise, tonal_speech


def speechlike(seed=0, duration_s=2.0) -> Waveform:
    return tonal_speech(np.random.default_rng(seed), duration_s)


@pytest.fixture(scope="module")
def tiny_model():
    cfg = RunConfig(
        backbone="mamba", blocks=1, causal=True,
        d_model=32, d_ff=64, heads=4, d_state=4,
    ).model_config()
    return build_model(cfg, seed=0)


@pytest.fixture(scope="module")
def trained_ckpt(corpus_manifest, tmp_path_factory):
    from tfse.training import train

    cfg = RunConfig(
        backbone="mamba", blocks=1, causal=True, d_model=32, d_ff=64,
        heads=4, d_state=4, step_w=400, batch_size=10, snr_lo=-5,
        snr_hi=10, epochs=1, corpus=corpus_manifest,
    )
    out = str(tmp_path_factory.mktemp("score_run"))
    return train(cfg, out).checkpoint_dir


@pytest.fixture(scope="module")
def eval_manifest(tmp_path_factory):
    d = tmp_path_factory.mktemp("eval")
    rng = np.random.default_rng(5)
    write_wav(str(d / "c.wav"), tonal_speech(rng, 2.0), "float32")
    write_wav(str(d / "n.wav"), filtered_noise(rng, 2.0), "float32")
    m = d / "eval.txt"
    m.write_text("c.wav n.wav 0\nc.wav n.wav 5\nc.wav n.wav 0\n")
    return str(m)


class TestResampler:
    def test_output_length(self, rng):
        x = rng.normal(size=32000)
        assert len(resample_poly(x, 5, 8)) == 20000

    def test_short_input_length(self, rng):
        # ceil(n * up / down) even when the tail is partially covered
        x = rng.normal(size=1001)
        assert len(resample_poly(x, 5, 8)) == int(np.ceil(1001 * 5 / 8))

    def test_tone_frequency_preserved(self):
        t = np.arange(32000) / 16000
        x = np.sin(2 * np.pi * 1000.0 * t)
        y = resample_poly(x, 5, 8)
        spec = np.abs(np.fft.rfft(y * np.hanning(len(y))))
        freqs = np.fft.rfftfreq(len(y), d=1 / 10000)
        assert freqs[np.argmax(spec)] == pytest.approx(1000.0, abs=1.0)

    def test_passband_amplitude_flat(self):
        t = np.arange(32000) / 16000
        x = np.sin(2 * np.pi * 440.0 * t)
        y = resample_poly(x, 5, 8)
        mid = y[len(y) // 4 : -len(y) // 4]
        assert np.abs(mid).max() == pytest.approx(1.0, abs=0.02)

    def test_upsample_then_downsample_identity_rates(self, rng):
        x = rng.normal(size=4000)
        assert len(resample_poly(x, 1, 1)) == 4000


class TestIntelligibilityScore:
    def test_self_score_is_one(self):
        w = speechlike()
        assert estoi(w, w) == pytest.approx(1.0, abs=1e-9)

    def test_scale_invariance(self):
        w = speechlike()
        scaled = Waveform(w.samples * 0.05, w.sample_rate)
        assert estoi(w, scaled) == pytest.approx(1.0, abs=1e-9)

    def test_unrelated_noise_scores_near_zero(self):
        clean = speechlike(1)
        for seed in range(3):
            noise = filtered_noise(np.random.default_rng(100 + seed), 2.0)
            assert abs(estoi(clean, noise)) < 0.1

    def test_monotone_in_snr(self):
        clean = speechlike(2)
        noise = filtered_noise(np.random.default_rng(7), 2.0)
        scores = []
        for snr in (-10, -5, 0, 5, 10, 20):
            mixture, _ = mix_at_snr(clean, noise, snr, np.random.default_rng(0))
            scores.append(estoi(clean, mixture))
        assert all(b > a for a, b in zip(scores, scores[1:]))

    def test_rejects_wrong_sample_rate(self):
        # a Waveform is 16 kHz from construction, so an 8 kHz input never reaches estoi
        w = speechlike()
        with pytest.raises(SampleRateError):
            Waveform(w.samples, 8000)

    def test_rejects_length_mismatch(self):
        w = speechlike()
        shorter = Waveform(w.samples[:-100], w.sample_rate)
        with pytest.raises(LengthError):
            estoi(w, shorter)

    def test_rejects_too_short_signal(self):
        w = speechlike(duration_s=0.25)
        with pytest.raises(LengthError):
            estoi(w, w)


class TestTiming:
    def test_rtf_and_cv(self, tiny_model):
        rtf, cv = measure_rtf(tiny_model, 1.0, runs=3, warmup=1)
        assert rtf > 0 and np.isfinite(cv) and cv >= 0

    def test_rtf_times_enhance_on_every_clip_of_every_run(self, tiny_model, monkeypatch):
        calls = []

        def counted(model, wave):
            calls.append(len(wave))
            return enhance(model, wave)

        monkeypatch.setattr(evalbench, "enhance", counted)
        rtf, _ = measure_rtf(tiny_model, 1.0, runs=3, warmup=1)
        assert calls == [16000] * (1 + 3)
        assert rtf > 0

    def test_train_step_timer_updates_the_model_it_is_given(self):
        cfg = RunConfig(backbone="mamba", blocks=1, causal=True, d_model=32, d_ff=64, heads=4, d_state=4)
        model = build_model(cfg.model_config(), seed=cfg.seed)
        before = [p.data.copy() for p in model.parameters()]
        sec = measure_train_step(model, cfg.train_config(), steps=2, warmup=1, frames=16)
        assert sec > 0
        assert any(not np.array_equal(b, p.data) for b, p in zip(before, model.parameters()))


class TestEvalManifest:
    def test_paths_resolve_relative_to_manifest(self, tmp_path):
        m = tmp_path / "eval.txt"
        m.write_text("# comment\nclean.wav noisy.wav 5\n\nc2.wav n2.wav -2.5\n")
        rows = read_eval_manifest(str(m))
        assert rows == [
            (2, str(tmp_path / "clean.wav"), str(tmp_path / "noisy.wav"), 5.0),
            (4, str(tmp_path / "c2.wav"), str(tmp_path / "n2.wav"), -2.5),
        ]

    def test_malformed_line_rejected(self, tmp_path):
        m = tmp_path / "eval.txt"
        m.write_text("clean.wav 5\n")
        with pytest.raises(DataError, match="eval.txt:1"):
            read_eval_manifest(str(m))

    def test_empty_manifest_rejected(self, tmp_path):
        m = tmp_path / "eval.txt"
        m.write_text("# nothing here\n")
        with pytest.raises(DataError, match="empty"):
            read_eval_manifest(str(m))

    @pytest.mark.parametrize("snr", ["loud", "nan", "-inf"])
    def test_non_numeric_snr_rejected(self, tmp_path, snr):
        m = tmp_path / "eval.txt"
        m.write_text(f"clean.wav noisy.wav 5\nc2.wav n2.wav {snr}\n")
        with pytest.raises(DataError, match="eval.txt:2.*snr"):
            read_eval_manifest(str(m))

    def test_missing_manifest_is_a_data_error_raised_before_the_checkpoint_loads(self, tmp_path):
        with pytest.raises(DataError, match="cannot read evaluation manifest .*missing.txt"):
            score_model(str(tmp_path / "no_ckpt"), str(tmp_path / "missing.txt"))

    def test_non_utf8_manifest_rejected(self, tmp_path):
        m = tmp_path / "eval.txt"
        m.write_bytes(b"cl\xe9an.wav noisy.wav 5\n")
        with pytest.raises(FormatError, match="UTF-8"):
            read_eval_manifest(str(m))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.text(max_size=30), max_size=5), st.binary(max_size=12))
    def test_fuzzed_manifest_raises_only_tfse_errors(self, tmp_path, lines, junk):
        m = tmp_path / "eval.txt"
        m.write_bytes("\n".join(lines).encode("utf-8") + junk)
        try:
            read_eval_manifest(str(m))
        except TfseError:
            pass


class TestExternalScorer:
    def test_parses_last_stdout_token(self, tmp_path):
        w = speechlike(duration_s=0.5)
        ref = str(tmp_path / "ref.wav")
        est = str(tmp_path / "est.wav")
        write_wav(ref, w, "float32")
        write_wav(est, w, "float32")
        scorer = tmp_path / "scorer.py"
        scorer.write_text("import sys\nprint('score:', 0.875)\n")
        assert external_score([sys.executable, str(scorer)], ref, est) == 0.875

    def test_nonzero_exit_rejected(self, tmp_path):
        scorer = tmp_path / "scorer.py"
        scorer.write_text("import sys\nsys.exit(3)\n")
        with pytest.raises(DataError, match="failed"):
            external_score([sys.executable, str(scorer)], "a.wav", "b.wav")

    def test_non_numeric_output_rejected(self, tmp_path):
        scorer = tmp_path / "scorer.py"
        scorer.write_text("print('no numbers here')\n")
        with pytest.raises(DataError, match="no number"):
            external_score([sys.executable, str(scorer)], "a.wav", "b.wav")


class TestScoreModel:
    def test_table_orders_snrs_and_names_metrics(self, trained_ckpt, eval_manifest):
        table = score_model(trained_ckpt, eval_manifest, seed=0)
        assert table.snrs == [0.0, 5.0]
        assert set(table.rows) == {"estoi_noisy", "estoi_enhanced", "snr_improvement_db"}
        csv = table.csv().splitlines()
        assert csv[0] == "metric,0,5"
        assert len(csv) == 4

    def test_scoring_is_seed_reproducible(self, trained_ckpt, eval_manifest):
        a = score_model(trained_ckpt, eval_manifest, seed=3)
        b = score_model(trained_ckpt, eval_manifest, seed=3)
        assert a.rows == b.rows

    def test_external_metric_column(self, trained_ckpt, eval_manifest, tmp_path):
        scorer = tmp_path / "scorer.py"
        scorer.write_text("print(0.5)\n")
        table = score_model(
            trained_ckpt, eval_manifest, scorer_cmd=[sys.executable, str(scorer)]
        )
        assert table.rows["external"] == {0.0: 0.5, 5.0: 0.5}
