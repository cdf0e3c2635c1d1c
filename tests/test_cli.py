"""Command-line interface tests, run in-process through cli.main."""

import fcntl
import os

import numpy as np
import pytest

from tfse import cli
from tfse.config import read_config, resolve_config_arg, shipped_config_names
from tfse.dsp import Waveform, read_wav, write_wav
from tfse.model import build_model, count_params, load_model, param_count_str, save_model
from tfse.synth import tonal_speech


@pytest.fixture(scope="module")
def toy_cfg_path(corpus_manifest, tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "toy.cfg"
    path.write_text(
        "backbone = mamba\nblocks = 1\ncausal = true\n"
        "d_model = 32\nd_ff = 64\nheads = 4\nd_state = 4\n"
        "step_w = 400\nbatch_size = 10\nsnr_lo = -5\nsnr_hi = 10\n"
        f"epochs = 1\ncorpus = {corpus_manifest}\n"
    )
    return str(path)


@pytest.fixture(scope="module")
def trained_out(toy_cfg_path, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_run"))
    assert cli.main(["train", "--config", toy_cfg_path, "--out", out]) == 0
    return out


def latest_ckpt(out_dir):
    from tfse.training import latest_checkpoint

    return latest_checkpoint(out_dir)


class TestTrain:
    def test_progress_and_summary(self, toy_cfg_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = cli.main(["train", "--config", toy_cfg_path, "--out", out, "--log-every", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "trained 1 steps over 1 epochs" in captured.out
        assert os.path.exists(os.path.join(out, "loss.csv"))

    def test_resume_without_checkpoint_fails_cleanly(self, toy_cfg_path, tmp_path, capsys):
        out = str(tmp_path / "empty")
        os.makedirs(out)
        code = cli.main(["train", "--config", toy_cfg_path, "--out", out, "--resume"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_fresh_run_refuses_an_out_with_checkpoints(self, toy_cfg_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        os.makedirs(out)  # an empty --out trains as before
        assert cli.main(["train", "--config", toy_cfg_path, "--out", out]) == 0
        with open(os.path.join(out, "loss.csv"), "rb") as f:
            log = f.read()
        capsys.readouterr()
        assert cli.main(["train", "--config", toy_cfg_path, "--out", out]) == 2
        assert "already holds ckpt-0001: pass --resume" in capsys.readouterr().err
        with open(os.path.join(out, "loss.csv"), "rb") as f:
            assert f.read() == log
        assert cli.main(["train", "--config", toy_cfg_path, "--out", out, "--resume"]) == 0

    def test_a_save_cut_short_neither_blocks_a_fresh_run_nor_counts_for_resume(self, toy_cfg_path, tmp_path, capsys):
        # a run killed during its first save leaves only ckpt-0001.tmp behind
        out = tmp_path / "run"
        (out / "ckpt-0001.tmp").mkdir(parents=True)
        assert cli.main(["train", "--config", toy_cfg_path, "--out", str(out), "--resume"]) == 2
        assert f"no checkpoints under {out}" in capsys.readouterr().err
        assert cli.main(["train", "--config", toy_cfg_path, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["ckpt-0001", "loss.csv"]

    def test_unknown_config_key_names_the_key_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("backbone = mamba\ncausal = true\nbogus_key = 1\n")
        code = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad.cfg:3" in err and "bogus_key" in err

    def test_unknown_shipped_name_lists_available(self, tmp_path, capsys):
        code = cli.main(["train", "--config", "no-such-model", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "shipped" in err and "transformer-4" in err


class TestEnhance:
    def test_single_file(self, trained_out, tmp_path, capsys):
        wav_in = str(tmp_path / "in.wav")
        wav_out = str(tmp_path / "out.wav")
        write_wav(wav_in, tonal_speech(np.random.default_rng(0), 1.0), "pcm16")
        ckpt = latest_ckpt(trained_out)
        code = cli.main(["enhance", "--checkpoint", ckpt, "--in", wav_in, "--out", wav_out])
        assert code == 0
        result = read_wav(wav_out)
        assert len(result) == len(read_wav(wav_in))

    def test_glob_into_directory(self, trained_out, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(2):
            write_wav(str(tmp_path / f"clip_{i}.wav"), tonal_speech(rng, 0.6), "pcm16")
        out_dir = str(tmp_path / "enhanced")
        ckpt = latest_ckpt(trained_out)
        code = cli.main([
            "enhance", "--checkpoint", ckpt,
            "--in", str(tmp_path / "clip_*.wav"), "--out", out_dir,
            "--encoding", "float32",
        ])
        assert code == 0
        assert sorted(os.listdir(out_dir)) == ["clip_0.wav", "clip_1.wav"]

    @pytest.mark.parametrize("value, error", [
        (np.nan, "model.tensors: parameter blocks.0.ffn_in.w is not finite"),  # rejected on load
        (np.finfo(np.float32).max, "transformer blocks.0: non-finite output"),  # finite, but overflows the block
    ], ids=["nan-weight", "overflowing-weight"])
    def test_bad_weight_stops_enhance_named(self, value, error, tmp_path, capsys):
        # relu passes NaN on: a bad weight must stop enhance, not turn into a finite WAV
        cfg_path = tmp_path / "toy.cfg"
        cfg_path.write_text("backbone = transformer\nblocks = 1\ncausal = true\nd_model = 16\nd_ff = 32\nheads = 2\n")
        rc = read_config(str(cfg_path))
        model = build_model(rc.model_config(), seed=0)
        dict(model.named_parameters())["blocks.0.ffn_in.w"].data[...] = value
        ckpt = str(tmp_path / "ckpt")
        save_model(ckpt, model, rc)
        wav_in, wav_out = str(tmp_path / "in.wav"), str(tmp_path / "out.wav")
        write_wav(wav_in, tonal_speech(np.random.default_rng(0), 0.5), "pcm16")
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["enhance", "--checkpoint", ckpt, "--in", wav_in, "--out", wav_out])
        assert code == 2
        assert error in capsys.readouterr().err
        assert not os.path.exists(wav_out)

    @pytest.mark.parametrize("peak", [3e38, 1e35, 3e17, 1e16])
    def test_input_level_out_of_range(self, peak, trained_out, tmp_path, capsys):
        # from about 3e17 a frame's squared magnitudes sum past half the float32
        # maximum, where the input norm's variance overflows and the frame
        # would normalize to the bias alone
        tone = tonal_speech(np.random.default_rng(0), 0.5).samples
        wav_in, wav_out = str(tmp_path / "in.wav"), str(tmp_path / "out.wav")
        write_wav(wav_in, Waveform(tone * (peak / np.abs(tone).max())), "float32")
        code = cli.main(["enhance", "--checkpoint", latest_ckpt(trained_out), "--in", wav_in, "--out", wav_out,
                         "--encoding", "float32"])
        err = capsys.readouterr().err
        if peak > 1e17:
            assert code == 2 and "input level out of range" in err
            assert not os.path.exists(wav_out)
        else:
            assert code == 0 and np.all(np.isfinite(read_wav(wav_out).samples))

    def test_missing_input_is_a_clean_error(self, trained_out, tmp_path, capsys):
        ckpt = latest_ckpt(trained_out)
        code = cli.main([
            "enhance", "--checkpoint", ckpt,
            "--in", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "o.wav"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestParams:
    def test_shipped_preset_count(self, capsys):
        assert cli.main(["params", "--config", "transformer-4"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "transformer-4: 3.29M (3,291,651)"

    @pytest.mark.parametrize("name", shipped_config_names())
    def test_count_equals_the_seeded_build(self, name, capsys):
        assert cli.main(["params", "--config", name]) == 0
        rc = read_config(resolve_config_arg(name))
        built = build_model(rc.model_config(), seed=rc.seed)
        assert capsys.readouterr().out == f"{built.cfg.name}: {param_count_str(count_params(built))}\n"


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_negative_control_is_caught(self, capsys):
        assert cli.main(["verify", "--negative-control"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "negative-control" in out


BENCH_HEADER = "model,params,causal,length_s,runs,rtf,rtf_cv,sec_per_step"


def _params(cfg_path: str) -> str:
    return str(count_params(build_model(read_config(cfg_path).model_config(), seed=0)))


class TestBench:
    def test_writes_csv(self, toy_cfg_path, tmp_path, capsys):
        out_csv = str(tmp_path / "bench.csv")
        code = cli.main([
            "bench", "--config", toy_cfg_path, "--lengths", "1,0.5",
            "--runs", "3", "--warmup", "1",
            "--train-steps", "2", "--out", out_csv,
        ])
        assert code == 0
        rows = open(out_csv).read().splitlines()
        assert capsys.readouterr().out.splitlines() == rows + [f"wrote {out_csv}"]
        assert rows[0] == BENCH_HEADER
        assert len(rows) == 3  # one row per length, shortest first
        params = _params(toy_cfg_path)
        for row, length in zip(rows[1:], ("0.5", "1")):
            cols = row.split(",")
            assert cols[:5] == ["mamba-1", params, "true", length, "3"]
            assert all(repr(float(c)) == c for c in cols[5:])  # rtf, rtf_cv, sec_per_step
            assert float(cols[5]) > 0 and float(cols[7]) > 0
        assert rows[1].split(",")[7] == rows[2].split(",")[7]  # one step timing for every row

    def test_blank_sec_per_step_without_train_steps(self, tmp_path, capsys):
        cfg = tmp_path / "noncausal.cfg"
        cfg.write_text("backbone = transformer\nblocks = 1\ncausal = false\nd_model = 16\nd_ff = 32\nheads = 2\n")
        code = cli.main([
            "bench", "--config", str(cfg), "--lengths", "0.5",
            "--runs", "1", "--warmup", "0",
        ])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == BENCH_HEADER and len(rows) == 2
        cols = rows[1].split(",")
        assert cols[:5] == ["transformer-1", _params(str(cfg)), "false", "0.5", "1"]
        assert cols[7] == ""

    def test_lock_contention(self, toy_cfg_path, tmp_path, capsys):
        with open(cli.BENCH_LOCK, "w") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            code = cli.main([
                "bench", "--config", toy_cfg_path, "--lengths", "0.5",
                "--runs", "1", "--warmup", "0",
            ])
        assert code == 2
        assert "lock" in capsys.readouterr().err


def _fake_rtf(monkeypatch, rtf_by_length):
    """Make `tfse bench` report the given rtf per clip length instead of
    timing anything, so a trend verdict does not hang on this host's load."""
    from tfse import evalbench

    def measure_rtf(model, length_s, runs, warmup):
        return rtf_by_length[length_s], 0.0

    monkeypatch.setattr(evalbench, "measure_rtf", measure_rtf)


class TestBenchTrends:
    @pytest.mark.parametrize(
        "backbone, rtfs, verdict, code",
        [
            ("transformer", (0.01, 0.02), "PASS attention cost grows with length (rtf 0.01 -> 0.02)", 0),
            ("transformer", (0.02, 0.02), "FAIL attention cost grows with length (rtf 0.02 -> 0.02)", 1),
            ("mamba", (0.01, 0.024), "PASS recurrent cost stays near-flat (rtf 0.01 -> 0.024)", 0),
            ("mamba", (0.01, 0.026), "FAIL recurrent cost stays near-flat (rtf 0.01 -> 0.026)", 1),
        ],
    )
    def test_verdict(self, backbone, rtfs, verdict, code, tmp_path, monkeypatch, capsys):
        _fake_rtf(monkeypatch, dict(zip((0.5, 1.0), rtfs)))
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(f"backbone = {backbone}\nblocks = 1\nd_model = 16\nd_ff = 32\nheads = 2\nd_state = 4\n")
        assert cli.main(["bench", "--config", str(cfg), "--lengths", "1,0.5", "--assert-trends"]) == code
        assert capsys.readouterr().out.splitlines()[-1] == verdict

    def test_one_length_is_a_config_error(self, toy_cfg_path, monkeypatch, capsys):
        from tfse import evalbench

        def never(*args, **kwargs):
            raise AssertionError("bench did work before rejecting its flags")

        for module, name in ((cli, "build_model"), (evalbench, "measure_rtf"), (evalbench, "measure_train_step")):
            monkeypatch.setattr(module, name, never)
        argv = ["bench", "--config", toy_cfg_path, "--lengths", "0.5", "--train-steps", "1", "--assert-trends"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: bench: --assert-trends needs at least two lengths\n"

    def test_checkpoint_row_names_its_model(self, trained_out, toy_cfg_path, monkeypatch, capsys):
        _fake_rtf(monkeypatch, {0.5: 0.01})
        assert cli.main(["bench", "--checkpoint", latest_ckpt(trained_out), "--lengths", "0.5", "--runs", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows == [BENCH_HEADER, f"mamba-1,{_params(toy_cfg_path)},true,0.5,2,0.01,0.0,"]

    def test_checkpoint_train_steps_time_its_weights_last(self, trained_out, toy_cfg_path, monkeypatch, capsys):
        from tfse import evalbench, training

        ckpt = latest_ckpt(trained_out)
        enhance, train_step = evalbench.enhance, training.train_step
        events = []  # "enhance", then the first train_step's parameter bytes, then "train_step" per step

        def recording_enhance(model, wave):
            events.append("enhance")
            return enhance(model, wave)

        def recording_train_step(model, *args):
            if "train_step" not in events:
                events.append({name: p.data.tobytes() for name, p in model.named_parameters()})
            events.append("train_step")
            return train_step(model, *args)

        monkeypatch.setattr(evalbench, "enhance", recording_enhance)
        monkeypatch.setattr(training, "train_step", recording_train_step)
        argv = ["bench", "--checkpoint", ckpt, "--lengths", "0.5", "--runs", "2", "--warmup", "1", "--train-steps", "2"]
        assert cli.main(argv) == 0

        header, row = capsys.readouterr().out.splitlines()
        cols = row.split(",")
        assert header == BENCH_HEADER and cols[:5] == ["mamba-1", _params(toy_cfg_path), "true", "0.5", "2"]
        assert float(cols[7]) > 0
        assert events[:3] == ["enhance"] * (1 + 2) and events[4:] == ["train_step"] * (2 + 2)
        loaded, _ = load_model(ckpt)
        assert events[3] == {name: p.data.tobytes() for name, p in loaded.named_parameters()}


class TestScore:
    def test_csv_to_stdout_and_file(self, trained_out, corpus_manifest, tmp_path, capsys):
        base = os.path.dirname(corpus_manifest)
        manifest = tmp_path / "eval.txt"
        manifest.write_text(
            f"{os.path.join(base, 'speech_000.wav')} {os.path.join(base, 'noise_000.wav')} 0\n"
            f"{os.path.join(base, 'speech_001.wav')} {os.path.join(base, 'noise_001.wav')} 5\n"
        )
        out_csv = str(tmp_path / "scores.csv")
        ckpt = latest_ckpt(trained_out)
        code = cli.main([
            "score", "--checkpoint", ckpt, "--manifest", str(manifest), "--out", out_csv,
        ])
        assert code == 0
        text = open(out_csv).read()
        assert text.splitlines()[0] == "metric,0,5"
        assert "estoi_enhanced" in text
        assert capsys.readouterr().out.splitlines()[0] == "metric,0,5"


BAD_NUMERIC_ARGS = {
    "log-every-0": ["train", "--out", "{tmp}/run", "--log-every", "0"],
    "lengths-not-a-number": ["bench", "--lengths", "1,zebra"],
    "lengths-negative": ["bench", "--lengths=-1"],
    "lengths-infinite": ["bench", "--lengths", "1,inf"],
    "runs-0": ["bench", "--lengths", "0.5", "--runs", "0"],
    "warmup-negative": ["bench", "--lengths", "0.5", "--runs", "1", "--warmup=-1"],
    "train-steps-negative": ["bench", "--lengths", "0.5", "--runs", "1", "--train-steps=-2"],
    "n-speech-0": ["synth-corpus", "--out", "{tmp}/c", "--n-speech", "0", "--dur", "0.5"],
    "n-noise-0": ["synth-corpus", "--out", "{tmp}/c", "--n-noise", "0", "--dur", "0.5"],
    "dur-0": ["synth-corpus", "--out", "{tmp}/c", "--n-speech", "1", "--n-noise", "1", "--dur", "0"],
    "dur-negative": ["synth-corpus", "--out", "{tmp}/c", "--n-speech", "1", "--n-noise", "1", "--dur", "-1"],
    "synth-seed-negative": ["synth-corpus", "--out", "{tmp}/c", "--seed", "-1"],
    "score-seed-negative": ["score", "--checkpoint", "{tmp}/ck", "--manifest", "{tmp}/m.txt", "--seed", "-1"],
}


@pytest.mark.parametrize("argv", BAD_NUMERIC_ARGS.values(), ids=BAD_NUMERIC_ARGS.keys())
def test_bad_numeric_argument_is_a_usage_error(argv, toy_cfg_path, tmp_path, capsys):
    argv = [a.format(tmp=tmp_path) for a in argv]
    if argv[0] in ("train", "bench"):
        argv[1:1] = ["--config", toy_cfg_path]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "argument --" in capsys.readouterr().err


# bench names exactly one model: a usage error (exit 2) from argparse, before any work
BAD_FLAG_COMBINATIONS = {
    "no-model": (["bench", "--lengths", "0.5"], "one of the arguments --config --checkpoint is required"),
    "config-and-checkpoint": (
        ["bench", "--config", "toy-mamba", "--checkpoint", "{tmp}/ck", "--lengths", "0.5"],
        "argument --checkpoint: not allowed with argument --config",
    ),
}


@pytest.mark.parametrize("argv, message", BAD_FLAG_COMBINATIONS.values(), ids=BAD_FLAG_COMBINATIONS.keys())
def test_bad_flag_combination_is_a_usage_error(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(tmp=tmp_path) for a in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--include-stft"], ["--batch", "2"]], ids=["include-stft", "batch"])
def test_removed_flag_is_a_usage_error(flag, toy_cfg_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--config", toy_cfg_path, "--lengths", "0.5", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# input files with a NUL byte where a path goes: a clean error (exit 2), not a traceback
BAD_INPUT_FILES = {
    "config-corpus-nul": (
        "bad.cfg", "backbone = mamba\ncorpus = c\0.txt\n",
        ["train", "--config", "{tmp}/bad.cfg", "--out", "{tmp}/run"], "bad.cfg:2",
    ),
    "eval-manifest-path-nul": (
        "eval.txt", "c\0.wav n.wav 0\n",
        ["score", "--checkpoint", "{tmp}/ck", "--manifest", "{tmp}/eval.txt"], "eval.txt:1",
    ),
    "eval-manifest-missing-wav": (
        "eval.txt", "# header\nnope.wav n.wav 0\n",
        ["score", "--checkpoint", "{ck}", "--manifest", "{tmp}/eval.txt"], "eval.txt:2: cannot read",
    ),
}


@pytest.mark.parametrize("name, text, argv, where", BAD_INPUT_FILES.values(), ids=BAD_INPUT_FILES.keys())
def test_bad_input_file_is_a_clean_error(name, text, argv, where, trained_out, tmp_path, capsys):
    (tmp_path / name).write_text(text)
    assert cli.main([a.format(tmp=tmp_path, ck=latest_ckpt(trained_out)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err


@pytest.mark.parametrize("line", ["seed = -1", "max_steps = -3"])
@pytest.mark.parametrize("command", ["params", "train", "bench"])
def test_bad_config_value_is_a_config_error(command, line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"backbone = mamba\nblocks = 1\nd_model = 16\n{line}\n")
    extra = {"params": [], "train": ["--out", str(tmp_path / "run")], "bench": ["--lengths", "0.5"]}
    assert cli.main([command, "--config", str(cfg), *extra[command]]) == 2
    key, value = line.split(" = ")
    assert f"error: {key}: must be >= 0, got {value}" in capsys.readouterr().err


class TestSynthCorpus:
    def test_generates_manifest_and_wavs(self, tmp_path, capsys):
        out = str(tmp_path / "corpus")
        code = cli.main([
            "synth-corpus", "--out", out, "--n-speech", "2", "--n-noise", "1",
            "--dur", "0.5",
        ])
        assert code == 0
        listing = os.listdir(out)
        assert "manifest.txt" in listing
        assert sum(f.endswith(".wav") for f in listing) == 3
