"""Training pipeline tests: schedule values, optimizer identities, data
determinism, loss logging, resume equivalence, and failure diagnostics."""

import json
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tfse
from tfse import tensor as T
from tfse import training
from tfse.config import RunConfig, read_config, resolve_config_arg
from tfse.errors import ConfigError, DataError, FormatError, TfseError, TrainingAborted
from tfse.model import build_model
from tfse.tensor import Tensor, backward
from tfse.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    adam_step,
    clip_gradients,
    clip_loss,
    epoch_batches,
    load_checkpoint,
    load_corpus,
    latest_checkpoint,
    lr_at,
    make_example,
    save_checkpoint,
    train,
    train_step,
)

TOY = dict(
    backbone="mamba",
    blocks=1,
    causal=True,
    d_model=32,
    d_ff=64,
    heads=4,
    d_state=4,
    step_w=400,
    batch_size=10,
    snr_lo=-5,
    snr_hi=10,
)


def toy_config(corpus: str, **overrides) -> RunConfig:
    return RunConfig(**{**TOY, "corpus": corpus, **overrides})


class TestSchedule:
    def test_first_step_value(self):
        assert lr_at(1, 40000, 256) == pytest.approx(7.8125e-9, rel=1e-12)

    def test_peak_value_at_warmup_end(self):
        assert lr_at(40000, 40000, 256) == pytest.approx(3.125e-4, rel=1e-12)

    def test_rises_then_decays(self):
        ramp = [lr_at(n, 400, 32) for n in range(1, 401)]
        assert all(b > a for a, b in zip(ramp, ramp[1:]))
        tail = [lr_at(n, 400, 32) for n in range(400, 2000, 100)]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_warmup_is_linear(self):
        assert lr_at(200, 400, 32) == pytest.approx(200 * lr_at(1, 400, 32), rel=1e-12)

    def test_step_zero_rejected(self):
        with pytest.raises(ConfigError):
            lr_at(0, 400, 32)


class TestOptimizer:
    def test_first_update_magnitude_equals_lr(self):
        p = Tensor(np.zeros(4, dtype=np.float64), requires_grad=True)
        p.grad = np.ones(4)
        state = AdamState()
        adam_step([("p", p)], state, lr=0.01)
        # bias correction makes the first step exactly lr for unit gradients
        np.testing.assert_allclose(p.data, -0.01, rtol=1e-6)

    def test_moments_keyed_by_name(self):
        p = Tensor(np.zeros(3, dtype=np.float64), requires_grad=True)
        p.grad = np.ones(3)
        state = AdamState()
        adam_step([("w", p)], state, lr=0.1)
        assert "w" in state.m and "w" in state.v
        assert state.t == 1

    def test_quadratic_convergence(self):
        p = Tensor(np.array([10.0], dtype=np.float64), requires_grad=True)
        state = AdamState()
        for _ in range(400):
            p.zero_grad()
            d = T.sub(p, 3.0)
            backward(T.sum_(T.mul(d, d)))
            adam_step([("p", p)], state, lr=0.05)
        assert p.data[0] == pytest.approx(3.0, abs=1e-3)

    def test_gradient_clipping_bounds(self):
        p = Tensor(np.zeros(5, dtype=np.float64), requires_grad=True)
        p.grad = np.array([-7.0, -1.0, 0.3, 1.0, 9.0])
        clip_gradients([p])
        np.testing.assert_array_equal(p.grad, [-1.0, -1.0, 0.3, 1.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_update_is_the_textbook_formula_bit_for_bit(self, rng, dtype):
        beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        shapes = {"w": (7, 5), "b": (5,)}
        params = {k: Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for k, s in shapes.items()}
        want = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros(s, dtype) for k, s in shapes.items()}
        v = {k: np.zeros(s, dtype) for k, s in shapes.items()}
        state = AdamState()
        for t in range(1, 6):
            lr = 1e-2 / t
            for k, s in shapes.items():
                g = (rng.normal(size=s) * 10.0 ** rng.integers(-4, 3)).astype(dtype)
                params[k].grad = g.copy()
                m[k] = beta1 * m[k] + (1.0 - beta1) * g
                v[k] = beta2 * v[k] + (1.0 - beta2) * (g * g)
                want[k] = want[k] - lr * (m[k] / (1.0 - beta1**t)) / (np.sqrt(v[k] / (1.0 - beta2**t)) + eps)
            adam_step(list(params.items()), state, lr)
            for k, p in params.items():
                assert p.data.dtype == dtype
                np.testing.assert_array_equal(p.data, want[k])
                np.testing.assert_array_equal(state.m[k], m[k])
                np.testing.assert_array_equal(state.v[k], v[k])

    def test_params_without_grads_are_skipped(self):
        p = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        adam_step([("p", p)], AdamState(), lr=0.5)
        np.testing.assert_array_equal(p.data, np.ones(3))


class TestLosses:
    def test_mask_mse_zero_on_match(self, rng):
        t = rng.uniform(0, 1, (6, 257)).astype(np.float32)
        assert clip_loss(Tensor(t), t, t, "mask-mse").item() == 0.0

    def test_mask_mse_value(self):  # mask-mse leaves the magnitude out; the other kind weights by it
        pred = Tensor(np.full((2, 3), 0.75, dtype=np.float64))
        tgt, mag = np.full((2, 3), 0.25), np.full((2, 3), 2.0)
        assert clip_loss(pred, tgt, mag, "mask-mse").item() == pytest.approx(0.25)
        assert clip_loss(pred, tgt, mag, "masked-magnitude-mse").item() == pytest.approx(1.0)

    def test_magnitude_weighting_silences_quiet_bins(self, rng):
        pred = Tensor(rng.uniform(0, 1, (4, 5)).astype(np.float64))
        tgt = rng.uniform(0, 1, (4, 5))
        assert clip_loss(pred, tgt, np.zeros((4, 5)), "masked-magnitude-mse").item() == 0.0


class TestData:
    def test_corpus_loads(self, corpus_manifest):
        corpus = load_corpus(corpus_manifest)
        assert len(corpus.speech) == 6
        assert len(corpus.noise) == 3

    def test_manifest_without_noise_rejected(self, tmp_path, corpus_manifest):
        base = os.path.dirname(corpus_manifest)
        lines = [
            f"s {os.path.join(base, l.split()[1])}\n"
            for l in open(corpus_manifest)
            if l.startswith("s ")
        ]
        bad = tmp_path / "manifest.txt"
        bad.write_text("".join(lines))
        with pytest.raises(DataError):
            load_corpus(str(bad))

    def test_malformed_manifest_line_rejected(self, tmp_path):
        bad = tmp_path / "manifest.txt"
        bad.write_text("x whatever.wav\n")
        with pytest.raises(DataError):
            load_corpus(str(bad))

    def test_missing_manifest_rejected(self):
        with pytest.raises(DataError):
            load_corpus("/nonexistent/manifest.txt")

    def test_example_shapes_and_target_range(self, corpus_manifest, rng):
        corpus = load_corpus(corpus_manifest)
        mag, target = make_example(corpus.speech[0], corpus.noise[0], 0.0, rng)
        assert mag.dtype == np.float32 and target.dtype == np.float32
        assert mag.shape == target.shape
        assert mag.shape[1] == 257
        assert target.min() >= 0.0 and target.max() <= 1.0

    def test_batches_are_seed_deterministic(self, corpus_manifest):
        corpus = load_corpus(corpus_manifest)

        def digest(seed):
            rng = np.random.default_rng(seed)
            return [
                (mag.tobytes(), tgt.tobytes())
                for batch in epoch_batches(corpus, 4, -5, 10, rng)
                for mag, tgt in batch
            ]

        assert digest(3) == digest(3)
        assert digest(3) != digest(4)

    def test_epoch_covers_every_speech_clip(self, corpus_manifest):
        corpus = load_corpus(corpus_manifest)
        rng = np.random.default_rng(0)
        n = sum(len(b) for b in epoch_batches(corpus, 4, -5, 10, rng))
        assert n == len(corpus.speech)

    def test_partial_final_batch_is_kept(self, corpus_manifest):
        corpus = load_corpus(corpus_manifest)
        sizes = [len(b) for b in epoch_batches(corpus, 4, -5, 10, np.random.default_rng(0))]
        assert sizes == [4, 2]


class TestTrainLoop:
    def test_writes_csv_and_checkpoint(self, corpus_manifest, tmp_path):
        out = str(tmp_path / "run")
        result = train(toy_config(corpus_manifest, epochs=2), out)
        assert result.epochs_done == 2
        assert os.path.isdir(result.checkpoint_dir)
        rows = open(result.csv_path).read().splitlines()
        assert rows[0] == "step,epoch,lr,loss"
        assert len(rows) == 1 + result.global_step

    def test_csv_floats_round_trip_exactly(self, corpus_manifest, tmp_path):
        result = train(toy_config(corpus_manifest, epochs=1), str(tmp_path / "run"))
        last = open(result.csv_path).read().splitlines()[-1].split(",")
        assert float(last[3]) == result.final_loss
        assert float(last[2]) == lr_at(result.global_step, 400, 32)

    def test_reruns_are_bit_identical(self, corpus_manifest, tmp_path):
        cfg = toy_config(corpus_manifest, epochs=2)
        r1 = train(cfg, str(tmp_path / "a"))
        r2 = train(cfg, str(tmp_path / "b"))
        assert open(r1.csv_path).read() == open(r2.csv_path).read()

    def test_backbone_choice_does_not_change_the_data_stream(self, corpus_manifest, tmp_path):
        # identical seeds must give identical first-step targets even with
        # different models; the loss column differs but step count matches
        r1 = train(toy_config(corpus_manifest, epochs=1), str(tmp_path / "m"))
        r2 = train(
            toy_config(corpus_manifest, epochs=1, backbone="xlstm", proj_factor=2.0),
            str(tmp_path / "x"),
        )
        assert r1.global_step == r2.global_step

    def test_max_steps_stops_early(self, corpus_manifest, tmp_path):
        result = train(toy_config(corpus_manifest, epochs=50, max_steps=1), str(tmp_path / "run"))
        assert result.global_step == 1

    def test_state_file_contents(self, corpus_manifest, tmp_path):
        result = train(toy_config(corpus_manifest, epochs=1), str(tmp_path / "run"))
        state = json.load(open(os.path.join(result.checkpoint_dir, "state.json")))
        assert sorted(state) == ["epochs_done", "global_step", "rng"]
        assert state["epochs_done"] == 1
        assert state["global_step"] == result.global_step
        assert state["rng"]["bit_generator"] == "PCG64"

    def test_resume_matches_uninterrupted_run(self, corpus_manifest, tmp_path):
        cfg2 = toy_config(corpus_manifest, epochs=2)
        cfg4 = toy_config(corpus_manifest, epochs=4)
        first = train(cfg2, str(tmp_path / "resumed"))
        resumed = train(cfg4, str(tmp_path / "resumed"), resume_from=first.checkpoint_dir)
        straight = train(cfg4, str(tmp_path / "straight"))
        assert open(resumed.csv_path).read() == open(straight.csv_path).read()
        from tfse.archive import load_tensors

        a = load_tensors(os.path.join(resumed.checkpoint_dir, "model.tensors"))
        b = load_tensors(os.path.join(straight.checkpoint_dir, "model.tensors"))
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_resume_after_a_crash_matches_uninterrupted_run(self, corpus_manifest, tmp_path):
        # 6 clips in batches of 2 is 3 steps an epoch: ckpt-0001 holds step 3, and
        # the crash at step 5 leaves rows 4 and 5 in loss.csv for the resume to cut
        cfg = toy_config(corpus_manifest, epochs=3, batch_size=2)
        out, straight = tmp_path / "run", tmp_path / "straight"

        def crash_at_step_5(step, *_):
            if step == 5:
                raise RuntimeError("killed at step 5")

        with pytest.raises(RuntimeError, match="killed"):
            train(cfg, str(out), progress=crash_at_step_5)
        assert latest_checkpoint(str(out)) == str(out / "ckpt-0001")
        train(cfg, str(out), resume_from=latest_checkpoint(str(out)))
        train(cfg, str(straight))
        for name in ("loss.csv", "ckpt-0003/model.tensors", "ckpt-0003/optim.tensors"):
            assert (out / name).read_bytes() == (straight / name).read_bytes(), name

    @pytest.mark.parametrize("k", range(1, 7))
    def test_resume_after_a_max_steps_stop_matches_uninterrupted_run(self, corpus_manifest, tmp_path, k):
        # 3 steps an epoch: k = 1, 2, 4 and 5 stop in mid-epoch
        cfg = toy_config(corpus_manifest, epochs=2, batch_size=2)
        out, straight = tmp_path / "run", tmp_path / "straight"
        stopped = train(toy_config(corpus_manifest, epochs=2, batch_size=2, max_steps=k), str(out))
        assert (stopped.global_step, stopped.epochs_done) == (k, (k + 2) // 3)
        train(cfg, str(out), resume_from=latest_checkpoint(str(out)))
        train(cfg, str(straight))
        for name in ("loss.csv", "ckpt-0002/model.tensors", "ckpt-0002/optim.tensors"):
            assert (out / name).read_bytes() == (straight / name).read_bytes(), name

    def test_resume_after_a_kill_matches_uninterrupted_run(self, corpus_manifest, tmp_path):
        # SIGKILL runs no flush and no close: loss.csv holds only what was
        # flushed before ckpt-0001 (step 3) was saved
        cfg = dict(TOY, corpus=corpus_manifest, epochs=3, batch_size=2)
        out, straight = tmp_path / "run", tmp_path / "straight"
        child = (
            "import os, signal\n"
            "from tfse.config import RunConfig\n"
            "from tfse.training import train\n"
            "def kill_at_step_5(step, *_):\n"
            "    if step == 5:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            f"train(RunConfig(**{cfg!r}), {str(out)!r}, progress=kill_at_step_5)\n"
        )
        src = os.path.dirname(os.path.dirname(tfse.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        killed = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, timeout=300)
        assert killed.returncode == -signal.SIGKILL, killed.stderr.decode()
        assert latest_checkpoint(str(out)) == str(out / "ckpt-0001")
        train(RunConfig(**cfg), str(out), resume_from=latest_checkpoint(str(out)))
        train(RunConfig(**cfg), str(straight))
        for name in ("loss.csv", "ckpt-0003/model.tensors", "ckpt-0003/optim.tensors"):
            assert (out / name).read_bytes() == (straight / name).read_bytes(), name

    def test_resume_drops_a_loss_row_cut_short(self, corpus_manifest, tmp_path):
        cfg = toy_config(corpus_manifest, epochs=3, batch_size=2)
        out, straight = tmp_path / "run", tmp_path / "straight"

        def crash_at_step_5(step, *_):
            if step == 5:
                raise RuntimeError("killed at step 5")

        with pytest.raises(RuntimeError, match="killed"):
            train(cfg, str(out), progress=crash_at_step_5)
        text = (out / "loss.csv").read_text()  # a kill can cut the last row at any byte
        (out / "loss.csv").write_text(text[: text.index("\n5,1,") + len("\n5,1,")])
        train(cfg, str(out), resume_from=latest_checkpoint(str(out)))
        train(cfg, str(straight))
        assert (out / "loss.csv").read_bytes() == (straight / "loss.csv").read_bytes()

    def test_resume_rejects_a_malformed_loss_row(self, corpus_manifest, tmp_path):
        first = train(toy_config(corpus_manifest, epochs=1), str(tmp_path / "run"))
        with open(first.csv_path, "a", encoding="utf-8") as fh:
            fh.write("2,0,oops\n")
        with pytest.raises(FormatError, match=r"loss.csv:3: expected"):
            train(toy_config(corpus_manifest, epochs=2), str(tmp_path / "run"), resume_from=first.checkpoint_dir)

    def test_resume_rejects_model_config_change(self, corpus_manifest, tmp_path):
        first = train(toy_config(corpus_manifest, epochs=1), str(tmp_path / "run"))
        changed = toy_config(corpus_manifest, epochs=2, d_model=64, d_state=4)
        with pytest.raises(ConfigError, match="different model config"):
            train(changed, str(tmp_path / "run"), resume_from=first.checkpoint_dir)

    def test_missing_corpus_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="corpus"):
            train(toy_config("", epochs=1), str(tmp_path / "run"))

    @pytest.mark.parametrize("backbone", ["transformer", "mamba", "xlstm"])
    def test_poisoned_checkpoint_aborts_with_diagnostics(self, backbone, corpus_manifest, tmp_path):
        # block 0's weights at the float32 maximum load (they are finite), but
        # overflow in the forward: its finite check names that block, and the
        # loop reports it like a non-finite loss, with no step since the resume
        from tfse.archive import load_tensors, save_tensors

        cfg = toy_config(corpus_manifest, backbone=backbone, epochs=1)
        first = train(cfg, str(tmp_path / "run"))
        path = os.path.join(first.checkpoint_dir, "model.tensors")
        tensors = load_tensors(path)
        for key in tensors:
            if key.startswith("blocks.0."):
                tensors[key] = np.full_like(tensors[key], np.finfo(np.float32).max)
        save_tensors(path, tensors)
        named = (rf"^step 2 \(epoch 1\): {backbone} blocks\.0: non-finite output.*lr.*max\|param\|.*"
                 r", no step has run since the resume$")
        with pytest.raises(TrainingAborted, match=named), np.errstate(over="ignore", invalid="ignore"):
            train(toy_config(corpus_manifest, backbone=backbone, epochs=2),
                  str(tmp_path / "run"), resume_from=first.checkpoint_dir)

    def test_non_finite_weight_is_rejected_on_load(self, corpus_manifest, tmp_path):
        from tfse.archive import load_tensors, save_tensors

        first = train(toy_config(corpus_manifest, epochs=1), str(tmp_path / "run"))
        path = os.path.join(first.checkpoint_dir, "model.tensors")
        tensors = load_tensors(path)
        tensors["output_proj.b"][3] = np.inf
        save_tensors(path, tensors)
        with pytest.raises(FormatError, match=rf"^{re.escape(path)}: parameter output_proj\.b is not finite$"):
            load_checkpoint(first.checkpoint_dir)


    def test_non_finite_gradient_aborts_before_the_update(self, monkeypatch):
        # a NaN in one gradient is lost in Python's max() over the others; the
        # step must name that parameter and leave the weights and Adam as they were
        model = build_model(read_config(resolve_config_arg("toy-mamba")).model_config(), seed=0)
        rng = np.random.default_rng(6)
        batch = [(rng.uniform(0, 1.5, (20, 257)), rng.uniform(0, 1, (20, 257))) for _ in range(2)]
        opt = AdamState()
        train_step(model, opt, batch, 1e-3, "mask-mse")
        named = dict(model.named_parameters())
        before = {name: p.data.copy() for name, p in named.items()}
        moments = {name: m.copy() for name, m in opt.m.items()}

        def poisoned_backward(loss):
            backward(loss)
            named["blocks.0.core.norm.bias"].grad[3] = np.nan

        monkeypatch.setattr(training, "backward", poisoned_backward)
        with pytest.raises(TrainingAborted, match=r"^non-finite gradient in blocks\.0\.core\.norm\.bias, lr="):
            train_step(model, opt, batch, 1e-3, "mask-mse")
        assert opt.t == 1
        for name, p in named.items():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)
            np.testing.assert_array_equal(opt.m[name], moments[name], err_msg=name)


class TestCheckpointState:
    def test_rng_state_restores_exactly(self, corpus_manifest, tmp_path):
        result = train(toy_config(corpus_manifest, epochs=1), str(tmp_path / "run"))
        _, _, _, rng, epochs_done, global_step = load_checkpoint(result.checkpoint_dir)
        assert epochs_done == 1
        assert global_step == result.global_step
        # drawing from the restored generator must be reproducible
        a = rng.integers(0, 1 << 30)
        _, _, _, rng2, _, _ = load_checkpoint(result.checkpoint_dir)
        assert a == rng2.integers(0, 1 << 30)

    def test_latest_checkpoint_orders_epochs_numerically(self, tmp_path):
        for name in ("ckpt-9999", "ckpt-10000"):
            os.mkdir(tmp_path / name)
        assert latest_checkpoint(str(tmp_path)) == str(tmp_path / "ckpt-10000")

    def test_resume_skips_a_checkpoint_cut_short(self, corpus_manifest, tmp_path, monkeypatch):
        from tfse.archive import load_tensors

        cfg = toy_config(corpus_manifest, epochs=2, checkpoint_every=1)
        out = str(tmp_path / "run")
        save_tensors = training.save_tensors

        def fail_at_epoch_2(path, tensors):
            if "ckpt-0002" in path:
                raise OSError("disk full")
            save_tensors(path, tensors)

        monkeypatch.setattr(training, "save_tensors", fail_at_epoch_2)
        with pytest.raises(OSError, match="disk full"):
            train(cfg, out)
        monkeypatch.undo()
        assert "ckpt-0002.tmp" in os.listdir(out) and "ckpt-0002" not in os.listdir(out)
        assert latest_checkpoint(out) == os.path.join(out, "ckpt-0001")
        resumed = train(cfg, out, resume_from=latest_checkpoint(out))
        straight = train(cfg, str(tmp_path / "straight"))
        assert os.listdir(out).count("ckpt-0002") == 1 and "ckpt-0002.tmp" not in os.listdir(out)
        a = load_tensors(os.path.join(resumed.checkpoint_dir, "model.tensors"))
        b = load_tensors(os.path.join(straight.checkpoint_dir, "model.tensors"))
        assert all(np.array_equal(a[k], b[k]) for k in b)


@pytest.fixture
def small_checkpoint(tmp_path):
    """A saved checkpoint of a one-block toy model; returns its directory."""
    rc = toy_config("", epochs=1)
    ckpt = str(tmp_path / "ckpt-0001")
    rng_state = np.random.default_rng(0).bit_generator.state
    save_checkpoint(ckpt, build_model(rc.model_config(), seed=0), rc, AdamState(), rng_state, 1, 3)
    return ckpt


class TestMalformedCheckpointState:
    """A damaged state.json raises FormatError naming the file and the key."""

    def _write_state(self, ckpt, text: str) -> None:
        with open(os.path.join(ckpt, "state.json"), "w", encoding="utf-8") as fh:
            fh.write(text)

    def _state(self, ckpt) -> dict:
        return json.load(open(os.path.join(ckpt, "state.json")))

    def test_intact_state_loads(self, small_checkpoint):
        *_, epochs_done, global_step = load_checkpoint(small_checkpoint)
        assert (epochs_done, global_step) == (1, 3)

    def test_missing_state_file(self, small_checkpoint):
        os.remove(os.path.join(small_checkpoint, "state.json"))
        with pytest.raises(FormatError, match="cannot read checkpoint state .*state.json"):
            load_checkpoint(small_checkpoint)

    def test_truncated_json(self, small_checkpoint):
        text = open(os.path.join(small_checkpoint, "state.json")).read()
        self._write_state(small_checkpoint, text[: len(text) // 2])
        with pytest.raises(FormatError, match="state.json.*JSON"):
            load_checkpoint(small_checkpoint)

    def test_json_list(self, small_checkpoint):
        self._write_state(small_checkpoint, json.dumps([1, 2, 3]))
        with pytest.raises(FormatError, match="state.json.*object"):
            load_checkpoint(small_checkpoint)

    def test_missing_key(self, small_checkpoint):
        state = self._state(small_checkpoint)
        del state["global_step"]
        self._write_state(small_checkpoint, json.dumps(state))
        with pytest.raises(FormatError, match="state.json.*global_step"):
            load_checkpoint(small_checkpoint)

    def test_state_with_an_adam_t_key_loads(self, small_checkpoint):
        # state.json once also held the Adam step count, which equals global_step
        self._write_state(small_checkpoint, json.dumps({**self._state(small_checkpoint), "adam_t": 3}))
        _, _, opt, _, epochs_done, global_step = load_checkpoint(small_checkpoint)
        assert (opt.t, epochs_done, global_step) == (3, 1, 3)

    def test_non_integer_field(self, small_checkpoint):
        state = self._state(small_checkpoint)
        state["global_step"] = "three"
        self._write_state(small_checkpoint, json.dumps(state))
        with pytest.raises(FormatError, match="state.json.*global_step"):
            load_checkpoint(small_checkpoint)

    def test_bad_rng_state(self, small_checkpoint):
        state = self._state(small_checkpoint)
        state["rng"]["state"]["state"] = "not a number"
        self._write_state(small_checkpoint, json.dumps(state))
        with pytest.raises(FormatError, match="state.json.*rng"):
            load_checkpoint(small_checkpoint)

    def test_optimizer_moment_without_a_kind(self, small_checkpoint):
        from tfse.archive import save_tensors

        save_tensors(os.path.join(small_checkpoint, "optim.tensors"), {"x": np.zeros(2, np.float32)})
        with pytest.raises(FormatError, match="optim.tensors.*'x'"):
            load_checkpoint(small_checkpoint)

    def test_optimizer_moment_of_no_parameter(self, small_checkpoint):
        from tfse.archive import save_tensors

        save_tensors(os.path.join(small_checkpoint, "optim.tensors"), {"v.no_such.w": np.zeros(2, np.float32)})
        with pytest.raises(FormatError, match=r"optim.tensors.*'v\.no_such\.w'"):
            load_checkpoint(small_checkpoint)

    def test_optimizer_moment_of_the_wrong_shape(self, small_checkpoint):
        from tfse.archive import save_tensors

        model, *_ = load_checkpoint(small_checkpoint)
        name, p = next(model.named_parameters())
        save_tensors(os.path.join(small_checkpoint, "optim.tensors"),
                     {f"m.{name}": np.zeros(p.shape, np.float32), f"v.{name}": np.zeros((p.shape[0], 1), np.float32)})
        with pytest.raises(FormatError, match=rf"optim.tensors.*'v\.{name}' has shape \({p.shape[0]}, 1\)"):
            load_checkpoint(small_checkpoint)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        edits=st.dictionaries(
            st.sampled_from(["epochs_done", "global_step", "rng", "other"]),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
                lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
                max_leaves=6,
            ),
            max_size=4,
        ),
        cut=st.integers(0, 400),
    )
    def test_fuzzed_state_raises_only_tfse_errors(self, small_checkpoint, edits, cut):
        original = self._state(small_checkpoint)
        text = json.dumps({**original, **edits})
        try:
            for damaged in (text, text[:cut]):
                self._write_state(small_checkpoint, damaged)
                try:
                    load_checkpoint(small_checkpoint)
                except TfseError:
                    pass
        finally:  # the next example starts from the intact state
            self._write_state(small_checkpoint, json.dumps(original))


class TestCorpusManifestInputs:
    def test_non_utf8_manifest(self, tmp_path):
        bad = tmp_path / "manifest.txt"
        bad.write_bytes(b"s clip\xff\xfe.wav\n")
        with pytest.raises(FormatError, match="UTF-8"):
            load_corpus(str(bad))

    def test_missing_recording_names_the_line(self, tmp_path):
        bad = tmp_path / "manifest.txt"
        bad.write_text("s nowhere.wav\n")
        with pytest.raises(DataError, match=r"manifest.txt:1.*nowhere.wav"):
            load_corpus(str(bad))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        lines=st.lists(
            st.sampled_from(["s speech.wav", "n noise.wav", "s noise.wav", "# c", ""])
            | st.text(max_size=20).map(lambda t: "s " + t)
            | st.text(max_size=20),
            max_size=5,
        ),
        junk=st.binary(max_size=8),
    )
    def test_fuzzed_manifest_raises_only_tfse_errors(self, tmp_path, corpus_manifest, lines, junk):
        import shutil

        base = os.path.dirname(corpus_manifest)
        for name, src in (("speech.wav", "speech_000.wav"), ("noise.wav", "noise_000.wav")):
            if not (tmp_path / name).exists():
                shutil.copy(os.path.join(base, src), tmp_path / name)
        manifest = tmp_path / "manifest.txt"
        manifest.write_bytes("\n".join(lines).encode("utf-8") + junk)
        try:
            load_corpus(str(manifest))
        except TfseError:
            pass
