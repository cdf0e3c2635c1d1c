"""The three workloads, each a closed loop of one caller.

A workload prepares its inputs from the seed (untimed; tfse sees only the
files written), sets up the way a user's process does (timed separately
as set-up), then runs ops through tfse's public functions for about the
requested seconds and checks every output.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import checks


@dataclass
class Measurement:
    """Seconds inside the timed public calls, the audio they processed, and
    per-op latencies (a file, or an optimizer step), all keyed by preset."""

    work_s: dict = field(default_factory=lambda: defaultdict(float))
    audio_s: dict = field(default_factory=lambda: defaultdict(float))
    latency_s: dict = field(default_factory=lambda: defaultdict(list))

    @property
    def rtf(self) -> float:
        """Seconds per audio second of each preset, averaged over the presets,
        so the mix of presets in a run does not move it."""
        return statistics.fmean(self.work_s[p] / self.audio_s[p] for p in self.work_s)

    @property
    def latency_p50(self) -> float:
        """Median op latency of each preset, averaged over the presets."""
        return statistics.fmean(statistics.median(v) for v in self.latency_s.values())


class Run:
    """Per-run context: the work directory, the seed, the check ledger and
    the stored references. With `written`, a dict of empty dicts keyed like
    the references, the reference checks store their outputs there instead."""

    def __init__(self, work: str, seed: int, ledger, negative_control: bool = False, written=None):
        self.work = work
        self.seed = seed
        self.ledger = ledger
        self.negative_control = negative_control
        self.written = written
        self.references = checks.load_references() if written is None else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.set_up_between_ops = None  # timed set-ups the runner spreads over the pass
        self._between_s = 0.0

    def between_ops(self) -> None:
        if self.set_up_between_ops is not None:
            start = time.perf_counter()
            self.set_up_between_ops()
            self._between_s += time.perf_counter() - start

    def clock(self) -> float:
        """perf_counter, less the time spent waiting on set-ups between ops."""
        return time.perf_counter() - self._between_s

    def check_reference(self, kind: str, preset: str, compute, problem) -> None:
        """Check compute()'s output against the stored reference, or store it."""
        if self.written is not None:
            self.written[kind][preset] = compute()
            return
        try:
            found = problem(compute(), self.references[kind][preset])
        except Exception as e:
            found = f"{type(e).__name__}: {e}"
        self.check(found, f"{preset}/reference")

    def check(self, problem: str | None, op: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{op}: {problem}")

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)


def _preset_config(tfse, preset: str, **overrides):
    rc = tfse.config.read_config(tfse.config.resolve_config_arg(preset))
    return dataclasses.replace(rc, **overrides)


class Enhance:
    """read_wav -> enhance -> write_wav per file, as `tfse enhance` does,
    for every file through every checkpoint, in whole passes."""

    def __init__(self, presets, lengths):
        self.presets = presets
        self.lengths = lengths  # rng -> lengths in seconds of one pass's files

    def prepare(self, run: Run, tfse) -> None:
        for preset in self.presets:
            rc = _preset_config(tfse, preset, seed=checks.MODEL_SEED)
            model = tfse.model.build_model(rc.model_config(), seed=checks.MODEL_SEED)
            tfse.model.save_model(run.path("ckpt", preset), model, rc)
            os.makedirs(run.path("out", preset))
        rng = np.random.default_rng(run.seed)
        os.makedirs(run.path("in"))
        self.files = []
        for i, length in enumerate(self.lengths(rng)):
            speech = tfse.synth.tonal_speech(rng, length)
            noise = tfse.synth.filtered_noise(rng, length)
            noisy, _ = tfse.dsp.mix_at_snr(speech, noise, float(rng.uniform(-5.0, 10.0)), rng)
            name = f"noisy_{i:03d}.wav"
            tfse.dsp.write_wav(run.path("in", name), noisy, "pcm16")
            self.files.append(name)
        self.check_clip = checks.check_clip(tfse)

    def setup(self, tfse, run: Run):
        return [tfse.model.load_model(run.path("ckpt", p))[0] for p in self.presets]

    def measure(self, run: Run, tfse, models, seconds: float) -> Measurement:
        run.ledger.op = "check"  # doubles as warm-up
        for preset, model in zip(self.presets, models):
            enhance_clip = functools.partial(self._enhance_samples, tfse, model, self.check_clip)
            run.check_reference("waves", preset, enhance_clip, checks.wave_problem)
        m = Measurement()
        if run.written is not None:
            return m
        start = run.clock()
        for n in itertools.count():
            pass_start = run.clock()
            for i, name in enumerate(self.files):
                for preset, model in zip(self.presets, models):
                    run.between_ops()
                    self._op(run, tfse, m, preset, model, name, f"{preset}/{n}.{i}")
            now = run.clock()
            if now - start + (now - pass_start) > seconds:
                break
        run.ledger.op, run.ledger.preset = "done", ""
        return m

    @staticmethod
    def _enhance_samples(tfse, model, clip):
        return tfse.model.enhance(model, clip).samples

    def _op(self, run: Run, tfse, m: Measurement, preset, model, name, op) -> None:
        run.ledger.op, run.ledger.preset = op, preset
        out_path = run.path("out", preset, name)
        try:
            t0 = time.perf_counter()
            noisy = tfse.dsp.read_wav(run.path("in", name))
            t1 = time.perf_counter()
            out = tfse.model.enhance(model, noisy)
            t2 = time.perf_counter()
            tfse.dsp.write_wav(out_path, out, "pcm16")
            t3 = time.perf_counter()
        except Exception as e:  # an op that raises is a failed op, not a crash
            run.check(f"{type(e).__name__}: {e}", op)
            return
        m.work_s[preset] += t2 - t1
        m.audio_s[preset] += noisy.duration
        m.latency_s[preset].append(t3 - t0)
        samples = out.samples
        if run.negative_control and op.endswith("/0.0"):
            samples = samples[:-1]  # a truncated waveform must be caught
        run.check(checks.enhanced_problem(noisy.samples, samples, out_path), op)


def long_lengths(rng):
    return [10.0, 40.0]


def short_lengths(rng, n=100, lo=1.0, hi=4.0):
    """n lengths, one drawn uniformly in each of n equal strata of [lo, hi],
    in random order: random per seed, with the same spread every seed."""
    width = (hi - lo) / n
    lengths = lo + width * (np.arange(n) + rng.uniform(size=n))
    return [float(x) for x in rng.permutation(lengths)]


class Train:
    """`tfse.training.train` on each preset in turn, batch 2, 1-s clips.

    Every epoch of the 8-clip corpus is 4 steps and ends in a checkpoint,
    so the median step interval is one without a checkpoint write. The
    first step of each call is warm-up; the measured time runs from its
    progress callback to the return of `train`. Before it, a 2-step run
    on a 4-clip corpus at the check seed warms up and is checked against
    the stored losses.
    """

    presets = ("mamba-7", "xlstm-7")
    batch = 2
    clip_s = 1.0
    n_speech = 8
    n_check_speech = 4
    n_noise = 2

    def prepare(self, run: Run, tfse) -> None:
        self.manifest = tfse.synth.make_corpus(
            run.path("corpus"), self.n_speech, self.n_noise, self.clip_s, seed=run.seed
        )
        self.check_manifest = tfse.synth.make_corpus(
            run.path("check-corpus"), self.n_check_speech, self.n_noise, self.clip_s, seed=checks.CHECK_SEED
        )

    def setup(self, tfse, run: Run) -> None:
        """A copy of the set-up `train` runs before its first step; `train`
        repeats it, so nothing here is kept."""
        tfse.training.load_corpus(self.manifest)
        for preset in self.presets:
            tfse.model.build_model(_preset_config(tfse, preset).model_config(), seed=run.seed)

    def _train(self, run: Run, tfse, preset, manifest, seed, epochs, out_dir, check=False):
        rc = _preset_config(
            tfse, preset, batch_size=self.batch, epochs=epochs, max_steps=0,
            checkpoint_every=1, corpus=manifest, seed=seed,
        )
        times: list[float] = []
        tag = "check:" if check else ""
        run.between_ops()
        run.ledger.op, run.ledger.preset = f"{tag}{preset}/step1", "" if check else preset

        def progress(step, epoch, lr, loss):
            times.append(time.perf_counter())
            run.ledger.op = f"{tag}{preset}/step{step + 1}"

        try:
            result = tfse.training.train(rc, run.path(out_dir), progress=progress)
        finally:
            end = time.perf_counter()
            run.ledger.preset = ""
        return result, times, end

    def measure(self, run: Run, tfse, state, seconds: float) -> Measurement:
        per_epoch = self.n_speech // self.batch
        step_s = dict.fromkeys(self.presets, seconds)  # a failed check run plans the fewest epochs
        for preset in self.presets:  # warm-up, and the reference check
            check_run = functools.partial(self._check_losses, run, tfse, preset, step_s)
            run.check_reference("losses", preset, check_run, checks.losses_problem)
            run.ledger.op = "check"
        m = Measurement()
        if run.written is not None:
            return m
        for preset in self.presets:
            epochs = math.ceil(seconds / len(self.presets) / (per_epoch * step_s[preset]))
            steps = epochs * per_epoch
            out_dir = f"train-{preset}-{time.monotonic_ns()}"
            try:
                result, times, end = self._train(run, tfse, preset, self.manifest, run.seed, epochs, out_dir)
            except Exception as e:  # every planned step counts as failed
                for step in range(steps):
                    run.check(f"{type(e).__name__}: {e}", f"{preset}/step{step + 1}")
                continue
            m.work_s[preset] += end - times[0]
            m.audio_s[preset] += (len(times) - 1) * self.batch * self.clip_s
            m.latency_s[preset].extend(np.diff(times).tolist())
            run.ledger.op = "check"
            losses = self._logged_losses(run, result)
            for step in range(steps):
                loss = losses[step] if step < len(losses) else float("nan")
                run.check(None if math.isfinite(loss) else f"logged loss {loss!r}", f"{preset}/step{step + 1}")
            run.check(self._checkpoint_problem(tfse, result, steps, epochs), f"{preset}/checkpoint")
            shutil.rmtree(run.path(out_dir))
        run.ledger.op = "done"
        return m

    def _check_losses(self, run: Run, tfse, preset, step_s) -> list[float]:
        """The losses of a 2-step run at the check seed; notes its step time."""
        result, times, _ = self._train(
            run, tfse, preset, self.check_manifest, checks.MODEL_SEED, 1, f"check-{preset}", check=True
        )
        step_s[preset] = times[-1] - times[-2]
        return self._logged_losses(run, result)

    def _logged_losses(self, run: Run, result) -> list[float]:
        with open(result.csv_path, encoding="utf-8") as fh:
            losses = [float(line.rsplit(",", 1)[1]) for line in fh.readlines()[1:]]
        if run.negative_control and losses:
            losses[0] = float("nan")  # a non-finite loss must be caught
        return losses

    def _checkpoint_problem(self, tfse, result, steps, epochs) -> str | None:
        _, _, _, _, epochs_done, global_step = tfse.training.load_checkpoint(result.checkpoint_dir)
        if (epochs_done, global_step) != (epochs, steps):
            return f"checkpoint holds epoch {epochs_done} step {global_step}, expected {epochs} / {steps}"
        return None


WORKLOADS = {
    "enhance-long": lambda: Enhance(("mamba-7", "xlstm-7"), long_lengths),
    "enhance-short": lambda: Enhance(("conformer-4",), short_lengths),
    "train": Train,
}
