"""tfse benchmark: enhance-long, enhance-short and train, timed from outside.

    python3 perfbench/run.py --workload enhance-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # one process per workload
    python3 perfbench/run.py --workload train --trace 1       # per-layer metrics
    python3 perfbench/run.py --workload enhance-short --negative-control
    python3 perfbench/run.py --write-references               # regenerate the stored outputs

Run from anywhere inside a checkout; tfse is imported from its `src/`.
The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The exit code is 0 when every check
passed, 1 when one failed and 2 when the checkout holds no tfse source.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> int:
    """At most nproc BLAS threads; must run before numpy is imported."""
    asked = [int(os.environ[v]) for v in BLAS_VARS if os.environ.get(v, "").isdigit()]
    threads = max(1, min([NPROC] + asked))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


BLAS_THREADS = _pin_blas_threads()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import BYTE_COUNTED, SPAN_NAMES, GcProbe, Ledger, Tracer  # noqa: E402
from workloads import WORKLOADS, Run, Train  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 40
PRESETS = ("mamba-7", "xlstm-7", "conformer-4")

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "rtf": "s/s", "op_latency_s.p50": "s"}


def fresh_import():
    """Import tfse as a new process would (numpy is already loaded)."""
    for name in [k for k in sys.modules if k == "tfse" or k.startswith("tfse.")]:
        del sys.modules[name]
    return importlib.import_module("tfse")


def setup_helper() -> int:
    """The helper process of SetupTimer: reads the pickled workload and run
    from stdin, then times one set-up per line read, until stdin closes."""
    requests, replies = sys.stdin.buffer, os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # anything else printed goes to stderr, not into the replies
    workload, run = pickle.load(requests)
    for _ in iter(requests.readline, b""):
        gc.collect()
        start = time.perf_counter()
        tfse = fresh_import()
        state = workload.setup(tfse, run)
        print(repr(time.perf_counter() - start), file=replies, flush=True)
        tfse = state = None
    return 0


class SetupTimer:
    """Times `import tfse` plus the workload's set-up `reps` times over the
    run; `setup_s` is the median.

    The set-ups run in a helper process that does nothing else, so each
    meets memory and modules as a new process does, and none adds to the
    measured process's peak RSS or GC counts. The measured process waits
    while one runs, so they never compete for the cores. They run at op
    boundaries, keeping pace with the pass's clock, and any still due run
    after the pass: spread out like this, they see the same drift in host
    speed as the measured ops, which comes in phases of several seconds.

    The helper is a plain child process, always waited for on the way out.
    multiprocessing is not used: its spawn context starts a resource
    tracker process that nobody waits for, which outlives the run.
    """

    def __init__(self, workload, run: Run, reps: int):
        self.run = run
        self.reps = reps
        self.times: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--setup-helper"], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        try:
            pickle.dump((workload, run), self.proc.stdin)
            self.proc.stdin.flush()
        except BaseException:
            self.close()
            raise

    def _once(self) -> None:
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"set-up helper ended with code {self.proc.wait()}")
        self.times.append(float(reply))

    def spread_over(self, seconds: float) -> None:
        """From now on, op boundaries run the set-ups due by then."""
        start = self.run.clock()

        def due():
            share = (self.run.clock() - start) / seconds
            while len(self.times) < min(self.reps, 1 + (self.reps - 1) * share):
                self._once()

        self.run.set_up_between_ops = due

    def finish(self) -> float:
        self.run.set_up_between_ops = None
        while len(self.times) < self.reps:
            self._once()
        return statistics.median(self.times)

    def close(self) -> None:
        """Closes the helper's stdin, which ends it, and waits until it has."""
        self.run.set_up_between_ops = None
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_record(seed: int) -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "seed": seed,
    }


def git_rev() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree. Git is
    kept from searching the directories above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, m) -> dict:
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rtf": m.rtf,
        "op_latency_s.p50": m.latency_p50,
    }
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def per_layer(tracer: Tracer, gc_pause: dict, gc_count: int, m, traced, workload: str) -> dict:
    """Span totals of the traced pass; GC and step times of the untraced one."""
    totals = tracer.totals()
    out = {}
    forward = [v for k, v in totals.items() if k.startswith("model.forward.")]
    totals["model.forward"] = tuple(sum(col) for col in zip(*forward)) if forward else (0, 0.0, 0.0)
    for name in SPAN_NAMES:
        calls, busy, self_s = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = metric(calls, "count")
        out[f"{name}.busy_s"] = metric(busy, "s")
        out[f"{name}.self_s"] = metric(self_s, "s")
        if name in BYTE_COUNTED:
            out[f"{name}.bytes"] = metric(tracer.nbytes[name], "B")
        if name == "model.forward":
            for preset in PRESETS:
                calls, busy, _ = totals.get(f"{name}.{preset}", (0, 0.0, 0.0))
                out[f"{name}.{preset}.calls"] = metric(calls, "count")
                out[f"{name}.{preset}.busy_s"] = metric(busy, "s")
    for preset in Train.presets:
        nodes = tracer.graph_nodes.get(preset, [])
        out[f"tensor.graph_nodes.{preset}"] = metric(statistics.fmean(nodes) if nodes else 0.0, "count")
        step_s = m.latency_s.get(preset, []) if workload == "train" else []
        out[f"training.step_s.{preset}.p50"] = metric(statistics.median(step_s) if step_s else 0.0, "s")
        out[f"training.step_s.{preset}.max"] = metric(max(step_s, default=0.0), "s")
    out["python.gc.pause_s"] = metric(sum(gc_pause.values()), "s")
    out["python.gc.collections"] = metric(gc_count, "count")
    for preset in PRESETS:
        out[f"python.gc.pause_s.{preset}"] = metric(gc_pause.get(preset, 0.0), "s")
    out["trace.overhead"] = metric(traced.rtf / m.rtf, "ratio")
    return out


def tail(values):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    if n < 11:
        return None, None
    return values[n - 11], 100.0 * (n - 10) / n


def summary(workload: str, record: dict, setup_s, m, gc_pause, run: Run) -> list[str]:
    """Human-readable lines: each workload's own metric names (enhance_rtf,
    clip_latency_s, train_clips_per_s, failed_ratio) with their units."""
    audio = sum(m.audio_s.values())
    lines = [f"workload {workload}  seed {record['seed']}  nproc {record['nproc']}  blas_threads {record['blas_threads']}"]
    lines.append(f"  setup_s              {setup_s:.4f} s")
    lines.append(f"  peak_rss_mb          {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB")
    if workload == "train":
        lines.append(f"  train_clips_per_s    {audio / Train.clip_s / sum(m.work_s.values()):.4f} clips/s")
        for preset, steps in m.latency_s.items():
            share = gc_pause.get(preset, 0.0) / m.work_s[preset]
            clips_per_s = m.audio_s[preset] / Train.clip_s / m.work_s[preset]
            lines.append(
                f"  {preset:<12} {clips_per_s:.4f} clips/s  step_s p50 {statistics.median(steps):.4f} s"
                f"  max {max(steps):.4f} s  n={len(steps)}  gc {100 * share:.1f}% of its time"
            )
    else:
        lines.append(f"  enhance_rtf          {m.rtf:.4f} s/s over {audio:.1f} s of audio")
        for preset, lat in m.latency_s.items():
            value, pct = tail(lat)
            tail_s = f"  tail p{pct:.1f} {value:.4f} s" if value is not None else ""
            lines.append(f"  clip_latency_s.{preset:<12} p50 {statistics.median(lat):.4f} s{tail_s}  n={len(lat)}")
    lines.append(f"  failed_ratio         {run.failed / max(run.attempted, 1):.4f} ({run.failed} of {run.attempted} ops)")
    lines.extend(f"  FAILED {f}" for f in run.failures[:20])
    return lines


def trace_lines(per_layer_metrics: dict) -> list[str]:
    self_s = {k[: -len(".self_s")]: v["value"] for k, v in per_layer_metrics.items() if k.endswith(".self_s")}
    wrapped = sum(self_s.values())
    scans = self_s["ssm.selective_scan_par"] + self_s["xlstm.mlstm_cell_step"]
    lines = [
        f"  trace.overhead       {per_layer_metrics['trace.overhead']['value']:.4f} (traced / untraced rtf)",
        f"  scan share           {100 * scans / wrapped:.1f}% of {wrapped:.2f} s inside wrapped functions"
        " (ssm.selective_scan_par + xlstm.mlstm_cell_step self time)",
    ]
    for name, s in sorted(self_s.items(), key=lambda kv: -kv[1])[:10]:
        lines.append(f"  self {name:<34} {s:9.4f} s  {100 * s / wrapped:5.1f}%")
    return lines


def run_workload(args) -> int:
    tfse = importlib.import_module("tfse")
    importlib.import_module("tfse.synth")
    record = run_record(args.seed)
    workload = WORKLOADS[args.workload]()
    ledger = Ledger()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    stem = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = Run(str(work), args.seed, ledger, args.negative_control)
    try:
        work.mkdir(parents=True)
        with GcProbe(ledger) as gc_probe:
            workload.prepare(run, tfse)
            with SetupTimer(workload, run, SETUP_REPS) as timer:
                state = workload.setup(tfse, run)
                gc_probe.reset()
                timer.spread_over(args.seconds)
                m = workload.measure(run, tfse, state, args.seconds)
                gc_pause, gc_count = dict(gc_probe.pause_s), gc_probe.collections
                setup_s = timer.finish()
            metrics = end_to_end(setup_s, m)
            lines = summary(args.workload, record, setup_s, m, gc_pause, run)
            if args.trace:
                del state
                tracer = Tracer(ledger)
                tracer.install(tfse)
                try:
                    ledger.op = "setup"
                    state = workload.setup(tfse, run)
                    traced = workload.measure(run, tfse, state, args.seconds)
                finally:
                    tracer.uninstall()
                tracer.save(str(stem) + "-spans.npz")
                metrics = per_layer(tracer, gc_pause, gc_count, m, traced, args.workload)
                lines += trace_lines(metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    with open(str(stem) + ".json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "summary": lines, "setup_reps_s": timer.times, **result}, fh, indent=1)
    print("\n".join(lines))
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.negative_control:
            cmd.append("--negative-control")
        status = max(status, subprocess.run(cmd).returncode)
    return status


def write_references() -> int:
    """Store the reference outputs, made by the very calls that check them."""
    tfse = importlib.import_module("tfse")
    importlib.import_module("tfse.synth")
    written = {"waves": {}, "losses": {}}
    work = ROOT / ".bench_work" / f"references-{os.getpid()}"
    try:
        for name, make in WORKLOADS.items():
            run = Run(str(work / name), checks.CHECK_SEED, Ledger(), written=written)
            os.makedirs(run.work)
            workload = make()
            workload.prepare(run, tfse)
            workload.measure(run, tfse, workload.setup(tfse, run), 0.0)
        checks.write_references(written)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {checks.REF_WAVES} and {checks.REF_LOSSES}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="corrupt outputs on purpose; their checks must fail")
    parser.add_argument("--write-references", action="store_true")
    parser.add_argument("--setup-helper", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "tfse" / "__init__.py").is_file():
        print(f"error: no tfse source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_helper:
        return setup_helper()
    # On SIGTERM, unwind as on an error, so every child is waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.write_references:
        return write_references()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
