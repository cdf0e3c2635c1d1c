"""Observers installed from outside tfse: timing wrappers and a GC probe.

A wrapper replaces a public function (or a class's ``__call__``) at every
name a caller looks it up by: the module attribute, the names other tfse
modules imported it under, and dispatch tables such as ``ssm._SCANS``.
Each call records one span (name, start, end, parent span, op id). Spans
stay in memory until the run ends. Arguments and results pass through
unchanged, so the traced run is checked like the untraced one.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, metric name); a class attribute is wrapped at __call__.
TARGETS = (
    ("model", "load_model", "model.load_model"),
    ("model", "EnhancementModel", "model.forward"),
    ("archive", "load_tensors", "archive.load_tensors"),
    ("archive", "save_tensors", "archive.save_tensors"),
    ("dsp", "stft", "dsp.stft"),
    ("dsp", "istft", "dsp.istft"),
    ("dsp", "apply_mask", "dsp.apply_mask"),
    ("dsp", "read_wav", "dsp.read_wav"),
    ("dsp", "write_wav", "dsp.write_wav"),
    ("dsp", "mix_at_snr", "dsp.mix_at_snr"),
    ("attention", "MultiHeadSelfAttention", "attention.MultiHeadSelfAttention"),
    ("attention", "ConformerBlock", "attention.ConformerBlock"),
    ("module", "LayerNorm", "module.LayerNorm"),
    ("module", "DepthwiseConv1d", "module.DepthwiseConv1d"),
    ("module", "Linear", "module.Linear"),
    ("module", "Conv1d", "module.Conv1d"),
    ("ssm", "MambaCore", "ssm.MambaCore"),
    ("ssm", "selective_scan_par", "ssm.selective_scan_par"),
    ("xlstm", "MLSTMCore", "xlstm.MLSTMCore"),
    ("xlstm", "mlstm_cell_step", "xlstm.mlstm_cell_step"),
    ("tensor", "backward", "tensor.backward"),
    ("training", "make_example", "training.make_example"),
    ("training", "clip_gradients", "training.clip_gradients"),
    ("training", "adam_step", "training.adam_step"),
    ("training", "save_checkpoint", "training.save_checkpoint"),
)
SPAN_NAMES = tuple(name for _, _, name in TARGETS)
BYTE_COUNTED = ("archive.load_tensors", "archive.save_tensors")


def _nbytes(arrays) -> int:
    return sum(np.asarray(getattr(a, "data", a)).nbytes for a in arrays)


class Ledger:
    """The op in progress, shared by the workload and both observers.

    `preset` is set only while a measured op runs; ops whose id starts with
    "check" (reference checks, which double as warm-up) are left out of the
    layer totals.
    """

    def __init__(self):
        self.op = "setup"
        self.preset = ""

    @property
    def checking(self) -> bool:
        return self.op.startswith("check")


class GcProbe:
    """Collector pauses and counts during measured ops, by the op's preset."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.pause_s: dict[str, float] = defaultdict(float)
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self.ledger.preset:  # only pauses inside measured ops count
            self.pause_s[self.ledger.preset] += time.perf_counter() - self._start
            self.collections += 1

    def reset(self) -> None:
        self.pause_s.clear()
        self.collections = 0

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class Tracer:
    """Span recorder plus the patch table that installs it into tfse."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.spans: list = []
        self.stack: list[int] = []
        self.nbytes: dict[str, int] = defaultdict(int)
        self.graph_nodes: dict[str, list[int]] = defaultdict(list)  # preset -> per backward
        self._undo: list = []

    def _record(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.ledger.op)

    def _wrap_function(self, name, fn, tfse):
        tracer = self
        if name == "tensor.backward" and hasattr(tfse.tensor, "CompGraph"):
            comp_graph = tfse.tensor.CompGraph

            def wrapper(loss, *args, **kwargs):
                if not tracer.ledger.checking:
                    # counted before the span opens, so the walk is not backward time
                    tracer.graph_nodes[tracer.ledger.preset].append(len(comp_graph(loss).order))
                return tracer._record(name, fn, (loss,) + args, kwargs)
        elif name == "archive.save_tensors":

            def wrapper(path, tensors, *args, **kwargs):
                result = tracer._record(name, fn, (path, tensors) + args, kwargs)
                if not tracer.ledger.checking:
                    tracer.nbytes[name] += _nbytes(tensors.values())
                return result
        elif name == "archive.load_tensors":

            def wrapper(*args, **kwargs):
                result = tracer._record(name, fn, args, kwargs)
                if not tracer.ledger.checking:
                    tracer.nbytes[name] += _nbytes(result.values())
                return result
        else:

            def wrapper(*args, **kwargs):
                return tracer._record(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_call(self, name, cls):
        tracer = self
        call = cls.__call__
        per_preset = name == "model.forward"

        def __call__(obj, *args, **kwargs):
            label = f"{name}.{obj.cfg.name}" if per_preset else name
            return tracer._record(label, call, (obj,) + args, kwargs)

        cls.__call__ = __call__
        self._undo.append((cls, "__call__", call))

    def install(self, tfse) -> None:
        """Wrap every target at each name its callers look up."""
        modules = [m for k, m in sys.modules.items() if (k == "tfse" or k.startswith("tfse.")) and m is not None]
        for mod_name, attr, name in TARGETS:
            orig = getattr(getattr(tfse, mod_name), attr, None)
            if orig is None:
                continue  # removed by a later revision; its metrics read 0
            if isinstance(orig, type):
                self._wrap_call(name, orig)
                continue
            wrapper = self._wrap_function(name, orig, tfse)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
                    elif isinstance(val, dict):
                        for dkey, dval in list(val.items()):
                            if dval is orig:
                                val[dkey] = wrapper
                                self._undo.append((val, dkey, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """{span name: (calls, busy seconds, self seconds)} outside checks.
        Self time is the duration minus the part direct child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op.startswith("check"):
                continue
            acc = out[name]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def save(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        ops = sorted({s[4] for s in self.spans})
        name_id = {n: i for i, n in enumerate(names)}
        op_id = {o: i for i, o in enumerate(ops)}
        np.savez_compressed(
            path,
            names=np.array(names),
            ops=np.array(ops),
            name=np.array([name_id[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            op=np.array([op_id[s[4]] for s in self.spans], dtype=np.int32),
        )
