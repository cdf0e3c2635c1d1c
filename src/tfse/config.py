"""Flat key=value run configuration, and the one reader of text files.

One file drives model construction and training. Lines are
`key = value`; blank lines and `#` comments are ignored; unknown or
duplicate keys, and in `read_config` invalid values, are rejected by name.
Writing a config emits every key, so an echoed file reproduces the run
exactly. `read_text` and `text_lines` read every text file tfse takes in:
configs, corpus and evaluation manifests, state.json and loss.csv.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, fields, make_dataclass
from importlib import resources

from .errors import ConfigError, FormatError, TfseError

BACKBONES = ("transformer", "conformer", "mamba", "bimamba", "xlstm", "c-bixlstm", "p-bixlstm")
ATTENTION_BACKBONES = ("transformer", "conformer")
CAUSAL_ONLY = ("mamba", "xlstm")
NONCAUSAL_ONLY = ("bimamba", "c-bixlstm", "p-bixlstm")
PE_KINDS = ("none", "sin", "rope")
LOSS_KINDS = ("mask-mse", "masked-magnitude-mse")

QKV_BLOCK_SIZE = 4  # xLSTM q/k/v projections are block-diagonal in blocks of this many features


@dataclass(frozen=True)
class ModelConfig:
    backbone: str = "transformer"
    blocks: int = 4
    causal: bool = True
    pe: str = "none"
    d_model: int = 256
    d_ff: int = 1024
    heads: int = 0  # 0 = backbone default (8 attention, 4 xlstm)
    d_state: int = 16
    expand: int = 2
    d_conv: int = 4
    proj_factor: float = 2.0
    conv_kernel: int = 31

    @property
    def name(self) -> str:
        return f"{self.backbone}-{self.blocks}"

    def resolved_heads(self) -> int:
        if self.heads:
            return self.heads
        return 8 if self.backbone in ATTENTION_BACKBONES else 4

    def validate(self) -> "ModelConfig":
        if self.backbone not in BACKBONES:
            raise ConfigError(f"backbone: unknown value {self.backbone!r}; choose from {', '.join(BACKBONES)}")
        if self.blocks < 1:
            raise ConfigError(f"blocks: must be >= 1, got {self.blocks}")
        if self.pe not in PE_KINDS:
            raise ConfigError(f"pe: unknown value {self.pe!r}; choose from {', '.join(PE_KINDS)}")
        if self.pe != "none" and self.backbone not in ATTENTION_BACKBONES:
            raise ConfigError(f"pe: positional encoding {self.pe!r} requires an attention backbone, not {self.backbone!r}")
        if self.backbone in CAUSAL_ONLY and not self.causal:
            raise ConfigError(f"causal: backbone {self.backbone!r} is causal-only; set causal = true")
        if self.backbone in NONCAUSAL_ONLY and self.causal:
            raise ConfigError(f"causal: backbone {self.backbone!r} is bidirectional; set causal = false")
        for key in ("d_model", "d_ff", "d_state", "expand", "d_conv", "conv_kernel"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key}: must be >= 1, got {getattr(self, key)}")
        if not (math.isfinite(self.proj_factor) and self.proj_factor > 0):
            raise ConfigError(f"proj_factor: must be a finite number > 0, got {self.proj_factor}")
        heads = self.resolved_heads()
        if heads < 1:
            raise ConfigError(f"heads: must be >= 1, got {heads}")
        if self.backbone in ATTENTION_BACKBONES:
            if self.d_model % heads:
                raise ConfigError(f"heads: d_model {self.d_model} not divisible by {heads}")
            if self.pe == "rope" and (self.d_model // heads) % 2:
                raise ConfigError(f"pe: rope needs an even head dim, got {self.d_model // heads}")
        if self.pe == "sin" and self.d_model % 2:
            raise ConfigError(f"pe: sin needs an even d_model, got {self.d_model}")
        if self.backbone in ("xlstm", "c-bixlstm", "p-bixlstm"):
            d_inner = int(round(self.proj_factor * self.d_model))
            if d_inner < heads * QKV_BLOCK_SIZE:
                raise ConfigError(f"proj_factor: d_inner {d_inner} is below {heads} heads x block size {QKV_BLOCK_SIZE}")
            if d_inner % (heads * QKV_BLOCK_SIZE):
                raise ConfigError(f"heads: d_inner {d_inner} not a multiple of {heads} heads x block size {QKV_BLOCK_SIZE}")
        return self


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    batch_size: int = 10
    epochs: int = 150
    max_steps: int = 0  # 0 = no cap
    snr_lo: int = -10
    snr_hi: int = 20
    step_w: int = 40000
    loss: str = "mask-mse"
    corpus: str = ""
    checkpoint_every: int = 1

    def validate(self) -> "TrainConfig":
        for key, low in (("seed", 0), ("max_steps", 0), ("batch_size", 1), ("epochs", 1), ("step_w", 1),
                         ("checkpoint_every", 1)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key}: must be >= {low}, got {getattr(self, key)}")
        if self.snr_hi < self.snr_lo:
            raise ConfigError(f"snr_hi: {self.snr_hi} is below snr_lo {self.snr_lo}")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"loss: unknown value {self.loss!r}; choose from {', '.join(LOSS_KINDS)}")
        return self


def _view(cls):
    """A RunConfig method that returns the validated `cls` built from its keys."""
    return lambda self: cls(**{f.name: getattr(self, f.name) for f in fields(cls)}).validate()


RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, f.default) for cls in (ModelConfig, TrainConfig) for f in fields(cls)],
    namespace={
        "__doc__": "Union of all config keys, ModelConfig's then TrainConfig's; sections are views onto it.",
        "__module__": __name__,
        "model_config": _view(ModelConfig),
        "train_config": _view(TrainConfig),
    },
    frozen=True,
)


def _parse_value(key: str, raw: str, target_type):
    raw = raw.strip()
    try:
        if target_type is bool:
            low = raw.lower()
            if low not in ("true", "false"):
                raise ValueError
            return low == "true"
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {target_type.__name__}") from None


def read_text(path: str, what: str, error: type[TfseError]) -> str:
    """The UTF-8 text of the file at `path`. A file that cannot be read
    raises `error` naming `what` and the path; bytes that are not UTF-8
    raise FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise error(f"cannot read {what} {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: {what} is not UTF-8 text ({e})") from None


def text_lines(text: str, source: str, error: type[TfseError]) -> Iterator[tuple[int, str]]:
    """(line number, stripped body) of each line that holds more than a `#`
    comment. Lines end at \\n, \\r\\n or \\r, and are numbered as in the file.
    A NUL byte outside a comment raises `error` naming `source:line`."""
    for lineno, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        body = line.split("#", 1)[0].strip()
        if "\0" in body:
            raise error(f"{source}:{lineno}: NUL byte in {body!r}")
        if body:
            yield lineno, body


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    keys = {f.name for f in fields(RunConfig)}
    defaults = RunConfig()
    seen: dict[str, object] = {}
    for lineno, body in text_lines(text, source, ConfigError):
        if "=" not in body:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {body!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen[key] = _parse_value(key, raw, type(getattr(defaults, key)))
    return RunConfig(**seen)


def read_config(path: str) -> RunConfig:
    rc = parse_config_text(read_text(path, "config", ConfigError), source=path)
    rc.model_config()  # each view validates its keys, so a bad value fails on read
    rc.train_config()
    return rc


def write_config(path: str, rc: RunConfig, header: str | None = None) -> None:
    lines = []
    if header:
        lines.append(f"# {header}")
    for f in fields(RunConfig):
        v = getattr(rc, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name} = {v}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def shipped_config_names() -> list[str]:
    root = resources.files("tfse") / "configs"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def resolve_config_arg(arg: str) -> str:
    """Accept a filesystem path or the name of a shipped config."""
    if os.path.exists(arg):
        return arg
    name = arg[:-4] if arg.endswith(".cfg") else arg
    candidate = resources.files("tfse") / "configs" / f"{name}.cfg"
    if candidate.is_file():
        return str(candidate)
    raise ConfigError(
        f"config {arg!r} is neither a file nor a shipped config "
        f"(shipped: {', '.join(shipped_config_names())})"
    )
