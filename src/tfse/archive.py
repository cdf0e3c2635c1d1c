"""Flat tensor archive: a text manifest followed by raw payloads.

Layout (all header lines are UTF-8, newline-terminated):

    tensor-archive 1
    tensors <N>
    <name> <dtype> <shape> <offset> <nbytes>     x N
    payload
    <concatenated little-endian IEEE-754 buffers>

shape is 'x'-joined extents ('scalar' for rank 0); offsets are relative to
the first payload byte. Names must be whitespace-free. Round trips are
bit-exact for float32 and float64.
"""

from __future__ import annotations

import math
import os
from typing import Mapping

import numpy as np

from .errors import ConfigError, FormatError
from .tensor import Tensor

MAGIC = "tensor-archive 1"

_DTYPES = {"float32": "<f4", "float64": "<f8"}


def _shape_str(shape: tuple[int, ...]) -> str:
    return "x".join(str(n) for n in shape) if shape else "scalar"


def _parse_shape(s: str) -> tuple[int, ...]:
    if s == "scalar":
        return ()
    try:
        shape = tuple(int(p) for p in s.split("x"))
    except ValueError:
        raise FormatError(f"bad shape field {s!r}") from None
    if min(shape) < 0:
        raise FormatError(f"bad shape field {s!r}")
    return shape


def _parse_int(s: str, what: str, path: str) -> int:
    try:
        value = int(s)
    except ValueError:
        raise FormatError(f"{path}: bad {what} field {s!r}") from None
    if value < 0:
        raise FormatError(f"{path}: bad {what} field {s!r}")
    return value


def save_tensors(path: str, tensors: Mapping[str, "np.ndarray | Tensor"]) -> None:
    """Write named arrays to `path`. Iteration order is preserved."""
    entries = []
    payloads = []
    offset = 0
    for name, t in tensors.items():
        if any(c.isspace() for c in name) or not name:
            raise FormatError(f"tensor name {name!r} must be non-empty and whitespace-free")
        arr = t.data if isinstance(t, Tensor) else np.asarray(t)
        dtype = str(arr.dtype)
        if dtype not in _DTYPES:
            raise FormatError(f"unsupported dtype {dtype} for tensor {name!r}")
        # the array's own buffer when it is already contiguous little-endian, no copy
        buf = np.ascontiguousarray(arr, dtype=_DTYPES[dtype]).reshape(-1)
        entries.append(f"{name} {dtype} {_shape_str(arr.shape)} {offset} {buf.nbytes}")
        payloads.append(buf)
        offset += buf.nbytes
    header = [MAGIC, f"tensors {len(entries)}", *entries, "payload"]
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        for buf in payloads:
            fh.write(buf.view(np.uint8))
    os.replace(tmp, path)


def _read_manifest(fh, path: str) -> dict[str, tuple[str, tuple[int, ...], int, int]]:
    """Parse the header of the open archive `fh` up to the payload marker
    into {name: (dtype, shape, offset, nbytes)}. Every entry is checked,
    its extent against the file's size included, before anything is
    allocated for it."""

    def line() -> str:
        raw = fh.readline()
        if not raw:
            raise FormatError(f"{path}: truncated archive header")
        try:
            return raw.decode("utf-8").rstrip("\n")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: archive header is not UTF-8") from None

    if line() != MAGIC:
        raise FormatError(f"{path}: not a tensor archive")
    head = line().split()
    if len(head) != 2 or head[0] != "tensors":
        raise FormatError(f"{path}: bad tensor count line")
    count = _parse_int(head[1], "tensor count", path)
    entries: dict[str, tuple[str, tuple[int, ...], int, int]] = {}
    for _ in range(count):
        parts = line().split()
        if len(parts) != 5:
            raise FormatError(f"{path}: bad manifest entry {parts!r}")
        name, dtype, shape_s, off_s, nbytes_s = parts
        if dtype not in _DTYPES:
            raise FormatError(f"{path}: unsupported dtype {dtype}")
        if name in entries:
            raise FormatError(f"{path}: tensor {name!r} listed twice")
        shape = _parse_shape(shape_s)
        off, nbytes = _parse_int(off_s, "offset", path), _parse_int(nbytes_s, "nbytes", path)
        if nbytes != math.prod(shape) * np.dtype(_DTYPES[dtype]).itemsize:
            raise FormatError(f"{path}: {nbytes} bytes do not hold a {dtype} tensor of shape {shape_s}")
        entries[name] = (dtype, shape, off, nbytes)
    if line() != "payload":
        raise FormatError(f"{path}: missing payload marker")
    payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
    for name, (_, _, off, nbytes) in entries.items():
        if off + nbytes > payload_bytes:
            raise FormatError(f"{path}: payload shorter than manifest entry {name!r}")
    return entries


def load_tensors(path: str, into: Mapping[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Read an archive back into {name: ndarray} in manifest order.

    With `into`, a {name: array} of destinations, the archive must hold
    exactly those names, checked before any payload is read (ConfigError
    otherwise). An entry whose dtype and shape match its destination is
    read straight into that array, which is returned in its place; any
    other entry is read into a new array.
    """
    with open(path, "rb") as fh:
        entries = _read_manifest(fh, path)
        if into is not None and set(into) != set(entries):
            missing = sorted(set(into) - set(entries))
            extra = sorted(set(entries) - set(into))
            raise ConfigError(f"{path}: archive/destination tensor mismatch (missing {missing[:3]}, extra {extra[:3]})")
        start = fh.tell()
        out: dict[str, np.ndarray] = {}
        for name, (dtype, shape, off, nbytes) in entries.items():
            arr = None if into is None else into[name]
            if arr is None or arr.dtype != np.dtype(_DTYPES[dtype]) or arr.shape != shape \
                    or not (arr.flags.c_contiguous and arr.flags.writeable):
                arr = np.empty(shape, dtype=_DTYPES[dtype])
            fh.seek(start + off)
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise FormatError(f"{path}: payload shorter than manifest entry {name!r}")
            out[name] = arr if arr.dtype.isnative else arr.astype(dtype)
    return out
