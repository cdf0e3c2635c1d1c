"""Tensor archive format: bit-exact round trips and strict failure modes."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tfse.archive import load_tensors, save_tensors
from tfse.errors import ConfigError, FormatError, TfseError


@pytest.fixture
def sample(rng):
    return {
        "layer.w": rng.normal(size=(3, 4)).astype(np.float32),
        "layer.b": rng.normal(size=4).astype(np.float64),
        "gain": np.float32(1.25),
        "deep.nested.name-with-dash": rng.normal(size=(2, 1, 5)).astype(np.float32),
    }


class TestRoundTrip:
    def test_bit_exact(self, tmp_path, sample):
        path = str(tmp_path / "t.tensors")
        save_tensors(path, sample)
        back = load_tensors(path)
        assert set(back) == set(sample)
        for k, v in sample.items():
            want = np.asarray(v)
            assert back[k].dtype == want.dtype
            assert back[k].shape == want.shape
            assert np.array_equal(back[k], want)

    def test_scalar_survives(self, tmp_path):
        path = str(tmp_path / "s.tensors")
        save_tensors(path, {"x": np.float64(np.pi)})
        back = load_tensors(path)
        assert back["x"].shape == ()
        assert back["x"] == np.float64(np.pi)

    def test_special_values_preserved(self, tmp_path):
        vals = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, np.finfo(np.float32).tiny], np.float32)
        path = str(tmp_path / "v.tensors")
        save_tensors(path, {"v": vals})
        back = load_tensors(path)["v"]
        assert np.array_equal(back.view(np.uint32), vals.view(np.uint32))

    def test_save_is_deterministic(self, tmp_path, sample):
        p1, p2 = str(tmp_path / "a.tensors"), str(tmp_path / "b.tensors")
        save_tensors(p1, sample)
        save_tensors(p2, sample)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_no_partial_file_left_on_success(self, tmp_path, sample):
        path = str(tmp_path / "t.tensors")
        save_tensors(path, sample)
        assert os.listdir(tmp_path) == ["t.tensors"]


def copying_writer(path, tensors):
    """The writer as it was before it wrote each array's own buffer: one
    tobytes() copy per payload. The reference for the file's bytes."""
    entries, payloads, offset = [], [], 0
    for name, t in tensors.items():
        arr = np.asarray(t)
        buf = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
        shape = "x".join(str(n) for n in arr.shape) if arr.shape else "scalar"
        entries.append(f"{name} {arr.dtype} {shape} {offset} {len(buf)}")
        payloads.append(buf)
        offset += len(buf)
    header = ["tensor-archive 1", f"tensors {len(entries)}", *entries, "payload"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        for buf in payloads:
            fh.write(buf)


class TestCopyFreeWriter:
    def test_bytes_equal_the_copying_writer(self, tmp_path, rng):
        tensors = {
            "f32": rng.normal(size=(3, 5)).astype(np.float32),
            "f64": rng.normal(size=(2, 2, 3)).astype(np.float64),
            "scalar32": np.float32(-0.75),
            "scalar64": np.array(np.pi),
            "empty": np.zeros((0, 4), np.float32),
            "strided": rng.normal(size=(4, 6)).astype(np.float32).T,  # not contiguous
        }
        new, old = str(tmp_path / "new.tensors"), str(tmp_path / "old.tensors")
        save_tensors(new, tensors)
        copying_writer(old, tensors)
        assert open(new, "rb").read() == open(old, "rb").read()


class TestLoadInto:
    def test_matching_destinations_are_filled_and_returned(self, tmp_path, sample):
        path = str(tmp_path / "t.tensors")
        save_tensors(path, sample)
        into = {k: np.empty_like(np.asarray(v)) for k, v in sample.items()}
        back = load_tensors(path, into)
        for k, v in sample.items():
            assert back[k] is into[k]
            assert np.array_equal(into[k], np.asarray(v))

    @pytest.mark.parametrize("change", ["dtype", "shape"])
    def test_mismatched_destination_gets_a_new_array(self, tmp_path, sample, change):
        path = str(tmp_path / "t.tensors")
        save_tensors(path, sample)
        into = {k: np.empty_like(np.asarray(v)) for k, v in sample.items()}
        want = np.asarray(sample["layer.w"])
        dest = into["layer.w"] = want.astype(np.float64) if change == "dtype" else np.empty((4, 3), np.float32)
        before = dest.copy()
        back = load_tensors(path, into)
        assert back["layer.w"] is not dest
        assert back["layer.w"].dtype == want.dtype and np.array_equal(back["layer.w"], want)
        assert np.array_equal(dest, before)
        assert back["layer.b"] is into["layer.b"]

    def test_name_mismatch_raises_before_any_payload_is_read(self, tmp_path, sample):
        path = str(tmp_path / "t.tensors")
        save_tensors(path, sample)
        into = {k: np.full_like(np.asarray(v), 7.0) for k, v in sample.items() if k != "gain"}
        with pytest.raises(ConfigError, match="mismatch"):
            load_tensors(path, into)
        assert all(np.all(a == 7.0) for a in into.values())


class TestFormatErrors:
    def _write(self, tmp_path, blob: bytes) -> str:
        path = str(tmp_path / "bad.tensors")
        with open(path, "wb") as fh:
            fh.write(blob)
        return path

    def test_wrong_magic(self, tmp_path):
        with pytest.raises(FormatError):
            load_tensors(self._write(tmp_path, b"not-an-archive\npayload\n"))

    def test_truncated_payload(self, tmp_path, sample):
        path = str(tmp_path / "t.tensors")
        save_tensors(path, sample)
        blob = open(path, "rb").read()
        with pytest.raises(FormatError):
            load_tensors(self._write(tmp_path, blob[:-8]))

    def test_missing_payload_marker(self, tmp_path):
        with pytest.raises(FormatError):
            load_tensors(self._write(tmp_path, b"tensor-archive 1\nx float32 2 0 8\n"))

    def test_unknown_dtype(self, tmp_path):
        blob = b"tensor-archive 1\nx int8 2 0 2\npayload\n\x00\x00"
        with pytest.raises(FormatError):
            load_tensors(self._write(tmp_path, blob))

    def test_malformed_manifest_line(self, tmp_path):
        blob = b"tensor-archive 1\nonly two fields\npayload\n"
        with pytest.raises(FormatError):
            load_tensors(self._write(tmp_path, blob))

    @pytest.mark.parametrize("blob", [
        b"tensor-archive 1\ntensors two\npayload\n",
        b"tensor-archive 1\ntensors 1\nx float32 1 zero 4\npayload\n\x00\x00\x00\x00",
        b"tensor-archive 1\ntensors 1\nx float32 1 0 4.0\npayload\n\x00\x00\x00\x00",
    ], ids=["count", "offset", "nbytes"])
    def test_non_integer_header_field(self, tmp_path, blob):
        with pytest.raises(FormatError, match="bad .* field"):
            load_tensors(self._write(tmp_path, blob))

    def test_duplicate_name(self, tmp_path):
        blob = (
            b"tensor-archive 1\n"
            b"tensors 2\n"
            b"x float32 1 0 4\n"
            b"x float32 1 4 4\n"
            b"payload\n" + b"\x00" * 8
        )
        with pytest.raises(FormatError, match="listed twice"):
            load_tensors(self._write(tmp_path, blob))

    @pytest.mark.parametrize("entry", [
        b"x float32 1 0 6",  # not a whole number of float32 items
        b"x float64 2 0 8",  # whole items, but not as many as the shape holds
    ], ids=["partial-item", "wrong-count"])
    def test_nbytes_must_match_dtype_and_shape(self, tmp_path, entry):
        blob = b"tensor-archive 1\ntensors 1\n" + entry + b"\npayload\n" + b"\x00" * 16
        with pytest.raises(FormatError, match="do not hold"):
            load_tensors(self._write(tmp_path, blob))

    @pytest.mark.parametrize("entry", [b"x float32 -1 0 4", b"x float32 1 -4 4"], ids=["shape", "offset"])
    def test_negative_header_field(self, tmp_path, entry):
        blob = b"tensor-archive 1\ntensors 1\n" + entry + b"\npayload\n" + b"\x00" * 8
        with pytest.raises(FormatError, match="bad .* field"):
            load_tensors(self._write(tmp_path, blob))

    def test_manifest_entry_of_an_unsupported_dtype(self, tmp_path):
        blob = b"tensor-archive 1\ntensors 1\nx float16 2 0 4\npayload\n" + b"\x00" * 4
        with pytest.raises(FormatError, match="unsupported dtype float16"):
            load_tensors(self._write(tmp_path, blob))

    @pytest.mark.parametrize("name", ["a b", "a\tb", "tail\n", ""], ids=["space", "tab", "newline", "empty"])
    def test_save_rejects_a_name_that_is_empty_or_holds_whitespace(self, tmp_path, name):
        path = tmp_path / "n.tensors"
        with pytest.raises(FormatError, match="non-empty and whitespace-free"):
            save_tensors(str(path), {name: np.zeros(2, np.float32)})
        assert not path.exists() and not (tmp_path / "n.tensors.tmp").exists()

    def test_save_rejects_an_unsupported_dtype(self, tmp_path):
        path = tmp_path / "h.tensors"
        with pytest.raises(FormatError, match="unsupported dtype float16 for tensor 'x'"):
            save_tensors(str(path), {"ok": np.zeros(2, np.float32), "x": np.zeros(2, np.float16)})
        assert not path.exists() and not (tmp_path / "h.tensors.tmp").exists()

    def test_empty_dict_round_trips(self, tmp_path):
        path = str(tmp_path / "e.tensors")
        save_tensors(path, {})
        assert load_tensors(path) == {}


class TestBogusExtent:
    def test_huge_declared_tensor_in_a_short_file_allocates_nothing(self, tmp_path):
        n = 2 ** 40
        blob = f"tensor-archive 1\ntensors 1\nx float32 {n} 0 {4 * n}\npayload\n".encode() + b"\x00" * 64
        path = str(tmp_path / "huge.tensors")
        with open(path, "wb") as fh:
            fh.write(blob)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="shorter"):
                load_tensors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFuzz:
    """Whatever the bytes, load_tensors returns or raises a TfseError."""

    VALID = (
        b"tensor-archive 1\ntensors 2\n"
        b"w float32 2x3 0 24\nb float64 scalar 24 8\npayload\n" + bytes(range(32))
    )

    def _load(self, tmp_path, blob: bytes) -> None:
        path = str(tmp_path / "fuzz.tensors")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            load_tensors(path)
        except TfseError:
            pass

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary(max_size=200))
    def test_random_bytes(self, tmp_path, blob):
        self._load(tmp_path, blob)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, len(VALID)), st.integers(0, len(VALID) - 1), st.integers(0, 255))
    def test_truncated_and_corrupted_archive(self, tmp_path, cut, pos, byte):
        blob = bytearray(self.VALID)
        blob[pos] = byte
        self._load(tmp_path, bytes(blob[:cut]))
        self._load(tmp_path, self.VALID[:cut])
