"""Signal frontend tests.

The analysis transform is checked against a direct DFT sum computed without
np.fft, so the two implementations fail independently.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tfse import dsp
from tfse.errors import (
    DegenerateInputError,
    DimensionError,
    FormatError,
    SampleRateError,
    TfseError,
)


@pytest.fixture
def speech(rng):
    from tfse.synth import tonal_speech

    return tonal_speech(rng, duration_s=1.0)


@pytest.fixture
def noise(rng):
    from tfse.synth import filtered_noise

    return filtered_noise(rng, duration_s=1.0)


class TestWaveform:
    def test_rejects_2d(self):
        with pytest.raises(DimensionError):
            dsp.Waveform(np.zeros((2, 100)))

    def test_rejects_nan(self):
        with pytest.raises(DegenerateInputError):
            dsp.Waveform(np.array([0.0, np.nan]))

    def test_duration(self):
        assert dsp.Waveform(np.zeros(16000)).duration == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(DegenerateInputError, match="empty"):
            dsp.Waveform(np.zeros(0))

    @pytest.mark.parametrize("rate", [8000, 44100, 0])
    def test_rejects_any_rate_but_16_khz(self, rate):
        with pytest.raises(SampleRateError, match=f"{rate} Hz"):
            dsp.Waveform(np.zeros(100), rate)


class TestStft:
    def test_shape_and_frame_count(self, rng):
        w = dsp.Waveform(rng.uniform(-1, 1, 5000))
        spec = dsp.stft(w)
        assert spec.values.shape == (dsp.num_frames(5000), dsp.N_BINS)
        assert spec.values.dtype == np.complex128
        assert dsp.num_frames(5000) == int(np.ceil(5000 / dsp.HOP))

    def test_short_input_still_yields_one_frame(self):
        spec = dsp.stft(dsp.Waveform(np.ones(10)))
        assert spec.values.shape[0] == 1

    def test_matches_direct_dft_sum(self, rng):
        # independent oracle: O(n^2) DFT of the windowed frame
        w = dsp.Waveform(rng.uniform(-1, 1, 2048))
        spec = dsp.stft(w)
        win = np.sqrt(np.hanning(dsp.FRAME_LEN + 1)[:-1])
        padded = np.concatenate([w.samples, np.zeros(8 * dsp.HOP)])
        for frame in (0, 3):
            seg = padded[frame * dsp.HOP : frame * dsp.HOP + dsp.FRAME_LEN] * win
            for k in (0, 17, 128, 256):
                n = np.arange(dsp.FRAME_LEN)
                want = np.sum(seg * np.exp(-2j * np.pi * k * n / dsp.FRAME_LEN))
                assert spec.values[frame, k] == pytest.approx(want, abs=1e-9)

    def test_linearity(self, rng):
        a = rng.uniform(-1, 1, 3000)
        b = rng.uniform(-1, 1, 3000)
        sab = dsp.stft(dsp.Waveform(a + 2.0 * b)).values
        sa = dsp.stft(dsp.Waveform(a)).values
        sb = dsp.stft(dsp.Waveform(b)).values
        np.testing.assert_allclose(sab, sa + 2.0 * sb, atol=1e-6)

    def test_pure_tone_peaks_at_expected_bin(self):
        t = np.arange(16000) / dsp.SAMPLE_RATE
        spec = dsp.stft(dsp.Waveform(np.sin(2 * np.pi * 1000.0 * t)))
        # 1000 Hz / (16000/512) Hz per bin = bin 32
        assert np.argmax(np.abs(spec.values[10])) == 32

    def test_interior_roundtrip_above_100_db(self, rng):
        w = dsp.Waveform(rng.uniform(-0.5, 0.5, 6000))
        back = dsp.istft(dsp.stft(w), len(w))
        assert len(back) == len(w)
        lo, hi = dsp.HOP, len(w) - dsp.HOP
        err = np.max(np.abs(back.samples[lo:hi] - w.samples[lo:hi]))
        snr = 20 * np.log10(np.max(np.abs(w.samples[lo:hi])) / max(err, 1e-300))
        assert snr > 100.0

    def test_istft_crops_to_requested_length(self, rng):
        w = dsp.Waveform(rng.uniform(-1, 1, 5000))
        assert len(dsp.istft(dsp.stft(w), 5000)) == 5000


class TestFrameGridAndOverlapAdd:
    # n = 6: a frame is two 3-sample blocks, and a remainder under one block is dropped
    @pytest.mark.parametrize("length, count", [(6, 1), (8, 1), (12, 3), (13, 3), (14, 3)])
    def test_rows_are_half_overlapping_slices(self, length, count):
        x = np.arange(float(length))
        frames = dsp.frame_grid(x, 6)
        assert frames.shape == (count, 6)
        for m in range(count):
            assert np.array_equal(frames[m], x[3 * m:3 * m + 6])

    def test_overlap_add_sums_each_row_half_a_row_on(self):
        out = dsp.overlap_add(np.ones((3, 4)))
        assert out.dtype == np.float64
        assert np.array_equal(out, [1, 1, 2, 2, 2, 2, 1, 1])

    def test_overlap_add_matches_the_in_order_sum_bit_for_bit(self, rng):
        frames = rng.normal(size=(9, 6)).astype(np.float32)
        frames[rng.random(frames.shape) < 0.3] = -0.0
        want = np.zeros(30)
        for m, row in enumerate(frames):
            want[3 * m:3 * m + 6] += row
        assert dsp.overlap_add(frames).tobytes() == want.tobytes()

    def test_overlap_add_of_the_grid_counts_frames_per_sample(self, rng):
        x = rng.normal(size=1000)
        frames = dsp.frame_grid(x, 256)
        back = dsp.overlap_add(frames)
        assert np.array_equal(back[128:-128], 2 * x[128:len(back) - 128])


class TestMask:
    def test_self_mask_is_exactly_one(self, speech):
        spec = dsp.stft(speech)
        m = dsp.phase_sensitive_mask(spec, spec)
        np.testing.assert_array_equal(m.values, np.ones_like(m.values))

    def test_clamped_to_unit_interval(self, speech, noise, rng):
        mix, _ = dsp.mix_at_snr(speech, noise, -5.0, rng)
        m = dsp.phase_sensitive_mask(dsp.stft(speech), dsp.stft(mix))
        assert m.values.min() >= 0.0
        assert m.values.max() <= 1.0

    def test_unclamped_can_leave_unit_interval(self, speech, noise, rng):
        mix, _ = dsp.mix_at_snr(speech, noise, -5.0, rng)
        m = dsp.phase_sensitive_mask(dsp.stft(speech), dsp.stft(mix), clamp=False)
        assert m.values.min() < 0.0 or m.values.max() > 1.0

    def test_matches_definition(self, speech, noise, rng):
        mix, _ = dsp.mix_at_snr(speech, noise, 0.0, rng)
        s, x = dsp.stft(speech), dsp.stft(mix)
        m = dsp.phase_sensitive_mask(s, x, clamp=False)
        want = (np.abs(s.values) / np.maximum(np.abs(x.values), dsp.MAG_FLOOR)) * np.cos(
            np.angle(s.values) - np.angle(x.values)
        )
        np.testing.assert_allclose(m.values, want, atol=1e-12)

    def test_ideal_mask_denoises(self, speech, noise, rng):
        mix, _ = dsp.mix_at_snr(speech, noise, 0.0, rng)
        s, x = dsp.stft(speech), dsp.stft(mix)
        est = dsp.istft(dsp.apply_mask(x, dsp.phase_sensitive_mask(s, x)), len(mix))
        assert dsp.snr_db(speech, est) - dsp.snr_db(speech, mix) > 10.0


class TestMixing:
    def test_power_ratio_exact_at_0db(self, speech, noise, rng):
        mix, scaled = dsp.mix_at_snr(speech, noise, 0.0, rng)
        ps = np.mean(speech.samples**2)
        pn = np.mean(scaled.samples**2)
        assert ps / pn == pytest.approx(1.0, rel=1e-9)
        np.testing.assert_allclose(mix.samples, speech.samples + scaled.samples, atol=0)

    def test_requested_snr_is_achieved(self, speech, noise, rng):
        for snr in (-10.0, 5.0, 20.0):
            _, scaled = dsp.mix_at_snr(speech, noise, snr, rng)
            got = 10 * np.log10(np.mean(speech.samples**2) / np.mean(scaled.samples**2))
            assert got == pytest.approx(snr, abs=1e-9)

    def test_short_noise_is_tiled(self, speech, rng):
        short = dsp.Waveform(rng.uniform(-0.4, 0.4, 1000))
        mix, scaled = dsp.mix_at_snr(speech, short, 0.0, rng)
        assert len(mix) == len(speech)
        assert len(scaled) == len(speech)

    def test_offset_draw_consumes_rng(self, speech, rng):
        long_noise = dsp.Waveform(np.random.default_rng(5).uniform(-0.4, 0.4, 3 * len(speech)))
        r1, r2 = np.random.default_rng(1), np.random.default_rng(2)
        _, n1 = dsp.mix_at_snr(speech, long_noise, 0.0, r1)
        _, n2 = dsp.mix_at_snr(speech, long_noise, 0.0, r2)
        assert not np.array_equal(n1.samples, n2.samples)

    def test_zero_noise_rejected(self, speech, rng):
        with pytest.raises(DegenerateInputError):
            dsp.mix_at_snr(speech, dsp.Waveform(np.zeros(16000)), 0.0, rng)

    def test_snr_db_of_identical_signals_is_inf(self, speech):
        assert dsp.snr_db(speech, speech) == np.inf


class TestWavIo:
    def test_pcm16_roundtrip_error_within_one_lsb(self, tmp_path, rng):
        w = dsp.Waveform(rng.uniform(-0.9, 0.9, 4000))
        path = str(tmp_path / "a.wav")
        dsp.write_wav(path, w, "pcm16")
        back = dsp.read_wav(path)
        assert back.sample_rate == dsp.SAMPLE_RATE
        assert np.max(np.abs(back.samples - w.samples)) <= 2.0**-15

    def test_float32_roundtrip(self, tmp_path, rng):
        w = dsp.Waveform(rng.uniform(-0.9, 0.9, 4000))
        path = str(tmp_path / "a.wav")
        dsp.write_wav(path, w, "float32")
        back = dsp.read_wav(path)
        assert np.max(np.abs(back.samples - w.samples)) < 1e-6

    def test_pcm16_clips_overrange(self, tmp_path):
        w = dsp.Waveform(np.array([2.0, -2.0]))
        path = str(tmp_path / "c.wav")
        dsp.write_wav(path, w, "pcm16")
        back = dsp.read_wav(path)
        assert back.samples[0] == pytest.approx(32767 / 32768)
        assert back.samples[1] == pytest.approx(-1.0)

    def test_wrong_sample_rate_rejected(self, tmp_path):
        import struct
        import wave

        path = str(tmp_path / "8k.wav")
        with wave.open(path, "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(struct.pack("<100h", *([0] * 100)))
        with pytest.raises(SampleRateError):
            dsp.read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        import struct
        import wave

        path = str(tmp_path / "st.wav")
        with wave.open(path, "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(struct.pack("<200h", *([0] * 200)))
        with pytest.raises(FormatError):
            dsp.read_wav(path)

    def test_non_wav_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "x.wav")
        with open(path, "wb") as fh:
            fh.write(b"definitely not RIFF data")
        with pytest.raises(FormatError):
            dsp.read_wav(path)

    @staticmethod
    def _raw_wav(tmp_path, fmt: bytes, data_size: int, data: bytes) -> str:
        import struct

        path = str(tmp_path / "raw.wav")
        chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        chunks += b"data" + struct.pack("<I", data_size) + data
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        return path

    PCM16_FMT = bytes.fromhex("01000100803e0000007d00000200" "1000")  # mono 16 kHz 16-bit

    def test_odd_length_pcm16_data_rejected(self, tmp_path):
        path = self._raw_wav(tmp_path, self.PCM16_FMT, 21, b"\x00" * 21 + b"\x00")
        with pytest.raises(FormatError, match="whole 16-bit samples"):
            dsp.read_wav(path)

    def test_data_chunk_shorter_than_declared_rejected(self, tmp_path):
        path = self._raw_wav(tmp_path, self.PCM16_FMT, 4000, b"\x00" * 20)
        with pytest.raises(FormatError, match="declares 4000 bytes"):
            dsp.read_wav(path)

    def test_short_fmt_chunk_rejected(self, tmp_path):
        path = self._raw_wav(tmp_path, self.PCM16_FMT[:8], 20, b"\x00" * 20)
        with pytest.raises(FormatError, match="fmt chunk"):
            dsp.read_wav(path)

    @staticmethod
    def _extensible_fmt(tag: int, bits: int, size: int = 40) -> bytes:
        import struct

        width = bits // 8
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 16000, 16000 * width, width, bits, 22, bits, 0x4)
        guid = struct.pack("<H", tag) + bytes.fromhex("000000001000800000aa00389b71")  # KSDATAFORMAT_SUBTYPE_*
        return (fmt + guid)[:size]

    @pytest.mark.parametrize("encoding, tag, bits", [("pcm16", 1, 16), ("float32", 3, 32)])
    def test_extensible_fmt_reads_as_its_subformat(self, tmp_path, rng, encoding, tag, bits):
        w = dsp.Waveform(rng.uniform(-0.9, 0.9, 300))
        plain = str(tmp_path / "plain.wav")
        dsp.write_wav(plain, w, encoding)
        data = open(plain, "rb").read()[-300 * bits // 8:]
        path = self._raw_wav(tmp_path, self._extensible_fmt(tag, bits), len(data), data)
        assert dsp.read_wav(path).samples.tobytes() == dsp.read_wav(plain).samples.tobytes()

    def test_extensible_fmt_under_40_bytes_is_an_unsupported_encoding(self, tmp_path):
        path = self._raw_wav(tmp_path, self._extensible_fmt(1, 16, size=24), 20, b"\x00" * 20)
        with pytest.raises(FormatError, match="unsupported encoding"):
            dsp.read_wav(path)

    def test_empty_data_chunk_raises_on_read(self, tmp_path):
        path = self._raw_wav(tmp_path, self.PCM16_FMT, 0, b"")
        with pytest.raises(DegenerateInputError, match="empty"):
            dsp.read_wav(path)

    def test_write_rejects_an_unknown_encoding(self, tmp_path):
        path = tmp_path / "u.wav"
        with pytest.raises(FormatError, match="unknown wav encoding 'pcm24'"):
            dsp.write_wav(str(path), dsp.Waveform(np.zeros(10)), "pcm24")
        assert not path.exists()

    def _read_or_tfse_error(self, tmp_path, blob: bytes) -> None:
        path = str(tmp_path / "fuzz.wav")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            dsp.read_wav(path)
        except TfseError:
            pass

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary(max_size=120))
    def test_fuzzed_random_bytes_raise_only_tfse_errors(self, tmp_path, blob):
        self._read_or_tfse_error(tmp_path, b"RIFF" + blob[:4] + b"WAVE" + blob[4:])
        self._read_or_tfse_error(tmp_path, blob)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 80), st.integers(0, 79), st.integers(0, 255))
    def test_fuzzed_truncated_and_corrupted_wav_raises_only_tfse_errors(self, tmp_path, cut, pos, byte):
        import struct

        # header of a valid 16-bit file (44 bytes) plus 18 samples
        valid = (
            b"RIFF" + struct.pack("<I", 36 + 36) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16) + self.PCM16_FMT
            + b"data" + struct.pack("<I", 36) + bytes(range(36))
        )
        blob = bytearray(valid)
        blob[pos] = byte
        self._read_or_tfse_error(tmp_path, bytes(blob[:cut]))
        self._read_or_tfse_error(tmp_path, bytes(blob))

    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    @pytest.mark.parametrize("n", [1, 255, 1234])
    def test_riff_size_is_file_size_minus_8(self, tmp_path, rng, encoding, n):
        import struct

        path = tmp_path / "s.wav"
        dsp.write_wav(str(path), dsp.Waveform(rng.uniform(-0.5, 0.5, n)), encoding)
        blob = path.read_bytes()
        assert struct.unpack("<I", blob[4:8])[0] == len(blob) - 8

    def test_float32_header_carries_fmt_fact_and_data(self, tmp_path, rng):
        import struct

        path = tmp_path / "f.wav"
        dsp.write_wav(str(path), dsp.Waveform(rng.uniform(-0.5, 0.5, 1234)), "float32")
        blob = path.read_bytes()
        assert len(blob) == 4994 and struct.unpack("<I", blob[4:8])[0] == 4986
        assert blob[12:20] == b"fmt " + struct.pack("<I", 18)
        assert struct.unpack("<HHIIHHH", blob[20:38]) == (3, 1, 16000, 64000, 4, 32, 0)
        assert blob[38:50] == b"fact" + struct.pack("<II", 4, 1234)
        assert blob[50:58] == b"data" + struct.pack("<I", 4936)

    @pytest.mark.parametrize("n", [1, 255, 1234])
    def test_pcm16_bytes_equal_stdlib_wave(self, tmp_path, rng, n):
        import wave

        w = dsp.Waveform(rng.uniform(-1.2, 1.2, n))
        ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
        dsp.write_wav(str(ours), w, "pcm16")
        with wave.open(str(theirs), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(dsp.SAMPLE_RATE)
            fh.writeframes(np.clip(np.rint(w.samples * 32768.0), -32768, 32767).astype("<i2").tobytes())
        assert ours.read_bytes() == theirs.read_bytes()

    def test_stdlib_wave_reads_our_pcm16(self, tmp_path, rng):
        import wave

        w = dsp.Waveform(rng.uniform(-0.5, 0.5, 1234))
        path = str(tmp_path / "w.wav")
        dsp.write_wav(path, w, "pcm16")
        with wave.open(path, "rb") as fh:
            assert fh.getnchannels() == 1
            assert fh.getframerate() == dsp.SAMPLE_RATE
            assert fh.getnframes() == 1234
