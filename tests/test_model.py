"""Full-model tests: frozen parameter budgets for every preset, mask range,
causality semantics at the model level, checkpoint round trips, and the
waveform pipeline."""

import tracemalloc

import numpy as np
import pytest

from tfse import dsp
from tfse.config import NONCAUSAL_ONLY, RunConfig, read_config, resolve_config_arg
from tfse.errors import ConfigError, DimensionError, NumericError
from tfse.model import (
    build_model,
    count_params,
    enhance,
    load_model,
    param_count_str,
    save_model,
)
from tfse.tensor import Tensor, no_grad

# regression targets measured once at the shipped widths (d_model 256,
# d_ff 1024, d_state 16, proj_factor 2); any architecture drift shows here
PARAM_BUDGETS = {
    "transformer-4": 3_291_651,
    "conformer-4": 6_224_387,
    "mamba-5": 2_323_971,
    "mamba-7": 3_200_515,
    "mamba-13": 5_830_147,
    "xlstm-5": 2_170_411,
    "xlstm-7": 2_985_531,
    "xlstm-14": 5_838_451,
    "bimamba-3": 2_762_243,
    "bimamba-4": 3_638_787,
    "bimamba-7": 6_268_419,
    "c-bixlstm-3": 2_577_971,
    "c-bixlstm-4": 3_393_091,
    "c-bixlstm-7": 5_838_451,
    "p-bixlstm-3": 2_577_971,
    "p-bixlstm-4": 3_393_091,
    "p-bixlstm-7": 5_838_451,
}

TINY = dict(d_model=32, d_ff=64, heads=4, d_state=4, conv_kernel=7)


def tiny_model(backbone, causal, blocks=2, pe="none", seed=0, **overrides):
    cfg = RunConfig(
        backbone=backbone, blocks=blocks, causal=causal, pe=pe, **{**TINY, **overrides}
    ).model_config()
    return build_model(cfg, seed=seed)


@pytest.fixture
def frames(rng):
    return rng.uniform(0.0, 1.5, size=(24, 257)).astype(np.float32)


class TestParameterBudgets:
    @pytest.mark.parametrize("name,want", sorted(PARAM_BUDGETS.items()))
    def test_preset_matches_frozen_count(self, name, want):
        rc = read_config(resolve_config_arg(name))
        model = build_model(rc.model_config(), seed=0)
        assert count_params(model) == want

    def test_count_is_seed_independent(self):
        rc = read_config(resolve_config_arg("mamba-5"))
        a = build_model(rc.model_config(), seed=0)
        b = build_model(rc.model_config(), seed=999)
        assert count_params(a) == count_params(b)

    def test_param_count_string_format(self):
        assert param_count_str(3_291_651) == "3.29M (3,291,651)"


# 1-block models at TINY widths: parameter count, and the distinct name prefixes inside
# blocks.0 in archive order. A wrapper attribute (core, fwd, bwd) is part of every name
# below it, so a renamed wrapper or a reordered build breaks stored checkpoints here.
BLOCK_NAMES = {
    "transformer": (25_795, ["attn", "norm1", "ffn_in", "ffn_out", "norm2"]),
    "conformer": (33_667, [
        "ffn1_norm", "ffn1_in", "ffn1_out", "attn_norm", "attn", "conv_norm", "conv_in",
        "conv_dw", "conv_mid_norm", "conv_out", "ffn2_norm", "ffn2_in", "ffn2_out", "final_norm",
    ]),
    "mamba": (24_931, ["core"]),
    "bimamba": (32_611, ["fwd", "bwd"]),
    "xlstm": (25_195, ["core"]),
    "c-bixlstm": (33_139, ["fwd.core", "bwd.core"]),
    "p-bixlstm": (33_139, ["fwd", "bwd"]),
}


def name_prefixes(model) -> list[str]:
    """Distinct prefixes of the parameter names, in order: a top-level attribute, or in a
    block the wrapper attributes down to its mixer, else the block's first sub-name."""
    prefixes = []
    for name, _ in model.named_parameters():
        head, *rest = name.split(".")
        if head == "blocks":
            index, *sub = rest
            n = next(i for i, part in enumerate(sub) if part not in ("core", "fwd", "bwd"))
            head = f"blocks.{index}." + ".".join(sub[:max(n, 1)])
        if head not in prefixes:
            prefixes.append(head)
    return prefixes


class TestParameterNames:
    @pytest.mark.parametrize("backbone", BLOCK_NAMES)
    def test_one_block_names_and_count(self, backbone):
        model = tiny_model(backbone, causal=backbone not in NONCAUSAL_ONLY, blocks=1)
        count, block = BLOCK_NAMES[backbone]
        assert name_prefixes(model) == ["input_norm", "input_proj", *(f"blocks.0.{p}" for p in block), "output_proj"]
        assert count_params(model) == count


class TestMaskOutput:
    @pytest.mark.parametrize(
        "backbone,causal",
        [
            ("transformer", True),
            ("conformer", True),
            ("mamba", True),
            ("xlstm", True),
            ("bimamba", False),
            ("c-bixlstm", False),
            ("p-bixlstm", False),
        ],
    )
    def test_mask_strictly_inside_unit_interval(self, backbone, causal, frames):
        model = tiny_model(backbone, causal, blocks=1)
        with no_grad():
            y = model(Tensor(frames)).data
        assert y.shape == frames.shape
        assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_wrong_input_shape_rejected(self, rng):
        model = tiny_model("mamba", True, blocks=1)
        with pytest.raises(DimensionError):
            model(Tensor(rng.uniform(0, 1, (10, 100)).astype(np.float32)))

    @pytest.mark.parametrize(
        "backbone,param,value",
        [
            ("mamba", "blocks.3.core.in_proj.w", np.nan),
            ("mamba", "blocks.3.core.D", np.inf),  # a scan input
            ("xlstm", "blocks.3.core.up_proj.w", np.nan),
            ("xlstm", "blocks.3.core.i_gate.b", np.inf),  # the scan's input gate
            ("transformer", "blocks.3.ffn_in.w", np.nan),
            ("transformer", "blocks.3.attn.wq.b", np.inf),  # the attention scores
            ("mamba", "input_proj.w", np.nan),
        ],
    )
    def test_first_non_finite_output_is_named(self, backbone, param, value, frames):
        model = tiny_model(backbone, True, blocks=4)
        dict(model.named_parameters())[param].data.flat[0] = value
        path = "blocks.3" if param.startswith("blocks.3.") else "input_proj"
        with no_grad(), pytest.raises(NumericError, match=rf"^{backbone} {path}: non-finite output$"):
            model(Tensor(frames))

    def test_sinusoidal_pe_changes_output(self, frames):
        plain = tiny_model("transformer", False, pe="none")
        sinpe = tiny_model("transformer", False, pe="sin")
        with no_grad():
            a = plain(Tensor(frames)).data
            b = sinpe(Tensor(frames)).data
        assert np.max(np.abs(a - b)) > 1e-6


class TestCausalitySemantics:
    @pytest.mark.parametrize("backbone", ["transformer", "conformer", "mamba", "xlstm"])
    def test_causal_models_ignore_future_frames(self, backbone, frames, rng):
        model = tiny_model(backbone, causal=True)
        poked = frames.copy()
        poked[15, 13] += 1.0  # one frame, one bin
        with no_grad():
            y1 = model(Tensor(frames)).data
            y2 = model(Tensor(poked)).data
        np.testing.assert_array_equal(y1[:15], y2[:15])
        assert np.max(np.abs(y1[15:] - y2[15:])) > 0.0

    @pytest.mark.parametrize(
        "backbone,causal",
        [
            ("transformer", False),
            ("conformer", False),
            ("bimamba", False),
            ("c-bixlstm", False),
            ("p-bixlstm", False),
        ],
    )
    def test_noncausal_models_react_to_future_frames(self, backbone, causal, frames, rng):
        model = tiny_model(backbone, causal)
        poked = frames.copy()
        poked[20] = rng.uniform(0.0, 1.5, size=257)  # rewrite one late frame
        with no_grad():
            y1 = model(Tensor(frames)).data
            y2 = model(Tensor(poked)).data
        assert np.max(np.abs(y1[:15] - y2[:15])) > 0.0


class TestDeterminism:
    def test_same_seed_same_bits(self, frames):
        a = tiny_model("conformer", True, seed=11)
        b = tiny_model("conformer", True, seed=11)
        for (n, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data), n
        with no_grad():
            np.testing.assert_array_equal(a(Tensor(frames)).data, b(Tensor(frames)).data)

    def test_different_seed_different_bits(self):
        a = tiny_model("transformer", True, seed=0)
        b = tiny_model("transformer", True, seed=1)
        assert not np.array_equal(
            dict(a.named_parameters())["input_proj.w"].data,
            dict(b.named_parameters())["input_proj.w"].data,
        )


class TestCheckpointRoundTrip:
    def make_run_config(self):
        return RunConfig(backbone="mamba", blocks=1, causal=True, **TINY)

    def test_save_load_bit_exact(self, tmp_path, frames):
        rc = self.make_run_config()
        model = build_model(rc.model_config(), seed=5)
        save_model(str(tmp_path), model, rc)
        back, rc2 = load_model(str(tmp_path))
        assert rc2 == rc
        for (n, pa), (_, pb) in zip(model.named_parameters(), back.named_parameters()):
            assert np.array_equal(pa.data, pb.data), n
        with no_grad():
            np.testing.assert_array_equal(
                model(Tensor(frames)).data, back(Tensor(frames)).data
            )

    def test_missing_tensor_rejected(self, tmp_path):
        from tfse.archive import load_tensors, save_tensors
        from tfse.model import MODEL_ARCHIVE

        rc = self.make_run_config()
        save_model(str(tmp_path), build_model(rc.model_config(), seed=5), rc)
        path = str(tmp_path / MODEL_ARCHIVE)
        tensors = load_tensors(path)
        tensors.pop(sorted(tensors)[0])
        save_tensors(path, tensors)
        with pytest.raises(ConfigError, match="mismatch"):
            load_model(str(tmp_path))

    def test_wrong_shape_rejected(self, tmp_path):
        from tfse.archive import load_tensors, save_tensors
        from tfse.model import MODEL_ARCHIVE

        rc = self.make_run_config()
        save_model(str(tmp_path), build_model(rc.model_config(), seed=5), rc)
        path = str(tmp_path / MODEL_ARCHIVE)
        tensors = load_tensors(path)
        first = sorted(tensors)[0]
        tensors[first] = np.zeros((2, 2), dtype=np.float32)
        save_tensors(path, tensors)
        with pytest.raises(DimensionError, match="shape"):
            load_model(str(tmp_path))

    def test_config_with_a_removed_key_is_rejected(self, tmp_path):
        # checkpoints written while config.cfg still carried the bench_* keys do not load
        from tfse.model import CONFIG_FILE

        rc = self.make_run_config()
        save_model(str(tmp_path), build_model(rc.model_config(), seed=5), rc)
        with open(tmp_path / CONFIG_FILE, "a", encoding="utf-8") as fh:
            fh.write("bench_runs = 20\n")
        with pytest.raises(ConfigError, match="unknown key 'bench_runs'"):
            load_model(str(tmp_path))


def preset_config(name: str) -> RunConfig:
    return read_config(resolve_config_arg(name))


class TestSkeletonLoad:
    """load_model builds parameters without drawing them and reads every
    payload straight into its parameter."""

    @pytest.mark.parametrize("preset", ["mamba-7", "xlstm-7", "conformer-4"])
    def test_full_size_round_trip_is_bit_exact(self, tmp_path, preset):
        rc = preset_config(preset)
        model = build_model(rc.model_config(), seed=rc.seed)
        save_model(str(tmp_path), model, rc)
        back, _ = load_model(str(tmp_path))
        pairs = list(zip(model.named_parameters(), back.named_parameters()))
        assert len(pairs) == len(list(model.parameters()))
        for (n, pa), (nb, pb) in pairs:
            assert n == nb and pa.data.dtype == pb.data.dtype
            assert pa.data.tobytes() == pb.data.tobytes(), n
        if preset == "mamba-7":  # the delta bias has its own init draw
            params = dict(back.named_parameters())
            assert np.any(params["blocks.0.core.dt_proj.b"].data != 0.0)

    def test_allocation_peak_is_about_the_parameter_bytes(self, tmp_path):
        rc = preset_config("conformer-4")
        save_model(str(tmp_path), build_model(rc.model_config(), seed=rc.seed), rc)
        tracemalloc.start()
        try:
            model, _ = load_model(str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        param_bytes = sum(p.data.nbytes for p in model.parameters())
        assert peak <= 1.1 * param_bytes

    def test_makes_no_rng_draw(self, tmp_path, monkeypatch):
        rc = RunConfig(backbone="mamba", blocks=1, causal=True, **TINY)
        save_model(str(tmp_path), build_model(rc.model_config(), seed=5), rc)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_model drew random numbers")

        monkeypatch.setattr("tfse.model.np.random.default_rng", no_rng)
        load_model(str(tmp_path))

    def test_float64_load_casts_the_stored_float32(self, tmp_path):
        rc = RunConfig(backbone="xlstm", blocks=1, causal=True, **TINY)
        model = build_model(rc.model_config(), seed=5)
        save_model(str(tmp_path), model, rc)
        back, _ = load_model(str(tmp_path), dtype=np.float64)
        for (n, pa), (_, pb) in zip(model.named_parameters(), back.named_parameters()):
            assert pb.data.dtype == np.float64
            assert np.array_equal(pb.data, pa.data.astype(np.float64)), n


class TestWaveformPipeline:
    def test_enhance_preserves_length_and_rate(self, rng):
        model = tiny_model("mamba", True, blocks=1)
        w = dsp.Waveform(rng.uniform(-0.5, 0.5, 5000))
        out = enhance(model, w)
        assert len(out) == 5000
        assert out.sample_rate == dsp.SAMPLE_RATE

    def test_all_pass_mask_returns_input(self, rng):
        # force the output projection to emit a saturated sigmoid: the mask
        # becomes 1 everywhere and the pipeline reduces to analysis/synthesis
        model = tiny_model("mamba", True, blocks=1)
        with no_grad():
            params = dict(model.named_parameters())
            params["output_proj.w"].data[:] = 0.0
            params["output_proj.b"].data[:] = 40.0
        w = dsp.Waveform(rng.uniform(-0.5, 0.5, 6000))
        out = enhance(model, w)
        lo, hi = dsp.HOP, 6000 - dsp.HOP
        np.testing.assert_allclose(out.samples[lo:hi], w.samples[lo:hi], atol=1e-7)

    @pytest.mark.parametrize("preset", ["toy-mamba", "toy-xlstm", "toy-conformer"])
    def test_enhance_is_the_held_spectrum_composition(self, rng, preset):
        # enhance runs the STFT twice instead of holding the spectrum; the bits must not notice
        model = build_model(preset_config(preset).model_config())
        w = dsp.Waveform(rng.uniform(-0.5, 0.5, 9000))
        spec = dsp.stft(w)
        with no_grad():
            mask = model(spec.magnitude.astype(model.dtype)).data.astype(np.float64)
        want = dsp.istft(dsp.apply_mask(spec, dsp.Mask(mask)), len(w))
        assert enhance(model, w).samples.tobytes() == want.samples.tobytes()

    @pytest.mark.parametrize("preset", ["mamba-7", "xlstm-7"])
    def test_long_clip_peak_holds_only_live_arrays(self, rng, preset):
        # one 40 s clip: a spectrum, in-projection output or scan inputs held
        # past their last read would add 10-15 MB each to a peak of about 37 MB
        model = build_model(preset_config(preset).model_config())
        w = dsp.Waveform(rng.uniform(-0.5, 0.5, 40 * dsp.SAMPLE_RATE))
        tracemalloc.start()
        try:
            enhance(model, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 42e6
