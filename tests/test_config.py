"""Config parsing, validation, and the shipped preset collection."""

import dataclasses
import inspect
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfse import cli
from tfse.config import (
    BACKBONES,
    ModelConfig,
    RunConfig,
    TrainConfig,
    parse_config_text,
    read_config,
    resolve_config_arg,
    shipped_config_names,
    write_config,
)
from tfse.errors import ConfigError, DataError, FormatError, TfseError
from tfse.evalbench import read_eval_manifest
from tfse.training import load_corpus


class TestParsing:
    def test_key_value_with_comments_and_blanks(self):
        rc = parse_config_text("# header\n\nbackbone = mamba\nblocks=5 # inline\n")
        assert rc.backbone == "mamba"
        assert rc.blocks == 5

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"cfg:3.*mystery"):
            parse_config_text("backbone=mamba\nblocks=2\nmystery=1\n", source="cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match=r"duplicate.*blocks"):
            parse_config_text("blocks=2\nblocks=3\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match=r":1"):
            parse_config_text("just some words\n")

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="blocks"):
            parse_config_text("blocks=many\n")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="causal"):
            parse_config_text("causal=yes\n")

    def test_bools_parse_case_insensitively(self):
        assert parse_config_text("causal=True\n").causal is True
        assert parse_config_text("causal=false\n").causal is False

    def test_written_defaults_read_back(self, tmp_path):
        path = str(tmp_path / "d.cfg")
        write_config(path, RunConfig())
        assert read_config(path) == RunConfig()

    def test_write_read_roundtrip(self, tmp_path):
        rc = RunConfig(backbone="bimamba", blocks=3, causal=False, seed=7, snr_lo=-3)
        path = str(tmp_path / "c.cfg")
        write_config(path, rc)
        assert read_config(path) == rc


class TestModelValidation:
    def test_recurrent_backbones_must_be_causal(self):
        for b in ("mamba", "xlstm"):
            with pytest.raises(ConfigError, match="causal"):
                ModelConfig(backbone=b, causal=False).validate()

    def test_bidirectional_backbones_must_not_be_causal(self):
        for b in ("bimamba", "c-bixlstm", "p-bixlstm"):
            with pytest.raises(ConfigError, match="causal"):
                ModelConfig(backbone=b, causal=True).validate()

    def test_pe_only_for_attention_backbones(self):
        with pytest.raises(ConfigError, match="pe"):
            ModelConfig(backbone="mamba", pe="sin").validate()
        ModelConfig(backbone="transformer", causal=False, pe="sin").validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0, 0.0])
    def test_proj_factor_must_be_finite_and_positive(self, value):
        with pytest.raises(ConfigError, match="proj_factor"):
            ModelConfig(backbone="xlstm", proj_factor=value).validate()

    @pytest.mark.parametrize("raw", ["nan", "inf", "-1"])
    def test_proj_factor_from_text_is_rejected_before_building(self, raw):
        rc = parse_config_text(f"backbone = xlstm\nproj_factor = {raw}\n")
        with pytest.raises(ConfigError, match="proj_factor"):
            rc.model_config()

    @pytest.mark.parametrize("backbone", ["xlstm", "c-bixlstm", "p-bixlstm"])
    @pytest.mark.parametrize("d_model, proj_factor, ok", [
        (10, 1.1, False),  # d_inner 11: not a multiple of the 4 heads
        (24, 1.0, False),  # d_head 6: not whole q/k/v blocks of 4
        (32, 1.0, True),  # d_head 8: two blocks per head
    ], ids=["d_inner-11", "d_head-6", "d_head-8"])
    def test_xlstm_d_inner_is_a_multiple_of_heads_times_block_size(self, backbone, d_model, proj_factor, ok):
        causal = backbone == "xlstm"
        cfg = ModelConfig(backbone=backbone, causal=causal, d_model=d_model, heads=4, proj_factor=proj_factor)
        if ok:
            cfg.validate()
            return
        with pytest.raises(ConfigError, match=r"4 heads x block size 4"):
            cfg.validate()

    @pytest.mark.parametrize("backbone", ["xlstm", "c-bixlstm", "p-bixlstm"])
    def test_xlstm_d_inner_that_rounds_to_zero_names_proj_factor(self, backbone, tmp_path, capsys):
        # round(0.01 * 16) = 0 is a multiple of every block size, yet leaves no q/k/v block
        causal = backbone == "xlstm"
        cfg = ModelConfig(backbone=backbone, causal=causal, d_model=16, proj_factor=0.01)
        with pytest.raises(ConfigError, match=r"^proj_factor: d_inner 0 is below 4 heads x block size 4$"):
            cfg.validate()
        path = tmp_path / "tiny.cfg"
        path.write_text(f"backbone = {backbone}\ncausal = {str(causal).lower()}\nd_model = 16\nproj_factor = 0.01\n")
        assert cli.main(["params", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: proj_factor: d_inner 0 is below 4 heads x block size 4\n"

    def test_default_heads_resolve_per_family(self):
        assert ModelConfig(backbone="transformer").resolved_heads() == 8
        assert ModelConfig(backbone="xlstm").resolved_heads() == 4

    def test_name_is_backbone_dash_blocks(self):
        assert ModelConfig(backbone="mamba", blocks=13).name == "mamba-13"
        assert ModelConfig(backbone="c-bixlstm", blocks=4, causal=False).name == "c-bixlstm-4"


# one case per rule of ModelConfig.validate and TrainConfig.validate, the one
# place each rule is checked: (section, values that break only that rule, key)
RULES = {
    "backbone-unknown": (ModelConfig, dict(backbone="lstm"), "backbone"),
    "blocks-0": (ModelConfig, dict(blocks=0), "blocks"),
    "pe-unknown": (ModelConfig, dict(pe="learned"), "pe"),
    "pe-needs-attention": (ModelConfig, dict(backbone="mamba", pe="sin"), "pe"),
    "causal-only": (ModelConfig, dict(backbone="xlstm", causal=False), "causal"),
    "bidirectional-only": (ModelConfig, dict(backbone="bimamba", causal=True), "causal"),
    **{f"{key}-0": (ModelConfig, {key: 0}, key)
       for key in ("d_model", "d_ff", "d_state", "expand", "d_conv", "conv_kernel")},
    "proj_factor-0": (ModelConfig, dict(backbone="xlstm", proj_factor=0.0), "proj_factor"),
    "heads-negative": (ModelConfig, dict(heads=-1), "heads"),
    "heads-divide-d_model": (ModelConfig, dict(d_model=256, heads=7), "heads"),
    "rope-odd-head-dim": (ModelConfig, dict(pe="rope", d_model=14, heads=2), "pe"),
    "sin-odd-d_model": (ModelConfig, dict(pe="sin", d_model=7, heads=1), "pe"),
    "xlstm-d_inner-below-blocks": (ModelConfig, dict(backbone="xlstm", d_model=16, proj_factor=0.5), "proj_factor"),
    "xlstm-d_inner-not-whole-blocks": (ModelConfig, dict(backbone="xlstm", d_model=24, proj_factor=1.0), "heads"),
    **{f"{key}-negative": (TrainConfig, {key: -1}, key) for key in ("seed", "max_steps")},
    **{f"{key}-0": (TrainConfig, {key: 0}, key) for key in ("batch_size", "epochs", "step_w", "checkpoint_every")},
    "snr-unordered": (TrainConfig, dict(snr_lo=10, snr_hi=-10), "snr_hi"),
    "loss-unknown": (TrainConfig, dict(loss="l1"), "loss"),
}


@pytest.mark.parametrize("section, values, key", RULES.values(), ids=RULES.keys())
def test_each_rule_raises_a_config_error_naming_its_key(section, values, key):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        section(**values).validate()
    with pytest.raises(ConfigError, match=f"^{key}: "):  # and so does the run config's view
        getattr(RunConfig(**values), "model_config" if section is ModelConfig else "train_config")()


def test_the_table_reaches_every_raise_of_both_validates():
    raises = set()
    for section in (ModelConfig, TrainConfig):
        lines, start = inspect.getsourcelines(section.validate)
        raises |= {start + i for i, line in enumerate(lines) if line.lstrip().startswith("raise ")}
    reached = set()
    for section, values, _ in RULES.values():
        with pytest.raises(ConfigError) as exc:
            section(**values).validate()
        reached.add(exc.traceback[-1].lineno + 1)  # pytest counts lines from 0
    assert reached == raises


class TestRunConfigViews:
    def test_sections_pick_their_own_keys(self):
        rc = RunConfig(backbone="mamba", blocks=5, seed=3, epochs=9)
        assert rc.model_config().blocks == 5
        assert rc.train_config().epochs == 9
        assert rc.train_config().seed == 3

    def test_fields_are_the_model_keys_then_the_train_keys(self):
        names = [f.name for f in fields(RunConfig)]
        assert names == [f.name for f in fields(ModelConfig)] + [f.name for f in fields(TrainConfig)]

    def test_replace_keeps_the_views(self):
        rc = dataclasses.replace(RunConfig(), seed=4, corpus="m.txt", backbone="xlstm")
        assert (rc.train_config().seed, rc.train_config().corpus) == (4, "m.txt")
        assert rc.model_config().backbone == "xlstm"
        with pytest.raises(dataclasses.FrozenInstanceError):
            rc.seed = 5

    @pytest.mark.parametrize("key, value", [("seed", -1), ("max_steps", -3)])
    def test_negative_seed_and_step_cap_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key}: must be >= 0, got {value}$"):
            RunConfig(**{key: value}).train_config()

    def test_zero_seed_and_step_cap_accepted(self):
        assert RunConfig(seed=0, max_steps=0).train_config().max_steps == 0


class TestReadValidates:
    @pytest.mark.parametrize("line, key", [
        ("seed = -1", "seed"), ("max_steps = -3", "max_steps"), ("blocks = 0", "blocks"),
    ])
    def test_bad_value_fails_on_read_naming_the_key(self, tmp_path, line, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f"backbone = mamba\n{line}\n")
        with pytest.raises(ConfigError, match=key):
            read_config(str(path))


class TestShippedConfigs:
    def test_collection_is_present(self):
        names = shipped_config_names()
        assert "transformer-4" in names
        assert "mamba-13" in names
        assert len(names) >= 20

    def test_every_shipped_config_validates(self):
        for name in shipped_config_names():
            rc = read_config(resolve_config_arg(name))
            rc.model_config()  # raises on any inconsistency

    def test_every_backbone_has_a_preset(self):
        bases = {read_config(resolve_config_arg(n)).backbone for n in shipped_config_names()}
        assert bases == set(BACKBONES)

    def test_resolver_prefers_filesystem_paths(self, tmp_path):
        path = tmp_path / "transformer-4.cfg"
        path.write_text("backbone=mamba\nblocks=1\n")
        assert resolve_config_arg(str(path)) == str(path)

    def test_resolver_rejects_unknown_names(self):
        with pytest.raises(ConfigError, match="shipped"):
            resolve_config_arg("definitely-not-a-preset")


class TestMalformedText:
    def test_non_utf8_config_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"backbone = mamba\n# caf\xe9\n")
        with pytest.raises(FormatError, match="UTF-8"):
            read_config(str(path))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.text(max_size=30)
            | st.tuples(st.sampled_from(sorted(RunConfig.__dataclass_fields__)), st.text(max_size=12)).map(
                lambda kv: f"{kv[0]} = {kv[1]}"
            ),
            max_size=6,
        )
    )
    def test_fuzzed_text_raises_only_tfse_errors(self, lines):
        try:
            parse_config_text("\n".join(lines))
        except TfseError:
            pass


# every text file tfse reads goes through config.read_text and config.text_lines
TEXT_READERS = {
    "config": (read_config, ConfigError),
    "corpus-manifest": (load_corpus, DataError),
    "eval-manifest": (read_eval_manifest, DataError),
}

# bytes that every reader rejects first at the given physical line
FIRST_BAD_LINE = {
    "nul-in-a-comment": (b"# a NUL \0 inside a comment\nbad line\n", 2),
    "crlf": (b"# comment\r\n\r\nbad line\r\n", 3),
    "blank-and-comment-lines": (b"\n   \n# comment\n  # indented comment\n\t\nbad line\n", 6),
}


@pytest.mark.parametrize("reader, error", TEXT_READERS.values(), ids=TEXT_READERS.keys())
class TestOneTextReader:
    def test_missing_file_is_the_readers_error_naming_the_path(self, tmp_path, reader, error):
        path = str(tmp_path / "missing.txt")
        with pytest.raises(error, match=f"cannot read .*{re.escape(path)}"):
            reader(path)

    def test_invalid_utf8_is_a_format_error(self, tmp_path, reader, error):
        path = tmp_path / "in.txt"
        path.write_bytes(b"# caf\xe9\nbad line\n")
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: .*UTF-8"):
            reader(str(path))

    def test_nul_outside_a_comment_names_the_line(self, tmp_path, reader, error):
        path = tmp_path / "in.txt"
        path.write_bytes(b"# fine\nx\0y = 1 2\n")
        with pytest.raises(TfseError, match=f"{re.escape(str(path))}:2: NUL"):
            reader(str(path))

    @pytest.mark.parametrize("data, line", FIRST_BAD_LINE.values(), ids=FIRST_BAD_LINE.keys())
    def test_comments_blank_lines_and_line_ends(self, tmp_path, reader, error, data, line):
        path = tmp_path / "in.txt"
        messages = []
        for variant in (data, data.replace(b"\r\n", b"\n")):
            path.write_bytes(variant)
            with pytest.raises(error, match=f"{re.escape(str(path))}:{line}: expected") as exc:
                reader(str(path))
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
