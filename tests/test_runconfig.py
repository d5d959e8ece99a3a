"""Tests for the key=value run configuration."""

import dataclasses
import math

import pytest

from mlpst.errors import ConfigError
from mlpst.runconfig import (
    LossConfig,
    ModelConfig,
    RunConfig,
    TemporalConfig,
    TrainConfig,
    parse_config_text,
)


class TestParsing:
    def test_defaults_match_reference_setup(self):
        cfg = RunConfig()
        assert cfg.patch == 2
        assert cfg.channels_spatial == 20
        assert cfg.channels_temporal == 20
        assert cfg.expansion == 8
        assert cfg.layers == 8
        assert (cfg.closeness, cfg.period, cfg.trend) == (8, 2, 2)
        assert cfg.lr == 1e-3
        assert cfg.batch_size == 64

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text(
            "# a comment\n"
            "\n"
            "patch = 2   # trailing comment\n"
            "closeness=6\n"
        )
        assert cfg.patch == 2
        assert cfg.closeness == 6

    def test_round_trip(self):
        cfg = RunConfig(h=10, w=20, seed=7, lr=0.005, block_mode=True,
                        split=(0.6, 0.2, 0.2), predict_channel=1)
        again = parse_config_text(cfg.to_text())
        assert dataclasses.asdict(again) == dataclasses.asdict(cfg)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config_text("learning_rate=0.1\n")

    def test_bad_value_names_key_and_line(self):
        with pytest.raises(ConfigError, match="patch.*line 2"):
            parse_config_text("seed=1\npatch=two\n")

    def test_empty_optional_means_none(self):
        cfg = parse_config_text("min_history=\npredict_channel=\n")
        assert cfg.min_history is None
        assert cfg.predict_channel is None

    def test_booleans(self):
        cfg = parse_config_text("block_mode=true\nshare_layers=off\n")
        assert cfg.block_mode is True
        assert cfg.share_layers is False


class TestValidation:
    def test_window_consistency(self):
        cfg = parse_config_text("trend=2\nperiod=2\ncloseness=8\nwindow=12\n")
        cfg.validate()
        bad = parse_config_text("trend=2\nperiod=2\ncloseness=8\nwindow=10\n")
        with pytest.raises(ConfigError, match="trend\\+period\\+closeness"):
            bad.validate()

    def test_q_constrained(self):
        bad = parse_config_text("q=3\n")
        with pytest.raises(ConfigError, match="q"):
            bad.validate()

    def test_patch_divides_grid(self):
        bad = parse_config_text("h=10\nw=21\n")
        with pytest.raises(ConfigError, match="divide"):
            bad.validate()

    def test_period_of_one_rejected(self):
        bad = parse_config_text("period=1\ncloseness=9\n")
        with pytest.raises(ConfigError):
            bad.validate()

    def test_resolve_grid_fills_and_checks(self):
        cfg = RunConfig()
        resolved = cfg.resolve_grid(10, 20, 2)
        assert (resolved.h, resolved.w, resolved.d) == (10, 20, 2)
        pinned = RunConfig(h=10)
        with pytest.raises(ConfigError, match="does not match"):
            pinned.resolve_grid(12, 20, 2)

    def test_predict_channel_range(self):
        bad = RunConfig(d=2, predict_channel=2)
        with pytest.raises(ConfigError, match="predict_channel"):
            bad.validate()

    def test_module_config_conversion(self):
        cfg = parse_config_text(
            "trend=0\nperiod=2\ncloseness=4\nperiod_interval=12\nq=1\ncombine_loss=true\n"
        )
        cfg.validate()
        assert cfg.temporal_config().window == 6
        assert cfg.loss_config().q == 1
        assert cfg.loss_config().combine is True
        assert cfg.model_config().n_layers == cfg.layers
        assert cfg.train_config().split == (0.7, 0.1, 0.2)

    def test_defaults_are_the_sub_configs_defaults(self):
        cfg = RunConfig()
        assert cfg.model_config() == ModelConfig()
        assert cfg.temporal_config() == TemporalConfig()
        assert cfg.train_config() == TrainConfig()
        assert cfg.loss_config() == LossConfig()

    @pytest.mark.parametrize("key, value, sub", [
        ("q", 3, LossConfig(q=3)),
        ("variant", "cnn", ModelConfig(variant="cnn")),
        ("lr", math.nan, TrainConfig(lr=math.nan)),
        ("split", (0.7, 0.1, math.inf), TrainConfig(split=(0.7, 0.1, math.inf))),
        ("seed", -1, TrainConfig(seed=-1)),
        ("trend", -1, ModelConfig(temporal=TemporalConfig(trend=-1))),
    ])
    def test_rules_are_the_sub_configs_rules(self, key, value, sub):
        with pytest.raises(ConfigError) as want:
            sub.validate()
        with pytest.raises(ConfigError) as got:
            RunConfig(**{key: value}).validate()
        assert str(got.value) == str(want.value)

    def test_every_key_but_a_boolean_declares_its_rule(self):
        for f in dataclasses.fields(RunConfig):
            assert (f.type == "bool") != bool(f.metadata), f.name
