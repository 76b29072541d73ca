import dataclasses

import pytest

from driftcomp.config import (
    RunConfig,
    coerce_value,
    load_config,
    parse_config_text,
    write_config,
)
from driftcomp.errors import ConfigError


class TestParsing:
    def test_defaults_from_empty_text(self):
        cfg = parse_config_text("")
        assert cfg == RunConfig()

    def test_basic_keys(self):
        cfg = parse_config_text(
            "solver = gd\nqueue_capacity = 500\nnoise_scale = 0.2\n"
            "predict_before_update = true\n"
        )
        assert cfg.solver == "gd"
        assert cfg.queue_capacity == 500
        assert cfg.noise_scale == pytest.approx(0.2)
        assert cfg.predict_before_update is True

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\nseed = 5  # trailing\n")
        assert cfg.seed == 5

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*queue_cap"):
            parse_config_text("seed = 1\nqueue_cap = 10\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_type_coercion_errors(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config_text("queue_capacity = many")
        with pytest.raises(ConfigError, match="number"):
            parse_config_text("ridge = big")
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_text("predict_before_update = maybe")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_coerce_value(self):
        assert coerce_value("queue_capacity", " 7 ") == 7
        assert coerce_value("noise_scale", "0.5") == 0.5
        assert coerce_value("solver", "gd") == "gd"
        assert coerce_value("predict_before_update", "yes") is True
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            coerce_value("bogus", "1")
        with pytest.raises(ConfigError, match="integer"):
            coerce_value("seed", "abc")

    def test_format_version_checked(self):
        parse_config_text("format_version = 1\nseed = 3\n")
        with pytest.raises(ConfigError, match="format_version"):
            parse_config_text("format_version = 9\n")

    def test_non_integer_format_version_names_line(self):
        with pytest.raises(ConfigError, match="line 2: unsupported config format_version 'abc'"):
            parse_config_text("seed = 3\nformat_version = abc\n")


class TestValidation:
    def test_bad_solver(self):
        with pytest.raises(ConfigError, match="solver"):
            RunConfig(solver="newton")

    def test_bad_capacity(self):
        with pytest.raises(ConfigError, match="queue_capacity"):
            RunConfig(queue_capacity=0)

    def test_negative_noise(self):
        with pytest.raises(ConfigError, match="noise_scale"):
            RunConfig(noise_scale=-0.1)

    def test_dump_source_needs_path(self):
        with pytest.raises(ConfigError, match="dump_path"):
            RunConfig(source="dump")
        RunConfig(source="dump", dump_path="x.bin")

    def test_bad_drift_kind(self):
        with pytest.raises(ConfigError, match="drift_kind"):
            RunConfig(drift_kind="spiral")

    @pytest.mark.parametrize("key,value", [
        ("toy_input_dim", 0), ("toy_hidden", 0), ("toy_batch_size", 0),
        ("toy_epochs", -1), ("toy_base_lr", 0.0), ("toy_base_lr", -1.0),
        ("toy_tau", 0.0), ("toy_lambda1", -1.0), ("toy_lambda2", -0.5),
    ])
    def test_bad_toy_values(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                     if f.type == "float"])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}={value} is not finite"):
            RunConfig(**{key: value})

    def test_toy_boundary_values_accepted(self):
        RunConfig(toy_input_dim=1, toy_hidden=1, toy_batch_size=1, toy_epochs=0,
                  toy_lambda1=0.0, toy_lambda2=0.0)


class TestClassCounts:
    def test_single_count_expands_cold(self):
        cfg = RunConfig(num_tasks=5, classes_per_task="4")
        assert cfg.class_counts() == (4, 4, 4, 4, 4)

    def test_warm_split(self):
        cfg = RunConfig(num_tasks=6, classes_per_task="10", split_style="warm")
        assert cfg.class_counts() == (30, 6, 6, 6, 6, 6)

    def test_explicit_list(self):
        cfg = RunConfig(num_tasks=3, classes_per_task="5,3,2")
        assert cfg.class_counts() == (5, 3, 2)

    def test_list_length_mismatch(self):
        cfg = RunConfig(num_tasks=4, classes_per_task="5,3,2")
        with pytest.raises(ConfigError, match="num_tasks"):
            cfg.class_counts()

    def test_non_integer_rejected(self):
        cfg = RunConfig(classes_per_task="5,x")
        with pytest.raises(ConfigError, match="integers"):
            cfg.class_counts()

    def test_warm_split_that_does_not_divide_rejected(self):
        # 9 classes: 4 in the first task leave 5 for the other 2
        cfg = RunConfig(num_tasks=3, classes_per_task="3", split_style="warm")
        with pytest.raises(ConfigError, match="classes_per_task='3'"):
            cfg.class_counts()


class TestRoundTripAndHash:
    def test_write_load_round_trip(self, tmp_path):
        cfg = RunConfig(solver="gd_with_queue", queue_capacity=123, seed=9,
                        drift_kind="rotation", drift_magnitude=0.7,
                        classes_per_task="3,3,3", num_tasks=3)
        path = tmp_path / "run.cfg"
        write_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg
        assert loaded.config_hash() == cfg.config_hash()

    def test_hash_stable_and_sensitive(self):
        a = RunConfig()
        b = RunConfig()
        c = RunConfig(seed=1)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 16

    def test_replace_revalidates(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            cfg.replace(solver="bogus")
        assert cfg.replace(seed=7).seed == 7

    def test_scenario_requires_synthetic(self):
        cfg = RunConfig(source="toy")
        with pytest.raises(ConfigError):
            cfg.scenario()

    def test_scenario_fields_propagate(self):
        cfg = RunConfig(num_tasks=4, classes_per_task="2", dimension=8,
                        drift_kind="rotation", drift_magnitude=0.3, seed=11)
        scen = cfg.scenario()
        assert scen.num_tasks == 4
        assert scen.classes_per_task == (2, 2, 2, 2)
        assert scen.dimension == 8
        assert len(scen.drift_schedule) == 3
        assert scen.drift_schedule[0].kind == "rotation"
        assert scen.seed == 11
