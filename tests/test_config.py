"""Configuration loading tests: defaults, file, environment, overrides."""

from __future__ import annotations

import json
import math
import re

import pytest

from geolex.config import (
    ConfigError,
    PipelineConfig,
    apply_overrides,
    load_config,
)


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestDefaults:
    def test_no_file_gives_defaults(self):
        config = load_config(env={})
        assert config.raw_dir == "raw"
        assert config.dataset == "dataset.jsonl"
        assert config.cache_mode == "live"
        assert config.embed_provider == "local"
        assert config.embed_dim == 384
        assert config.concurrency == 4
        assert config.min_sim == -1.0
        assert (config.ref_lat, config.ref_lon) == (62.0, 15.0)
        assert config.bucket_km == 500.0

    def test_defaults_validate(self):
        PipelineConfig().validate()


class TestConfigFile:
    def test_file_overrides_defaults(self, tmp_path):
        path = write_config(
            tmp_path,
            {"raw_dir": "/data/raw", "cache_mode": "replay", "bucket_km": 250.0},
        )
        config = load_config(path, env={})
        assert config.raw_dir == "/data/raw"
        assert config.cache_mode == "replay"
        assert config.bucket_km == 250.0
        assert config.dataset == "dataset.jsonl"  # untouched keys keep defaults

    def test_unknown_key_fails_loudly(self, tmp_path):
        path = write_config(tmp_path, {"bucket_kms": 250.0})
        with pytest.raises(ConfigError, match="bucket_kms"):
            load_config(path, env={})

    def test_wrong_type_rejected(self, tmp_path):
        path = write_config(tmp_path, {"concurrency": "four"})
        with pytest.raises(ConfigError, match="concurrency"):
            load_config(path, env={})

    def test_int_accepted_for_float_field(self, tmp_path):
        path = write_config(tmp_path, {"bucket_km": 250})
        config = load_config(path, env={})
        assert config.bucket_km == 250.0
        assert isinstance(config.bucket_km, float)

    def test_bool_never_coerces(self, tmp_path):
        path = write_config(tmp_path, {"bucket_km": True})
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json", env={})

    def test_invalid_json_is_an_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path, env={})

    @pytest.mark.parametrize("content, message", [
        (b"\xe5", "invalid JSON: 'utf-8' codec can't decode byte 0xe5"),
        (b"[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
        (b"1" * 5000, "invalid JSON: Exceeds the limit"),
        (None, "cannot read: Is a directory"),
    ], ids=["latin1", "deep", "digits", "directory"])
    def test_unreadable_file_is_an_error_naming_it(self, tmp_path, content, message):
        path = tmp_path / "config.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
            load_config(path, env={})

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="flat JSON object"):
            load_config(path, env={})


class TestEnvironment:
    def test_env_beats_file(self, tmp_path):
        path = write_config(tmp_path, {"cache_mode": "live", "cache_dir": "from_file"})
        env = {"WD_CACHE_MODE": "replay", "WD_CACHE_DIR": "/from/env"}
        config = load_config(path, env=env)
        assert config.cache_mode == "replay"
        assert config.cache_dir == "/from/env"

    def test_embed_url_var(self):
        config = load_config(env={"EMBED_URL": "http://embed.test/v1"})
        assert config.embed_url == "http://embed.test/v1"

    def test_empty_env_value_ignored(self, tmp_path):
        path = write_config(tmp_path, {"cache_dir": "from_file"})
        config = load_config(path, env={"WD_CACHE_DIR": ""})
        assert config.cache_dir == "from_file"

    def test_env_values_are_validated(self):
        with pytest.raises(ConfigError, match="cache_mode"):
            load_config(env={"WD_CACHE_MODE": "offline"})


class TestOverrides:
    def test_flags_beat_everything(self, tmp_path):
        path = write_config(tmp_path, {"cache_mode": "live"})
        config = load_config(path, env={"WD_CACHE_MODE": "record"})
        final = apply_overrides(config, cache_mode="replay", cache_dir="/flags")
        assert final.cache_mode == "replay"
        assert final.cache_dir == "/flags"

    def test_none_means_not_given(self):
        config = load_config(env={})
        assert apply_overrides(config, cache_mode=None) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="cache_mood"):
            apply_overrides(load_config(env={}), cache_mood="replay")

    def test_overrides_are_validated(self):
        with pytest.raises(ConfigError):
            apply_overrides(load_config(env={}), concurrency=0)


class TestValidation:
    @pytest.mark.parametrize("field,value,fragment", [
        ("cache_mode", "offline", "cache_mode"),
        ("embed_provider", "openai", "embed_provider"),
        ("embed_provider", "remote", "embed_url"),  # and no embed_url
        ("embed_dim", 0, "embed_dim"),
        ("concurrency", 0, "concurrency"),
        ("rate_limit_s", -1.0, "rate_limit_s"),
        ("bucket_km", 0.0, "bucket_km"),
        ("ref_lat", 91.0, "ref_lat"),
        ("ref_lon", -181.0, "ref_lon"),
        ("ref_lat", math.nan, "ref_lat"),
        ("rate_limit_s", math.nan, "rate_limit_s"),
        ("rate_limit_s", math.inf, "rate_limit_s"),
        ("min_sim", math.nan, "min_sim"),
        ("min_sim", -math.inf, "min_sim"),
        ("bucket_km", math.inf, "bucket_km"),
        ("bucket_km", math.nan, "bucket_km"),
        ("map_width_px", 1601, "map_width_px"),
        ("map_width_px", 0, "map_width_px"),
        ("user_agent", "", "user_agent"),
        ("user_agent", "geolex \u03a9", "user_agent: user agent must be printable ASCII"),
        ("user_agent", "geolex\r\nX-Evil: 1", "user_agent: user agent must be printable ASCII"),
    ])
    def test_invalid_values_rejected(self, field, value, fragment):
        from dataclasses import replace

        config = replace(PipelineConfig(), **{field: value})
        with pytest.raises(ConfigError, match=fragment):
            config.validate()

    def test_config_is_immutable(self):
        config = PipelineConfig()
        with pytest.raises(Exception):
            config.cache_mode = "replay"  # type: ignore[misc]
