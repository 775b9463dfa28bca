"""Pipeline configuration.

One flat JSON object on disk, every key optional.  Precedence, lowest
to highest: built-in defaults, config file, environment variables
(``EMBED_URL``, ``WD_CACHE_MODE``, ``WD_CACHE_DIR``), command-line
flags.  Unknown config keys are an error — typos should fail loudly,
not silently run with defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .corpus import read_json
from .embedding import DEFAULT_DIM
from .geo import DEFAULT_BUCKET_KM, DEFAULT_MAP_WIDTH_PX, GeoPoint, check_map_width
from .linker import NO_MIN_SIMILARITY
from .wikidata import (
    DEFAULT_API_URL,
    DEFAULT_MIN_INTERVAL_S,
    DEFAULT_SPARQL_URL,
    DEFAULT_USER_AGENT,
    check_user_agent,
)

CACHE_MODES = ("live", "record", "replay")
EMBED_PROVIDERS = ("local", "remote")

_ENV_OVERRIDES = {
    "EMBED_URL": "embed_url",
    "WD_CACHE_MODE": "cache_mode",
    "WD_CACHE_DIR": "cache_dir",
}


class ConfigError(ValueError):
    """Bad configuration: unknown key, wrong type, or invalid value."""


@dataclass(frozen=True)
class PipelineConfig:
    # Files and directories.
    raw_dir: str = "raw"
    dataset: str = "dataset.jsonl"
    annotations: str = "annotations.jsonl"
    model: str = "model.json"
    geojson: str = "places.geojson"
    histogram: str = "distance_histogram.csv"
    svg: str = "map.svg"
    # Embeddings.
    embed_provider: str = "local"
    embed_dim: int = DEFAULT_DIM
    embed_url: str = ""
    embed_cache: str = ""  # optional on-disk embedding cache file
    # Wikidata access.
    wikidata_api_url: str = DEFAULT_API_URL
    wikidata_sparql_url: str = DEFAULT_SPARQL_URL
    cache_mode: str = "live"
    cache_dir: str = "wd_cache"
    user_agent: str = DEFAULT_USER_AGENT
    rate_limit_s: float = DEFAULT_MIN_INTERVAL_S
    concurrency: int = 4
    # Linking.
    min_sim: float = NO_MIN_SIMILARITY
    # Reporting.  Reference point for the distance histogram; the
    # default sits near the centroid of Sweden.
    ref_lat: float = 62.0
    ref_lon: float = 15.0
    bucket_km: float = DEFAULT_BUCKET_KM
    map_width_px: int = DEFAULT_MAP_WIDTH_PX

    def validate(self) -> "PipelineConfig":
        if self.cache_mode not in CACHE_MODES:
            raise ConfigError(
                f"cache_mode must be one of {CACHE_MODES}, got {self.cache_mode!r}"
            )
        if self.cache_mode != "live" and not self.cache_dir:
            raise ConfigError(f'cache_mode "{self.cache_mode}" needs a cache_dir')
        if self.embed_provider not in EMBED_PROVIDERS:
            raise ConfigError(
                f"embed_provider must be one of {EMBED_PROVIDERS}, "
                f"got {self.embed_provider!r}"
            )
        if self.embed_provider == "remote" and not self.embed_url:
            raise ConfigError(
                'embed_provider "remote" needs a service URL: set embed_url or EMBED_URL'
            )
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.concurrency < 1:
            raise ConfigError(f"concurrency must be >= 1, got {self.concurrency}")
        # NaN passes every comparison below, so it is rejected first.
        for name in ("rate_limit_s", "min_sim", "bucket_km"):
            if not math.isfinite(value := getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.rate_limit_s < 0:
            raise ConfigError(f"rate_limit_s must be >= 0, got {self.rate_limit_s}")
        if self.bucket_km <= 0:
            raise ConfigError(f"bucket_km must be positive, got {self.bucket_km}")
        for name, check in (
            (f"ref_lat={self.ref_lat}, ref_lon={self.ref_lon}",
             lambda: GeoPoint(self.ref_lat, self.ref_lon)),
            ("map_width_px", lambda: check_map_width(self.map_width_px)),
            ("user_agent", lambda: check_user_agent(self.user_agent)),
        ):
            try:
                check()
            except ValueError as err:
                raise ConfigError(f"{name}: {err}") from None
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _coerce(name: str, value, target_type) -> object:
    # Config files may carry ints where floats are expected; anything
    # else must already have the right type.
    if target_type == "float" and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    expected = {"str": str, "int": int, "float": float}[target_type]
    if not isinstance(value, expected) or isinstance(value, bool):
        raise ConfigError(
            f"config key {name!r} must be {target_type}, got {type(value).__name__}"
        )
    return value


def load_config(
    path: str | os.PathLike[str] | None = None,
    env: dict[str, str] | None = None,
) -> PipelineConfig:
    """Defaults, then the config file (if any), then the environment."""
    config = PipelineConfig()
    if path is not None:
        file_path = Path(path)
        try:
            raw = read_json(file_path, ConfigError, f"{file_path}: invalid JSON")
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {file_path}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{file_path}: config must be a flat JSON object")
        overrides = {}
        for name, value in raw.items():
            if name not in _FIELD_TYPES:
                raise ConfigError(f"{file_path}: unknown config key {name!r}")
            overrides[name] = _coerce(name, value, _FIELD_TYPES[name])
        config = replace(config, **overrides)
    env = os.environ if env is None else env
    return replace(config, **{
        field_name: env[var] for var, field_name in _ENV_OVERRIDES.items() if env.get(var)
    }).validate()


def apply_overrides(config: PipelineConfig, **overrides) -> PipelineConfig:
    """Apply non-None keyword overrides (the CLI flag layer)."""
    actual = {k: v for k, v in overrides.items() if v is not None}
    for name in actual:
        if name not in _FIELD_TYPES:
            raise ConfigError(f"unknown config field {name!r}")
    return replace(config, **actual).validate()
