"""Command-line pipeline driver.

One subcommand per stage, plus ``run`` for the whole chain:

    ingest    raw page dumps -> entry dataset
    train     annotated entries -> classifier model
    classify  mark every entry location / non-location
    link      attach Wikidata items to location entries
    coords    fetch latitude/longitude for linked items
    report    GeoJSON + distance histogram + SVG map

Stages rewrite the dataset atomically and are idempotent: re-running a
stage on its own output produces byte-identical files.  Summaries go to
stdout as JSON lines followed by a small table; diagnostics go to
stderr.  Fatal errors exit with a stage-specific code: 1 config,
2 ingest, 3 train, 4 classify, 5 link, 6 coords, 7 report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import classifier, corpus, geo, linker
from .config import (
    CACHE_MODES,
    EMBED_PROVIDERS,
    ConfigError,
    PipelineConfig,
    apply_overrides,
    load_config,
)
from .embedding import EMBED_CHUNK, CachedEmbedder, HashedTrigramEmbedder, RemoteEmbedder
from .errors import DatasetError, ProtocolError, ReplayCacheMiss, TransportError
from .wikidata import WikidataClient, make_transport

STAGE_EXIT_CODES = {
    "config": 1,
    "ingest": 2,
    "train": 3,
    "classify": 4,
    "link": 5,
    "coords": 6,
    "report": 7,
}

PIPELINE_STAGES = ("ingest", "train", "classify", "link", "coords", "report")

# Command-line dest -> config field.
_FLAG_FIELDS = {
    "raw_dir": "raw_dir",
    "out": "dataset",
    "dataset": "dataset",
    "annotations": "annotations",
    "model": "model",
    "model_out": "model",
    "cache_mode": "cache_mode",
    "cache_dir": "cache_dir",
    "min_sim": "min_sim",
    "geojson": "geojson",
    "histogram": "histogram",
    "svg": "svg",
    "ref_lat": "ref_lat",
    "ref_lon": "ref_lon",
    "bucket_km": "bucket_km",
    "concurrency": "concurrency",
    "embed_provider": "embed_provider",
}


class StageError(Exception):
    """Fatal failure inside one pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage

    @property
    def exit_code(self) -> int:
        return STAGE_EXIT_CODES[self.stage]


@dataclass
class RunSummary:
    """Per-stage accounting printed after every command."""

    stage: str
    input_count: int
    output_count: int
    error_count: int
    wall_time_s: float
    ratios: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if min(self.input_count, self.output_count, self.error_count) < 0:
            raise ValueError("summary counts must be non-negative")
        if self.wall_time_s < 0:
            raise ValueError("wall time must be non-negative")
        for name, value in self.ratios.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"ratio {name}={value} outside [0, 1]")

    def to_json(self) -> str:
        return json.dumps(
            {
                "stage": self.stage,
                "input_count": self.input_count,
                "output_count": self.output_count,
                "error_count": self.error_count,
                "wall_time_s": round(self.wall_time_s, 3),
                "ratios": {k: round(v, 4) for k, v in self.ratios.items()},
            },
            ensure_ascii=False,
        )


# ── Shared plumbing ──────────────────────────────────────────────────────


def _fail(stage: str, err: Exception) -> StageError:
    return StageError(stage, str(err))


def _load_entries(path: str, stage: str) -> list[corpus.Entry]:
    try:
        return corpus.load_dataset(path)
    except FileNotFoundError:
        raise StageError(stage, f"dataset not found: {path}") from None
    except (DatasetError, OSError) as err:
        raise _fail(stage, err) from err


def _save_entries(entries, path: str, stage: str) -> None:
    try:
        corpus.save_dataset(entries, path)
    except (DatasetError, OSError) as err:
        raise _fail(stage, err) from err


def _load_model(path: str, stage: str) -> classifier.LogisticModel:
    try:
        return classifier.load_model(path)
    except FileNotFoundError:
        raise StageError(stage, f"model not found: {path}") from None
    except (DatasetError, OSError) as err:
        raise _fail(stage, err) from err


def _build_provider(config: PipelineConfig, stage: str):
    try:
        if config.embed_provider == "local":
            provider = HashedTrigramEmbedder(dim=config.embed_dim)
        else:
            provider = RemoteEmbedder(
                url=config.embed_url or None,
                dim=config.embed_dim,
                max_in_flight=config.concurrency,
            )
        if config.embed_cache:
            provider = CachedEmbedder(provider, config.embed_cache)
        return provider
    except (ValueError, ProtocolError, OSError) as err:
        raise _fail(stage, err) from err


def _build_client(config: PipelineConfig, stage: str) -> WikidataClient:
    try:
        transport = make_transport(
            config.cache_mode,
            cache_dir=config.cache_dir or None,
            user_agent=config.user_agent,
            min_interval=config.rate_limit_s,
        )
        return WikidataClient(
            transport,
            api_url=config.wikidata_api_url,
            sparql_url=config.wikidata_sparql_url,
            max_in_flight=config.concurrency,
        )
    except ValueError as err:
        raise _fail(stage, err) from err


def _embed_definitions(provider, texts: list[str], stage: str) -> list:
    try:
        return provider.embed_batch(texts)
    except (TransportError, ProtocolError) as err:
        raise _fail(stage, err) from err


def _atomic_write_text(path: str, text: str, stage: str) -> None:
    try:
        with corpus.atomic_writer(path) as handle:
            handle.write(text)
    except OSError as err:
        raise _fail(stage, err) from err


# ── Stages ───────────────────────────────────────────────────────────────


def stage_ingest(config: PipelineConfig) -> RunSummary:
    started = time.perf_counter()
    try:
        pages = corpus.read_raw_pages(config.raw_dir)
    except (FileNotFoundError, ValueError, OSError) as err:
        raise _fail("ingest", err) from err
    if not pages:
        raise StageError("ingest", f"no raw pages found under {config.raw_dir}")
    try:
        entries = corpus.segment_pages(pages)
    except ValueError as err:
        raise _fail("ingest", err) from err
    _save_entries(entries, config.dataset, "ingest")
    return RunSummary(
        "ingest", len(pages), len(entries), 0, time.perf_counter() - started
    )


def stage_train(config: PipelineConfig) -> RunSummary:
    started = time.perf_counter()
    entries = _load_entries(config.dataset, "train")
    try:
        annotations = classifier.load_annotations(config.annotations)
    except FileNotFoundError:
        raise StageError("train", f"annotations not found: {config.annotations}") from None
    except (DatasetError, OSError) as err:
        raise _fail("train", err) from err
    if not annotations:
        raise StageError("train", f"no annotations in {config.annotations}")
    by_id = {entry.id: entry for entry in entries}
    for entry_id, _ in annotations:
        if entry_id not in by_id:
            raise StageError("train", f"annotation for unknown entry {entry_id!r}")
    provider = _build_provider(config, "train")
    vectors = _embed_definitions(
        provider, [by_id[entry_id].definition for entry_id, _ in annotations], "train"
    )
    labels = [label for _, label in annotations]
    try:
        model = classifier.train(list(zip(vectors, labels)))
        classifier.save_model(model, config.model)
    except (ValueError, OSError) as err:
        raise _fail("train", err) from err
    return RunSummary(
        "train",
        len(annotations),
        1,
        0,
        time.perf_counter() - started,
        {"positive_fraction": sum(labels) / len(labels)},
    )


def _classify_chunk(model, provider, chunk: list[corpus.Entry]) -> int:
    """Set ``is_location`` on every entry of ``chunk``; returns how many
    are locations.  The chunk's vectors are freed on return."""
    vectors = _embed_definitions(provider, [e.definition for e in chunk], "classify")
    for entry, vector in zip(chunk, vectors):
        entry.is_location = classifier.classify(model, vector)
    return sum(entry.is_location for entry in chunk)


def stage_classify(config: PipelineConfig) -> RunSummary:
    started = time.perf_counter()
    entries = _load_entries(config.dataset, "classify")
    model = _load_model(config.model, "classify")
    provider = _build_provider(config, "classify")
    if model.dim != provider.dim:
        raise StageError(
            "classify",
            f"model expects {model.dim}-dim vectors, provider yields {provider.dim}",
        )
    located = sum(
        _classify_chunk(model, provider, entries[start : start + EMBED_CHUNK])
        for start in range(0, len(entries), EMBED_CHUNK)
    )
    _save_entries(entries, config.dataset, "classify")
    ratios = {"location_fraction": located / len(entries)} if entries else {}
    return RunSummary(
        "classify", len(entries), len(entries), 0,
        time.perf_counter() - started, ratios,
    )


def stage_link(config: PipelineConfig) -> RunSummary:
    started = time.perf_counter()
    entries = _load_entries(config.dataset, "link")
    provider = _build_provider(config, "link")

    # Entries never run through classify can still be linked when a
    # model is available: they get classified in memory, the stored
    # records keep their missing flag.
    transient: dict[str, bool] = {}
    unclassified = [e for e in entries if e.is_location is None]
    if unclassified:
        if Path(config.model).exists():
            model = _load_model(config.model, "link")
            vectors = _embed_definitions(
                provider, [e.definition for e in unclassified], "link"
            )
            for entry, vector in zip(unclassified, vectors):
                transient[entry.id] = classifier.classify(model, vector)
            print(
                f"link: classified {len(unclassified)} unlabeled entries in memory",
                file=sys.stderr,
            )
        else:
            raise StageError(
                "link",
                "dataset has entries without is_location; run classify first "
                f"or provide a model at {config.model}",
            )

    locations = [
        e
        for e in entries
        if (e.is_location if e.is_location is not None else transient[e.id])
    ]
    client = _build_client(config, "link")
    results = linker.link_batch(
        locations,
        provider,
        client,
        min_similarity=config.min_sim,
        workers=config.concurrency,
    )
    failures = [r for r in results if r.error]
    for result in failures:
        print(f"link: entry {result.entry_id}: {result.error}", file=sys.stderr)
    # A replay cache that cannot answer is a broken fixture, and a batch
    # with zero successes is a dead service; both are fatal.  Scattered
    # live failures only cost those entries their link.
    if failures and (config.cache_mode == "replay" or len(failures) == len(results)):
        raise StageError(
            "link", f"{len(failures)} of {len(results)} entries failed to link"
        )
    # A failed entry keeps its previous link.  A decided "no link"
    # clears it, and coordinates go with a changed item.
    linked = 0
    for entry, result in zip(locations, results):
        if result.error:
            continue
        if result.chosen != entry.qid:
            entry.lat = entry.lon = None
        entry.qid = result.chosen
        entry.similarity = result.similarity if result.chosen is not None else None
        linked += result.chosen is not None
    _save_entries(entries, config.dataset, "link")
    ratios = {"linked_fraction": linked / len(locations)} if locations else {}
    return RunSummary(
        "link", len(locations), linked, len(failures),
        time.perf_counter() - started, ratios,
    )


def stage_coords(config: PipelineConfig) -> RunSummary:
    started = time.perf_counter()
    entries = _load_entries(config.dataset, "coords")
    linked = [e for e in entries if e.qid is not None]
    pending = [e for e in linked if e.lat is None or e.lon is None]
    fetched = 0
    skipped_rows = 0
    if pending:
        client = _build_client(config, "coords")
        try:
            records = client.fetch_coordinates([e.qid for e in pending])
        except (TransportError, ProtocolError, ReplayCacheMiss, ValueError) as err:
            raise _fail("coords", err) from err
        skipped_rows = client.warnings
        by_qid = {record.qid: record for record in records}
        for entry in pending:
            record = by_qid.get(entry.qid)
            if record is not None:
                entry.lat = record.lat
                entry.lon = record.lon
                fetched += 1
    _save_entries(entries, config.dataset, "coords")
    geocoded = sum(1 for e in linked if e.lat is not None)
    ratios = {"geocoded_fraction": geocoded / len(linked)} if linked else {}
    return RunSummary(
        "coords", len(pending), fetched, skipped_rows,
        time.perf_counter() - started, ratios,
    )


def stage_report(config: PipelineConfig) -> RunSummary:
    started = time.perf_counter()
    entries = _load_entries(config.dataset, "report")
    places = []
    try:
        for entry in entries:
            # Only an explicit False excludes: entries linked without a
            # stored classification keep is_location None.
            if entry.is_location is False:
                continue
            if entry.qid is None or entry.lat is None or entry.lon is None:
                continue
            places.append(
                geo.LinkedPlace(
                    entry_id=entry.id,
                    headword=entry.headword,
                    qid=entry.qid,
                    point=geo.GeoPoint(entry.lat, entry.lon),
                    similarity=entry.similarity or 0.0,
                )
            )
        reference = geo.GeoPoint(config.ref_lat, config.ref_lon)
        histogram = geo.distance_histogram(
            [place.point for place in places], reference, config.bucket_km
        )
        svg = geo.render_svg_map(places, config.map_width_px)
    except ValueError as err:
        raise _fail("report", err) from err
    _atomic_write_text(config.geojson, geo.geojson_dumps(geo.to_geojson(places)), "report")
    _atomic_write_text(config.histogram, histogram.to_csv(), "report")
    _atomic_write_text(config.svg, svg, "report")
    print(
        f"report: histogram reference ({config.ref_lat}, {config.ref_lon}), "
        f"bucket {config.bucket_km} km",
        file=sys.stderr,
    )
    ratios = {"plotted_fraction": len(places) / len(entries)} if entries else {}
    return RunSummary(
        "report", len(entries), len(places), 0,
        time.perf_counter() - started, ratios,
    )


STAGE_RUNNERS = {
    "ingest": stage_ingest,
    "train": stage_train,
    "classify": stage_classify,
    "link": stage_link,
    "coords": stage_coords,
    "report": stage_report,
}


# ── Argument parsing and entry point ─────────────────────────────────────


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geolex",
        description="Encyclopedia OCR text to geocoded gazetteer pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat JSON config file")
    common.add_argument("--concurrency", type=int, help="max concurrent requests")
    common.add_argument(
        "--embed-provider", choices=list(EMBED_PROVIDERS), dest="embed_provider"
    )

    p = sub.add_parser("ingest", parents=[common], help="segment raw pages into a dataset")
    p.add_argument("--raw-dir", dest="raw_dir", help="directory of <volume>/<page>.txt files")
    p.add_argument("--out", dest="out", help="dataset file to write")

    p = sub.add_parser("train", parents=[common], help="train the location classifier")
    p.add_argument("--dataset")
    p.add_argument("--annotations", help="JSON lines of {entry_id, is_location}")
    p.add_argument("--model-out", dest="model_out", help="model file to write")

    p = sub.add_parser("classify", parents=[common], help="mark entries location / non-location")
    p.add_argument("--dataset")
    p.add_argument("--model")
    p.add_argument(
        "--in-place",
        action="store_true",
        help="rewrite the dataset in place (the only supported mode; "
        "accepted for explicitness)",
    )

    p = sub.add_parser("link", parents=[common], help="link location entries to Wikidata items")
    p.add_argument("--dataset")
    p.add_argument("--model", help="classifier for entries that never ran through classify")
    p.add_argument("--cache-mode", choices=list(CACHE_MODES), dest="cache_mode")
    p.add_argument("--cache-dir", dest="cache_dir")
    p.add_argument("--min-sim", type=float, dest="min_sim",
                   help="drop links below this similarity (default -1: keep all)")

    p = sub.add_parser("coords", parents=[common], help="fetch coordinates for linked items")
    p.add_argument("--dataset")
    p.add_argument("--cache-mode", choices=list(CACHE_MODES), dest="cache_mode")
    p.add_argument("--cache-dir", dest="cache_dir")

    p = sub.add_parser("report", parents=[common], help="write GeoJSON, histogram, SVG map")
    p.add_argument("--dataset")
    p.add_argument("--geojson")
    p.add_argument("--histogram")
    p.add_argument("--svg")
    p.add_argument("--ref-lat", type=float, dest="ref_lat")
    p.add_argument("--ref-lon", type=float, dest="ref_lon")
    p.add_argument("--bucket-km", type=float, dest="bucket_km")

    p = sub.add_parser("run", parents=[common], help="run every stage in order")
    p.add_argument("--raw-dir", dest="raw_dir")
    p.add_argument("--dataset")
    p.add_argument("--annotations")
    p.add_argument("--model")
    p.add_argument("--cache-mode", choices=list(CACHE_MODES), dest="cache_mode")
    p.add_argument("--cache-dir", dest="cache_dir")
    p.add_argument("--min-sim", type=float, dest="min_sim")

    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(getattr(args, "config", None))
    overrides = {}
    for dest, field_name in _FLAG_FIELDS.items():
        value = getattr(args, dest, None)
        if value is not None:
            overrides[field_name] = value
    return apply_overrides(config, **overrides)


def _stages_for(command: str, config: PipelineConfig) -> list[str]:
    if command != "run":
        return [command]
    stages = list(PIPELINE_STAGES)
    if not Path(config.annotations).exists() and Path(config.model).exists():
        print(
            f"run: no annotations at {config.annotations}; "
            f"reusing model {config.model}",
            file=sys.stderr,
        )
        stages.remove("train")
    return stages


def _emit(summaries: list[RunSummary]) -> None:
    if not summaries:
        return
    for summary in summaries:
        print(summary.to_json())
    print(f"{'stage':<10}{'in':>8}{'out':>8}{'err':>6}{'secs':>10}")
    for summary in summaries:
        print(
            f"{summary.stage:<10}{summary.input_count:>8}"
            f"{summary.output_count:>8}{summary.error_count:>6}"
            f"{summary.wall_time_s:>10.3f}"
        )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as err:
        print(f"config: {err}", file=sys.stderr)
        return STAGE_EXIT_CODES["config"]
    summaries: list[RunSummary] = []
    try:
        for stage_name in _stages_for(args.command, config):
            summaries.append(STAGE_RUNNERS[stage_name](config))
    except StageError as err:
        _emit(summaries)
        print(f"{err.stage}: {err}", file=sys.stderr)
        return err.exit_code
    _emit(summaries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
