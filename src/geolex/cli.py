"""Command-line pipeline driver.

One subcommand per stage, plus ``run`` for the whole chain:

    ingest    raw page dumps -> entry dataset
    train     annotated entries -> classifier model
    classify  mark every entry location / non-location
    link      attach Wikidata items to the entries classify marked
    coords    fetch latitude/longitude for linked items
    report    GeoJSON + distance histogram + SVG map

``main`` makes one ``Command`` per invocation and passes it to every
stage; it builds the entries, the embedding provider and the Wikidata
client once, on first use.  A command that starts with ``ingest``
(``ingest`` itself and ``run``) keeps the entries ingest made and never
reads the dataset; any other command reads it once, in its first stage.
Each ``raw_text`` waits in ``Command.spill``, a file beside the dataset.
Only ``classify`` runs the model and sets ``is_location``; ``link``
reads the stored flags, so only a location ever carries a ``qid``.
``main`` writes the dataset once, atomically, when the stages end, if
``ingest``, ``classify``, ``link`` or ``coords`` ran; a failed stage
leaves the entries as it found them, so a failed ``run`` writes what
the stages before it made.  Stages are idempotent: re-running a stage
on its own output produces byte-identical files.
Summaries go to stdout as JSON lines followed by a small table;
diagnostics go to stderr.

Errors have one boundary, the stage loop in ``main``.  Stages raise;
a ``StageError``, ``DatasetError``, ``TransportError``,
``ProtocolError``, ``ReplayCacheMiss``, ``OSError`` or ``ValueError``
ends the run with the failing stage's exit code (1 config, 2 ingest,
3 train, 4 classify, 5 link, 6 coords, 7 report) after the summaries
of the stages that finished.  A dataset write that fails ends it with
the code of the stage whose changes it writes.  Any other exception
is a bug and propagates with its traceback, writing nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import operator
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, Iterator

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
from .wikidata import ReplayTransport, WikidataClient, make_transport

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

# Stages that change entries; a command that ran one saves the dataset.
_CHANGES_DATASET = frozenset({"ingest", "classify", "link", "coords"})

# The buffer of the spill file: the raw texts go to disk, and come
# back for the dataset write, in blocks of this many bytes.  A 1 MiB
# buffer saved few more system calls and raised the peak RSS by 1 MB.
SPILL_BUFFER = 1 << 16


class StageError(Exception):
    """A failure a stage detects itself; ``main`` supplies the stage."""


# What a stage may raise to fail the run with its exit code.  Anything
# else is a bug and keeps its traceback.
STAGE_FAILURES = (
    StageError, DatasetError, TransportError, ProtocolError, ReplayCacheMiss,
    OSError, ValueError,
)


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


@dataclass
class Command:
    """One CLI invocation.  Its parts are built on first use and kept;
    ``cleanup`` closes the spill and the replay log after the dataset
    write."""

    config: PipelineConfig
    cleanup: contextlib.ExitStack = field(default_factory=contextlib.ExitStack)

    @functools.cached_property
    def spill(self) -> IO[bytes]:
        """The unnamed file beside the dataset that holds each raw_text:
        not memory, nor a temporary directory that may be memory."""
        return self.cleanup.enter_context(tempfile.TemporaryFile(
            dir=Path(self.config.dataset).parent, buffering=SPILL_BUFFER))

    @functools.cached_property
    def entries(self) -> list[corpus.Entry]:
        os.stat(self.config.dataset)  # a missing dataset, not its directory, is named
        return corpus.load_dataset(self.config.dataset, self.spill)

    @functools.cached_property
    def provider(self):
        config = self.config
        if config.embed_provider == "local":
            provider = HashedTrigramEmbedder(dim=config.embed_dim)
        else:
            provider = RemoteEmbedder(config.embed_url, dim=config.embed_dim)
        if config.embed_cache:
            provider = CachedEmbedder(provider, config.embed_cache)
        return provider

    @functools.cached_property
    def client(self) -> WikidataClient:
        config = self.config
        transport = make_transport(config.cache_mode, cache_dir=config.cache_dir,
                                   user_agent=config.user_agent,
                                   min_interval=config.rate_limit_s)
        if isinstance(transport, ReplayTransport):
            self.cleanup.callback(transport.close)
        return WikidataClient(transport, api_url=config.wikidata_api_url,
                              sparql_url=config.wikidata_sparql_url)


# ── Stages ───────────────────────────────────────────────────────────────
# Each takes the command, reads its entries first (ingest makes them),
# updates them in place and returns its input, output and error counts,
# then its ratios.  A stage computes before it changes an entry, so one
# that raises leaves the entries as it found them.

Counts = tuple[int, int, int, dict[str, float]]


def stage_ingest(command: Command) -> Counts:
    config = command.config
    pages = corpus.read_raw_pages(config.raw_dir)
    read = 0

    def counted() -> Iterator[corpus.RawPage]:
        nonlocal read
        for page in pages:
            read += 1
            yield page

    segmented = corpus.segment_pages(counted(), spill=command.spill)
    if not read:
        raise StageError(f"no raw pages found under {config.raw_dir}")
    command.entries = segmented
    return read, len(segmented), 0, {}


def stage_train(command: Command) -> Counts:
    entries, config = command.entries, command.config
    annotations = classifier.load_annotations(config.annotations)
    if not annotations:
        raise StageError(f"no annotations in {config.annotations}")
    by_id = {entry.id: entry for entry in entries}
    for entry_id, _ in annotations:
        if entry_id not in by_id:
            raise StageError(f"annotation for unknown entry {entry_id!r}")
    features = command.provider.embed_batch(
        [by_id[entry_id].definition for entry_id, _ in annotations]
    )
    labels = [label for _, label in annotations]
    model = classifier.train(features, labels)
    classifier.save_model(model, config.model)
    # Training-set quality: an under-trained model shows up here.
    fit = classifier.evaluate(model, features, labels)
    return len(annotations), 1, 0, {
        "positive_fraction": sum(labels) / len(labels),
        "train_accuracy": fit.accuracy,
        "train_precision": fit.precision,
        "train_recall": fit.recall,
        "train_f1": fit.f1,
    }


def stage_classify(command: Command) -> Counts:
    """Set every entry's location flag from the model.  Definitions go
    to the provider ``EMBED_CHUNK`` (256) at a time, and each chunk's
    vectors are freed before the next chunk is embedded.  No flag
    depends on the chunk size: each score is one ``weights . vector``."""
    entries, provider = command.entries, command.provider
    model = classifier.load_model(command.config.model)
    if model.dim != provider.dim:
        raise StageError(
            f"model expects {model.dim}-dim vectors, provider yields {provider.dim}"
        )
    flags: list[bool] = []
    for start in range(0, len(entries), EMBED_CHUNK):
        definitions = [e.definition for e in entries[start : start + EMBED_CHUNK]]
        # No name keeps the vectors, so they are freed before the next call.
        flags += classifier.classify_batch(model, provider.embed_batch(definitions))
    for entry, is_location in zip(entries, flags):
        entry.is_location = is_location
        # Only a location may carry a link.
        if not is_location:
            entry.qid = entry.similarity = entry.lat = entry.lon = None
    ratios = {"location_fraction": sum(flags) / len(entries)} if entries else {}
    return len(entries), len(entries), 0, ratios


def stage_link(command: Command) -> Counts:
    """Link the entries classify marked as locations; an entry it never
    marked fails the stage before the provider or the client is built."""
    entries, config = command.entries, command.config
    if any(e.is_location is None for e in entries):
        raise StageError("dataset has entries without is_location; run classify first")
    locations = [e for e in entries if e.is_location]
    # Replay waits on no network, so threads would only contend for the
    # GIL; link runs on this thread there.
    results = linker.link_batch(
        locations,
        command.provider,
        command.client,
        min_similarity=config.min_sim,
        workers=1 if config.cache_mode == "replay" else config.concurrency,
    )
    failures = [r for r in results if r.error]
    for result in failures:
        print(f"link: entry {result.entry_id}: {result.error}", file=sys.stderr)
    # A replay cache that cannot answer is a broken fixture, and a batch
    # with zero successes is a dead service; both are fatal.  Scattered
    # live failures only cost those entries their link.
    if failures and (config.cache_mode == "replay" or len(failures) == len(results)):
        raise StageError(f"{len(failures)} of {len(results)} entries failed to link")
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
    ratios = {"linked_fraction": linked / len(locations)} if locations else {}
    return len(locations), linked, len(failures), ratios


def stage_coords(command: Command) -> Counts:
    linked = [e for e in command.entries if e.qid is not None]
    pending = [e for e in linked if e.lat is None or e.lon is None]
    fetched = skipped_rows = 0
    if pending:
        points = command.client.fetch_coordinates([e.qid for e in pending])
        skipped_rows = command.client.warnings
        for entry in pending:
            point = points.get(entry.qid)
            if point is not None:
                entry.lat, entry.lon = point.lat, point.lon
                fetched += 1
    geocoded = sum(1 for e in linked if e.lat is not None)
    ratios = {"geocoded_fraction": geocoded / len(linked)} if linked else {}
    return len(pending), fetched, skipped_rows, ratios


def stage_report(command: Command) -> Counts:
    """Write the GeoJSON, the histogram and the SVG map of the plotted
    entries: those marked as locations that have a ``qid`` and
    coordinates.  Every plotted entry's coordinates are checked, and
    the histogram counted, before any artifact is opened.  The GeoJSON
    features and the SVG circles are then written one entry at a time,
    in entry-id order.  Each artifact goes to its temporary file, and
    none replaces its target until all three are written."""
    entries, config = command.entries, command.config
    places: list[corpus.Entry] = []

    def checked_points() -> Iterator[geo.GeoPoint]:
        # Consumed by the histogram, which comes before any write.
        for entry in entries:
            if not entry.is_location or entry.qid is None or entry.lat is None or entry.lon is None:
                continue
            try:
                point = geo.GeoPoint(entry.lat, entry.lon)
            except ValueError as err:
                raise StageError(f"entry {entry.id!r}: {err}") from None
            places.append(entry)
            yield point

    reference = geo.GeoPoint(config.ref_lat, config.ref_lon)
    histogram = geo.distance_histogram(checked_points(), reference, config.bucket_km)
    places.sort(key=operator.attrgetter("id"))
    artifacts = (
        (config.geojson, lambda out: geo.geojson_dumps(geo.to_geojson(places), out)),
        (config.histogram, lambda out: out.write(histogram.to_csv())),
        (config.svg, lambda out: geo.render_svg_map(places, out, config.map_width_px)),
    )
    with contextlib.ExitStack() as replace_when_all_written:
        for path, write in artifacts:
            try:
                out = replace_when_all_written.enter_context(corpus.atomic_writer(path))
                write(out)
                out.flush()  # a full disk fails here, before any replace
            except OSError as err:
                raise StageError(f"cannot write {path}: {err.strerror or err}") from err
    print(
        f"report: histogram reference ({config.ref_lat}, {config.ref_lon}), "
        f"bucket {config.bucket_km} km",
        file=sys.stderr,
    )
    ratios = {"plotted_fraction": len(places) / len(entries)} if entries else {}
    return len(entries), len(places), 0, ratios


def _run_stage(name: str, stage, command: Command) -> RunSummary:
    """Run one stage, timed with what it builds first: the dataset load too."""
    started = time.perf_counter()
    inputs, outputs, errors, ratios = stage(command)
    return RunSummary(name, inputs, outputs, errors, time.perf_counter() - started, ratios)


# Stage name -> ``(command) -> RunSummary``.
STAGE_RUNNERS = {
    name: functools.partial(_run_stage, name, stage)
    for name, stage in zip(PIPELINE_STAGES, (
        stage_ingest, stage_train, stage_classify, stage_link, stage_coords, stage_report,
    ), strict=True)
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
    common.add_argument(
        "--concurrency",
        type=int,
        help="max requests link keeps in flight in live and record modes "
        "(replay links on one thread)",
    )
    common.add_argument(
        "--embed-provider", choices=list(EMBED_PROVIDERS), dest="embed_provider"
    )

    p = sub.add_parser("ingest", parents=[common], help="segment raw pages into a dataset")
    p.add_argument("--raw-dir", dest="raw_dir", help="directory of <volume>/<page>.txt files")
    p.add_argument("--out", dest="dataset", metavar="OUT", help="dataset file to write")

    p = sub.add_parser("train", parents=[common], help="train the location classifier")
    p.add_argument("--dataset")
    p.add_argument("--annotations", help="JSON lines of {entry_id, is_location}")
    p.add_argument(
        "--model-out", dest="model", metavar="MODEL_OUT", help="model file to write"
    )

    p = sub.add_parser("classify", parents=[common], help="mark entries location / non-location")
    p.add_argument("--dataset")
    p.add_argument("--model")

    p = sub.add_parser("link", parents=[common], help="link location entries to Wikidata items")
    p.add_argument("--dataset")
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
    config = load_config(args.config)
    names = {f.name for f in fields(PipelineConfig)}
    return apply_overrides(
        config, **{k: v for k, v in vars(args).items() if k in names}
    )


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


def _describe(err: Exception, config: PipelineConfig) -> str:
    """The stderr message for a stage failure."""
    inputs = {config.dataset: "dataset", config.model: "model", config.annotations: "annotations"}
    if isinstance(err, FileNotFoundError) and err.filename in inputs:
        return f"{inputs[err.filename]} not found: {err.filename}"
    return str(err)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as err:
        print(f"config: {err}", file=sys.stderr)
        return STAGE_EXIT_CODES["config"]
    stages = _stages_for(args.command, config)
    summaries: list[RunSummary] = []
    failures: list[tuple[str, Exception]] = []
    command = Command(config)
    with command.cleanup:
        for name in stages:
            try:
                summaries.append(STAGE_RUNNERS[name](command))
            except STAGE_FAILURES as err:
                failures.append((name, err))
                break
        # The one write holds the changes of the last stage that made
        # any, and is timed and fails as part of that stage.
        changed = next((s for s in reversed(summaries) if s.stage in _CHANGES_DATASET), None)
        if changed is not None:
            started = time.perf_counter()
            try:
                corpus.save_dataset(command.entries, config.dataset)
            except STAGE_FAILURES as err:
                failures.append((changed.stage, err))
            changed.wall_time_s += time.perf_counter() - started
    _emit(summaries)
    for name, err in failures:
        print(f"{name}: {_describe(err, config)}", file=sys.stderr)
    return STAGE_EXIT_CODES[failures[0][0]] if failures else 0


if __name__ == "__main__":
    sys.exit(main())
