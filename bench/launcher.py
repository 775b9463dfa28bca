"""Traced launcher: run ``geolex.cli.main`` with timing wrappers.

    python3 bench/launcher.py SPANS.json run --config CONFIG

Before calling ``main`` it replaces the public functions of each
``geolex`` module listed in ``_install`` with wrappers that record a
span (name, start, end, parent, thread) in memory.  Each thread keeps
its own stack of open spans; a span opened on a thread with an empty
stack (a link pool worker) takes the main thread's innermost open span
as its parent.  The spans are written to ``SPANS.json`` when ``main``
returns, and the exit code is ``main``'s.

``layer_metrics`` turns a spans file into the per-layer metrics.  The
program's own code is not changed: every span is taken from outside,
at a call into a module.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

STAGES = ("ingest", "train", "classify", "link", "coords", "report")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[tuple[int, str]]] = {}
        self._main = threading.get_ident()
        self.texts: set[int] = set()  # hashes of embedded texts
        self.qids: set[str] = set()  # QIDs asked for descriptions

    def _stack(self) -> list[tuple[int, str]]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def wrap(self, fn, name: str, note=None, group: str | None = None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``note(args, kwargs, result)`` returns counts to store on the
        span.  A call made while a span of the same ``group`` is open
        on the thread (``embed`` inside ``embed_batch``) is passed
        through unrecorded, so only outermost calls count.
        """
        group = group or name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == group:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][0]
            else:
                main_stack = self._stacks.get(self._main)
                parent = main_stack[-1][0] if main_stack else 0
            span_id = next(self._ids)
            stack.append((span_id, group))
            span = {"id": span_id, "name": name, "parent": parent,
                    "thread": threading.get_ident(), "start": time.perf_counter()}
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if note is not None:
                span.update(note(args, kwargs, result))
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, note=None, group: str | None = None):
        """Replace ``owner.attr`` with its wrapped form."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, note, group))


def _install(tracer: Tracer) -> None:
    from geolex import classifier, cli, corpus, embedding, geo, linker, wikidata

    for stage in STAGES:
        cli.STAGE_RUNNERS[stage] = tracer.wrap(cli.STAGE_RUNNERS[stage], f"cli.{stage}")

    def segmented(args, kwargs, result):
        return {"entries": len(result), "chars": sum(len(e.raw_text) for e in result)}

    tracer.patch(corpus, "read_raw_pages", "corpus.read_raw_pages")
    tracer.patch(corpus, "segment_pages", "corpus.segment_pages", segmented)
    tracer.patch(corpus, "load_dataset", "corpus.load_dataset")
    tracer.patch(corpus, "save_dataset", "corpus.save_dataset")

    def embedded_one(args, kwargs, result):
        text = args[1]
        tracer.texts.add(hash(text))
        return {"texts": 1, "chars": len(text)}

    def embedded_many(args, kwargs, result):
        texts = args[1]
        tracer.texts.update(hash(t) for t in texts)
        return {"texts": len(texts), "chars": sum(len(t) for t in texts)}

    embedder = embedding.HashedTrigramEmbedder
    tracer.patch(embedder, "embed", "embedding", embedded_one, group="embedding")
    tracer.patch(embedder, "embed_batch", "embedding", embedded_many, group="embedding")

    tracer.patch(classifier, "train", "classifier.train",
                lambda a, k, r: {"examples": len(a[0])})
    tracer.patch(classifier, "classify", "classifier.classify",
                lambda a, k, r: {"positive": int(bool(r))})

    tracer.patch(linker, "link_batch", "linker.link_batch",
                lambda a, k, r: {"entries": len(a[0])})
    tracer.patch(linker, "rank_candidates", "linker.rank_candidates",
                lambda a, k, r: {"candidates": len(a[1])})

    def asked(args, kwargs, result):
        qids = list(args[1])
        tracer.qids.update(qids)
        return {"ids": len(qids)}

    client = wikidata.WikidataClient
    tracer.patch(client, "search_candidates", "wikidata.search")
    tracer.patch(client, "fetch_descriptions", "wikidata.descriptions", asked)
    tracer.patch(client, "fetch_coordinates", "wikidata.coords")
    for transport in (wikidata.UrllibTransport, wikidata.ReplayTransport):
        tracer.patch(transport, "send", "wikidata.send", group="wikidata.send")
    tracer.patch(wikidata.RateLimiter, "wait", "wikidata.ratelimit_wait")

    tracer.patch(geo, "distance_histogram", "geo", group="geo")
    tracer.patch(geo, "to_geojson", "geo", lambda a, k, r: {"places": len(a[0])}, group="geo")
    tracer.patch(geo, "geojson_dumps", "geo", group="geo")
    tracer.patch(geo, "render_svg_map", "geo", group="geo")


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    _install(tracer)
    from geolex import cli

    try:
        code = cli.main(cli_args)
    finally:
        spans_path.write_text(json.dumps({
            "spans": tracer.spans,
            "distinct_texts": len(tracer.texts),
            "distinct_qids": len(tracer.qids),
        }), encoding="utf-8")
    return code


# ── Spans → per-layer metrics ────────────────────────────────────────────


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(document: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``, from a spans file.

    Seconds are summed over spans, so on the link pool they add up the
    busy time of every worker thread.
    """
    spans = document["spans"]
    by_id = {s["id"]: s for s in spans}
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def secs(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    def total(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    out: dict[str, tuple[float, str]] = {}
    stage_spans = {stage: by_name[f"cli.{stage}"] for stage in STAGES}
    for stage in STAGES:
        out[f"cli.{stage}.s"] = (secs(f"cli.{stage}"), "s")

    entries = total("corpus.segment_pages", "entries")
    out["corpus.read_raw_pages.s"] = (secs("corpus.read_raw_pages"), "s")
    out["corpus.segment_pages.s"] = (secs("corpus.segment_pages"), "s")
    for io in ("load_dataset", "save_dataset"):
        out[f"corpus.{io}.s"] = (secs(f"corpus.{io}"), "s")
        out[f"corpus.{io}.calls"] = (calls(f"corpus.{io}"), "count")
    out["corpus.entries"] = (entries, "count")
    out["corpus.mean_entry_chars"] = (
        total("corpus.segment_pages", "chars") / entries if entries else 0.0, "chars")

    def stage_of(span: dict) -> str | None:
        for stage, outer in stage_spans.items():
            if any(o["start"] <= span["start"] <= o["end"] for o in outer):
                return stage
        return None

    texts = total("embedding", "texts")
    out["embedding.s"] = (secs("embedding"), "s")
    out["embedding.texts"] = (texts, "count")
    out["embedding.chars"] = (total("embedding", "chars"), "chars")
    per_stage: dict[str | None, int] = defaultdict(int)
    for span in by_name["embedding"]:
        per_stage[stage_of(span)] += span["texts"]
    for stage in ("train", "classify", "link"):
        out[f"embedding.texts.{stage}"] = (per_stage[stage], "count")
    out["embedding.distinct_text_share"] = (
        document["distinct_texts"] / texts if texts else 0.0, "ratio")

    classified = calls("classifier.classify")
    out["classifier.train.s"] = (secs("classifier.train"), "s")
    out["classifier.train.examples"] = (total("classifier.train", "examples"), "count")
    out["classifier.classify.s"] = (secs("classifier.classify"), "s")
    out["classifier.classify.calls"] = (classified, "count")
    out["classifier.location_share"] = (
        total("classifier.classify", "positive") / classified if classified else 0.0,
        "ratio")

    def under(span: dict, ancestor: int) -> bool:
        while span is not None and span["parent"]:
            if span["parent"] == ancestor:
                return True
            span = by_id.get(span["parent"])
        return False

    linker_self = 0.0
    remote_or_embed = [s for s in spans
                       if s["name"] == "embedding" or s["name"].startswith("wikidata.")]
    for batch in by_name["linker.link_batch"]:
        covered = [(max(s["start"], batch["start"]), min(s["end"], batch["end"]))
                   for s in remote_or_embed if under(s, batch["id"])]
        linker_self += batch["end"] - batch["start"] - _union_length(covered)
    out["linker.link_batch.s"] = (secs("linker.link_batch"), "s")
    out["linker.rank_candidates.s"] = (secs("linker.rank_candidates"), "s")
    out["linker.entries"] = (total("linker.link_batch", "entries"), "count")
    out["linker.candidates"] = (total("linker.rank_candidates", "candidates"), "count")
    out["linker.self.s"] = (linker_self, "s")

    for kind in ("search", "descriptions", "coords"):
        out[f"wikidata.{kind}.s"] = (secs(f"wikidata.{kind}"), "s")
        out[f"wikidata.{kind}.calls"] = (calls(f"wikidata.{kind}"), "count")
    ids = total("wikidata.descriptions", "ids")
    out["wikidata.descriptions.ids"] = (ids, "count")
    out["wikidata.descriptions.distinct_id_share"] = (
        document["distinct_qids"] / ids if ids else 0.0, "ratio")
    out["wikidata.send.s"] = (secs("wikidata.send"), "s")
    out["wikidata.ratelimit_wait.s"] = (secs("wikidata.ratelimit_wait"), "s")

    out["geo.s"] = (secs("geo"), "s")
    out["geo.places"] = (total("geo", "places"), "count")
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
