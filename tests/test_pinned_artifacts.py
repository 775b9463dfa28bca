"""Artifact digests pinned across commits.

The end-to-end output tests compare two runs of the same code, so a
deterministic change to a byte of an artifact passes them all.  These
digests were taken from ``geolex run`` in replay mode on the 12-entry
fixture, and on ``bench/gen.py`` inputs of the benchmark's
``paper_replay`` shape at 1,200 entries (``paper_replay_pins.json``);
a change that means to alter one of these artifacts updates its
digest and says why.

The map and the histogram are the recorded coordinates, formatted to
fixed precision, so no float a NumPy dot product makes is written into
them: their bytes are pinned.  The dataset and the GeoJSON also hold
each link's similarity, a cosine whose last digits depend on how NumPy
sums it.  Their digests are taken with every similarity value cut out,
and the similarities are pinned to within 1e-9, so that the pins hold
on every NumPy version and platform.  The model is not pinned: its
weights are sums of the same kind, over 500 epochs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from geolex import cli

PINNED = {
    "svg": "5dfedecf17a73a9845efd75d0875ea34a30af886d08a58a0ddc466f55f924924",
    "histogram": "c0771a2007f034c492419ff3aa051bff4f09737a0ac32d865740bc626c7d87d8",
}
PINNED_WITHOUT_SIMILARITIES = {
    "dataset": "f78c4cadcae095a74cf7e3170161900313f40438e9e00b6afdf2c1565e4e4abe",
    "geojson": "e4710914965301b8056a86bb2011c295a031d3561dab6c360750255851ce9917",
}
SIMILARITIES = {
    "dataset": [0.517269337548, 0.400772744797, 0.215777863143,
                0.512730118620, 0.434728379618, 0.406625030395],
    "geojson": [0.517269337548, 0.400772744797, 0.406625030395,
                0.512730118620, 0.434728379618],
}

# A "similarity" key and its number, with or without a space after the
# colon (the dataset writes one, the GeoJSON none).  Inside a JSON
# string the key's quotes would be escaped, so only the field matches.
SIMILARITY = re.compile(rb'("similarity": ?)(-?[0-9][0-9.eE+-]*)')
BENCH = Path(__file__).resolve().parent.parent / "bench"


def digests_and_similarities(paths: dict[str, Path]) -> tuple[dict[str, str], dict[str, list]]:
    """The sha256 of each artifact in ``paths``, with every similarity
    cut out of the dataset and the GeoJSON, and those similarities."""
    digests, similarities = {}, {}
    for artifact, path in paths.items():
        data = path.read_bytes()
        if artifact in PINNED_WITHOUT_SIMILARITIES:
            similarities[artifact] = [float(match[2]) for match in SIMILARITY.finditer(data)]
            data = SIMILARITY.sub(rb"\1", data)
        digests[artifact] = hashlib.sha256(data).hexdigest()
    return digests, similarities


def test_replayed_fixture_run_writes_the_pinned_artifacts(workspace, no_network):
    assert workspace.run_all_stages() == 0
    digests, similarities = digests_and_similarities({
        artifact: getattr(workspace, artifact)
        for artifact in (*PINNED, *PINNED_WITHOUT_SIMILARITIES)
    })
    assert digests == {**PINNED, **PINNED_WITHOUT_SIMILARITIES}
    for artifact, pinned in SIMILARITIES.items():
        assert similarities[artifact] == pytest.approx(pinned, abs=1e-9)


# bench/gen.py's paper_replay shape at the fewest entries whose 22 %
# locations leave its 250 annotations per class to draw, at seed 1.
PAPER_REPLAY_ENTRIES = 1200
PAPER_REPLAY_PINS = Path(__file__).resolve().parent / "paper_replay_pins.json"


def test_replayed_paper_replay_run_writes_the_pinned_artifacts(tmp_path, monkeypatch):
    """A run recorded in process against the benchmark's fake Wikidata,
    then replayed offline, writes the artifacts in
    ``paper_replay_pins.json``."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
    monkeypatch.setenv("no_proxy", "127.0.0.1,localhost")
    import gen
    from fakewd import FakeWikidata

    shape = dataclasses.replace(gen.SHAPES["paper_replay"], entries=PAPER_REPLAY_ENTRIES)
    monkeypatch.setitem(gen.SHAPES, "paper_replay", shape)
    server = FakeWikidata(gen.generate("paper_replay", 1, tmp_path))
    configs = {}
    for mode in ("record", "replay"):
        out = tmp_path / mode
        out.mkdir()
        configs[mode] = out / "config.json"
        configs[mode].write_text(json.dumps({
            "raw_dir": str(tmp_path / "raw"), "annotations": str(tmp_path / "annotations.jsonl"),
            "dataset": str(out / "dataset.jsonl"), "model": str(out / "model.json"),
            "geojson": str(out / "places.geojson"), "histogram": str(out / "histogram.csv"),
            "svg": str(out / "map.svg"), "cache_mode": mode, "cache_dir": str(tmp_path / "cache"),
            "rate_limit_s": 0, "wikidata_api_url": server.api_url,
            "wikidata_sparql_url": server.sparql_url,
        }), encoding="utf-8")
    try:
        assert cli.main(["run", "--config", str(configs["record"])]) == 0
    finally:
        server.close()
    assert cli.main(["run", "--config", str(configs["replay"])]) == 0
    out = tmp_path / "replay"
    digests, similarities = digests_and_similarities({
        "svg": out / "map.svg", "histogram": out / "histogram.csv",
        "dataset": out / "dataset.jsonl", "geojson": out / "places.geojson",
    })
    pins = json.loads(PAPER_REPLAY_PINS.read_text(encoding="utf-8"))
    assert digests == pins["sha256"]
    for artifact, pinned in pins["similarities"].items():
        assert similarities[artifact] == pytest.approx(pinned, abs=1e-9)
