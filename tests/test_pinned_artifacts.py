"""Artifact digests pinned across commits.

The end-to-end output tests compare two runs of the same code, so a
deterministic change to a byte of an artifact passes them all.  These
digests were taken from ``geolex run`` on the 12-entry fixture in
replay mode; a change that means to alter one of these artifacts
updates its digest here and says why.

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

import hashlib
import re

import pytest

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


def test_replayed_fixture_run_writes_the_pinned_artifacts(workspace, no_network):
    assert workspace.run_all_stages() == 0
    digests = {
        artifact: hashlib.sha256(getattr(workspace, artifact).read_bytes()).hexdigest()
        for artifact in PINNED
    }
    assert digests == PINNED
    digests, similarities = {}, {}
    for artifact in PINNED_WITHOUT_SIMILARITIES:
        data = getattr(workspace, artifact).read_bytes()
        similarities[artifact] = [float(match[2]) for match in SIMILARITY.finditer(data)]
        digests[artifact] = hashlib.sha256(SIMILARITY.sub(rb"\1", data)).hexdigest()
    assert digests == PINNED_WITHOUT_SIMILARITIES
    for artifact, pinned in SIMILARITIES.items():
        assert similarities[artifact] == pytest.approx(pinned, abs=1e-9)
