"""Artifact digests pinned across commits.

The end-to-end output tests compare two runs of the same code, so a
deterministic change to a byte of an artifact passes them all.  These
digests were taken from ``geolex run`` on the 12-entry fixture in
replay mode; a change that means to alter one of these artifacts
updates its digest here and says why.

Only the map and the histogram are pinned so far.  Their bytes are
the recorded coordinates, formatted to fixed precision, so no float a
NumPy dot product makes is written into them.  The dataset, the model
and the GeoJSON hold such floats (weights and similarities), and
whether those repeat across NumPy versions and platforms is not yet
known.
"""

from __future__ import annotations

import hashlib

PINNED = {
    "svg": "5dfedecf17a73a9845efd75d0875ea34a30af886d08a58a0ddc466f55f924924",
    "histogram": "c0771a2007f034c492419ff3aa051bff4f09737a0ac32d865740bc626c7d87d8",
}


def test_replayed_fixture_run_writes_the_pinned_map_and_histogram(workspace, no_network):
    assert workspace.run_all_stages() == 0
    digests = {
        artifact: hashlib.sha256(getattr(workspace, artifact).read_bytes()).hexdigest()
        for artifact in PINNED
    }
    assert digests == PINNED
