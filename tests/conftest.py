"""Shared fixtures: a fully provisioned pipeline workspace per test.

A workspace is a temp directory holding the raw fixture corpus, the
annotation file, a pre-recorded Wikidata response cache, and a config
file pointing at all of them with replay mode switched on.  Tests that
need network-off guarantees use the ``no_network`` fixture, which turns
any socket connection attempt into a hard failure.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import pytest

import pipeline_fixtures as fx
from geolex import cli


@dataclass
class Workspace:
    root: Path
    config_path: Path
    raw_dir: Path
    dataset: Path
    annotations: Path
    model: Path
    cache_dir: Path
    geojson: Path
    histogram: Path
    svg: Path

    def run(self, *argv: str) -> int:
        """Invoke the CLI in-process against this workspace's config."""
        return cli.main([argv[0], "--config", str(self.config_path), *argv[1:]])

    def run_all_stages(self) -> int:
        return self.run("run")


def make_workspace(root: Path) -> Workspace:
    raw_dir = root / "raw"
    cache_dir = root / "wd_cache"
    fx.write_raw_corpus(raw_dir)
    fx.write_annotations(root / "annotations.jsonl")
    fx.build_replay_cache(cache_dir)
    config = {
        "raw_dir": str(raw_dir),
        "dataset": str(root / "dataset.jsonl"),
        "annotations": str(root / "annotations.jsonl"),
        "model": str(root / "model.json"),
        "cache_mode": "replay",
        "cache_dir": str(cache_dir),
        "geojson": str(root / "places.geojson"),
        "histogram": str(root / "distance_histogram.csv"),
        "svg": str(root / "map.svg"),
    }
    (root / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    return workspace_at(root)


def workspace_at(root: Path) -> Workspace:
    """The workspace whose files ``make_workspace`` lays out under ``root``."""
    return Workspace(
        root=root,
        config_path=root / "config.json",
        raw_dir=root / "raw",
        dataset=root / "dataset.jsonl",
        annotations=root / "annotations.jsonl",
        model=root / "model.json",
        cache_dir=root / "wd_cache",
        geojson=root / "places.geojson",
        histogram=root / "distance_histogram.csv",
        svg=root / "map.svg",
    )


@pytest.fixture
def workspace(tmp_path: Path) -> Workspace:
    return make_workspace(tmp_path)


@pytest.fixture
def no_network(monkeypatch):
    """Make any attempt to open a network connection fail the test."""

    def deny(*args, **kwargs):
        raise AssertionError("network access attempted during an offline test")

    monkeypatch.setattr(socket, "create_connection", deny)
    monkeypatch.setattr(socket.socket, "connect", deny)
    monkeypatch.setattr(urllib.request, "urlopen", deny)


def run_on_threads(work, count: int) -> None:
    """Run ``work(slot)`` for slots ``0..count-1``, one thread each,
    released together under a short switch interval to provoke
    preemption.  Fails if a thread is still running after a minute."""
    barrier = threading.Barrier(count)

    def start(slot: int) -> None:
        barrier.wait(timeout=10)
        work(slot)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=start, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
