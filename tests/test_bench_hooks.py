"""The traced benchmark launcher must still find every hook it patches.

``bench/launcher.py`` wraps named classes and functions of ``geolex``
from outside.  A refactor that renames or deletes one of them should
fail here, not only when the benchmark runs with ``--trace 1``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import make_workspace

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics ``bench/run.py`` adds itself, not read off the spans.
RUNNER_METRICS = {
    "corpus.dataset_mb",
    "wikidata.requests",
    "wikidata.http_503",
    "wikidata.server.s",
    "trace.overhead_share",
}


def run_in_bench_env(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "bench"]))
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def load_launcher():
    spec = importlib.util.spec_from_file_location("launcher", ROOT / "bench" / "launcher.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_launcher_installs_every_hook():
    result = run_in_bench_env("-c", "import launcher; launcher._install(launcher.Tracer())")
    assert result.returncode == 0, result.stderr


def test_traced_run_yields_every_layer_and_the_same_artifacts(tmp_path):
    traced = make_workspace(tmp_path / "traced")
    plain = make_workspace(tmp_path / "plain")
    spans = tmp_path / "spans.json"
    result = run_in_bench_env(
        "bench/launcher.py", str(spans), "run", "--config", str(traced.config_path)
    )
    assert result.returncode == 0, result.stderr
    result = run_in_bench_env("-m", "geolex.cli", "run", "--config", str(plain.config_path))
    assert result.returncode == 0, result.stderr

    metrics = load_launcher().layer_metrics(json.loads(spans.read_text(encoding="utf-8")))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {layer["name"] for layer in declared["per_layer"]} - RUNNER_METRICS
    assert set(metrics) == expected
    for artifact in ("dataset", "model", "geojson", "histogram", "svg"):
        assert getattr(traced, artifact).read_bytes() == getattr(plain, artifact).read_bytes()
