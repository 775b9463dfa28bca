"""Benchmark of ``geolex run`` on seeded synthetic inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it needs ``src/geolex``).  Set-up
generates the inputs from the seed, starts a fake Wikidata on
127.0.0.1 and, for replay workloads, records the replay cache with
``geolex run --cache-mode record`` against it; set-up is repeated at
least ``SETUP_REPEATS`` times and its median reported.  Then
``geolex run`` is started as a subprocess, again and again for
``--seconds``, and every run's outputs are checked.  ``--trace 1`` adds one run under
``launcher.py`` and reports per-layer metrics instead of end-to-end
ones.  The last line of stdout is the result as JSON.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import launcher  # noqa: E402
from fakewd import FakeWikidata  # noqa: E402

# workload -> Wikidata cache mode of the measured runs
WORKLOADS = {
    "paper_replay": "replay",
    "long_entries_replay": "replay",
    "live_ratelimited": "live",
}
SETUP_REPEATS = 3
CONCURRENCY = 2
LIVE_RATE_LIMIT_S = 0.1
LIVE_FAIL_EVERY = 25
PROGRAM_TIMEOUT_S = 60.0


class SetupError(Exception):
    """The benchmark could not prepare a workload; no result is printed."""


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    code: int
    out_dir: Path


def _program_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.lower().endswith("_proxy")
           and k not in ("WD_CACHE_MODE", "WD_CACHE_DIR", "EMBED_URL", "PYTHONPATH")}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONPATH"] = str(root / "src")
    return env


def _write_config(inputs: Path, out: Path, server: FakeWikidata, mode: str,
                  cache_dir: Path, rate_limit_s: float) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    config = {
        "raw_dir": str(inputs / "raw"),
        "annotations": str(inputs / "annotations.jsonl"),
        "dataset": str(out / "dataset.jsonl"),
        "model": str(out / "model.json"),
        "geojson": str(out / "places.geojson"),
        "histogram": str(out / "distance_histogram.csv"),
        "svg": str(out / "map.svg"),
        "cache_mode": mode,
        "cache_dir": str(cache_dir),
        "rate_limit_s": rate_limit_s,
        "concurrency": CONCURRENCY,
        "wikidata_api_url": server.api_url,
        "wikidata_sparql_url": server.sparql_url,
    }
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path


def _launch(root: Path, config: Path, spans: Path | None = None) -> Run:
    """Start ``geolex run`` (or the traced launcher) and wait for it."""
    out = config.parent
    for path in (*_paths(out).values(), out / "model.json"):
        path.unlink(missing_ok=True)
    if spans is None:
        command = [sys.executable, "-m", "geolex.cli"]
    else:
        command = [sys.executable, str(HERE / "launcher.py"), str(spans)]
    command += ["run", "--config", str(config)]
    with open(out / "stdout.txt", "wb") as stdout, open(out / "stderr.txt", "wb") as stderr:
        started = time.perf_counter()
        pid = os.posix_spawn(command[0], command, _program_env(root),
                             file_actions=[(os.POSIX_SPAWN_DUP2, stdout.fileno(), 1),
                                           (os.POSIX_SPAWN_DUP2, stderr.fileno(), 2)])
        # A hung run is killed, so the benchmark always ends in time.
        watchdog = threading.Timer(PROGRAM_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - started
    return Run(wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status), out)


def _paths(out: Path) -> dict[str, Path]:
    return {"dataset": out / "dataset.jsonl", "geojson": out / "places.geojson",
            "histogram": out / "distance_histogram.csv", "svg": out / "map.svg"}


def _digests(out: Path) -> dict[str, str] | None:
    digests = {}
    for name, path in _paths(out).items():
        if not path.is_file():
            return None
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _summaries(out: Path) -> dict[str, dict]:
    found = {}
    for line in (out / "stdout.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("{"):
            summary = json.loads(line)
            found[summary["stage"]] = summary
    return found


def _quality(run: Run, truth: dict[str, dict]) -> dict[str, float] | None:
    """Output checks and quality metrics of one run; None if it failed.

    Fails when the entries differ from the generated ones or the
    GeoJSON holds another number of features than there are geocoded
    entries.
    """
    entries = []
    with open(_paths(run.out_dir)["dataset"], encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            record.pop("raw_text")
            entries.append(record)
    if [e["id"] for e in entries] != list(truth) or any(
            e["headword"] != truth[e["id"]]["headword"] for e in entries):
        print("check: dataset entries differ from the generated ones", file=sys.stderr)
        return None
    geocoded = sum(1 for e in entries if "qid" in e and "lat" in e and "lon" in e)
    geojson = json.loads(_paths(run.out_dir)["geojson"].read_text(encoding="utf-8"))
    if len(geojson["features"]) != geocoded:
        print(f"check: {len(geojson['features'])} GeoJSON features for "
              f"{geocoded} geocoded entries", file=sys.stderr)
        return None
    link = _summaries(run.out_dir)["link"]
    linked = [e for e in entries if "qid" in e]
    right_class = sum(1 for e in entries
                      if e.get("is_location") == truth[e["id"]]["is_location"])
    right_item = sum(1 for e in linked if e["qid"] == truth[e["id"]]["qid"])
    return {
        "entries": len(entries),
        "link_ok_share": 1.0 - link["error_count"] / max(link["input_count"], 1),
        "classify_accuracy": right_class / len(entries),
        "link_accuracy": right_item / max(len(linked), 1),
    }


def _setup(root: Path, work: Path, workload: str, seed: int, rep: int):
    """One set-up: inputs, fake server, and for replay a recorded cache.
    Returns (inputs dir, server, cache dir)."""
    inputs = work / f"setup{rep}"
    world = gen.generate(workload, seed, inputs)
    live = WORKLOADS[workload] == "live"
    server = FakeWikidata(world, fail_every=LIVE_FAIL_EVERY if live else 0)
    cache = inputs / "wd_cache"
    if not live:
        config = _write_config(inputs, inputs / "record", server, "record", cache, 0.0)
        run = _launch(root, config)
        if run.code != 0:
            server.close()
            raise SetupError(f"recording the replay cache exited {run.code}: "
                             + (run.out_dir / "stderr.txt").read_text(encoding="utf-8")[-2000:])
    return inputs, server, cache


def benchmark(root: Path, work: Path, workload: str, seed: int, seconds: float,
              trace: bool) -> dict:
    setup_times: list[float] = []
    server = inputs = None
    # Set up at least SETUP_REPEATS times, and more for up to a second,
    # so that a cheap set-up still gets a steady median.
    phase_started = time.perf_counter()
    while len(setup_times) < SETUP_REPEATS or (
            time.perf_counter() - phase_started < 1.0 and len(setup_times) < 50):
        if server is not None:
            server.close()
            shutil.rmtree(inputs)
        started = time.perf_counter()
        inputs, server, cache = _setup(root, work, workload, seed, len(setup_times))
        setup_times.append(time.perf_counter() - started)
    try:
        return _measure(root, inputs, server, cache, workload, seconds, trace, setup_times)
    finally:
        server.close()


def _measure(root, inputs, server, cache, workload, seconds, trace, setup_times) -> dict:
    truth = {}
    with open(inputs / "truth.jsonl", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            truth[record["entry_id"]] = record
    mode = WORKLOADS[workload]
    rate = LIVE_RATE_LIMIT_S if mode == "live" else 0.0
    config = _write_config(inputs, inputs / "out", server, mode, cache, rate)

    runs, failed = [], 0
    reference = quality = None
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        server.reset_counters()
        run = _launch(root, config)
        digests = _digests(run.out_dir) if run.code == 0 else None
        ok = digests is not None
        if ok and reference is None:
            quality = _quality(run, truth)
            ok = quality is not None
            reference = digests if ok else None
        elif ok:
            ok = digests == reference
        if not ok:
            failed += 1
        print(f"run {len(runs) + 1}: {run.wall_s:.3f} s, exit {run.code}"
              + ("" if ok else ", FAILED"), file=sys.stderr)
        runs.append(run)
    ok_runs = [r for r in runs if r.code == 0] or runs
    run_s = statistics.median([r.wall_s for r in ok_runs])
    print(f"{workload}: {len(runs)} runs, median {run_s:.3f} s", file=sys.stderr)

    if not trace:
        quality = quality or {"entries": 0, "link_ok_share": 0.0,
                              "classify_accuracy": 0.0, "link_accuracy": 0.0}
        metrics = {
            "run_s": (run_s, "s"),
            "entries_per_s": (quality["entries"] / run_s, "entries/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (statistics.median([r.rss_mb for r in ok_runs]), "MB"),
            "link_ok_share": (quality["link_ok_share"], "ratio"),
            "classify_accuracy": (quality["classify_accuracy"], "ratio"),
            "link_accuracy": (quality["link_accuracy"], "ratio"),
        }
    else:
        spans = inputs / "out" / "spans.json"
        server.reset_counters()
        traced = _launch(root, config, spans)
        if traced.code != 0 or _digests(traced.out_dir) != reference:
            failed += 1
            print(f"traced run failed (exit {traced.code}) or its artifacts differ",
                  file=sys.stderr)
        runs.append(traced)
        document = {"spans": [], "distinct_texts": 0, "distinct_qids": 0}
        if spans.is_file():  # absent only if the launcher itself crashed
            document = json.loads(spans.read_text(encoding="utf-8"))
        metrics = launcher.layer_metrics(document)
        dataset = _paths(traced.out_dir)["dataset"]
        metrics["corpus.dataset_mb"] = (
            dataset.stat().st_size / 2**20 if dataset.is_file() else 0.0, "MB")
        metrics["wikidata.requests"] = (server.requests, "count")
        metrics["wikidata.http_503"] = (server.http_503, "count")
        metrics["wikidata.server.s"] = (server.busy_s, "s")
        metrics["trace.overhead_share"] = (traced.wall_s / run_s - 1.0, "ratio")
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running program is killed and
    # reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "geolex" / "cli.py").is_file():
        print(f"bench: no src/geolex under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = benchmark(root, work, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except SetupError as err:
        print(f"bench: set-up failed: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
