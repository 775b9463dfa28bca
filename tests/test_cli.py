"""CLI tests: the full replayed pipeline, per-stage behavior, exit codes."""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import threading
import time
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import oracles
import pipeline_fixtures as fx
from geolex import cli, linker, wikidata
from geolex.corpus import load_dataset, save_dataset


def parse_summaries(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def read_bytes(path) -> bytes:
    return path.read_bytes()


def fail_berlin_live(workspace, monkeypatch) -> None:
    """Switch the workspace to record mode (read-through, not
    replay-fatal) and fail every request that names Berlin.  The
    description request, which then leaves out Berlin's candidates, is
    recorded up front."""
    from geolex.errors import TransportError

    real_send = wikidata.WikidataClient._send

    def flaky_send(self, request):
        if b"Berlin" in (request.body or b"") or "Berlin" in request.full_url():
            raise TransportError("Berlin shard is down")
        return real_send(self, request)

    monkeypatch.setattr(wikidata.WikidataClient, "_send", flaky_send)
    config_payload = json.loads(workspace.config_path.read_text(encoding="utf-8"))
    config_payload["cache_mode"] = "record"
    workspace.config_path.write_text(json.dumps(config_payload), encoding="utf-8")
    fx.record_descriptions(
        workspace.cache_dir, [h for h in fx.LOCATION_HEADWORDS if h != "Berlin"]
    )


class TestFullRun:
    def test_replay_run_succeeds_offline(self, workspace, no_network, capsys):
        assert workspace.run_all_stages() == 0
        captured = capsys.readouterr()

        entries = load_dataset(workspace.dataset)
        assert [e.id for e in entries] == fx.ENTRY_IDS
        assert sum(1 for e in entries if e.is_location) == 7
        linked = {e.id: e.qid for e in entries if e.qid is not None}
        assert linked == {
            entry_id: qid
            for entry_id, qid in fx.EXPECTED_LINKS.items()
            if qid is not None
        }
        geocoded = {e.id for e in entries if e.lat is not None}
        assert geocoded == set(fx.expected_coordinates())
        assert len(geocoded) == 5
        # Iowa linked to the themed item, which has no coordinates
        iowa = next(e for e in entries if e.id == "9:210:1")
        assert iowa.qid == "Q99670857"
        assert iowa.lat is None

        for artifact in (workspace.geojson, workspace.histogram, workspace.svg):
            assert artifact.exists()

        summaries = parse_summaries(captured.out)
        assert [s["stage"] for s in summaries] == list(cli.PIPELINE_STAGES)
        assert all(s["error_count"] == 0 for s in summaries)
        assert "stage" in captured.out  # the human-readable table header

    def test_summary_counts_and_ratios(self, workspace, no_network, capsys):
        assert workspace.run_all_stages() == 0
        by_stage = {s["stage"]: s for s in parse_summaries(capsys.readouterr().out)}
        assert (by_stage["ingest"]["input_count"], by_stage["ingest"]["output_count"]) == (6, 12)
        assert by_stage["train"]["output_count"] == 1
        assert by_stage["train"]["ratios"]["positive_fraction"] == pytest.approx(7 / 12, abs=1e-4)
        assert by_stage["classify"]["ratios"]["location_fraction"] == pytest.approx(7 / 12, abs=1e-4)
        assert (by_stage["link"]["input_count"], by_stage["link"]["output_count"]) == (7, 6)
        assert by_stage["link"]["ratios"]["linked_fraction"] == pytest.approx(6 / 7, abs=1e-4)
        assert (by_stage["coords"]["input_count"], by_stage["coords"]["output_count"]) == (6, 5)
        assert by_stage["coords"]["ratios"]["geocoded_fraction"] == pytest.approx(5 / 6, abs=1e-4)
        assert (by_stage["report"]["input_count"], by_stage["report"]["output_count"]) == (12, 5)
        assert by_stage["report"]["ratios"]["plotted_fraction"] == pytest.approx(5 / 12, abs=1e-4)
        assert all(s["wall_time_s"] >= 0 for s in by_stage.values())

    def test_train_summary_reports_training_set_quality(self, workspace, no_network, capsys):
        from geolex.classifier import load_model
        from geolex.embedding import HashedTrigramEmbedder

        assert workspace.run("ingest") == 0
        assert workspace.run("train") == 0
        (train,) = [s for s in parse_summaries(capsys.readouterr().out) if s["stage"] == "train"]
        model = load_model(workspace.model)
        embedder = HashedTrigramEmbedder()
        entries = {e.id: e for e in load_dataset(workspace.dataset)}
        pairs = [
            (oracles.predict_proba(model, embedder.embed(entries[i].definition)) >= 0.5,
             fx.IS_LOCATION[i])
            for i in fx.ENTRY_IDS
        ]
        tp = sum(p and a for p, a in pairs)
        marked = sum(p for p, _ in pairs)
        actual = sum(a for _, a in pairs)
        precision, recall = tp / marked, tp / actual
        expected = {
            "train_accuracy": sum(p == a for p, a in pairs) / len(pairs),
            "train_precision": precision,
            "train_recall": recall,
            "train_f1": 2 * precision * recall / (precision + recall),
        }
        for name, value in expected.items():
            assert train["ratios"][name] == round(value, 4), name
        assert train["ratios"]["positive_fraction"] == round(7 / 12, 4)

    def test_artifact_contents(self, workspace, no_network):
        assert workspace.run_all_stages() == 0
        document = json.loads(workspace.geojson.read_text(encoding="utf-8"))
        assert document["type"] == "FeatureCollection"
        assert len(document["features"]) == 5
        by_id = {
            f["properties"]["entry_id"]: f["geometry"]["coordinates"]
            for f in document["features"]
        }
        for entry_id, (lat, lon) in fx.expected_coordinates().items():
            assert by_id[entry_id] == [lon, lat]

        csv_lines = workspace.histogram.read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "bucket_lower_km,count"
        assert sum(int(line.split(",")[1]) for line in csv_lines[1:]) == 5

        svg = workspace.svg.read_text(encoding="utf-8")
        assert svg.count("<circle") == 5
        assert "<title>Stockholm (Q1754)</title>" in svg

    def test_report_diagnostics_name_reference_point(
        self, workspace, no_network, capsys
    ):
        assert workspace.run_all_stages() == 0
        assert "histogram reference (62.0, 15.0), bucket 500.0 km" in capsys.readouterr().err

    def test_whole_pipeline_is_deterministic(self, workspace, no_network):
        assert workspace.run_all_stages() == 0
        first = {
            "dataset": read_bytes(workspace.dataset),
            "geojson": read_bytes(workspace.geojson),
            "histogram": read_bytes(workspace.histogram),
            "svg": read_bytes(workspace.svg),
        }
        assert workspace.run_all_stages() == 0
        second = {
            "dataset": read_bytes(workspace.dataset),
            "geojson": read_bytes(workspace.geojson),
            "histogram": read_bytes(workspace.histogram),
            "svg": read_bytes(workspace.svg),
        }
        assert first == second


class TestStageByStage:
    def test_manual_stage_sequence_matches_run(
        self, tmp_path, no_network, capsys
    ):
        from conftest import make_workspace

        manual = make_workspace(tmp_path / "manual")
        auto = make_workspace(tmp_path / "auto")

        for stage in ("ingest", "train", "classify", "link", "coords", "report"):
            assert manual.run(stage) == 0, stage
        assert auto.run_all_stages() == 0
        capsys.readouterr()

        assert read_bytes(manual.dataset) == read_bytes(auto.dataset)
        assert read_bytes(manual.geojson) == read_bytes(auto.geojson)
        assert read_bytes(manual.histogram) == read_bytes(auto.histogram)
        assert read_bytes(manual.svg) == read_bytes(auto.svg)

    def test_enriching_stages_are_idempotent(self, workspace, no_network):
        assert workspace.run_all_stages() == 0
        snapshots = {}
        for stage in ("classify", "link", "coords", "report"):
            before = read_bytes(workspace.dataset)
            assert workspace.run(stage) == 0
            snapshots[stage] = (before, read_bytes(workspace.dataset))
        for stage, (before, after) in snapshots.items():
            assert before == after, f"{stage} modified a settled dataset"

    def test_run_skips_train_when_model_exists_without_annotations(
        self, workspace, no_network, capsys
    ):
        assert workspace.run_all_stages() == 0
        capsys.readouterr()
        workspace.annotations.unlink()
        assert workspace.run_all_stages() == 0
        captured = capsys.readouterr()
        stages = [s["stage"] for s in parse_summaries(captured.out)]
        assert "train" not in stages
        assert stages == [s for s in cli.PIPELINE_STAGES if s != "train"]
        assert "reusing model" in captured.err

    def test_link_classifies_in_memory_with_model(
        self, workspace, no_network, capsys
    ):
        assert workspace.run("ingest") == 0
        assert workspace.run("train") == 0
        assert workspace.run("link") == 0  # classify never ran
        captured = capsys.readouterr()
        assert "classified 12 unlabeled entries in memory" in captured.err
        entries = load_dataset(workspace.dataset)
        # stored labels stay unset; links land anyway
        assert all(e.is_location is None for e in entries)
        stockholm = next(e for e in entries if e.id == "9:211:2")
        assert stockholm.qid == "Q1754"
        assert stockholm.similarity is not None

    def test_classify_accepts_in_place_flag(self, workspace, no_network):
        assert workspace.run("ingest") == 0
        assert workspace.run("train") == 0
        assert workspace.run("classify", "--in-place") == 0
        entries = load_dataset(workspace.dataset)
        assert sum(1 for e in entries if e.is_location) == 7

    def test_min_sim_flag_gates_links(self, workspace, no_network):
        assert workspace.run("ingest") == 0
        assert workspace.run("train") == 0
        assert workspace.run("classify") == 0
        assert workspace.run("link", "--min-sim", "0.99") == 0
        entries = load_dataset(workspace.dataset)
        assert all(e.qid is None for e in entries)


def fail_dataset_replace(workspace, monkeypatch) -> None:
    """Fail the rename that would replace the workspace's dataset."""
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst) == workspace.dataset:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def count_dataset_io(monkeypatch) -> dict[str, int]:
    """Count the CLI's dataset loads and saves."""
    from geolex import corpus

    counts = {"load": 0, "save": 0}
    real_load, real_save = corpus.load_dataset, corpus.save_dataset

    def load_dataset(path):
        counts["load"] += 1
        return real_load(path)

    def save_dataset(entries, path):
        counts["save"] += 1
        return real_save(entries, path)

    monkeypatch.setattr(corpus, "load_dataset", load_dataset)
    monkeypatch.setattr(corpus, "save_dataset", save_dataset)
    return counts


class TestDatasetOwnership:
    def test_run_loads_none_and_saves_once(self, workspace, no_network, monkeypatch):
        counts = count_dataset_io(monkeypatch)
        assert workspace.run_all_stages() == 0
        assert counts == {"load": 0, "save": 1}

    @pytest.mark.parametrize(
        "stage, loads, saves",
        [
            ("ingest", 0, 1),
            ("train", 1, 0),
            ("classify", 1, 1),
            ("link", 1, 1),
            ("coords", 1, 1),
            ("report", 1, 0),
        ],
    )
    def test_each_command_reads_at_most_once(
        self, workspace, no_network, monkeypatch, stage, loads, saves
    ):
        assert workspace.run_all_stages() == 0
        counts = count_dataset_io(monkeypatch)
        assert workspace.run(stage) == 0
        assert counts == {"load": loads, "save": saves}

    def test_failed_link_leaves_the_dataset_classify_wrote(
        self, tmp_path, no_network, capsys
    ):
        from conftest import make_workspace

        manual = make_workspace(tmp_path / "manual")
        for stage in ("ingest", "train", "classify"):
            assert manual.run(stage) == 0, stage

        failing = make_workspace(tmp_path / "failing")
        labels = fx.build_replay_cache(failing.cache_dir)
        labels["search:Stockholm"].unlink()
        fx.record_descriptions(
            failing.cache_dir,
            [h for h in fx.LOCATION_HEADWORDS if h != "Stockholm"],
        )
        capsys.readouterr()
        assert failing.run_all_stages() == 5
        captured = capsys.readouterr()
        stages = [s["stage"] for s in parse_summaries(captured.out)]
        assert stages == ["ingest", "train", "classify"]
        assert "1 of 7 entries failed to link" in captured.err
        assert read_bytes(failing.dataset) == read_bytes(manual.dataset)

    def test_failed_dataset_write_fails_run_as_coords(
        self, workspace, no_network, monkeypatch, capsys
    ):
        assert workspace.run("ingest") == 0
        before = read_bytes(workspace.dataset)
        fail_dataset_replace(workspace, monkeypatch)
        capsys.readouterr()
        assert workspace.run_all_stages() == 6
        captured = capsys.readouterr()
        assert [s["stage"] for s in parse_summaries(captured.out)] == list(cli.PIPELINE_STAGES)
        assert "coords: disk full" in captured.err
        assert read_bytes(workspace.dataset) == before
        assert not list(workspace.root.glob("*.tmp"))

    def test_failed_write_after_a_failed_stage_reports_both(
        self, workspace, no_network, monkeypatch, capsys
    ):
        labels = fx.build_replay_cache(workspace.cache_dir)
        labels["search:Stockholm"].unlink()
        fx.record_descriptions(
            workspace.cache_dir,
            [h for h in fx.LOCATION_HEADWORDS if h != "Stockholm"],
        )
        fail_dataset_replace(workspace, monkeypatch)
        assert workspace.run_all_stages() == 5
        err = capsys.readouterr().err
        assert "link: 1 of 7 entries failed to link" in err
        assert "classify: disk full" in err
        assert not workspace.dataset.exists()

    def test_bug_in_a_stage_writes_no_dataset(self, workspace, no_network, monkeypatch):
        from geolex import linker

        def broken(*args, **kwargs):
            raise TypeError("a bug, not a stage failure")

        monkeypatch.setattr(linker, "link_batch", broken)
        with pytest.raises(TypeError, match="a bug"):
            workspace.run_all_stages()
        assert not workspace.dataset.exists()
        assert not list(workspace.root.glob("*.tmp"))

    @pytest.mark.parametrize("case", ["ingest", "run", "run-link-fails", "run-stage-bug"])
    def test_the_spill_lies_beside_the_dataset_and_leaves_nothing(
        self, workspace, no_network, monkeypatch, case
    ):
        import tempfile

        real_temporary_file = tempfile.TemporaryFile
        spills = []

        def recorded(*args, **kwargs):
            spill = real_temporary_file(*args, **kwargs)
            spills.append((Path(kwargs["dir"]), spill))
            return spill

        monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
        before = set(workspace.root.iterdir())
        if case == "ingest":
            assert workspace.run("ingest") == 0
        elif case == "run":
            assert workspace.run_all_stages() == 0
        elif case == "run-link-fails":
            fx.build_replay_cache(workspace.cache_dir)["search:Stockholm"].unlink()
            assert workspace.run_all_stages() == 5
        else:
            def broken(*args, **kwargs):
                raise TypeError("a bug, not a stage failure")

            monkeypatch.setattr(linker, "link_batch", broken)
            with pytest.raises(TypeError, match="a bug"):
                workspace.run_all_stages()
        assert [(where, spill.closed) for where, spill in spills] == [
            (workspace.dataset.parent, True)]
        made = {path.name for path in set(workspace.root.iterdir()) - before}
        assert made <= {workspace.dataset.name, workspace.model.name, workspace.geojson.name,
                        workspace.histogram.name, workspace.svg.name}

    @pytest.mark.parametrize(
        "command, saver",
        [("classify", "classify"), ("link", "link"), ("coords", "coords"), ("run", "coords")],
    )
    def test_the_save_is_timed_into_the_stage_whose_changes_it_writes(
        self, workspace, no_network, monkeypatch, capsys, command, saver
    ):
        from geolex import corpus

        assert workspace.run_all_stages() == 0
        real_save = corpus.save_dataset

        def slow_save(entries, path):
            time.sleep(0.5)
            return real_save(entries, path)

        monkeypatch.setattr(corpus, "save_dataset", slow_save)
        capsys.readouterr()
        assert workspace.run(command) == 0
        times = {s["stage"]: s["wall_time_s"] for s in parse_summaries(capsys.readouterr().out)}
        assert times.pop(saver) >= 0.5
        assert all(seconds < 0.5 for seconds in times.values())

    def test_classify_writes_a_hand_formatted_dataset_canonically(self, tmp_path, no_network):
        from conftest import make_workspace

        manual = make_workspace(tmp_path / "manual")
        hand = make_workspace(tmp_path / "hand")
        for workspace in (manual, hand):
            assert workspace.run("ingest") == 0
            assert workspace.run("train") == 0
        # Keys reversed, non-ASCII as \u escapes, extra spaces.
        hand.dataset.write_text("".join(
            json.dumps(dict(reversed(json.loads(line).items())), separators=(" ,  ", " :  "))
            + "\n"
            for line in hand.dataset.read_text(encoding="utf-8").splitlines()
        ), encoding="utf-8")
        assert "\\u00e5" in hand.dataset.read_text(encoding="utf-8")
        assert hand.run("classify") == 0
        assert manual.run("classify") == 0
        assert read_bytes(hand.dataset) == read_bytes(manual.dataset)

    def test_out_and_model_out_flags_name_the_files(self, workspace, no_network):
        dataset = workspace.root / "elsewhere.jsonl"
        model = workspace.root / "elsewhere-model.json"
        assert workspace.run("ingest", "--out", str(dataset)) == 0
        assert workspace.run("train", "--dataset", str(dataset), "--model-out", str(model)) == 0
        assert [e.id for e in load_dataset(dataset)] == fx.ENTRY_IDS
        assert json.loads(model.read_text(encoding="utf-8"))
        assert not workspace.dataset.exists()
        assert not workspace.model.exists()


class TestOncePerCommand:
    @pytest.mark.parametrize("command, loads", [("run", 0), ("link", 1)])
    def test_command_builds_its_parts_once(
        self, workspace, no_network, monkeypatch, command, loads
    ):
        """With an embedding cache set, one command builds one cached
        embedder, which reads the cache file once, one transport, which
        link and coords share, and reads the dataset at most once."""
        from geolex import embedding

        cache = workspace.root / "embeddings.jsonl"
        payload = json.loads(workspace.config_path.read_text(encoding="utf-8"))
        payload["embed_cache"] = str(cache)
        workspace.config_path.write_text(json.dumps(payload), encoding="utf-8")
        assert workspace.run_all_stages() == 0
        assert cache.exists()

        built = {"embedder": 0, "cache read": 0, "transport": 0}
        real_init, real_iter = embedding.CachedEmbedder.__init__, embedding.iter_jsonl
        real_make_transport = cli.make_transport

        def init(self, *args, **kwargs):
            built["embedder"] += 1
            real_init(self, *args, **kwargs)

        def iter_jsonl(path, *args, **kwargs):
            built["cache read"] += Path(path) == cache
            return real_iter(path, *args, **kwargs)

        def make_transport(*args, **kwargs):
            built["transport"] += 1
            return real_make_transport(*args, **kwargs)

        monkeypatch.setattr(embedding.CachedEmbedder, "__init__", init)
        monkeypatch.setattr(embedding, "iter_jsonl", iter_jsonl)
        monkeypatch.setattr(cli, "make_transport", make_transport)
        counts = count_dataset_io(monkeypatch)
        assert workspace.run(command) == 0
        assert built == {"embedder": 1, "cache read": 1, "transport": 1}
        assert counts["load"] == loads


class TestLinkThreads:
    """Replay links on the calling thread; live and record keep a pool
    of ``concurrency`` threads."""

    def classified(self, workspace):
        for stage in ("ingest", "train", "classify"):
            assert workspace.run(stage) == 0, stage

    def test_replay_link_starts_no_thread_pool(self, workspace, no_network, monkeypatch):
        self.classified(workspace)

        def refuse(*args, **kwargs):
            raise AssertionError("replay link started a thread pool")

        monkeypatch.setattr(linker, "ThreadPoolExecutor", refuse)
        assert workspace.run("link", "--concurrency", "3") == 0

    def test_record_link_keeps_a_pool_of_concurrency_threads(
        self, workspace, no_network, monkeypatch
    ):
        self.classified(workspace)
        assert workspace.run("link") == 0
        replayed = read_bytes(workspace.dataset)
        sizes = []
        pool = linker.ThreadPoolExecutor

        def counting(max_workers):
            sizes.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(linker, "ThreadPoolExecutor", counting)
        assert workspace.run("link", "--cache-mode", "record", "--concurrency", "3") == 0
        assert sizes == [3]
        assert read_bytes(workspace.dataset) == replayed


@contextlib.contextmanager
def serve_cache(cache_dir):
    """Serve a recorded cache over HTTP on 127.0.0.1: each request is
    answered with the body recorded for the same request to the real
    Wikidata endpoints.  Yields the (api_url, sparql_url) to send to."""
    replay = wikidata.ReplayTransport(cache_dir)
    endpoints = {
        urllib.parse.urlsplit(url).path: url
        for url in (wikidata.DEFAULT_API_URL, wikidata.DEFAULT_SPARQL_URL)
    }

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format, *args):  # noqa: A002 - signature fixed by base class
            pass

        def do_GET(self):  # noqa: N802 - name fixed by base class
            self.answer(None)

        def do_POST(self):  # noqa: N802 - name fixed by base class
            self.answer(self.rfile.read(int(self.headers["Content-Length"])))

        def answer(self, body: bytes | None) -> None:
            split = urllib.parse.urlsplit(self.path)
            params = tuple(urllib.parse.parse_qsl(split.query, keep_blank_values=True))
            payload = replay.send(
                wikidata.HttpRequest(self.command, endpoints[split.path], params, body)
            )
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        port = server.server_address[1]
        yield tuple(f"http://127.0.0.1:{port}{path}" for path in endpoints)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestLiveRun:
    def test_request_starts_stay_spaced_across_stages(self, workspace, monkeypatch):
        rate_limit_s = 0.1
        opened: list[str] = []
        grants: list[float] = []
        real_urlopen = urllib.request.urlopen
        real_wait = wikidata.RateLimiter.wait
        granting = threading.Lock()

        def counted_urlopen(request, *args, **kwargs):
            assert urllib.parse.urlsplit(request.full_url).hostname == "127.0.0.1"
            opened.append(request.full_url)
            return real_urlopen(request, *args, **kwargs)

        def recorded_wait(limiter):
            # The slot a wait grants is the limiter's last start; the
            # lock keeps another wait from moving it before it is read.
            with granting:
                real_wait(limiter)
                grants.append(limiter._last_start)

        monkeypatch.setattr(urllib.request, "urlopen", counted_urlopen)
        monkeypatch.setattr(wikidata.RateLimiter, "wait", recorded_wait)
        monkeypatch.setenv("no_proxy", "*")  # the fixture server is local
        with serve_cache(workspace.cache_dir) as (api_url, sparql_url):
            config = json.loads(workspace.config_path.read_text(encoding="utf-8"))
            config.update(cache_mode="live", rate_limit_s=rate_limit_s,
                          wikidata_api_url=api_url, wikidata_sparql_url=sparql_url)
            workspace.config_path.write_text(json.dumps(config), encoding="utf-8")
            assert workspace.run_all_stages() == 0

        linked = {e.id: e.qid for e in load_dataset(workspace.dataset) if e.is_location}
        assert linked == fx.EXPECTED_LINKS
        # searches, the description request, and coords' SPARQL query
        assert len(opened) == len(fx.LOCATION_HEADWORDS) + 2
        assert len(grants) == len(opened)
        grants.sort()
        gaps = [later - earlier for earlier, later in zip(grants, grants[1:])]
        # One limiter for link and coords spaces every granted slot.
        assert min(gaps) >= rate_limit_s - 1e-9, gaps


def test_importing_the_cli_leaves_out_the_http_stack():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, geolex.cli; "
             "print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


def test_outputs_do_not_depend_on_the_hash_seed(workspace):
    """Two ``geolex run`` processes with different string hash seeds
    write the same bytes: no artifact may follow set or dict order
    that hashing decides."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {name: value for name, value in os.environ.items()
           if name not in ("EMBED_URL", "WD_CACHE_MODE", "WD_CACHE_DIR")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    artifacts = [workspace.dataset, workspace.model, workspace.geojson,
                 workspace.histogram, workspace.svg]
    written = []
    for seed in ("1", "2"):
        for path in artifacts:
            path.unlink(missing_ok=True)
        subprocess.run(
            [sys.executable, "-m", "geolex.cli", "run", "--config", str(workspace.config_path)],
            env={**env, "PYTHONHASHSEED": seed}, capture_output=True, check=True, timeout=120,
        )
        written.append([path.read_bytes() for path in artifacts])
    assert written[0] == written[1]


class TestRelinkInvalidation:
    def test_min_sim_rerun_clears_links_and_coordinates(self, workspace, no_network):
        assert workspace.run_all_stages() == 0
        assert workspace.run("link", "--min-sim", "0.99") == 0
        for entry in load_dataset(workspace.dataset):
            assert (entry.qid, entry.similarity, entry.lat, entry.lon) == (None,) * 4
        assert workspace.run("coords") == 0
        assert workspace.run("report") == 0
        assert plotted_ids(workspace.geojson) == set()

    def test_changed_qid_refetches_coordinates(self, workspace, no_network):
        assert workspace.run_all_stages() == 0
        entries = load_dataset(workspace.dataset)
        stockholm = next(e for e in entries if e.id == "9:211:2")
        # an older link to the Maine town, with its coordinates
        stockholm.qid, stockholm.lat, stockholm.lon = "Q2033099", 46.9, -68.1
        save_dataset(entries, workspace.dataset)

        assert workspace.run("link") == 0
        stockholm = next(e for e in load_dataset(workspace.dataset) if e.id == "9:211:2")
        assert (stockholm.qid, stockholm.lat, stockholm.lon) == ("Q1754", None, None)
        # coords now asks for Iowa (never geocoded) and Stockholm
        fx.record_coordinates(workspace.cache_dir, ["Q99670857", "Q1754"])
        assert workspace.run("coords") == 0
        geocoded = {
            e.id: (e.lat, e.lon) for e in load_dataset(workspace.dataset) if e.lat is not None
        }
        assert geocoded == fx.expected_coordinates()

    def test_failed_entry_keeps_its_link(self, workspace, no_network, monkeypatch):
        assert workspace.run_all_stages() == 0
        before = read_bytes(workspace.dataset)

        fail_berlin_live(workspace, monkeypatch)
        assert workspace.run("link") == 0
        assert read_bytes(workspace.dataset) == before


class TestFixtureTraffic:
    def test_run_and_second_coords_read_every_recorded_response(
        self, workspace, no_network, monkeypatch
    ):
        recorded = {path.name for path in workspace.cache_dir.iterdir()}
        read: set[str] = set()
        real_send = wikidata.ReplayTransport.send

        def send(self, request):
            read.add(self.path_for(request).name)
            return real_send(self, request)

        monkeypatch.setattr(wikidata.ReplayTransport, "send", send)
        assert workspace.run_all_stages() == 0
        assert workspace.run("coords") == 0  # re-asks for the ungeocoded Iowa item
        assert read == recorded


def plotted_ids(geojson_path) -> set[str]:
    document = json.loads(geojson_path.read_text(encoding="utf-8"))
    return {f["properties"]["entry_id"] for f in document["features"]}


class TestReportSelection:
    def test_entry_remarked_non_location_is_not_plotted(self, workspace, no_network):
        assert workspace.run_all_stages() == 0
        entries = load_dataset(workspace.dataset)
        berlin = next(e for e in entries if e.id == "2:57:2")
        assert berlin.qid is not None and berlin.lat is not None
        berlin.is_location = False
        save_dataset(entries, workspace.dataset)

        assert workspace.run("report") == 0
        assert plotted_ids(workspace.geojson) == set(fx.expected_coordinates()) - {"2:57:2"}
        assert "Berlin" not in workspace.svg.read_text(encoding="utf-8")

    def test_linked_entries_without_stored_label_are_plotted(self, workspace, no_network):
        for stage in ("ingest", "train", "link", "coords", "report"):
            assert workspace.run(stage) == 0, stage
        assert all(e.is_location is None for e in load_dataset(workspace.dataset))
        assert plotted_ids(workspace.geojson) == set(fx.expected_coordinates())


class TestClassifyOwnsLocationFields:
    def test_remarked_non_location_loses_its_link(self, workspace, no_network):
        assert workspace.run_all_stages() == 0
        lines = workspace.annotations.read_text(encoding="utf-8").splitlines()
        flipped = [
            json.dumps({"entry_id": "9:211:2", "is_location": False})
            if json.loads(line)["entry_id"] == "9:211:2" else line
            for line in lines
        ]
        workspace.annotations.write_text("\n".join(flipped) + "\n", encoding="utf-8")

        assert workspace.run("train") == 0
        assert workspace.run("classify") == 0
        entries = load_dataset(workspace.dataset)
        stockholm = next(e for e in entries if e.id == "9:211:2")
        assert stockholm.is_location is False
        for entry in entries:
            if not entry.is_location:
                assert (entry.qid, entry.similarity, entry.lat, entry.lon) == (None,) * 4


def spy_on_embed_batch(monkeypatch) -> list[list[str]]:
    """Record the texts of every trigram-embedder batch call."""
    from geolex.embedding import HashedTrigramEmbedder

    calls: list[list[str]] = []
    real = HashedTrigramEmbedder.embed_batch

    def embed_batch(self, texts):
        calls.append(list(texts))
        return real(self, texts)

    monkeypatch.setattr(HashedTrigramEmbedder, "embed_batch", embed_batch)
    return calls


class TestInMemoryClassification:
    def test_link_classifies_in_chunks_like_classify(
        self, workspace, no_network, monkeypatch
    ):
        from geolex import linker

        assert workspace.run("ingest") == 0
        assert workspace.run("train") == 0
        definitions = [e.definition for e in load_dataset(workspace.dataset)]
        linked_ids: list[str] = []
        real_link_batch = linker.link_batch

        def link_batch(entries, *args, **kwargs):
            linked_ids.extend(e.id for e in entries)
            return real_link_batch(entries, *args, **kwargs)

        monkeypatch.setattr(linker, "link_batch", link_batch)
        monkeypatch.setattr(cli, "EMBED_CHUNK", 5)
        calls = spy_on_embed_batch(monkeypatch)
        assert workspace.run("link") == 0
        # 12 definitions in calls of 5, 5 and 2; ranking follows
        assert calls[:3] == [definitions[0:5], definitions[5:10], definitions[10:12]]

        calls.clear()
        assert workspace.run("classify") == 0
        assert [len(call) for call in calls] == [5, 5, 2]
        stored = [e.id for e in load_dataset(workspace.dataset) if e.is_location]
        assert linked_ids == stored


class TestErrorBoundary:
    def use_embed_dim(self, workspace, dim: int) -> None:
        payload = json.loads(workspace.config_path.read_text(encoding="utf-8"))
        payload["embed_dim"] = dim
        workspace.config_path.write_text(json.dumps(payload), encoding="utf-8")

    @pytest.mark.parametrize("stage, code", [("classify", 4), ("link", 5)])
    def test_model_provider_dim_mismatch_exits_with_stage_code(
        self, workspace, no_network, capsys, stage, code
    ):
        assert workspace.run("ingest") == 0
        assert workspace.run("train") == 0
        self.use_embed_dim(workspace, 64)
        capsys.readouterr()
        assert workspace.run(stage) == code
        err = capsys.readouterr().err
        assert f"{stage}: model expects 384-dim vectors, provider yields 64" in err

    def test_unexpected_exception_propagates(self, workspace, monkeypatch):
        from geolex import corpus

        def broken(pages, *, spill=None):
            raise TypeError("a bug, not a stage failure")

        monkeypatch.setattr(corpus, "segment_pages", broken)
        with pytest.raises(TypeError, match="a bug"):
            workspace.run("ingest")


class TestAtomicArtifacts:
    def test_failed_replace_leaves_previous_files_and_no_temp(
        self, workspace, no_network, monkeypatch
    ):
        assert workspace.run_all_stages() == 0
        before = {
            path: path.read_bytes()
            for path in (workspace.model, workspace.geojson, workspace.dataset)
        }

        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail_replace)
        assert workspace.run("train") == 3
        assert workspace.run("report") == 7
        assert {path: path.read_bytes() for path in before} == before
        assert not list(workspace.root.glob("*.tmp"))


class TestExitCodes:
    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        code = cli.main(["ingest", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "config:" in capsys.readouterr().err

    def test_unreadable_config_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xe5")
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"config: {path}: invalid JSON: ")

    def test_invalid_config_value_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"cache_mode": "offline"}', encoding="utf-8")
        assert cli.main(["ingest", "--config", str(path)]) == 1

    @pytest.mark.parametrize("key, value, message", [
        ("map_width_px", 1601, "config: map_width_px: map width must be even"),
        ("embed_provider", "remote", 'config: embed_provider "remote" needs a service URL'),
        ("cache_dir", "", 'config: cache_mode "replay" needs a cache_dir'),
        ("user_agent", "geolex \u03a9", "config: user_agent: user agent must be printable ASCII"),
        ("user_agent", "geolex\r\nX-Evil: 1", "config: user_agent: user agent must be printable"),
    ])
    def test_bad_setting_exits_one_before_any_stage(
        self, workspace, capsys, monkeypatch, key, value, message
    ):
        monkeypatch.delenv("EMBED_URL", raising=False)
        payload = json.loads(workspace.config_path.read_text(encoding="utf-8"))
        payload[key] = value
        workspace.config_path.write_text(json.dumps(payload), encoding="utf-8")
        assert workspace.run("run") == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1, err
        assert not workspace.dataset.exists()

    def test_ingest_failure_exits_two(self, workspace, capsys):
        import shutil

        shutil.rmtree(workspace.raw_dir)
        assert workspace.run("ingest") == 2
        assert "ingest:" in capsys.readouterr().err

    def test_raw_dir_of_blank_pages_exits_two_and_writes_nothing(self, workspace, capsys):
        for page in workspace.raw_dir.glob("*/*.txt"):
            page.write_text(" \n", encoding="utf-8")
        assert workspace.run("ingest") == 2
        assert "no raw pages found" in capsys.readouterr().err
        assert not workspace.dataset.exists()

    def test_train_failure_exits_three(self, workspace, no_network, capsys):
        assert workspace.run("ingest") == 0
        workspace.annotations.unlink()
        assert workspace.run("train") == 3
        assert "annotations not found" in capsys.readouterr().err

    def test_classify_without_model_exits_four(self, workspace, no_network, capsys):
        assert workspace.run("ingest") == 0
        assert workspace.run("classify") == 4
        assert "model not found" in capsys.readouterr().err

    def test_classify_without_dataset_exits_four(self, workspace, no_network, capsys):
        assert workspace.run("classify") == 4
        assert "dataset not found" in capsys.readouterr().err

    def test_link_without_labels_or_model_exits_five(
        self, workspace, no_network, capsys
    ):
        assert workspace.run("ingest") == 0
        assert workspace.run("link") == 5
        assert "run classify first" in capsys.readouterr().err

    def test_punctured_replay_cache_fails_link_with_entry_id(
        self, workspace, no_network, capsys
    ):
        assert workspace.run("ingest") == 0
        assert workspace.run("train") == 0
        assert workspace.run("classify") == 0
        capsys.readouterr()
        labels = fx.build_replay_cache(workspace.cache_dir)
        labels["search:Stockholm"].unlink()
        # the description request then leaves out Stockholm's candidates
        fx.record_descriptions(
            workspace.cache_dir,
            [h for h in fx.LOCATION_HEADWORDS if h != "Stockholm"],
        )
        assert workspace.run("link") == 5
        err = capsys.readouterr().err
        assert "link: entry 9:211:2: ReplayCacheMiss" in err
        assert "1 of 7 entries failed to link" in err

    @pytest.mark.parametrize("stored", [
        {"body": None},
        {"body": "not base64!", "encoding": "base64"},
    ])
    def test_corrupt_replay_record_fails_link_with_entry_id(
        self, workspace, no_network, capsys, stored
    ):
        for stage in ("ingest", "train", "classify"):
            assert workspace.run(stage) == 0
        capsys.readouterr()
        labels = fx.build_replay_cache(workspace.cache_dir)
        labels["search:Stockholm"].write_text(json.dumps(stored), encoding="utf-8")
        fx.record_descriptions(
            workspace.cache_dir,
            [h for h in fx.LOCATION_HEADWORDS if h != "Stockholm"],
        )
        assert workspace.run("link") == 5
        err = capsys.readouterr().err
        assert "link: entry 9:211:2: ProtocolError: corrupt cache file" in err
        assert "1 of 7 entries failed to link" in err

    @pytest.mark.parametrize("config, argv", [
        ('{"rate_limit_s": NaN}', ["link"]),
        ("{}", ["link", "--min-sim", "nan"]),
        ("{}", ["report", "--bucket-km", "inf"]),
    ])
    def test_non_finite_setting_exits_one(self, tmp_path, capsys, config, argv):
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        assert cli.main([argv[0], "--config", str(path), *argv[1:]]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_lone_surrogate_in_a_headword_fails_link_before_any_request(
        self, workspace, no_network, monkeypatch, capsys
    ):
        assert workspace.run_all_stages() == 0
        lines = workspace.dataset.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if '"headword": "Berlin"' in line)
        lines[index] = lines[index].replace('"Berlin"', '"\\ud800Berlin"')
        workspace.dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        sent = []
        monkeypatch.setattr(wikidata.WikidataClient, "_send",
                            lambda client, request: sent.append(request))
        capsys.readouterr()
        assert workspace.run("link") == 5
        err = capsys.readouterr().err
        assert f"link: {workspace.dataset}:{index + 1}: field 'headword' is not UTF-8" in err
        assert sent == []

    def test_replay_miss_in_coords_exits_six(self, workspace, no_network, capsys):
        assert workspace.run_all_stages() == 0
        # strip coordinates so coords must refetch, then break the cache
        entries = load_dataset(workspace.dataset)
        for entry in entries:
            entry.lat = entry.lon = None
        from geolex.corpus import save_dataset

        save_dataset(entries, workspace.dataset)
        labels = fx.build_replay_cache(workspace.cache_dir)
        labels["sparql:coordinates"].unlink()
        capsys.readouterr()
        assert workspace.run("coords") == 6
        assert "coords:" in capsys.readouterr().err

    def test_unwritable_artifact_exits_seven(self, workspace, no_network, capsys):
        assert workspace.run_all_stages() == 0
        capsys.readouterr()
        missing_dir = workspace.root / "not-there" / "places.geojson"
        assert workspace.run("report", "--geojson", str(missing_dir)) == 7
        assert "report:" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("lat", "59.8"), ("is_location", "no")])
    def test_report_rejects_a_mistyped_record_naming_its_line(
        self, workspace, no_network, capsys, field, value
    ):
        assert workspace.run_all_stages() == 0
        lines = workspace.dataset.read_text(encoding="utf-8").splitlines()
        lineno, line = next(
            (n, line) for n, line in enumerate(lines, start=1) if '"9:211:2"' in line
        )
        record = json.loads(line)
        record[field] = value
        lines[lineno - 1] = json.dumps(record, ensure_ascii=False)
        workspace.dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert workspace.run("report") == 7
        err = capsys.readouterr().err
        assert f"report: {workspace.dataset}:{lineno}: field '{field}' must be" in err

    @pytest.mark.parametrize("literal, message", [
        (b"1" + b"0" * 400, "field 'lat' must be int or float, got 1000"),
        (b"1" * 4301, "invalid JSON: Exceeds the limit (4300 digits)"),
        (b'"59.8\x80"', "invalid JSON: 'utf-8' codec can't decode byte 0x80"),
    ], ids=["past-float-range", "past-4300-digits", "not-utf-8"])
    def test_report_names_the_line_of_a_number_or_byte_it_cannot_read(
        self, workspace, no_network, capsys, literal, message
    ):
        assert workspace.run_all_stages() == 0
        lines = workspace.dataset.read_bytes().splitlines()
        lineno, line = next((n, line) for n, line in enumerate(lines, start=1)
                            if b'"9:211:2"' in line)
        record = json.loads(line)
        lines[lineno - 1] = line.replace(f'"lat": {record["lat"]!r}'.encode(), b'"lat": ' + literal)
        assert lines[lineno - 1] != line
        workspace.dataset.write_bytes(b"\n".join(lines) + b"\n")
        capsys.readouterr()
        assert workspace.run("report") == 7
        assert f"report: {workspace.dataset}:{lineno}: {message}" in capsys.readouterr().err

    def test_partial_failure_emits_summaries_before_error(
        self, workspace, no_network, capsys
    ):
        # no annotations and no model: run re-ingests fine, then train
        # fails; the ingest summary must still appear before the error
        workspace.annotations.unlink()
        assert workspace.run_all_stages() == 3
        captured = capsys.readouterr()
        summaries = parse_summaries(captured.out)
        assert [s["stage"] for s in summaries] == ["ingest"]
        assert "train:" in captured.err

    def test_unknown_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["frobnicate"])
        assert exc_info.value.code == 2


class TestLiveFailureTolerance:
    def test_scattered_live_failures_do_not_abort(
        self, workspace, no_network, capsys, monkeypatch
    ):
        # live mode keeps going when only some entries fail
        assert workspace.run("ingest") == 0
        assert workspace.run("train") == 0
        assert workspace.run("classify") == 0

        fail_berlin_live(workspace, monkeypatch)
        capsys.readouterr()
        assert workspace.run("link") == 0
        captured = capsys.readouterr()
        assert "link: entry 2:57:2: TransportError" in captured.err
        entries = load_dataset(workspace.dataset)
        by_id = {e.id: e.qid for e in entries}
        assert by_id["2:57:2"] is None  # Berlin lost its link
        assert by_id["9:211:2"] == "Q1754"  # everyone else linked

    def test_unreadable_record_costs_only_its_entry_in_record_mode(
        self, workspace, no_network, capsys
    ):
        for stage in ("ingest", "train", "classify"):
            assert workspace.run(stage) == 0
        labels = fx.build_replay_cache(workspace.cache_dir)
        labels["search:Berlin"].unlink()
        labels["search:Berlin"].mkdir()
        fx.record_descriptions(
            workspace.cache_dir, [h for h in fx.LOCATION_HEADWORDS if h != "Berlin"]
        )
        capsys.readouterr()
        assert workspace.run("link", "--cache-mode", "record") == 0
        failures = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("link: entry ")]
        assert failures == [
            f"link: entry 2:57:2: ProtocolError: {labels['search:Berlin']}: "
            "cannot read: Is a directory"
        ]
        by_id = {e.id: e.qid for e in load_dataset(workspace.dataset)}
        assert by_id == {entry_id: None if entry_id == "2:57:2" else fx.EXPECTED_LINKS.get(entry_id)
                         for entry_id in fx.ENTRY_IDS}

    def test_total_failure_aborts_even_live(self, workspace, no_network, capsys, monkeypatch):
        assert workspace.run("ingest") == 0
        assert workspace.run("train") == 0
        assert workspace.run("classify") == 0

        from geolex.errors import TransportError

        def dead_send(self, request):
            raise TransportError("service unreachable")

        monkeypatch.setattr(wikidata.WikidataClient, "_send", dead_send)
        config_payload = json.loads(workspace.config_path.read_text(encoding="utf-8"))
        config_payload["cache_mode"] = "record"
        workspace.config_path.write_text(
            json.dumps(config_payload), encoding="utf-8"
        )
        capsys.readouterr()
        assert workspace.run("link") == 5
        assert "7 of 7 entries failed to link" in capsys.readouterr().err
