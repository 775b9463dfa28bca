"""Linker tests: ranking, tie-breaks, fixture links, batch error handling."""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracles
import pipeline_fixtures as fx
from geolex import linker
from geolex.corpus import Entry, RawPage, load_dataset, save_dataset, segment_pages
from geolex.embedding import EMBED_CHUNK, HashedTrigramEmbedder, RemoteEmbedder
from geolex.errors import ProtocolError, TransportError
from geolex.linker import NO_MIN_SIMILARITY, link_batch, rank_candidates
from geolex.wikidata import DEFAULT_API_URL, SEARCH_LIMIT, ReplayTransport, WikidataClient


def fixture_entries():
    pages = [RawPage(v, p, t) for v, p, t in fx.PAGES]
    return {e.id: e for e in segment_pages(pages)}


@pytest.fixture()
def replay_client(tmp_path):
    cache_dir = tmp_path / "wd_cache"
    labels = fx.build_replay_cache(cache_dir)
    client = WikidataClient(transport=ReplayTransport(cache_dir))
    return client, labels


def client_with_row(tmp_path, label: str, body: str | None) -> WikidataClient:
    """A replay client of the fixture's cache in which the row for
    ``label`` answers ``body`` instead, or is gone when ``body`` is None."""
    cache_dir = tmp_path / "wd_cache"
    key = fx.build_replay_cache(cache_dir)[label]
    if body is None:
        fx.drop_row(cache_dir, key)
    else:
        fx.answer_row(cache_dir, key, body)
    return WikidataClient(transport=ReplayTransport(cache_dir))


@pytest.fixture()
def fixture_client():
    """A client answering any search or description subset of the
    fixture data, for linking entries one at a time."""
    return WikidataClient(transport=fx.FixtureTransport())


def places(count: int):
    """``count`` synthetic entries, each headword with five candidates
    of its own, and the search results that serve them."""
    results = {
        f"Ort{n}": [
            (f"Q{1000 + 5 * n + k}", f"Ort{n}", f"ort {n}, kandidat {k}")
            for k in range(5)
        ]
        for n in range(count)
    }
    entries = [
        Entry(f"1:{n + 1}:1", 1, n + 1, f"Ort{n}", f"Ort{n}, stad {n}.", f"Ort{n}, stad {n}.")
        for n in range(count)
    ]
    return entries, results


class RewrittenHit(fx.FixtureTransport):
    """Answers as ``FixtureTransport``, except that the search for
    ``headword`` has its hit number ``index`` updated with ``fields``."""

    def __init__(self, results, headword: str, index: int, fields: dict):
        super().__init__(results)
        self.headword, self.index, self.fields = headword, index, fields

    def send(self, request):
        body = super().send(request)
        if dict(request.params)["search"] != self.headword:
            return body
        payload = json.loads(body)
        payload["search"][self.index].update(self.fields)
        return json.dumps(payload).encode("utf-8")  # ASCII: "\ud800" stays escaped


class CountingEmbedder(HashedTrigramEmbedder):
    """Keeps the texts of every ``embed_batch`` call; fails call
    number ``fail_call`` (counting from 1)."""

    def __init__(self, fail_call: int | None = None):
        super().__init__()
        self.calls: list[list[str]] = []
        self.fail_call = fail_call

    def embed_batch(self, texts):
        texts = list(texts)
        self.calls.append(texts)
        if len(self.calls) == self.fail_call:
            raise ProtocolError("embedding service returned garbage")
        return super().embed_batch(texts)


def unit(*values: float) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestRankCandidates:
    def test_highest_similarity_first(self):
        definition = unit(1.0, 0.0)
        close = ("Q2", unit(0.9, 0.1))
        far = ("Q1", unit(0.2, 0.8))
        ranking = rank_candidates(definition, [far, close])
        assert [qid for qid, _ in ranking] == ["Q2", "Q1"]
        assert ranking[0][1] > ranking[1][1]

    def test_exact_tie_breaks_toward_lower_item_number(self):
        definition = unit(1.0, 0.0)
        same = unit(1.0, 1.0)
        inputs = [
            ("Q30", same),
            ("Q4", same),
            ("Q200", same),
        ]
        ranking = rank_candidates(definition, inputs)
        assert [qid for qid, _ in ranking] == ["Q4", "Q30", "Q200"]

    def test_numeric_not_lexicographic_tiebreak(self):
        definition = unit(1.0)
        same = unit(1.0)
        inputs = [
            ("Q9", same),
            ("Q10", same),
        ]
        ranking = rank_candidates(definition, inputs)
        # lexicographically "Q10" < "Q9"; numerically 9 comes first
        assert [qid for qid, _ in ranking] == ["Q9", "Q10"]

    def test_input_order_never_matters(self):
        rng = np.random.default_rng(17)
        definition = unit(*rng.normal(size=4))
        inputs = [(f"Q{i + 1}", unit(*rng.normal(size=4))) for i in range(4)]
        baseline = rank_candidates(definition, inputs)
        for permutation in itertools.permutations(inputs):
            assert rank_candidates(definition, list(permutation)) == baseline

    def test_zero_vector_candidate_scores_zero(self):
        definition = unit(1.0, 1.0)
        ranking = rank_candidates(definition, [("Q5", np.zeros(2))])
        assert ranking == [("Q5", 0.0)]


class TestRankChunkExactness:
    def test_similarities_equal_dense_cosine_exactly(self):
        descriptions = [
            "stad i Uppland vid Fyrisån", None, "stad i Uppland vid Fyrisån",
            "musikalbum från 1994", "ab", "efternamn", "by i Dalarna vid Siljan",
        ]
        definitions = [
            "Uppsala, stad i Uppland, vid Fyrisån.",
            "Mora, köping i Dalarna, vid Siljan.",
            "Mora, köping i Dalarna, vid Siljan.",  # a repeated definition
            "ab",  # no trigram: the zero vector
        ]
        entries = [
            Entry(f"1:{n + 1}:1", 1, n + 1, f"Ort{n}", text, text)
            for n, text in enumerate(definitions)
        ]
        hits = [
            [f"Q{10 * n + k + 1}" for k in range(len(descriptions))]
            for n in range(len(entries))
        ]
        described = {
            qid: text for found in hits for qid, text in zip(found, descriptions)
        }
        embedder = HashedTrigramEmbedder()
        outcome = linker._rank_chunk(
            list(zip(entries, hits)), described, embedder, NO_MIN_SIMILARITY
        )
        for entry, result in zip(entries, outcome):
            definition = embedder.embed(entry.definition)
            assert len(result.considered) == len(descriptions)
            for qid, similarity in result.considered:
                description = embedder.embed(described[qid] or "")
                assert similarity == oracles.dense_cosine(definition, description)
            assert result.similarity == result.considered[0][1]
        assert all(similarity == 0.0 for _, similarity in outcome[3].considered)


class TestLinkEntryOnFixture:
    def test_stockholm_links_to_main_city_item(self, fixture_client, no_network):
        entry = fixture_entries()["9:211:2"]
        embedder = HashedTrigramEmbedder()
        (result,) = link_batch([entry], embedder, fixture_client)
        assert result.chosen == "Q1754"
        assert result.error is None
        assert len(result.considered) == 5
        # every similarity must match an independent sparse-trigram oracle
        described = {qid: text for qid, _, text in fx.SEARCH_RESULTS["Stockholm"]}
        for qid, similarity in result.considered:
            expected = oracles.text_similarity(entry.definition, described[qid] or "")
            assert similarity == pytest.approx(expected, abs=1e-9)
        sims = [similarity for _, similarity in result.considered]
        assert sims == sorted(sims, reverse=True)
        assert result.similarity == pytest.approx(sims[0], abs=0)

    def test_iowa_prefers_the_wrong_item(self, fixture_client, no_network):
        # the themed description shares more trigrams with the entry
        # text than the plain one, so the lower-quality item wins
        entry = fixture_entries()["9:210:1"]
        (result,) = link_batch([entry], HashedTrigramEmbedder(), fixture_client)
        assert result.chosen == "Q99670857"
        by_qid = dict(result.considered)
        assert by_qid["Q99670857"] > by_qid["Q1546"]

    def test_no_search_hits_means_unlinked(self, fixture_client, no_network):
        entry = fixture_entries()["2:57:1"]
        assert entry.headword == "Arktonnesos"
        (result,) = link_batch([entry], HashedTrigramEmbedder(), fixture_client)
        assert result.chosen is None
        assert result.similarity == 0.0
        assert result.considered == []
        assert result.error is None

    def test_all_expected_links_reproduce(self, fixture_client, no_network):
        entries = fixture_entries()
        embedder = HashedTrigramEmbedder()
        for entry_id, expected_qid in fx.EXPECTED_LINKS.items():
            (result,) = link_batch([entries[entry_id]], embedder, fixture_client)
            assert result.chosen == expected_qid, entry_id

    def test_min_similarity_gate_unlinks_but_keeps_ranking(
        self, fixture_client, no_network
    ):
        entry = fixture_entries()["9:211:2"]
        (result,) = link_batch(
            [entry], HashedTrigramEmbedder(), fixture_client, min_similarity=0.99
        )
        assert result.chosen is None
        assert len(result.considered) == 5
        assert result.similarity < 0.99

    def test_transport_failure_wraps_entry_id(self):
        class DownTransport:
            def send(self, request):
                raise TransportError("socket closed")

        client = WikidataClient(
            transport=DownTransport(), backoff_s=(), sleep=lambda s: None
        )
        entry = fixture_entries()["9:211:2"]
        (result,) = link_batch([entry], HashedTrigramEmbedder(), client)
        assert result.entry_id == "9:211:2"
        assert result.chosen is None
        assert result.error == "TransportError: socket closed"


class TestLinkBatch:
    def location_entries(self):
        entries = fixture_entries()
        return [
            entries[entry_id]
            for entry_id in fx.ENTRY_IDS
            if fx.IS_LOCATION[entry_id]
        ]

    def test_results_in_input_order(self, replay_client, no_network):
        client, _ = replay_client
        batch = self.location_entries()
        results = link_batch(batch, HashedTrigramEmbedder(), client)
        assert [r.entry_id for r in results] == [e.id for e in batch]
        assert {r.entry_id: r.chosen for r in results} == dict(fx.EXPECTED_LINKS)

    def test_thread_pool_gives_same_answers(self, replay_client, no_network):
        client, _ = replay_client
        batch = self.location_entries()
        serial = link_batch(batch, HashedTrigramEmbedder(), client, workers=1)
        threaded = link_batch(batch, HashedTrigramEmbedder(), client, workers=3)
        assert [(r.entry_id, r.chosen, r.similarity) for r in serial] == [
            (r.entry_id, r.chosen, r.similarity) for r in threaded
        ]

    def test_one_bad_entry_does_not_sink_the_batch(self, tmp_path, no_network):
        client = client_with_row(tmp_path, "search:Berlin", None)  # puncture one response
        batch = self.location_entries()
        results = link_batch(batch, HashedTrigramEmbedder(), client)
        by_id = {r.entry_id: r for r in results}
        berlin = by_id["2:57:2"]
        assert berlin.chosen is None
        assert berlin.error is not None
        assert berlin.error.startswith("ReplayCacheMiss:")
        healthy = [r for r in results if r.entry_id != "2:57:2"]
        assert all(r.error is None for r in healthy)
        assert by_id["9:211:2"].chosen == "Q1754"
        assert by_id["30:5:1"].chosen == "Q1741"

    def test_unusable_recorded_answer_marks_only_its_entries(self, tmp_path, no_network):
        client = client_with_row(tmp_path, "search:Berlin", "[]")
        entries = fixture_entries()
        berlin, aachen = link_batch(
            [entries["2:57:2"], entries["1:101:1"]], HashedTrigramEmbedder(), client
        )
        assert berlin.chosen is None
        assert berlin.error == f"ProtocolError: unexpected response shape from {DEFAULT_API_URL}"
        assert (aachen.chosen, aachen.error) == (fx.EXPECTED_LINKS["1:101:1"], None)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blank_headword_fails_only_its_entries(self, tmp_path, workers, no_network):
        stockholm = fixture_entries()["9:211:2"]
        path = tmp_path / "d.jsonl"
        save_dataset([stockholm, dataclasses.replace(stockholm, id="9:211:9", headword="  "),
                      dataclasses.replace(stockholm, id="9:211:10", headword="")], path)
        batch = load_dataset(path)  # the dataset accepts a blank headword
        client = WikidataClient(transport=fx.FixtureTransport())
        results = link_batch(batch, HashedTrigramEmbedder(), client, workers=workers)
        assert [(r.entry_id, r.chosen, r.error) for r in results] == [
            ("9:211:2", "Q1754", None),
            ("9:211:9", None, "ValueError: cannot search for an empty headword"),
            ("9:211:10", None, "ValueError: cannot search for an empty headword"),
        ]

    def test_bad_worker_count_rejected(self, replay_client):
        client, _ = replay_client
        with pytest.raises(ValueError):
            link_batch([], HashedTrigramEmbedder(), client, workers=0)

    def test_empty_batch_is_fine(self, replay_client):
        client, _ = replay_client
        assert link_batch([], HashedTrigramEmbedder(), client) == []

    @pytest.mark.parametrize("description, problem", [
        (5, "has no string value"),
        ("\ud800", "cannot be encoded as UTF-8"),
    ], ids=["number", "lone-surrogate"])
    def test_malformed_description_fails_only_its_search(self, description, problem):
        batch, results = self.repeated_places()  # Ort1, Ort0, Ort1, Ort2, Ort0, Ort1
        broken = results["Ort1"][2][0]
        transport = RewrittenHit(results, "Ort1", 2, {"description": description})
        outcome = link_batch(batch, HashedTrigramEmbedder(), WikidataClient(transport=transport))
        assert self.searched(transport) == ["Ort1", "Ort0", "Ort2"]
        failed = [(e.headword, r.error) for e, r in zip(batch, outcome) if r.error is not None]
        assert failed == [("Ort1", f"ProtocolError: search hit {broken}: description {problem}")] * 3
        assert all(r.chosen is not None for e, r in zip(batch, outcome) if e.headword != "Ort1")

    def test_a_description_in_another_language_ranks_as_none(self, no_network):
        stockholm = fixture_entries()["9:211:2"]  # links to Q1754 on the plain fixture
        # A search may fall back to another language; ``display`` says which.
        english = {"display": {"description": {"value": "x", "language": "en"}}}
        transport = RewrittenHit(fx.SEARCH_RESULTS, "Stockholm", 0, english)
        client = WikidataClient(transport=transport)
        (result,) = link_batch([stockholm], HashedTrigramEmbedder(), client)
        assert result.error is None
        assert dict(result.considered)["Q1754"] == 0.0
        assert result.chosen != "Q1754"

    def test_an_item_keeps_the_description_of_the_first_search_that_found_it(self, no_network):
        entries, results = places(2)
        shared = results["Ort0"][0][0]
        results["Ort1"][0] = (shared, "Ort1", "musikalbum från 1994")
        client = WikidataClient(transport=fx.FixtureTransport(results))
        outcome = link_batch(entries, HashedTrigramEmbedder(), client)
        for entry, result in zip(entries, outcome):
            expected = oracles.text_similarity(entry.definition, results["Ort0"][0][2])
            assert dict(result.considered)[shared] == pytest.approx(expected, abs=1e-9)

    # too deep to parse, and past Python's integer digit limit
    @pytest.mark.parametrize("body", [b"[" * 100_000, b"1" * 5000], ids=["deep", "digits"])
    def test_unparsable_search_answer_fails_only_its_headword(self, body):
        entries, results = places(3)

        class Unparsable(fx.FixtureTransport):
            def send(self, request):
                answer = super().send(request)
                return body if dict(request.params)["search"] == "Ort1" else answer

        client = WikidataClient(transport=Unparsable(results))
        outcome = link_batch(entries, HashedTrigramEmbedder(), client)
        assert [r.entry_id for r in outcome if r.error] == [entries[1].id]
        assert outcome[1].error.startswith("ProtocolError: non-JSON response from ")
        assert outcome[0].chosen is not None and outcome[2].chosen is not None

    def test_workers_bound_the_requests_in_flight(self):
        entries, results = places(60)

        class InFlight(fx.FixtureTransport):
            """Holds every request open briefly and keeps, per API
            action, the most requests that were open at once."""

            def __init__(self, results):
                super().__init__(results)
                self.lock = threading.Lock()
                self.open = 0
                self.peak: dict[str, int] = {}

            def send(self, request):
                action = dict(request.params)["action"]
                with self.lock:
                    self.open += 1
                    self.peak[action] = max(self.peak.get(action, 0), self.open)
                try:
                    time.sleep(0.01)
                    return super().send(request)
                finally:
                    with self.lock:
                        self.open -= 1

        transport = InFlight(results)
        outcome = link_batch(
            entries, HashedTrigramEmbedder(), WikidataClient(transport=transport), workers=3
        )
        assert all(r.error is None and r.chosen is not None for r in outcome)
        # more than one open shows the pool ran; never more than three
        # shows it is the bound
        assert set(transport.peak) == {"wbsearchentities"}
        assert 1 < transport.peak["wbsearchentities"] <= 3, transport.peak

    def test_a_pool_queues_a_few_searches_per_worker(self, monkeypatch, no_network):
        entries, results = places(60)
        lock = threading.Lock()
        undone: set = set()
        peak = 0

        class CountingPool(ThreadPoolExecutor):
            """Keeps the most futures that were queued or running at once."""

            def submit(self, fn, /, *args):
                nonlocal peak
                future = super().submit(fn, *args)
                with lock:
                    undone.add(future)
                    peak = max(peak, len(undone))
                future.add_done_callback(finished)
                return future

        def finished(future):
            with lock:
                undone.discard(future)

        class SlowSearch(fx.FixtureTransport):
            def send(self, request):
                time.sleep(0.005)
                return super().send(request)

        monkeypatch.setattr(linker, "thread_pool", CountingPool)
        transport = SlowSearch(results)
        outcome = link_batch(
            entries, HashedTrigramEmbedder(), WikidataClient(transport=transport), workers=2
        )
        assert all(r.error is None and r.chosen is not None for r in outcome)
        assert sorted(self.searched(transport)) == sorted(e.headword for e in entries)
        assert 1 < peak <= 2 * linker.SEARCH_WINDOW_PER_WORKER, peak

    def test_an_error_cancels_the_queued_requests(self, no_network):
        entries, results = places(40)

        class FirstSearchBreaks(fx.FixtureTransport):
            """Raises a bug on the first headword's search; every other
            request takes 50 ms."""

            def send(self, request):
                if dict(request.params).get("search") == "Ort0":
                    self.requests.append(request)
                    raise RuntimeError("bug in the transport")
                time.sleep(0.05)
                return super().send(request)

        transport = FirstSearchBreaks(results)
        client = WikidataClient(transport=transport)
        with pytest.raises(RuntimeError, match="bug in the transport"):
            link_batch(entries, HashedTrigramEmbedder(), client, workers=2)
        # the searches still queued when the bug surfaced were never sent
        assert len(self.searched(transport)) < len(entries) // 2, self.searched(transport)

    def test_shared_candidates_are_embedded_once(self, no_network):
        entries = fixture_entries()
        berlin, wien = entries["2:57:2"], entries["30:5:1"]
        twin = dataclasses.replace(berlin, id="2:57:9")
        transport = fx.FixtureTransport()
        embedder = CountingEmbedder()
        results = link_batch(
            [berlin, wien, twin], embedder, WikidataClient(transport=transport)
        )
        assert [r.chosen for r in results] == ["Q64", "Q1741", "Q64"]
        assert self.searched(transport) == ["Berlin", "Wien"]
        (texts,) = embedder.calls
        assert len(texts) == len(set(texts))
        assert set(texts) == {berlin.definition, wien.definition, ""} | {
            text for _, _, text in fx.SEARCH_RESULTS["Berlin"] + fx.SEARCH_RESULTS["Wien"]
            if text is not None
        }

    def test_cache_recorded_on_three_workers_replays_on_one(self, tmp_path, no_network):
        entries, results = places(24)  # 120 candidates: three requests
        recorder = ReplayTransport(tmp_path, fx.FixtureTransport(results))
        recorded = link_batch(
            entries, HashedTrigramEmbedder(), WikidataClient(transport=recorder), workers=3
        )
        assert len(fx.recorded_keys(tmp_path)) == 24
        replayed = link_batch(
            entries,
            HashedTrigramEmbedder(),
            WikidataClient(transport=ReplayTransport(tmp_path)),
            workers=1,
        )
        assert all(r.error is None for r in replayed)
        assert [(r.entry_id, r.chosen, r.similarity) for r in replayed] == [
            (r.entry_id, r.chosen, r.similarity) for r in recorded
        ]

    @staticmethod
    def repeated_places():
        """Entries whose headwords repeat: Ort1, Ort0, Ort1, Ort2, Ort0, Ort1."""
        entries, results = places(3)
        batch = [
            dataclasses.replace(entries[n], id=f"1:{n + 1}:{copy}")
            for copy, n in enumerate([1, 0, 1, 2, 0, 1])
        ]
        return batch, results

    @staticmethod
    def searched(transport) -> list[str]:
        sent = (dict(request.params) for request in transport.requests)
        return [p["search"] for p in sent if p.get("action") == "wbsearchentities"]

    def test_repeated_headwords_are_searched_once_each(self, no_network):
        batch, results = self.repeated_places()
        transport = fx.FixtureTransport(results)
        outcome = link_batch(batch, HashedTrigramEmbedder(), WikidataClient(transport=transport))
        assert self.searched(transport) == ["Ort1", "Ort0", "Ort2"]
        assert [r.entry_id for r in outcome] == [e.id for e in batch]
        distinct, _ = places(3)
        client = WikidataClient(transport=fx.FixtureTransport(results))
        alone = link_batch(distinct, HashedTrigramEmbedder(), client)
        expected = {e.headword: (r.chosen, r.similarity) for e, r in zip(distinct, alone)}
        assert all(r.error is None for r in outcome)
        assert [(r.chosen, r.similarity) for r in outcome] == [
            expected[e.headword] for e in batch
        ]

    def test_failed_search_marks_every_entry_with_its_headword(self, no_network):
        batch, results = self.repeated_places()

        class SearchDown(fx.FixtureTransport):
            def send(self, request):
                if dict(request.params).get("search") == "Ort1":
                    self.requests.append(request)
                    raise TransportError("search shard down")
                return super().send(request)

        transport = SearchDown(results)
        client = WikidataClient(transport=transport, backoff_s=())
        outcome = link_batch(batch, HashedTrigramEmbedder(), client, workers=2)
        assert self.searched(transport).count("Ort1") == 1
        failed = [e.headword for e, r in zip(batch, outcome) if r.error is not None]
        assert failed == ["Ort1", "Ort1", "Ort1"]
        assert all(
            r.error == "TransportError: search shard down"
            for e, r in zip(batch, outcome) if e.headword == "Ort1"
        )
        assert all(r.chosen is not None for e, r in zip(batch, outcome) if e.headword != "Ort1")

    def test_record_mode_sends_a_repeated_headword_live_once(self, tmp_path, no_network):
        batch, results = self.repeated_places()
        live = fx.FixtureTransport(results)
        recorder = ReplayTransport(tmp_path, live)
        recorded = link_batch(
            batch, HashedTrigramEmbedder(), WikidataClient(transport=recorder), workers=3
        )
        assert sorted(self.searched(live)) == ["Ort0", "Ort1", "Ort2"]
        assert len(live.requests) == 3
        assert all(r.error is None and r.chosen is not None for r in recorded)

    def test_failed_embedding_call_marks_its_chunk(self):
        # at five candidates an entry needs six texts, so a chunk holds
        # EMBED_CHUNK // 6 entries
        step = EMBED_CHUNK // (1 + SEARCH_LIMIT)
        entries, results = places(step + 5)
        embedder = CountingEmbedder(fail_call=1)
        client = WikidataClient(transport=fx.FixtureTransport(results))
        outcome = link_batch(entries, embedder, client)
        assert [len(call) for call in embedder.calls] == [step * 6, 5 * 6]
        assert all(len(call) <= EMBED_CHUNK for call in embedder.calls)
        assert all(
            r.error == "ProtocolError: embedding service returned garbage"
            for r in outcome[:step]
        )
        assert all(r.error is None and r.chosen is not None for r in outcome[step:])

    @pytest.mark.parametrize("garbage", [
        ["a"] * 384,
        [[1.0]] + [[1.0, 2.0]] * 383,  # ragged
        [10**400] * 384,  # past any float
    ])
    def test_malformed_remote_vector_marks_only_its_chunk(self, garbage):
        class GarbledService:
            """Trigram vectors, except that the first reply's first
            vector is ``garbage``."""

            replies = 0

            def send(self, request):
                texts = json.loads(request.body)["texts"]
                vectors = [v.tolist() for v in HashedTrigramEmbedder().embed_batch(texts)]
                if not self.replies:
                    vectors[0] = garbage
                self.replies += 1
                return json.dumps({"vectors": vectors}).encode()

        step = EMBED_CHUNK // (1 + SEARCH_LIMIT)
        entries, results = places(step + 1)  # chunks of step and 1
        embedder = RemoteEmbedder("http://embed.test", transport=GarbledService())
        client = WikidataClient(transport=fx.FixtureTransport(results))
        outcome = link_batch(entries, embedder, client)
        assert all(r.error.startswith("ProtocolError: vector 0 ") for r in outcome[:step])
        assert outcome[step].error is None and outcome[step].chosen is not None
