"""Wikidata client tests: parsing, caching, transports, retries, batching."""

from __future__ import annotations

import builtins
import http.client
import io
import json
import re
import threading
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipeline_fixtures as fx
from conftest import run_on_threads
from geolex import corpus, embedding, wikidata
from geolex.embedding import RemoteEmbedder
from geolex.errors import ProtocolError, ReplayCacheMiss, TransportError
from geolex.geo import GeoPoint
from geolex.wikidata import (
    DEFAULT_API_URL,
    DEFAULT_USER_AGENT,
    LOG_NAME,
    SPARQL_BATCH_SIZE,
    HttpRequest,
    RateLimiter,
    ReplayTransport,
    UrllibTransport,
    WikidataClient,
    canonical_request_key,
    make_transport,
    parse_wkt_point,
    qid_number,
    validate_qid,
)


class FakeTransport:
    """Scripted transport: records requests, answers via a handler."""

    def __init__(self, handler):
        self.handler = handler
        self.requests: list[HttpRequest] = []

    def send(self, request: HttpRequest):
        self.requests.append(request)
        result = self.handler(request)
        if isinstance(result, Exception):
            raise result
        return result


def make_client(handler, **kwargs) -> tuple[WikidataClient, FakeTransport]:
    transport = FakeTransport(handler)
    sleeps: list[float] = []
    client = WikidataClient(
        transport=transport, sleep=sleeps.append, **kwargs
    )
    client.test_sleeps = sleeps  # type: ignore[attr-defined]
    return client, transport


class TestQidValidation:
    def test_accepts_plain_ids(self):
        assert validate_qid("Q1") == "Q1"
        assert validate_qid("Q99670857") == "Q99670857"

    @pytest.mark.parametrize(
        "bad", ["", "Q", "Q0", "Q01", "q64", "64", "Q64 ", "Q6_4", "wd:Q64"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            validate_qid(bad)

    def test_number_extraction(self):
        assert qid_number("Q1754") == 1754


class TestWktParsing:
    def test_longitude_first_in_literal_latitude_first_out(self):
        assert parse_wkt_point("Point(18.068611 59.329444)") == GeoPoint(59.329444, 18.068611)

    def test_datum_prefix_accepted(self):
        literal = (
            "<http://www.opengis.net/def/crs/EPSG/0/4326> Point(12.57 55.68)"
        )
        assert parse_wkt_point(literal) == GeoPoint(55.68, 12.57)

    def test_case_and_whitespace_tolerant(self):
        assert parse_wkt_point("  POINT( -0.1275   51.507222 )  ") == GeoPoint(
            51.507222,
            -0.1275,
        )

    def test_negative_and_integer_coordinates(self):
        assert parse_wkt_point("Point(-180 -90)") == GeoPoint(-90.0, -180.0)

    @pytest.mark.parametrize(
        "bad",
        [
            "Point(181 10)",
            "Point(10 91)",
            "Point(inf 0)",
            "Point(nan 0)",
            "Point(10)",
            "Point(10 20 30)",
            "LineString(1 2)",
            "Point(a b)",
            "",
        ],
    )
    def test_rejects_bad_literals(self, bad):
        with pytest.raises(ValueError):
            parse_wkt_point(bad)


class TestCanonicalRequestKey:
    def test_parameter_order_never_matters(self):
        a = HttpRequest("GET", "https://x.test/api", params=(("b", "2"), ("a", "1")))
        b = HttpRequest("GET", "https://x.test/api", params=(("a", "1"), ("b", "2")))
        assert canonical_request_key(a) == canonical_request_key(b)

    def test_value_change_changes_key(self):
        a = HttpRequest("GET", "https://x.test/api", params=(("a", "1"),))
        b = HttpRequest("GET", "https://x.test/api", params=(("a", "2"),))
        assert canonical_request_key(a) != canonical_request_key(b)

    def test_body_changes_key(self):
        a = HttpRequest("POST", "https://x.test/sparql", body=b"query=1")
        b = HttpRequest("POST", "https://x.test/sparql", body=b"query=2")
        assert canonical_request_key(a) != canonical_request_key(b)

    def test_method_changes_key(self):
        a = HttpRequest("GET", "https://x.test/api")
        b = HttpRequest("POST", "https://x.test/api")
        assert canonical_request_key(a) != canonical_request_key(b)

    def test_headers_do_not_change_key(self):
        a = HttpRequest("GET", "https://x.test/api", headers=(("Accept", "x"),))
        b = HttpRequest("GET", "https://x.test/api")
        assert canonical_request_key(a) == canonical_request_key(b)


# Query parameter text with what ``urlencode`` must quote: spaces,
# "&", "=", "+", "%", non-ASCII text, and the empty string.
param_text = st.text(alphabet=st.one_of(
    st.sampled_from(" &=+%?#/åÅ\U0001F30D"), st.characters(blacklist_categories=("Cs",)),
), max_size=8)


class TestRequestKeyBytes:
    @settings(max_examples=100, deadline=None)
    @given(method=st.sampled_from(["GET", "post"]), url=st.sampled_from(["https://x.test/api"]),
           params=st.lists(st.tuples(param_text, param_text), max_size=6),
           body=st.none() | st.binary(max_size=8))
    def test_key_is_the_sorted_urlencode_key(self, method, url, params, body):
        """The key a row is stored under: method, URL, the ``urlencode``
        of the sorted parameters and the body read as Latin-1."""
        request = HttpRequest(method, url, params=tuple(params), body=body)
        query = urllib.parse.urlencode(sorted(params))
        text = (body or b"").decode("latin-1")
        assert canonical_request_key(request) == f"{method.upper()} {url}?{query} body:{text}"

    @settings(max_examples=100, deadline=None)
    @given(a=st.binary(max_size=8), b=st.binary(max_size=8))
    def test_distinct_bodies_have_distinct_keys(self, a, b):
        keys = {canonical_request_key(HttpRequest("POST", "https://x.test/sparql", body=body))
                for body in (a, b)}
        assert len(keys) == (1 if a == b else 2)


class FakeTime:
    def __init__(self):
        self.now = 100.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class TestRateLimiter:
    def test_spaces_back_to_back_calls(self):
        fake = FakeTime()
        limiter = RateLimiter(0.1, clock=fake.clock, sleep=fake.sleep)
        starts = []
        for _ in range(3):
            limiter.wait()
            starts.append(fake.now)
        assert fake.sleeps == [pytest.approx(0.1), pytest.approx(0.1)]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(gap >= 0.1 - 1e-12 for gap in gaps)

    def test_no_sleep_when_interval_already_elapsed(self):
        fake = FakeTime()
        limiter = RateLimiter(0.1, clock=fake.clock, sleep=fake.sleep)
        limiter.wait()
        fake.now += 5.0
        limiter.wait()
        assert fake.sleeps == []

    def test_zero_interval_never_sleeps(self):
        fake = FakeTime()
        limiter = RateLimiter(0.0, clock=fake.clock, sleep=fake.sleep)
        for _ in range(5):
            limiter.wait()
        assert fake.sleeps == []

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            RateLimiter(-0.1)


class Truncated(io.BytesIO):
    """A response whose body ends before its Content-Length."""

    def read(self, *args):
        raise http.client.IncompleteRead(b"12345", 95)


class TestUrllibTransport:
    def _transport(self) -> UrllibTransport:
        fake = FakeTime()
        return UrllibTransport(
            rate_limiter=RateLimiter(0.0, clock=fake.clock, sleep=fake.sleep)
        )

    def test_sends_user_agent(self, monkeypatch):
        captured = {}

        def fake_urlopen(request, timeout=None):
            captured["request"] = request
            return io.BytesIO(b'{"ok": true}')

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        transport = self._transport()
        answer = transport.send(HttpRequest("GET", "https://x.test/api"))
        assert answer == {"ok": True}
        assert captured["request"].get_header("User-agent") == DEFAULT_USER_AGENT

    def test_caller_headers_win_over_default(self, monkeypatch):
        captured = {}

        def fake_urlopen(request, timeout=None):
            captured["request"] = request
            return io.BytesIO(b"{}")

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        self._transport().send(
            HttpRequest("GET", "https://x.test/api", headers=(("User-Agent", "me/1"),))
        )
        assert captured["request"].get_header("User-agent") == "me/1"

    @pytest.mark.parametrize("code,expected", [
        (404, ProtocolError),
        (400, ProtocolError),
        (429, TransportError),
        (500, TransportError),
        (503, TransportError),
    ])
    def test_http_status_mapping(self, monkeypatch, code, expected):
        def fake_urlopen(request, timeout=None):
            raise urllib.error.HTTPError(request.full_url, code, "boom", None, None)

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        with pytest.raises(expected):
            self._transport().send(HttpRequest("GET", "https://x.test/api"))

    def test_connection_failure_is_transport_error(self, monkeypatch):
        def fake_urlopen(request, timeout=None):
            raise urllib.error.URLError("nope")

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        with pytest.raises(TransportError):
            self._transport().send(HttpRequest("GET", "https://x.test/api"))

    def test_truncated_response_is_transport_error(self, monkeypatch):
        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout=None: Truncated())
        with pytest.raises(TransportError, match="IncompleteRead"):
            self._transport().send(HttpRequest("GET", "https://x.test/api"))

    def test_client_retries_a_truncated_response(self, monkeypatch):
        replies = iter([Truncated(), io.BytesIO(b'{"search": [{"id": "Q64"}]}')])
        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout=None: next(replies))
        sleeps: list[float] = []
        client = WikidataClient(self._transport(), sleep=sleeps.append)
        assert client.search_candidates("Berlin") == [("Q64", None)]
        assert sleeps == [1.0]

    # Each would fail only at send: UnicodeEncodeError for the first,
    # "Invalid header value" for the second.
    @pytest.mark.parametrize("user_agent", ["  ", "geolex \u03a9", "geolex\r\nX-Evil: 1"])
    def test_user_agent_http_cannot_send_is_rejected(self, user_agent):
        with pytest.raises(ValueError, match="user agent must be printable ASCII"):
            UrllibTransport(user_agent=user_agent)


HEADER = b"geolex-replay-log 2 row=[request-key,answer]\n"
# The log of earlier versions: each answer a string holding its JSON.
V1_HEADER = b"geolex-replay-log 1 row=[request-key,utf-8-body]\n"
REQUEST = HttpRequest("GET", "https://x.test/api", params=(("q", "v"),))
KEY = "GET https://x.test/api?q=v body:"


def log_of(cache_dir) -> bytes:
    return (cache_dir / LOG_NAME).read_bytes()


def row(key: str, answer) -> bytes:
    return json.dumps([key, answer]).encode("ascii") + b"\n"


def answering(monkeypatch, data: bytes) -> UrllibTransport:
    """A live transport whose every request ``urlopen`` answers with ``data``."""
    monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout=None: io.BytesIO(data))
    return UrllibTransport(rate_limiter=RateLimiter(0.0))


class TestResponseCache:
    def test_round_trip(self, tmp_path):
        request = HttpRequest("GET", "https://x.test/api", params=(("a", "1"),))
        answer = {"svensk": "beskrivning med åäö"}
        fx.record(tmp_path, request, answer)
        assert ReplayTransport(tmp_path).send(request) == answer

    # Bytes that are not UTF-8, JSON in UTF-16, and JSON after a BOM.
    @pytest.mark.parametrize("body", [
        bytes(range(256)), '{"ok": 1}'.encode("utf-16"), b'\xef\xbb\xbf{"ok": 1}',
    ], ids=["binary", "utf-16", "bom"])
    def test_record_mode_stores_only_a_json_body(self, tmp_path, monkeypatch, body):
        request = HttpRequest("GET", "https://x.test/blob")
        recorder = ReplayTransport(tmp_path, answering(monkeypatch, body))
        with pytest.raises(ProtocolError, match="non-JSON response from https://x.test/blob"):
            recorder.send(request)
        assert [path.name for path in tmp_path.iterdir()] == [LOG_NAME]
        assert log_of(tmp_path) == HEADER

    def test_the_log_is_a_header_then_one_key_answer_row_per_response(self, tmp_path):
        fx.record(tmp_path, REQUEST, {"ort": "Åmål"})
        fx.record(tmp_path, HttpRequest("POST", "https://x.test/sparql", body=b"query=x"), [])
        assert log_of(tmp_path) == (
            HEADER + b'["GET https://x.test/api?q=v body:", {"ort": "\\u00c5m\\u00e5l"}]\n'
            + b'["POST https://x.test/sparql? body:query=x", []]\n'
        )

    @pytest.mark.parametrize("line, answer", [
        (row(KEY, {"ok": True}), {"ok": True}),
        (b'[ "GET https://x.test/api?q=v body:" ,{"ok" :true}]\n', {"ok": True}),
        ('["GET https://x.test/api?q=v body:", "Åmål"]\n'.encode("utf-8"), "Åmål"),
    ], ids=["as-written", "other-spacing", "utf-8"])
    def test_replays_a_hand_written_log(self, tmp_path, line, answer):
        (tmp_path / LOG_NAME).write_bytes(HEADER + line)
        assert ReplayTransport(tmp_path).send(REQUEST) == answer

    def test_a_later_row_for_the_same_key_wins(self, tmp_path):
        (tmp_path / LOG_NAME).write_bytes(HEADER + row(KEY, 1) + row(KEY, 2))
        assert ReplayTransport(tmp_path).send(REQUEST) == 2

    def test_no_stray_temp_files_left(self, tmp_path):
        fx.record(tmp_path, HttpRequest("GET", "https://x.test/api"), {})
        assert [path.name for path in tmp_path.iterdir()] == [LOG_NAME]

    # Documents ``parse_json`` returns that only an ASCII row keeps
    # whole: a lone surrogate, and the numbers JSON itself lacks.
    @pytest.mark.parametrize("answer", [
        None, "\ud800", {"\udfff": ["\ud83c", 1e308, -0.0, 10**400]}, float("inf"),
    ], ids=["null", "surrogate", "nested", "infinity"])
    def test_any_answer_is_served_as_recorded(self, tmp_path, answer):
        fx.record(tmp_path, REQUEST, answer)
        assert log_of(tmp_path).isascii()
        served = ReplayTransport(tmp_path).send(REQUEST)
        assert json.dumps(served) == json.dumps(answer)


class TestReplayLog:
    """The log's rules on open: what is trimmed, and what is refused."""

    def recorded(self, cache_dir, count: int) -> list[HttpRequest]:
        requests = [HttpRequest("GET", "https://x.test/api", params=(("n", str(n)),))
                    for n in range(count)]
        for n, request in enumerate(requests):
            fx.record(cache_dir, request, n)
        return requests

    def test_a_torn_last_row_is_never_served_and_record_cuts_it_off(self, tmp_path):
        requests = self.recorded(tmp_path, 3)
        whole = log_of(tmp_path)
        torn = whole[: -len(fx.log_rows(tmp_path)[-1]) // 2]
        (tmp_path / LOG_NAME).write_bytes(torn)
        replay = ReplayTransport(tmp_path)
        assert [replay.send(request) for request in requests[:2]] == [0, 1]
        with pytest.raises(ReplayCacheMiss):
            replay.send(requests[2])
        assert log_of(tmp_path) == torn  # replay writes nothing
        fx.record(tmp_path, requests[2], 2)
        assert log_of(tmp_path) == whole
        assert [ReplayTransport(tmp_path).send(r) for r in requests] == [0, 1, 2]

    # Each put as the second of three rows.
    @pytest.mark.parametrize("line", [
        b"}{ not json\n",
        b"[" * 100_000 + b"\n",
        b"\xff\n",
        b'{"body": "{}"}\n',
        b'[7, "{}"]\n',
        b'[null, "{}"]\n',
        b'["k"]\n',
        b'["k", "{}", "x"]\n',
        b"\n",
    ], ids=["bad", "deep", "byte-ff", "object", "number-key", "null-key", "short", "long",
            "blank"])
    @pytest.mark.parametrize("record", [False, True], ids=["replay", "record"])
    def test_a_bad_row_mid_file_is_refused_naming_its_line(self, tmp_path, line, record):
        self.recorded(tmp_path, 3)
        rows = fx.log_rows(tmp_path)
        damaged = HEADER + rows[0] + line + rows[2]
        (tmp_path / LOG_NAME).write_bytes(damaged)
        live = FakeTransport(lambda r: {}) if record else None
        with pytest.raises(ProtocolError) as caught:
            ReplayTransport(tmp_path, live)
        message = str(caught.value)
        assert message.startswith(f"{tmp_path / LOG_NAME}:3: ")
        assert "\n" not in message
        assert log_of(tmp_path) == damaged

    # A row an earlier version refused is a recorded answer now, served
    # as the live transport serves the same answer; the client refuses
    # both alike, as neither is a JSON object.
    @pytest.mark.parametrize("answer", [None, "\ud800"], ids=["null-body", "surrogate"])
    def test_a_row_of_any_json_answer_is_served_and_fails_as_the_live_answer(
        self, tmp_path, monkeypatch, answer
    ):
        self.recorded(tmp_path, 3)
        rows = fx.log_rows(tmp_path)
        search = fx.search_request("Berlin")
        line = row(canonical_request_key(search), answer)
        (tmp_path / LOG_NAME).write_bytes(HEADER + rows[0] + line + rows[2])
        failures = []
        for transport in (ReplayTransport(tmp_path),
                          answering(monkeypatch, json.dumps(answer).encode("ascii"))):
            assert transport.send(search) == answer
            with pytest.raises(ProtocolError) as caught:
                WikidataClient(transport).search_candidates("Berlin")
            failures.append(str(caught.value))
        assert failures == [f"unexpected response shape from {DEFAULT_API_URL}"] * 2

    @pytest.mark.parametrize("content", [
        HEADER.replace(b" 2 ", b" 3 ") + row(KEY, {}),
        V1_HEADER + json.dumps([KEY, "{}"]).encode("ascii") + b"\n",
        V1_HEADER,
        HEADER[:-1],
        row(KEY, {}),
        b'{"request_key": "00", "body": "{}"}',
        b"\xef\xbb\xbf" + HEADER,
    ], ids=["other-version", "version-1", "version-1-empty", "header-without-newline",
            "no-header", "old-record", "bom"])
    @pytest.mark.parametrize("record", [False, True], ids=["replay", "record"])
    def test_a_wrong_header_is_refused_with_the_file_kept(self, tmp_path, content, record):
        (tmp_path / LOG_NAME).write_bytes(content)
        live = FakeTransport(lambda r: {}) if record else None
        with pytest.raises(ProtocolError, match=re.escape(f"{tmp_path / LOG_NAME}: does not start")):
            ReplayTransport(tmp_path, live)
        assert log_of(tmp_path) == content
        assert [path.name for path in tmp_path.iterdir()] == [LOG_NAME]

    def test_an_empty_log_has_no_rows_and_record_gives_it_the_header(self, tmp_path):
        (tmp_path / LOG_NAME).write_bytes(b"")
        with pytest.raises(ReplayCacheMiss):
            ReplayTransport(tmp_path).send(REQUEST)
        assert log_of(tmp_path) == b""
        fx.record(tmp_path, REQUEST, {})
        assert log_of(tmp_path) == HEADER + row(KEY, {})

    @pytest.mark.parametrize("record", [False, True], ids=["replay", "record"])
    def test_a_cache_of_an_earlier_version_is_refused(self, tmp_path, record):
        old = tmp_path / f"{'ab' * 32}.json"
        old.write_text('{"body": "{}"}', encoding="utf-8")
        live = FakeTransport(lambda r: {}) if record else None
        with pytest.raises(ProtocolError) as caught:
            ReplayTransport(tmp_path, live)
        assert str(caught.value) == (
            f"{tmp_path} holds the per-request replay records of an earlier version, "
            "which no longer replay; record into an empty cache directory"
        )
        assert [path.name for path in tmp_path.iterdir()] == [old.name]

    def test_other_json_files_beside_the_log_are_no_old_cache(self, tmp_path):
        (tmp_path / "notes.json").write_text("{}", encoding="utf-8")
        fx.record(tmp_path, REQUEST, {})
        assert ReplayTransport(tmp_path).send(REQUEST) == {}

    def test_the_log_is_opened_once_for_every_hit(self, tmp_path, monkeypatch):
        requests = self.recorded(tmp_path, 3)
        opened = []
        real_open = builtins.open

        def counting(path, *args, **kwargs):
            opened.append(Path(path).name)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(corpus, "open", counting, raising=False)
        replay = ReplayTransport(tmp_path)
        assert [replay.send(request) for request in requests * 2] == [0, 1, 2] * 2
        assert opened == [LOG_NAME]

    def test_a_key_of_anothers_hash_is_never_served_its_answer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wikidata, "hash", lambda key: 0, raising=False)
        first, second = self.recorded(tmp_path, 2)
        assert fx.recorded_keys(tmp_path) == [canonical_request_key(first),
                                              canonical_request_key(second)]
        replay = ReplayTransport(tmp_path)
        assert replay.send(second) == 1  # the later row holds the slot
        with pytest.raises(ReplayCacheMiss):
            replay.send(first)

    def test_threads_recording_one_request_append_one_row(self, tmp_path):
        gate = threading.Barrier(4)

        def answer(request):
            gate.wait(timeout=10)  # every thread misses before any appends
            return {}

        recorder = ReplayTransport(tmp_path, FakeTransport(answer))
        run_on_threads(lambda slot: recorder.send(REQUEST), 4)
        assert fx.log_rows(tmp_path) == [row(KEY, {})]

    def test_threads_recording_many_requests_append_whole_rows(self, tmp_path):
        recorder = ReplayTransport(tmp_path, FakeTransport(
            lambda r: {"n": r.params[0][1], "pad": "x" * 5000}))
        requests = [HttpRequest("GET", "https://x.test/api", params=(("n", str(n)),))
                    for n in range(40)]
        run_on_threads(lambda slot: [recorder.send(r) for r in requests[slot::8]], 8)
        replay = ReplayTransport(tmp_path)
        assert len(fx.log_rows(tmp_path)) == 40
        for n, request in enumerate(requests):
            assert replay.send(request)["n"] == str(n)


class TestOneParse:
    """Each answer is parsed once: by the live transport as it arrives,
    or as its row when the replay log serves it."""

    @pytest.fixture
    def parses(self, monkeypatch) -> list[str]:
        """What every ``parse_json`` call from ``wikidata`` or
        ``embedding`` parsed, named as the call names it."""
        calls: list[str] = []

        def counting(data, error_type, where):
            calls.append(where)
            return corpus.parse_json(data, error_type, where)

        monkeypatch.setattr(wikidata, "parse_json", counting)
        monkeypatch.setattr(embedding, "parse_json", counting, raising=False)
        return calls

    @pytest.fixture
    def live(self, monkeypatch) -> UrllibTransport:
        return answering(monkeypatch, b'{"search": [{"id": "Q64", "description": "stad"}]}')

    HEADWORDS = ("Berlin", "Bonn", "Aachen")

    def test_one_parse_per_live_answer(self, parses, live):
        client = WikidataClient(live)
        for headword in self.HEADWORDS:
            assert client.search_candidates(headword) == [("Q64", "stad")]
        assert len(parses) == len(self.HEADWORDS)

    def test_one_parse_per_recorded_miss(self, tmp_path, parses, live):
        client = WikidataClient(ReplayTransport(tmp_path, live))
        for headword in self.HEADWORDS:
            assert client.search_candidates(headword) == [("Q64", "stad")]
        assert len(parses) == len(self.HEADWORDS)

    def test_one_parse_per_replayed_search(self, tmp_path, parses, live):
        recorder = WikidataClient(ReplayTransport(tmp_path, live))
        for headword in self.HEADWORDS:
            recorder.search_candidates(headword)
        client = WikidataClient(ReplayTransport(tmp_path))
        parses.clear()  # open checks every row once
        for headword in self.HEADWORDS * 2:
            assert client.search_candidates(headword) == [("Q64", "stad")]
        assert len(parses) == 2 * len(self.HEADWORDS)

    def test_one_parse_per_remote_embedding(self, parses, monkeypatch):
        embedder = RemoteEmbedder("https://x.test/embed", dim=2,
                                  transport=answering(monkeypatch, b'{"vectors": [[3, 4]]}'))
        for _ in range(2):
            assert embedder.embed_batch(["Aal"]).tolist() == [[0.6, 0.8]]
        assert len(parses) == 2


class TestRecordAndReplay:
    def test_record_then_replay_is_byte_identical(self, tmp_path):
        request = HttpRequest("GET", "https://x.test/api", params=(("a", "1"),))
        live = FakeTransport(lambda r: {"answer": 42})
        recorder = ReplayTransport(tmp_path, live)
        first = recorder.send(request)
        second = recorder.send(request)  # second hit served from disk
        assert first == second == {"answer": 42}
        assert len(live.requests) == 1
        replay = ReplayTransport(tmp_path)
        assert replay.send(request) == {"answer": 42}

    def test_record_mode_appends_a_row_on_a_miss(self, tmp_path):
        cache_dir = tmp_path / "not-yet"
        request = HttpRequest("GET", "https://x.test/api", params=(("q", "Åmål"),))
        recorder = ReplayTransport(cache_dir, FakeTransport(lambda r: {"ok": 1}))
        assert recorder.send(request) == {"ok": 1}
        assert [path.name for path in cache_dir.iterdir()] == [LOG_NAME]
        assert fx.log_rows(cache_dir) == [row(canonical_request_key(request), {"ok": 1})]

    def test_replay_finds_request_with_reordered_params(self, tmp_path):
        recorded = HttpRequest("GET", "https://x.test/api", params=(("a", "1"), ("b", "2")))
        ReplayTransport(tmp_path, FakeTransport(lambda r: {})).send(recorded)
        reordered = HttpRequest("GET", "https://x.test/api", params=(("b", "2"), ("a", "1")))
        assert ReplayTransport(tmp_path).send(reordered) == {}

    def test_replay_miss_raises_and_never_touches_network(self, tmp_path, no_network):
        replay = ReplayTransport(tmp_path)
        with pytest.raises(ReplayCacheMiss):
            replay.send(HttpRequest("GET", "https://x.test/api"))

    def test_make_transport_modes(self, tmp_path):
        assert isinstance(make_transport("live"), UrllibTransport)
        replay = make_transport("replay", tmp_path)
        assert isinstance(replay, ReplayTransport)
        assert replay.live is None
        recording = make_transport("record", tmp_path)
        assert isinstance(recording, ReplayTransport)
        assert isinstance(recording.live, UrllibTransport)

    def test_make_transport_rejects_bad_input(self, tmp_path):
        with pytest.raises(ValueError, match="cache directory"):
            make_transport("replay")
        with pytest.raises(ValueError, match="cache directory"):
            make_transport("record", "")
        with pytest.raises(ValueError, match="unknown cache mode"):
            make_transport("offline", tmp_path)


class TestRetries:
    def test_backoff_schedule_then_success(self):
        outcomes = [
            TransportError("one"),
            TransportError("two"),
            {"search": [], "success": 1},
        ]
        client, transport = make_client(lambda r: outcomes[len(transport.requests) - 1])
        transport.handler = lambda r: outcomes[len(transport.requests) - 1]
        assert client.search_candidates("Aachen") == []
        assert len(transport.requests) == 3
        assert client.test_sleeps == [1.0, 2.0]

    def test_gives_up_after_initial_plus_three_retries(self):
        client, transport = make_client(lambda r: TransportError("down"))
        with pytest.raises(TransportError):
            client.search_candidates("Aachen")
        assert len(transport.requests) == 4
        assert client.test_sleeps == [1.0, 2.0, 4.0]

    def test_protocol_error_is_not_retried(self):
        client, transport = make_client(lambda r: ProtocolError("bad request"))
        with pytest.raises(ProtocolError):
            client.search_candidates("Aachen")
        assert len(transport.requests) == 1
        assert client.test_sleeps == []

    def test_replay_miss_is_not_retried(self):
        client, transport = make_client(lambda r: ReplayCacheMiss("cold cache"))
        with pytest.raises(ReplayCacheMiss):
            client.search_candidates("Aachen")
        assert len(transport.requests) == 1
        assert client.test_sleeps == []


class TestSearchCandidates:
    def _payload(self):
        return {
            "search": [
                {"id": "Q64", "label": "Berlin", "description": "Tysklands huvudstad"},
                {"id": "Q614184", "label": "Berlin"},
            ]
        }

    def test_parses_hits_in_api_order(self):
        client, _ = make_client(lambda r: self._payload())
        assert client.search_candidates("Berlin") == [
            ("Q64", "Tysklands huvudstad"), ("Q614184", None)
        ]

    def test_keeps_the_first_five_hits(self):
        payload = {"search": [{"id": f"Q{n}"} for n in (7, 3, 9, 1, 8, 2, 5)]}
        client, _ = make_client(lambda r: payload)
        assert client.search_candidates("Berlin") == [
            (f"Q{n}", None) for n in (7, 3, 9, 1, 8)
        ]

    # ``display`` names the language of the description a search shows;
    # only a Swedish one counts, as for ``wbgetentities&languages=sv``.
    @pytest.mark.parametrize("display, described", [
        ({"description": {"value": "huvudstad", "language": "sv"}}, "huvudstad"),
        ({"label": {"value": "Berlin", "language": "sv"}}, "huvudstad"),
        ({"description": {"value": "capital", "language": "en"}}, None),
        ({"description": {"value": "Hauptstadt", "language": "de"}}, None),
    ])
    def test_a_description_counts_only_in_swedish(self, display, described):
        payload = {"search": [{"id": "Q64", "description": "huvudstad", "display": display}]}
        client, _ = make_client(lambda r: payload)
        assert client.search_candidates("Berlin") == [("Q64", described)]

    @pytest.mark.parametrize("hit", [
        {"id": "Q64", "description": None},
        {"id": "Q64", "description": ["huvudstad"]},
        {"id": "Q64", "description": "huvudstad", "display": []},
        {"id": "Q64", "description": "huvudstad", "display": {"description": "sv"}},
    ])
    def test_malformed_description_raises_naming_the_item(self, hit):
        client, _ = make_client(lambda r: {"search": [hit]})
        with pytest.raises(ProtocolError, match="search hit Q64: "):
            client.search_candidates("Berlin")

    def test_request_matches_recorded_fixture_shape(self):
        client, transport = make_client(lambda r: {"search": []})
        client.search_candidates("Iowa")
        sent = transport.requests[0]
        expected = fx.search_request("Iowa")
        assert canonical_request_key(sent) == canonical_request_key(expected)
        params = dict(sent.params)
        assert params["action"] == "wbsearchentities"
        assert params["language"] == params["uselang"] == "sv"
        assert params["limit"] == "5"

    def test_empty_headword_rejected_before_any_request(self):
        client, transport = make_client(lambda r: {"search": []})
        with pytest.raises(ValueError):
            client.search_candidates("   ")
        assert transport.requests == []

    def test_api_error_field_raises(self):
        client, _ = make_client(
            lambda r: {"error": {"code": "badsearch"}}
        )
        with pytest.raises(ProtocolError, match="badsearch"):
            client.search_candidates("Berlin")

    def test_missing_search_list_raises(self):
        client, _ = make_client(lambda r: {"searchinfo": {}})
        with pytest.raises(ProtocolError):
            client.search_candidates("Berlin")

    def test_invalid_hit_id_raises(self):
        client, _ = make_client(
            lambda r: {"search": [{"id": "P31", "label": "x"}]}
        )
        with pytest.raises(ProtocolError):
            client.search_candidates("Berlin")

    # "[" * 100_000 nests past the recursion limit; 5,000 digits are
    # past Python's limit for an integer read from text.
    @pytest.mark.parametrize(
        "body", [b"<html>rate limited</html>", b"[" * 100_000, b"1" * 5000],
        ids=["html", "deep", "digits"],
    )
    def test_non_json_response_raises(self, monkeypatch, body):
        client = WikidataClient(answering(monkeypatch, body))
        with pytest.raises(ProtocolError, match=f"^non-JSON response from {DEFAULT_API_URL}: "):
            client.search_candidates("Berlin")


class TestFetchDescriptions:
    def test_parses_descriptions_and_missing(self):
        payload = {
            "entities": {
                "Q64": {
                    "descriptions": {"sv": {"language": "sv", "value": "Tysklands huvudstad"}}
                },
                "Q1754": {"descriptions": {}},
                "Q99999999": {"missing": ""},
            }
        }
        client, _ = make_client(lambda r: payload)
        result = client.fetch_descriptions(["Q64", "Q1754", "Q99999999"])
        assert result == {
            "Q64": "Tysklands huvudstad",
            "Q1754": None,
            "Q99999999": None,
        }

    def fetch_malformed(self, entity):
        payload = {"entities": {"Q64": {"descriptions": {}}, "Q1754": entity}}
        client, _ = make_client(lambda r: payload)
        return client.fetch_descriptions(["Q64", "Q1754"])

    def test_descriptions_not_an_object_raises_naming_the_item(self):
        with pytest.raises(ProtocolError, match="Q1754.*'descriptions' is not an object"):
            self.fetch_malformed({"descriptions": []})

    def test_language_entry_not_an_object_raises_naming_the_item(self):
        with pytest.raises(ProtocolError, match="Q1754.*'sv' is not an object"):
            self.fetch_malformed({"descriptions": {"sv": "x"}})

    def test_non_string_value_raises_naming_the_item(self):
        with pytest.raises(ProtocolError, match="Q1754.*no string value"):
            self.fetch_malformed({"descriptions": {"sv": {"language": "sv", "value": 5}}})

    def test_batches_of_fifty_ids(self):
        qids = [f"Q{i}" for i in range(1, 121)]
        client, transport = make_client(lambda r: {"entities": {}})
        client.fetch_descriptions(qids)
        assert len(transport.requests) == 3
        sizes = [
            len(dict(request.params)["ids"].split("|"))
            for request in transport.requests
        ]
        assert sizes == [50, 50, 20]

    def test_duplicates_collapsed(self):
        client, transport = make_client(lambda r: {"entities": {}})
        client.fetch_descriptions(["Q64", "Q64", "Q1"])
        assert dict(transport.requests[0].params)["ids"] == "Q64|Q1"

    def test_request_matches_recorded_fixture_shape(self):
        client, transport = make_client(lambda r: {"entities": {}})
        client.fetch_descriptions(["Q1017", "Q896929"])
        sent = transport.requests[0]
        expected = fx.entities_request(["Q1017", "Q896929"])
        assert canonical_request_key(sent) == canonical_request_key(expected)

    def test_empty_input_rejected(self):
        client, _ = make_client(lambda r: {"entities": {}})
        with pytest.raises(ValueError):
            client.fetch_descriptions([])

    def test_invalid_qid_rejected_before_any_request(self):
        client, transport = make_client(lambda r: {"entities": {}})
        with pytest.raises(ValueError):
            client.fetch_descriptions(["Q64", "banana"])
        assert transport.requests == []


def sparql_rows(*pairs) -> dict:
    bindings = [
        {
            "item": {"type": "uri", "value": f"http://www.wikidata.org/entity/{qid}"},
            "coords": {"type": "literal", "value": wkt},
        }
        for qid, wkt in pairs
    ]
    return {"results": {"bindings": bindings}}


class TestFetchCoordinates:
    def test_parses_rows_with_latitude_first(self):
        client, _ = make_client(
            lambda r: sparql_rows(("Q1754", "Point(18.068611 59.329444)"))
        )
        points = client.fetch_coordinates(["Q1754"])
        assert points == {"Q1754": GeoPoint(59.329444, 18.068611)}

    def test_batches_of_two_hundred(self):
        qids = [f"Q{i}" for i in range(1, 451)]
        client, transport = make_client(lambda r: sparql_rows())
        client.fetch_coordinates(qids)
        assert len(transport.requests) == 3
        sizes = []
        for request in transport.requests:
            assert request.method == "POST"
            query = urllib.parse.parse_qs(request.body.decode("ascii"))["query"][0]
            sizes.append(query.count("wd:Q"))
        assert sizes == [SPARQL_BATCH_SIZE, SPARQL_BATCH_SIZE, 50]

    def test_request_matches_recorded_fixture_shape(self):
        client, transport = make_client(lambda r: sparql_rows())
        client.fetch_coordinates(fx.EXPECTED_SPARQL_QIDS)
        sent = transport.requests[0]
        expected = fx.sparql_request(fx.EXPECTED_SPARQL_QIDS)
        assert canonical_request_key(sent) == canonical_request_key(expected)
        assert ("Accept", "application/sparql-results+json") in sent.headers

    def test_items_without_coordinates_are_simply_absent(self):
        client, _ = make_client(
            lambda r: sparql_rows(("Q64", "Point(13.383333 52.516667)"))
        )
        assert list(client.fetch_coordinates(["Q64", "Q99670857"])) == ["Q64"]
        assert client.warnings == 0

    def test_unparseable_rows_counted_not_fatal(self):
        def handler(request):
            return {
                "results": {
                    "bindings": [
                        {
                            "item": {"value": "http://www.wikidata.org/entity/Q64"},
                            "coords": {"value": "Point(13.383333 52.516667)"},
                        },
                        {
                            "item": {"value": "http://www.wikidata.org/entity/Q1"},
                            "coords": {"value": "somewhere nice"},
                        },
                        {"item": {"value": "not-an-entity-uri"}},
                        {
                            "item": {"value": "http://example.org/entity/Q1"},
                            "coords": {"value": "Point(18.07 59.33)"},
                        },
                        {
                            "item": {"value": "http://www.wikidata.org/entity/P625"},
                            "coords": {"value": "Point(18.07 59.33)"},
                        },
                    ]
                }
            }

        client, _ = make_client(handler)
        assert list(client.fetch_coordinates(["Q64", "Q1", "Q2"])) == ["Q64"]
        assert client.warnings == 4

    def test_non_string_item_is_counted_not_fatal(self):
        row = {"item": {"value": 64}, "coords": {"value": "Point(13.38 52.52)"}}
        client, _ = make_client(lambda r: {"results": {"bindings": [row]}})
        assert client.fetch_coordinates(["Q64"]) == {}
        assert client.warnings == 1

    def test_first_coordinate_per_item_wins(self):
        client, _ = make_client(
            lambda r: sparql_rows(
                ("Q64", "Point(13.383333 52.516667)"),
                ("Q64", "Point(0 0)"),
            )
        )
        points = client.fetch_coordinates(["Q64"])
        assert points == {"Q64": GeoPoint(52.516667, 13.383333)}

    def test_missing_bindings_raises(self):
        client, _ = make_client(lambda r: {"head": {}})
        with pytest.raises(ProtocolError, match="bindings"):
            client.fetch_coordinates(["Q64"])

    def test_empty_input_rejected(self):
        client, _ = make_client(lambda r: sparql_rows())
        with pytest.raises(ValueError):
            client.fetch_coordinates([])
