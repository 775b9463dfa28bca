"""Wikidata client tests: parsing, caching, transports, retries, batching."""

from __future__ import annotations

import hashlib
import http.client
import io
import json
import re
import urllib.error
import urllib.parse
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipeline_fixtures as fx
from geolex.errors import ProtocolError, ReplayCacheMiss, TransportError
from geolex.geo import GeoPoint
from geolex.wikidata import (
    DEFAULT_USER_AGENT,
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

    def send(self, request: HttpRequest) -> bytes:
        self.requests.append(request)
        result = self.handler(request)
        if isinstance(result, Exception):
            raise result
        return result


def json_body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


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
        """The key a recorded cache is stored under: method, URL, the
        ``urlencode`` of the sorted parameters and the body's hash."""
        request = HttpRequest(method, url, params=tuple(params), body=body)
        query = urllib.parse.urlencode(sorted(params))
        material = (f"{method.upper()} {url}?{query} "
                    f"body:{hashlib.sha256(body or b'').hexdigest()}")
        assert canonical_request_key(request) == hashlib.sha256(material.encode()).hexdigest()


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
        body = transport.send(HttpRequest("GET", "https://x.test/api"))
        assert body == b'{"ok": true}'
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


class TestResponseCache:
    def test_round_trip(self, tmp_path):
        request = HttpRequest("GET", "https://x.test/api", params=(("a", "1"),))
        body = '{"svensk": "beskrivning med åäö"}'.encode("utf-8")
        fx.record(tmp_path, request, body)
        assert ReplayTransport(tmp_path).send(request) == body

    # Bytes that are not UTF-8, JSON in UTF-16, and JSON after a BOM.
    @pytest.mark.parametrize("body", [
        bytes(range(256)), '{"ok": 1}'.encode("utf-16"), b'\xef\xbb\xbf{"ok": 1}',
    ], ids=["binary", "utf-16", "bom"])
    def test_record_mode_stores_only_a_json_body(self, tmp_path, body):
        request = HttpRequest("GET", "https://x.test/blob")
        with pytest.raises(ProtocolError, match="non-JSON response from https://x.test/blob"):
            fx.record(tmp_path, request, body)
        assert list(tmp_path.iterdir()) == []

    def test_cache_file_records_request_metadata(self, tmp_path):
        request = HttpRequest("GET", "https://x.test/api", params=(("q", "v"),))
        path = fx.record(tmp_path, request, b"{}")
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["request_key"] == canonical_request_key(request)
        assert record["url"] == "https://x.test/api?q=v"
        assert record["method"] == "GET"

    @pytest.mark.parametrize("encoding", [{}, {"encoding": "utf-8"}])
    def test_replays_a_hand_written_cache_file(self, tmp_path, encoding):
        request = HttpRequest("GET", "https://x.test/api", params=(("q", "v"),))
        key = canonical_request_key(request)
        (tmp_path / f"{key}.json").write_text(json.dumps({
            "request_key": key,
            "method": "GET",
            "url": "https://x.test/api?q=v",
            "fetched_at": "2024-01-01T00:00:00+00:00",
            "body": '{"ok": true}',
            **encoding,
        }), encoding="utf-8")
        assert ReplayTransport(tmp_path).send(request) == b'{"ok": true}'

    # "[" * 100_000 nests past the recursion limit.
    @pytest.mark.parametrize("content", ["}{ not json", "[" * 100_000], ids=["bad", "deep"])
    def test_corrupt_file_raises_protocol_error(self, tmp_path, content):
        request = HttpRequest("GET", "https://x.test/api")
        path = fx.record(tmp_path, request, b"{}")
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ProtocolError, match="corrupt"):
            ReplayTransport(tmp_path).send(request)

    @pytest.mark.parametrize("stored", [
        {"body": None},
        {"body": 7},
        # Base64 records, which earlier versions wrote for a body that
        # is not UTF-8, no longer replay.
        {"body": "not base64!", "encoding": "base64"},
        {"body": "QUJ", "encoding": "base64"},
        {"body": "QUJD=", "encoding": "base64"},
        {"body": "QUJD====", "encoding": "base64"},
        {"body": "{}", "encoding": "gzip"},
        {"body": "{}", "encoding": None},
    ])
    def test_bad_body_raises_protocol_error(self, tmp_path, stored):
        request = HttpRequest("GET", "https://x.test/api")
        path = fx.record(tmp_path, request, b"{}")
        path.write_text(json.dumps(stored), encoding="utf-8")
        with pytest.raises(ProtocolError, match=re.escape(f"corrupt cache file {path}")):
            ReplayTransport(tmp_path).send(request)

    def test_no_stray_temp_files_left(self, tmp_path):
        fx.record(tmp_path, HttpRequest("GET", "https://x.test/api"), b"{}")
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".json"]


class TestRecordAndReplay:
    def test_record_then_replay_is_byte_identical(self, tmp_path):
        request = HttpRequest("GET", "https://x.test/api", params=(("a", "1"),))
        live = FakeTransport(lambda r: b'{"answer": 42}')
        recorder = ReplayTransport(tmp_path, live)
        first = recorder.send(request)
        second = recorder.send(request)  # second hit served from disk
        assert first == second == b'{"answer": 42}'
        assert len(live.requests) == 1
        replay = ReplayTransport(tmp_path)
        assert replay.send(request) == b'{"answer": 42}'

    def test_record_mode_writes_a_file_on_a_miss(self, tmp_path):
        cache_dir = tmp_path / "not-yet"
        request = HttpRequest("GET", "https://x.test/api", params=(("q", "Åmål"),))
        recorder = ReplayTransport(cache_dir, FakeTransport(lambda r: b'{"ok": 1}'))
        assert recorder.send(request) == b'{"ok": 1}'
        path = recorder.path_for(request)
        assert sorted(cache_dir.iterdir()) == [path]
        assert json.loads(path.read_text(encoding="utf-8"))["body"] == '{"ok": 1}'

    def test_replay_finds_request_with_reordered_params(self, tmp_path):
        recorded = HttpRequest("GET", "https://x.test/api", params=(("a", "1"), ("b", "2")))
        ReplayTransport(tmp_path, FakeTransport(lambda r: b"{}")).send(recorded)
        reordered = HttpRequest("GET", "https://x.test/api", params=(("b", "2"), ("a", "1")))
        assert ReplayTransport(tmp_path).send(reordered) == b"{}"

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
            b'{"search": [], "success": 1}',
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
        client, _ = make_client(lambda r: json_body(self._payload()))
        assert client.search_candidates("Berlin") == [
            ("Q64", "Tysklands huvudstad"), ("Q614184", None)
        ]

    def test_keeps_the_first_five_hits(self):
        payload = {"search": [{"id": f"Q{n}"} for n in (7, 3, 9, 1, 8, 2, 5)]}
        client, _ = make_client(lambda r: json_body(payload))
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
        client, _ = make_client(lambda r: json_body(payload))
        assert client.search_candidates("Berlin") == [("Q64", described)]

    @pytest.mark.parametrize("hit", [
        {"id": "Q64", "description": None},
        {"id": "Q64", "description": ["huvudstad"]},
        {"id": "Q64", "description": "huvudstad", "display": []},
        {"id": "Q64", "description": "huvudstad", "display": {"description": "sv"}},
    ])
    def test_malformed_description_raises_naming_the_item(self, hit):
        client, _ = make_client(lambda r: json_body({"search": [hit]}))
        with pytest.raises(ProtocolError, match="search hit Q64: "):
            client.search_candidates("Berlin")

    def test_request_matches_recorded_fixture_shape(self):
        client, transport = make_client(lambda r: json_body({"search": []}))
        client.search_candidates("Iowa")
        sent = transport.requests[0]
        expected = fx.search_request("Iowa")
        assert canonical_request_key(sent) == canonical_request_key(expected)
        params = dict(sent.params)
        assert params["action"] == "wbsearchentities"
        assert params["language"] == params["uselang"] == "sv"
        assert params["limit"] == "5"

    def test_empty_headword_rejected_before_any_request(self):
        client, transport = make_client(lambda r: json_body({"search": []}))
        with pytest.raises(ValueError):
            client.search_candidates("   ")
        assert transport.requests == []

    def test_api_error_field_raises(self):
        client, _ = make_client(
            lambda r: json_body({"error": {"code": "badsearch"}})
        )
        with pytest.raises(ProtocolError, match="badsearch"):
            client.search_candidates("Berlin")

    def test_missing_search_list_raises(self):
        client, _ = make_client(lambda r: json_body({"searchinfo": {}}))
        with pytest.raises(ProtocolError):
            client.search_candidates("Berlin")

    def test_invalid_hit_id_raises(self):
        client, _ = make_client(
            lambda r: json_body({"search": [{"id": "P31", "label": "x"}]})
        )
        with pytest.raises(ProtocolError):
            client.search_candidates("Berlin")

    # "[" * 100_000 nests past the recursion limit; 5,000 digits are
    # past Python's limit for an integer read from text.
    @pytest.mark.parametrize(
        "body", [b"<html>rate limited</html>", b"[" * 100_000, b"1" * 5000],
        ids=["html", "deep", "digits"],
    )
    def test_non_json_response_raises(self, body):
        client, _ = make_client(lambda r: body)
        with pytest.raises(ProtocolError, match="non-JSON response"):
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
        client, _ = make_client(lambda r: json_body(payload))
        result = client.fetch_descriptions(["Q64", "Q1754", "Q99999999"])
        assert result == {
            "Q64": "Tysklands huvudstad",
            "Q1754": None,
            "Q99999999": None,
        }

    def fetch_malformed(self, entity):
        payload = {"entities": {"Q64": {"descriptions": {}}, "Q1754": entity}}
        client, _ = make_client(lambda r: json_body(payload))
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
        client, transport = make_client(lambda r: json_body({"entities": {}}))
        client.fetch_descriptions(qids)
        assert len(transport.requests) == 3
        sizes = [
            len(dict(request.params)["ids"].split("|"))
            for request in transport.requests
        ]
        assert sizes == [50, 50, 20]

    def test_duplicates_collapsed(self):
        client, transport = make_client(lambda r: json_body({"entities": {}}))
        client.fetch_descriptions(["Q64", "Q64", "Q1"])
        assert dict(transport.requests[0].params)["ids"] == "Q64|Q1"

    def test_request_matches_recorded_fixture_shape(self):
        client, transport = make_client(lambda r: json_body({"entities": {}}))
        client.fetch_descriptions(["Q1017", "Q896929"])
        sent = transport.requests[0]
        expected = fx.entities_request(["Q1017", "Q896929"])
        assert canonical_request_key(sent) == canonical_request_key(expected)

    def test_empty_input_rejected(self):
        client, _ = make_client(lambda r: json_body({"entities": {}}))
        with pytest.raises(ValueError):
            client.fetch_descriptions([])

    def test_invalid_qid_rejected_before_any_request(self):
        client, transport = make_client(lambda r: json_body({"entities": {}}))
        with pytest.raises(ValueError):
            client.fetch_descriptions(["Q64", "banana"])
        assert transport.requests == []


def sparql_rows(*pairs) -> bytes:
    bindings = [
        {
            "item": {"type": "uri", "value": f"http://www.wikidata.org/entity/{qid}"},
            "coords": {"type": "literal", "value": wkt},
        }
        for qid, wkt in pairs
    ]
    return json_body({"results": {"bindings": bindings}})


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
            return json_body(
                {
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
            )

        client, _ = make_client(handler)
        assert list(client.fetch_coordinates(["Q64", "Q1", "Q2"])) == ["Q64"]
        assert client.warnings == 4

    def test_non_string_item_is_counted_not_fatal(self):
        row = {"item": {"value": 64}, "coords": {"value": "Point(13.38 52.52)"}}
        client, _ = make_client(lambda r: json_body({"results": {"bindings": [row]}}))
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
        client, _ = make_client(lambda r: json_body({"head": {}}))
        with pytest.raises(ProtocolError, match="bindings"):
            client.fetch_coordinates(["Q64"])

    def test_empty_input_rejected(self):
        client, _ = make_client(lambda r: sparql_rows())
        with pytest.raises(ValueError):
            client.fetch_coordinates([])
