"""Wikidata access: entity search, descriptions, and SPARQL coordinates.

The client answers in item ids (QIDs): a search returns the ids of its
first ``SEARCH_LIMIT`` hits in API order; descriptions and coordinates
(``GeoPoint``s) come back in dicts keyed by id.

All HTTP goes through a transport object chosen by cache mode:

* ``live``   — ``UrllibTransport``: straight to the network,
  rate-limited.  It is the one place that opens a connection; the
  remote embedder sends through it too.
* ``replay`` — ``ReplayTransport``: disk only.  A miss raises
  ReplayCacheMiss; no network connection is ever opened.
* ``record`` — ``ReplayTransport`` with a live fallback: serve hits
  from disk, send misses through ``UrllibTransport`` and store each
  JSON response as UTF-8 text for later replay; any other is refused.

Cache keys canonicalize the request (method + URL + sorted query
parameters + body hash), so a recorded response is found again even if
parameter order changes.  The client retries transport-level failures
with 1s/2s/4s backoff, and a live transport spaces its request starts
at least 0.1s apart.  It sets no bound on requests in flight: in live
and record modes link sends from a pool of ``concurrency`` threads, one
request open per thread; replay link and every other caller send from
one thread.  Link sends each search when its ids are needed, a pool
keeping a few per worker ahead, and each description request as soon as
its ids are known, so while one thread sleeps out a search's backoff
the others send the requests queued.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import re
import threading
import time
import urllib.error
import urllib.parse
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import atomic_writer, parse_json, read_json
from .errors import ProtocolError, ReplayCacheMiss, TransportError, http_status_error
from .geo import GeoPoint

DEFAULT_API_URL = "https://www.wikidata.org/w/api.php"
DEFAULT_SPARQL_URL = "https://query.wikidata.org/sparql"
DEFAULT_USER_AGENT = "geolex/0.1 (encyclopedia gazetteer pipeline)"
DEFAULT_MIN_INTERVAL_S = 0.1
DEFAULT_BACKOFF_S = (1.0, 2.0, 4.0)
SPARQL_BATCH_SIZE = 200
ENTITY_BATCH_SIZE = 50  # the most ids wbgetentities takes per call
SEARCH_LIMIT = 5
# Seconds a live request may wait on its connection.
_TIMEOUT_S = 30.0
# Searches and descriptions are in Swedish, the encyclopedia's language.
_LANGUAGE = "sv"

_QID_RE = re.compile(r"^Q[1-9][0-9]*$")
_ENTITY_URI_PREFIX = "http://www.wikidata.org/entity/"
# WKT point literal, optionally preceded by a datum IRI.
_WKT_POINT_RE = re.compile(
    r"^\s*(?:<[^<>]+>\s+)?Point\s*\(\s*([^\s()]+)\s+([^\s()]+)\s*\)\s*$",
    re.IGNORECASE,
)


def validate_qid(qid: str) -> str:
    """Return ``qid`` if it looks like ``Q`` + digits (no leading zero)."""
    if not isinstance(qid, str) or not _QID_RE.match(qid):
        raise ValueError(f"not a Wikidata item id: {qid!r}")
    return qid


def qid_number(qid: str) -> int:
    return int(validate_qid(qid)[1:])


def parse_wkt_point(literal: str) -> GeoPoint:
    """Parse a WKT ``Point(lon lat)`` literal into a GeoPoint.

    WKT puts longitude first; the point is latitude first.  An optional
    ``<datum-iri>`` prefix is accepted and ignored.  Out-of-range or
    non-finite coordinates raise ValueError.
    """
    match = _WKT_POINT_RE.match(literal)
    if not match:
        raise ValueError(f"not a WKT point: {literal!r}")
    try:
        return GeoPoint(float(match.group(2)), float(match.group(1)))
    except ValueError as err:
        raise ValueError(f"bad WKT point {literal!r}: {err}") from err


# ── Requests, cache keys, transports ─────────────────────────────────────


@dataclass(frozen=True)
class HttpRequest:
    """One HTTP exchange, described independently of any HTTP library."""

    method: str
    url: str
    params: tuple[tuple[str, str], ...] = ()
    body: bytes | None = None
    headers: tuple[tuple[str, str], ...] = ()

    def full_url(self) -> str:
        if not self.params:
            return self.url
        return f"{self.url}?{urllib.parse.urlencode(list(self.params))}"


@functools.lru_cache(maxsize=64, typed=True)
def _query_pair(name: str, value: str) -> str:
    """One ``name=value`` of a query string, as ``urlencode`` writes it.
    The few parameters every request repeats stay in the cache."""
    return urllib.parse.urlencode(((name, value),))


def canonical_request_key(request: HttpRequest) -> str:
    """Stable cache key for a request.

    Method, bare URL, query parameters sorted by (name, value) and
    written as ``urlencode`` writes them, and a hash of the body.
    Reordering parameters therefore never changes the key; changing any
    value always does.
    """
    body_hash = hashlib.sha256(request.body or b"").hexdigest()
    query = "&".join(itertools.starmap(_query_pair, sorted(request.params)))
    material = f"{request.method.upper()} {request.url}?{query} body:{body_hash}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class RateLimiter:
    """Spaces request starts at least ``min_interval`` seconds apart.

    Thread-safe; the lock is held while waiting so concurrent callers
    queue up and get distinct start slots.  Clock and sleep are
    injectable for tests.
    """

    def __init__(
        self,
        min_interval: float = DEFAULT_MIN_INTERVAL_S,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        if min_interval < 0:
            raise ValueError(f"min_interval must be >= 0, got {min_interval}")
        self.min_interval = min_interval
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._last_start: float | None = None

    def wait(self) -> None:
        with self._lock:
            now = self._clock()
            if self._last_start is not None:
                earliest = self._last_start + self.min_interval
                if now < earliest:
                    self._sleep(earliest - now)
                    now = max(self._clock(), earliest)
            self._last_start = now


def check_user_agent(user_agent: str) -> str:
    """``user_agent`` if an HTTP header can carry it, else ValueError."""
    if not (user_agent.strip() and user_agent.isascii() and user_agent.isprintable()):
        raise ValueError(f"user agent must be printable ASCII and not blank, got {user_agent!r}")
    return user_agent


class UrllibTransport:
    """Live HTTP.  Sends a User-Agent on every request (the endpoints
    reject anonymous clients) and shares one rate limiter."""

    def __init__(
        self,
        user_agent: str = DEFAULT_USER_AGENT,
        rate_limiter: RateLimiter | None = None,
    ):
        self.user_agent = check_user_agent(user_agent)
        self.rate_limiter = rate_limiter or RateLimiter()

    def send(self, request: HttpRequest) -> bytes:
        # Imported here, not at module level: urllib.request pulls in
        # http.client and email, which replay runs never use.
        import http.client
        import urllib.request

        self.rate_limiter.wait()
        headers = dict(request.headers)
        headers.setdefault("User-Agent", self.user_agent)
        http_request = urllib.request.Request(
            request.full_url(),
            data=request.body,
            headers=headers,
            method=request.method,
        )
        try:
            with urllib.request.urlopen(http_request, timeout=_TIMEOUT_S) as response:
                return response.read()
        except urllib.error.HTTPError as err:
            raise http_status_error(err.code, request.url) from err
        # HTTPException covers a response cut short (IncompleteRead),
        # which is no OSError.
        except (urllib.error.URLError, http.client.HTTPException, TimeoutError, OSError) as err:
            raise TransportError(f"{request.method} {request.url}: {err}") from err


class ReplayTransport:
    """Recorded responses, one JSON file per request key under a directory.

    A hit returns the recorded body.  A miss raises ReplayCacheMiss and
    opens no connection, unless a ``live`` transport is given (record
    mode): then the request goes through ``live``, and a response that
    ``parse_json`` takes is written atomically, as UTF-8 text, for later
    replay; any other raises ProtocolError.  A file ``read_json``
    refuses, or that is not an object with a string ``body`` and no
    ``encoding`` but ``"utf-8"``, is a corrupt file: a ProtocolError.
    """

    def __init__(self, cache_dir: str | Path, live=None):
        self.cache_dir = Path(cache_dir)
        self.live = live

    def path_for(self, request: HttpRequest) -> Path:
        return self.cache_dir / f"{canonical_request_key(request)}.json"

    def send(self, request: HttpRequest) -> bytes:
        path = self.path_for(request)
        corrupt = f"corrupt cache file {path}"
        # A missing file is the miss; ValueError covers an unknown
        # encoding and a body that cannot be encoded as UTF-8.
        try:
            record = read_json(path, ProtocolError, corrupt)
            body = record["body"]
            if not isinstance(body, str):
                raise TypeError(f"body is {type(body).__name__}, not a string")
            if record.get("encoding", "utf-8") != "utf-8":
                raise ValueError(f"unknown body encoding {record['encoding']!r}")
            return body.encode("utf-8")
        except FileNotFoundError:
            pass
        except (KeyError, TypeError, ValueError) as err:
            raise ProtocolError(f"{corrupt}: {err}") from err
        if self.live is None:
            raise ReplayCacheMiss(
                f"no recorded response for {request.method} {request.full_url()}"
            )
        body = self.live.send(request)
        parse_json(body, ProtocolError, f"non-JSON response from {request.url}")
        record = {
            "request_key": path.stem,
            "method": request.method,
            "url": request.full_url(),
            "fetched_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "body": body.decode("utf-8"),
        }
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        with atomic_writer(path) as handle:
            handle.write(json.dumps(record, ensure_ascii=False))
        return body


def make_transport(
    mode: str,
    cache_dir: str | Path | None = None,
    user_agent: str = DEFAULT_USER_AGENT,
    min_interval: float = DEFAULT_MIN_INTERVAL_S,
):
    """The transport for a cache mode (live, record, replay), with its own rate limiter."""
    if mode not in ("live", "record", "replay"):
        raise ValueError(f"unknown cache mode {mode!r}; expected live, record, or replay")
    if mode != "live" and not cache_dir:
        raise ValueError(f"cache mode {mode!r} needs a cache directory")
    if mode == "replay":
        return ReplayTransport(cache_dir)
    live = UrllibTransport(user_agent=user_agent, rate_limiter=RateLimiter(min_interval))
    return live if mode == "live" else ReplayTransport(cache_dir, live)


# ── Client ───────────────────────────────────────────────────────────────


def _parse_json_body(body: bytes, request: HttpRequest) -> dict:
    parsed = parse_json(body, ProtocolError, f"non-JSON response from {request.url}")
    if not isinstance(parsed, dict):
        raise ProtocolError(f"unexpected response shape from {request.url}")
    return parsed


def _entity_description(qid: str, entity: dict) -> str | None:
    """The Swedish description of one ``wbgetentities`` entity,
    ``None`` when it has none."""
    descriptions = entity.get("descriptions", {})
    if not isinstance(descriptions, dict):
        raise ProtocolError(f"entity {qid}: 'descriptions' is not an object")
    if _LANGUAGE not in descriptions:
        return None
    described = descriptions[_LANGUAGE]
    if not isinstance(described, dict):
        raise ProtocolError(f"entity {qid}: description {_LANGUAGE!r} is not an object")
    value = described.get("value")
    if not isinstance(value, str):
        raise ProtocolError(f"entity {qid}: description {_LANGUAGE!r} has no string value")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as err:
        raise ProtocolError(
            f"entity {qid}: description {_LANGUAGE!r} cannot be encoded as UTF-8"
        ) from err
    return value


def _qid_from_entity_uri(uri: str) -> str:
    if not isinstance(uri, str) or not uri.startswith(_ENTITY_URI_PREFIX):
        raise ValueError(f"not a Wikidata entity URI: {uri!r}")
    return validate_qid(uri.removeprefix(_ENTITY_URI_PREFIX))


def _dedupe(qids: Iterable[str]) -> list[str]:
    """Distinct ids in first-seen order, every one validated; no id at
    all raises ValueError."""
    unique = list(dict.fromkeys(map(validate_qid, qids)))
    if not unique:
        raise ValueError("no item ids given")
    return unique


class WikidataClient:
    """Entity search, description fetch, and coordinate queries.

    ``warnings`` counts SPARQL result rows that were skipped as
    unparseable; everything else either succeeds or raises.
    """

    def __init__(
        self,
        transport=None,
        api_url: str = DEFAULT_API_URL,
        sparql_url: str = DEFAULT_SPARQL_URL,
        backoff_s: Sequence[float] = DEFAULT_BACKOFF_S,
        sleep=time.sleep,
    ):
        self.transport = transport if transport is not None else UrllibTransport()
        self.api_url = api_url
        self.sparql_url = sparql_url
        self.backoff_s = tuple(backoff_s)
        self._sleep = sleep
        self.warnings = 0

    def _send(self, request: HttpRequest) -> bytes:
        """Send with retries: transport errors back off 1s/2s/4s, then
        give up; protocol errors and replay misses surface at once."""
        attempts = len(self.backoff_s) + 1
        for attempt in range(attempts):
            try:
                return self.transport.send(request)
            except TransportError:
                if attempt == attempts - 1:
                    raise
                self._sleep(self.backoff_s[attempt])
        raise AssertionError("unreachable")

    def _get(self, action: str, *params: tuple[str, str]) -> dict:
        """The JSON object the API answers to ``action`` with ``params``;
        an ``error`` answer raises ProtocolError."""
        params = (("action", action), ("format", "json"), *params)
        request = HttpRequest("GET", self.api_url, params=params)
        data = _parse_json_body(self._send(request), request)
        if "error" in data:
            raise ProtocolError(f"{action} API error: {data['error']}")
        return data

    def search_candidates(self, headword: str) -> list[str]:
        """Item ids of the entity search for a headword, best match
        first, at most ``SEARCH_LIMIT``."""
        if not headword or not headword.strip():
            raise ValueError("cannot search for an empty headword")
        data = self._get(
            "wbsearchentities",
            ("language", _LANGUAGE),
            ("limit", str(SEARCH_LIMIT)),
            ("search", headword),
            ("uselang", _LANGUAGE),
        )
        hits = data.get("search")
        if not isinstance(hits, list):
            raise ProtocolError(f"search response missing 'search' list for {headword!r}")
        qids = []
        for hit in hits[:SEARCH_LIMIT]:
            try:
                qids.append(validate_qid(hit["id"]))
            except (KeyError, TypeError, ValueError) as err:
                raise ProtocolError(f"search hit without a valid item id: {hit!r}") from err
        return qids

    def fetch_descriptions(self, qids: Sequence[str]) -> dict[str, str | None]:
        """Authoritative descriptions for items, ``None`` where absent
        (including items that do not exist).  An entity whose
        description has the wrong JSON type raises ProtocolError naming
        the item."""
        unique = _dedupe(qids)
        out: dict[str, str | None] = {}
        for start in range(0, len(unique), ENTITY_BATCH_SIZE):
            batch = unique[start : start + ENTITY_BATCH_SIZE]
            data = self._get(
                "wbgetentities",
                ("ids", "|".join(batch)),
                ("languages", _LANGUAGE),
                ("props", "descriptions"),
            )
            entities = data.get("entities")
            if not isinstance(entities, dict):
                raise ProtocolError("entity response missing 'entities' map")
            for qid in batch:
                entity = entities.get(qid)
                out[qid] = None
                if isinstance(entity, dict) and "missing" not in entity:
                    out[qid] = _entity_description(qid, entity)
        return out

    def fetch_coordinates(self, qids: Sequence[str]) -> dict[str, GeoPoint]:
        """The coordinates (P625) of items by item id, via SPARQL,
        batched 200 at a time.

        Items without a coordinate claim simply do not appear in the
        result.  Rows that fail to parse are skipped and counted in
        ``warnings``.  The first coordinate seen per item wins.
        """
        unique = _dedupe(qids)
        points: dict[str, GeoPoint] = {}
        for start in range(0, len(unique), SPARQL_BATCH_SIZE):
            batch = unique[start : start + SPARQL_BATCH_SIZE]
            values = " ".join(f"wd:{qid}" for qid in batch)
            query = (
                "SELECT ?item ?coords WHERE { VALUES ?item { "
                + values
                + " } ?item wdt:P625 ?coords }"
            )
            request = HttpRequest(
                "POST",
                self.sparql_url,
                body=urllib.parse.urlencode({"query": query}).encode("ascii"),
                headers=(
                    ("Accept", "application/sparql-results+json"),
                    ("Content-Type", "application/x-www-form-urlencoded"),
                ),
            )
            data = _parse_json_body(self._send(request), request)
            try:
                bindings = data["results"]["bindings"]
            except (KeyError, TypeError) as err:
                raise ProtocolError("SPARQL response missing results.bindings") from err
            if not isinstance(bindings, list):
                raise ProtocolError("SPARQL bindings is not a list")
            for row in bindings:
                try:
                    qid = _qid_from_entity_uri(row["item"]["value"])
                    point = parse_wkt_point(row["coords"]["value"])
                except (KeyError, TypeError, ValueError):
                    self.warnings += 1
                    continue
                points.setdefault(qid, point)
        return points
