"""Wikidata access: entity search and SPARQL coordinates.

The client answers in item ids (QIDs): a search returns its first
``SEARCH_LIMIT`` hits in API order, each hit's id with the Swedish
description the search answer carries, and coordinates (``GeoPoint``s)
come back in a dict keyed by id.  A description whose ``display`` names
another language is a fallback and counts as absent, as
``wbgetentities`` with ``languages=sv`` has no fallback.

All HTTP goes through a transport object chosen by cache mode, whose
``send`` returns the answer's JSON document:

* ``live``   — ``UrllibTransport``: straight to the network,
  rate-limited.  It is the one place that opens a connection and that
  parses a response; the remote embedder sends through it too.
* ``replay`` — ``ReplayTransport``: the cache directory's replay log
  only.  A miss raises ReplayCacheMiss; no network connection is ever
  opened.
* ``record`` — ``ReplayTransport`` with a live fallback: serve hits
  from the log, send misses through ``UrllibTransport`` and append
  each answer to the log for later replay.  One process records into
  a cache at a time.

The log is keyed by the canonical request (method + URL + sorted query
parameters + body), so a recorded response is found again even if
parameter order changes.  The client retries transport-level failures
with 1s/2s/4s backoff, and a live transport spaces its request starts
at least 0.1s apart.  It sets no bound on requests in flight: in live
and record modes link sends its searches from a pool of
``concurrency`` threads, one request open per thread, a few per worker
ahead, so while one thread sleeps out a search's backoff the others
send the searches queued; replay link and every other caller send from
one thread.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import AppendFile, parse_json
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
CACHE_MODES = ("live", "record", "replay")
# The replay log in a cache directory, and the line it starts with.
LOG_NAME = "replay.log"
_LOG_HEADER = b"geolex-replay-log 2 row=[request-key,answer]\n"
# A per-request record of earlier versions: <sha256 of the request>.json.
_OLD_RECORD_RE = re.compile(r"[0-9a-f]{64}\.json")
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
    """The request as the replay log keys it.

    Method, bare URL, query parameters sorted by (name, value) and
    written as ``urlencode`` writes them, and the body read as Latin-1,
    so that any bytes map to one key (the client's bodies are ASCII
    forms).  Reordering parameters therefore never changes the key;
    changing any value always does.  Headers are not part of it.
    """
    query = "&".join(itertools.starmap(_query_pair, sorted(request.params)))
    body = (request.body or b"").decode("latin-1")
    return f"{request.method.upper()} {request.url}?{query} body:{body}"


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

    def send(self, request: HttpRequest) -> object:
        # Imported here, not at module level: urllib.request pulls in
        # http.client and email, which replay runs never use.
        import http.client
        import urllib.error
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
                body = response.read()
        except urllib.error.HTTPError as err:
            raise http_status_error(err.code, request.url) from err
        # HTTPException covers a response cut short (IncompleteRead),
        # which is no OSError.
        except (urllib.error.URLError, http.client.HTTPException, TimeoutError, OSError) as err:
            raise TransportError(f"{request.method} {request.url}: {err}") from err
        return parse_json(body, ProtocolError, f"non-JSON response from {request.url}")


def _log_row(line: bytes, where: str) -> list:
    """The ``[key, answer]`` of one replay-log row, a JSON string and any
    JSON value; anything else is a ProtocolError naming ``where``."""
    row = parse_json(line, ProtocolError, where)
    if not (isinstance(row, list) and len(row) == 2 and isinstance(row[0], str)):
        raise ProtocolError(f"{where}: not a JSON [key, answer] row with a string key")
    return row


class ReplayTransport:
    """Recorded responses, in one append-only log per cache directory.

    The log, ``LOG_NAME``, is a ``corpus.AppendFile`` of lines: after the
    header, each is the JSON ``[key, answer]`` of ``canonical_request_key``
    and the answer, written in ASCII so that any document a live transport
    answers (a lone surrogate too) reads back the same.  Open checks every
    row and keeps an index from the key's ``hash`` to the row's offset and
    length, so each hit is one ``os.pread`` and one parse.  A row whose key
    is not the request's (two keys of one 64-bit hash, some 2 chances in
    10**11 at 26,000 rows) is no hit.  A miss raises ReplayCacheMiss and
    opens no connection, unless a ``live`` transport is given (record
    mode, the one that writes the log): then the request goes through
    ``live``, and its answer is appended as one row under a lock.  Link's
    pool shares one transport safely, but only one process may record
    into a cache directory at a time.

    A row that is not a JSON ``[string, answer]`` and a directory that
    holds an earlier version's per-request ``<sha256>.json`` records but
    no log are each a ProtocolError naming the file and its line, or the
    directory, which is left as it is.
    """

    def __init__(self, cache_dir: str | Path, live=None):
        self.cache_dir = Path(cache_dir)
        self.live = live
        # hash(key) -> offset << 32 | length: ints, not the keys, which
        # would cost several times more.
        self._index: dict[int, int] = {}
        self._lock = threading.Lock()
        self._log = AppendFile(self.cache_dir / LOG_NAME, _LOG_HEADER, live is not None,
                               self._load_index, self._refuse_old_records)

    def _refuse_old_records(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            if any(map(_OLD_RECORD_RE.fullmatch, os.listdir(self.cache_dir))):
                raise ProtocolError(
                    f"{self.cache_dir} holds the per-request replay records of an earlier "
                    f"version, which no longer replay; record into an empty cache directory"
                )

    def _load_index(self, handle) -> int:
        """Index every whole row after the header; return where they end."""
        name, offset = str(handle.name), handle.tell()
        for lineno, line in enumerate(handle, 2):
            if not line.endswith(b"\n"):  # only the last line can lack it
                break
            key, _ = _log_row(line, f"{name}:{lineno}")
            self._index[hash(key)] = offset << 32 | len(line)
            offset += len(line)
        return offset

    def send(self, request: HttpRequest) -> object:
        key = canonical_request_key(request)
        slot = hash(key)
        span = self._index.get(slot)
        if span is not None:
            offset, length = span >> 32, span & 0xFFFF_FFFF
            found, answer = _log_row(os.pread(self._log.fd, length, offset),
                                     f"{self._log.path} at byte {offset}")
            if found == key:
                return answer
        if self.live is None:
            raise ReplayCacheMiss(f"no recorded response for {request.method} {request.full_url()}")
        answer = self.live.send(request)
        row = (json.dumps([key, answer]) + "\n").encode("ascii")
        with self._lock:
            if self._index.get(slot) == span:  # no other thread stored it meanwhile
                self._index[slot] = self._log.append(row) << 32 | len(row)
        return answer


def make_transport(
    mode: str,
    cache_dir: str | Path | None = None,
    user_agent: str = DEFAULT_USER_AGENT,
    min_interval: float = DEFAULT_MIN_INTERVAL_S,
):
    """The transport for a cache mode (live, record, replay), with its own rate limiter."""
    if mode not in CACHE_MODES:
        raise ValueError(f"unknown cache mode {mode!r}; expected live, record, or replay")
    if mode != "live" and not cache_dir:
        raise ValueError(f"cache mode {mode!r} needs a cache directory")
    if mode == "replay":
        return ReplayTransport(cache_dir)
    live = UrllibTransport(user_agent=user_agent, rate_limiter=RateLimiter(min_interval))
    return live if mode == "live" else ReplayTransport(cache_dir, live)


# ── Client ───────────────────────────────────────────────────────────────


def _checked_description(value, where: str) -> str:
    """``value`` if it is a string that encodes as UTF-8, else a
    ProtocolError naming ``where``."""
    if not isinstance(value, str):
        raise ProtocolError(f"{where} has no string value")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as err:
        raise ProtocolError(f"{where} cannot be encoded as UTF-8") from err
    return value


def _hit_description(qid: str, hit: dict) -> str | None:
    """The Swedish description of one ``wbsearchentities`` hit, ``None``
    when it has none or when its ``display`` names another language: the
    search falls back to other languages, ``wbgetentities`` with
    ``languages=sv`` does not."""
    try:
        language = hit.get("display", {}).get("description", {}).get("language", _LANGUAGE)
    except AttributeError as err:
        raise ProtocolError(f"search hit {qid}: 'display' is not an object of objects") from err
    if "description" not in hit or language != _LANGUAGE:
        return None
    return _checked_description(hit["description"], f"search hit {qid}: description")


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
    return _checked_description(described.get("value"), f"entity {qid}: description {_LANGUAGE!r}")


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
    """Entity search and coordinate queries.

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

    def _send(self, request: HttpRequest) -> dict:
        """The JSON object the transport answers.  Transport errors back
        off 1s/2s/4s, then give up; protocol errors, replay misses and an
        answer that is no object surface at once."""
        for pause in (*self.backoff_s, None):
            try:
                answer = self.transport.send(request)
                break
            except TransportError:
                if pause is None:
                    raise
                self._sleep(pause)
        if not isinstance(answer, dict):
            raise ProtocolError(f"unexpected response shape from {request.url}")
        return answer

    def _get(self, action: str, *params: tuple[str, str]) -> dict:
        """The JSON object the API answers to ``action`` with ``params``;
        an ``error`` answer raises ProtocolError."""
        params = (("action", action), ("format", "json"), *params)
        request = HttpRequest("GET", self.api_url, params=params)
        data = self._send(request)
        if "error" in data:
            raise ProtocolError(f"{action} API error: {data['error']}")
        return data

    def search_candidates(self, headword: str) -> list[tuple[str, str | None]]:
        """The entity search for a headword, best match first, at most
        ``SEARCH_LIMIT`` hits: each hit's item id and its Swedish
        description, ``None`` where it has none or shows one in another
        language.  A hit without a valid id, or whose description is no
        string or cannot be encoded as UTF-8, raises ProtocolError."""
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
        candidates = []
        for hit in hits[:SEARCH_LIMIT]:
            try:
                qid = validate_qid(hit["id"])
            except (KeyError, TypeError, ValueError) as err:
                raise ProtocolError(f"search hit without a valid item id: {hit!r}") from err
            candidates.append((qid, _hit_description(qid, hit)))
        return candidates

    # Unused by the pipeline; kept while bench/launcher.py patches it by name.
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
            query = ("SELECT ?item ?coords WHERE { VALUES ?item { "
                     + " ".join(f"wd:{qid}" for qid in batch) + " } ?item wdt:P625 ?coords }")
            request = HttpRequest(
                "POST",
                self.sparql_url,
                body=urllib.parse.urlencode({"query": query}).encode("ascii"),
                headers=(
                    ("Accept", "application/sparql-results+json"),
                    ("Content-Type", "application/x-www-form-urlencoded"),
                ),
            )
            data = self._send(request)
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
