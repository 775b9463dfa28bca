"""A fake Wikidata on 127.0.0.1, served from a thread of the benchmark.

It answers the three request kinds the program sends by parsing them,
not by matching recorded shapes:

* ``GET /w/api.php?action=wbsearchentities&search=…&limit=N`` — the
  first N hits for the term (N in 1..50);
* ``GET /w/api.php?action=wbgetentities&ids=Q1|Q2…`` — descriptions in
  the requested language for up to 50 ids; unknown ids come back
  ``missing``;
* ``POST /sparql`` with a form-encoded ``query`` — a ``P625`` row for
  every item in the query's ``VALUES`` clause that has coordinates.

With ``fail_every`` = k > 0, every k-th request to arrive is answered
with HTTP 503 if it is the first time that request is seen, so the
program's retry and backoff run but the retry succeeds.  Choosing by
arrival order rather than by content keeps the number of 503s per run
the same for every seed.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from gen import World

API_PATH = "/w/api.php"
SPARQL_PATH = "/sparql"
_VALUES_RE = re.compile(r"VALUES\s+\?item\s*\{([^}]*)\}")
_WKT = "http://www.opengis.net/ont/geosparql#wktLiteral"


class FakeWikidata:
    """Serves ``world`` until :meth:`close`.  Counts requests, 503s and
    the seconds spent answering (``busy_s``)."""

    def __init__(self, world: World, fail_every: int = 0):
        self.world = world
        self.fail_every = fail_every
        self._lock = threading.Lock()
        self.reset_counters()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _handler_for(self))
        self._server.daemon_threads = True
        # A short poll interval keeps close() quick; set-up starts and
        # stops a server per repetition.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        port = self._server.server_address[1]
        self.api_url = f"http://127.0.0.1:{port}{API_PATH}"
        self.sparql_url = f"http://127.0.0.1:{port}{SPARQL_PATH}"

    def reset_counters(self) -> None:
        with self._lock:
            self.requests = 0
            self.http_503 = 0
            self.busy_s = 0.0
            self._seen: set[tuple[str, str, bytes]] = set()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def admit(self, key: tuple[str, str, bytes]) -> bool:
        """Count one arriving request; False means answer 503."""
        with self._lock:
            self.requests += 1
            first = key not in self._seen
            self._seen.add(key)
            if self.fail_every and first and self.requests % self.fail_every == 0:
                self.http_503 += 1
                return False
            return True

    def add_busy(self, seconds: float) -> None:
        with self._lock:
            self.busy_s += seconds

    # ── Answers ──────────────────────────────────────────────────────────

    def api(self, params: dict[str, str]) -> dict:
        action = params.get("action")
        lang = params.get("language") or params.get("languages") or "sv"
        if action == "wbsearchentities":
            term = params.get("search", "")
            try:
                limit = int(params.get("limit", "7"))
            except ValueError:
                limit = 0
            if not 1 <= limit <= 50:
                return {"error": {"code": "badvalue", "info": f"bad limit {limit}"}}
            hits = []
            for qid in self.world.hits(term)[:limit]:
                hit = {"id": qid, "label": self.world.labels.get(qid, term)}
                if qid in self.world.descriptions:
                    hit["description"] = self.world.descriptions[qid]
                hits.append(hit)
            return {"searchinfo": {"search": term}, "search": hits, "success": 1}
        if action == "wbgetentities":
            ids = [i for i in params.get("ids", "").split("|") if i]
            if not 1 <= len(ids) <= 50:
                return {"error": {"code": "toomanyvalues", "info": f"{len(ids)} ids"}}
            entities = {}
            for qid in ids:
                description = self.world.descriptions.get(qid)
                if description is None:
                    entities[qid] = {"id": qid, "missing": ""}
                else:
                    entities[qid] = {
                        "id": qid,
                        "type": "item",
                        "descriptions": {lang: {"language": lang, "value": description}},
                    }
            return {"entities": entities, "success": 1}
        return {"error": {"code": "badaction", "info": f"unknown action {action!r}"}}

    def sparql(self, query: str) -> dict:
        match = _VALUES_RE.search(query)
        qids = []
        if match:
            qids = [t[3:] for t in match.group(1).split() if t.startswith("wd:Q")]
        bindings = []
        for qid in qids:
            point = self.world.coords.get(qid)
            if point is None:
                continue
            lat, lon = point
            bindings.append({
                "item": {"type": "uri", "value": f"http://www.wikidata.org/entity/{qid}"},
                "coords": {"datatype": _WKT, "type": "literal",
                           "value": f"Point({lon} {lat})"},
            })
        return {"head": {"vars": ["item", "coords"]}, "results": {"bindings": bindings}}


def _handler_for(fake: FakeWikidata):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format, *args):  # noqa: A002 - signature fixed by base class
            pass

        def _answer(self, body: bytes) -> None:
            started = time.perf_counter()
            split = urllib.parse.urlsplit(self.path)
            if not fake.admit((self.command, self.path, body)):
                self.send_error(503, "Service Unavailable")
            elif self.command == "GET" and split.path == API_PATH:
                params = dict(urllib.parse.parse_qsl(split.query))
                self._json(fake.api(params))
            elif self.command == "POST" and split.path == SPARQL_PATH:
                form = dict(urllib.parse.parse_qsl(body.decode("utf-8")))
                self._json(fake.sparql(form.get("query", "")))
            else:
                self.send_error(404)
            fake.add_busy(time.perf_counter() - started)

        def _json(self, document: dict) -> None:
            payload = json.dumps(document, ensure_ascii=False).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self):  # noqa: N802 - name fixed by base class
            self._answer(b"")

        def do_POST(self):  # noqa: N802 - name fixed by base class
            length = int(self.headers.get("Content-Length") or 0)
            self._answer(self.rfile.read(length))

    return Handler
