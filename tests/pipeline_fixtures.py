"""Shared test fixture: a 12-entry corpus with canned Wikidata traffic.

Six OCR pages across three volumes yield twelve entries (seven
locations, five others) exercising the interesting segmentation cases:
bracketed pronunciation hints, line-break hyphenation, an entry that
continues across a page break, and a two-sense entry that must stay
one entry.

``build_replay_cache`` writes every response the pipeline will request
for this corpus into a cache directory, so full runs work with the
network unplugged: one search per location headword, whose hits carry
their descriptions, and the coordinate queries.  The request parameter
sets are spelled out literally here; if the client ever changes its
request shape, replay misses will say so.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

from geolex.wikidata import (
    DEFAULT_API_URL,
    DEFAULT_SPARQL_URL,
    LOG_NAME,
    HttpRequest,
    ReplayTransport,
    canonical_request_key,
)

# ── Raw pages ────────────────────────────────────────────────────────────

PAGES: list[tuple[int, int, str]] = [
    (
        1,
        101,
        """Aachen [ak-]. 1. Regeringsområde i preussiska Rhen-
provinsen, 4,155 kvkm. med 614,964 inv. (1900). 2.
(Lat. Aquisgranum, fr. Aix-la-Chapelle) Hufvudort i
nyssnämnda område, vid den lilla ån Worm l. Wurm,
nära gränsen till Holland och Belgien.
Aal, tysk form för namnet på fisken ål, hvilken i
äldre svenska skrifter stundom stafvades med dubbelt a.
Abborre, allmänt bekant insjöfisk af familjen Per-
""",
    ),
    (
        1,
        102,
        """cidæ, med taggiga fenstrålar och mörka tvärränder
öfver kroppen, allmän i sjöar och vikar af Östersjön.
Algebra, den gren af matematiken, som behandlar räk-
ning med allmänna storheter och deras inbördes samband.
""",
    ),
    (
        2,
        57,
        """Arktonnesos, det grekiska namnet på den i Marmara-
sjön utskjutande Artaki-halfön.
Berlin, Tysklands hufvudstad och Preussens residens-
stad, belägen vid floden Spree, en af Europas största
och folkrikaste städer samt medelpunkt för landets
handel och industri.
""",
    ),
    (
        9,
        210,
        """Iowa, en af Nord-Amerikas förenta stater, belägen mel-
lan Mississippifloden i öster och Missourifloden i vester,
med bördig prärie och betydande åkerbruk.
Kompass, instrument för bestämmande af väderstreck,
bestående af en fritt svängbar magnetnål, som inställer
sig i den magnetiska meridianens riktning.
""",
    ),
    (
        9,
        211,
        """Oboe, ett träblåsinstrument med dubbelt rörblad, hvars
ton är genomträngande och något näsljudande.
Stockholm, Sveriges hufvudstad, beläget vid Mälarens
utlopp i Östersjön, rikets största och folkrikaste stad
samt säte för konung, riksdag och regering.
Uppsala, stad i Uppland vid Fyrisån, universitetsstad
och ärkebiskopssäte, bekant för sin domkyrka och sitt
bibliotek.
""",
    ),
    (
        30,
        5,
        """Wien, Österrikes hufvudstad, belägen vid Donau, en
af Europas förnämsta städer och medelpunkt för kejsar-
dömets politiska och kulturella lif.
""",
    ),
]

# Entry ids in dataset order, with their headwords and location labels.
ENTRY_IDS = [
    "1:101:1",   # Aachen
    "1:101:2",   # Aal
    "1:101:3",   # Abborre (continues onto page 102)
    "1:102:1",   # Algebra
    "2:57:1",    # Arktonnesos
    "2:57:2",    # Berlin
    "9:210:1",   # Iowa
    "9:210:2",   # Kompass
    "9:211:1",   # Oboe
    "9:211:2",   # Stockholm
    "9:211:3",   # Uppsala
    "30:5:1",    # Wien
]

HEADWORDS = {
    "1:101:1": "Aachen",
    "1:101:2": "Aal",
    "1:101:3": "Abborre",
    "1:102:1": "Algebra",
    "2:57:1": "Arktonnesos",
    "2:57:2": "Berlin",
    "9:210:1": "Iowa",
    "9:210:2": "Kompass",
    "9:211:1": "Oboe",
    "9:211:2": "Stockholm",
    "9:211:3": "Uppsala",
    "30:5:1": "Wien",
}

IS_LOCATION = {
    "1:101:1": True,    # Aachen
    "1:101:2": False,   # Aal
    "1:101:3": False,   # Abborre
    "1:102:1": False,   # Algebra
    "2:57:1": True,     # Arktonnesos
    "2:57:2": True,     # Berlin
    "9:210:1": True,    # Iowa
    "9:210:2": False,   # Kompass
    "9:211:1": False,   # Oboe
    "9:211:2": True,    # Stockholm
    "9:211:3": True,    # Uppsala
    "30:5:1": True,     # Wien
}

# Headwords of the location entries, in dataset order: the order link
# searches them.
LOCATION_HEADWORDS = [HEADWORDS[i] for i in ENTRY_IDS if IS_LOCATION[i]]

# ── Canned Wikidata data ─────────────────────────────────────────────────

# Search hits per headword: (qid, label, Swedish description or None),
# in endpoint order.  Arktonnesos returns nothing: the item exists but
# is not findable under the Greek name the encyclopedia used.
SEARCH_RESULTS: dict[str, list[tuple[str, str, str | None]]] = {
    "Aachen": [
        ("Q1017", "Aachen", "stad i Nordrhein-Westfalen, Tyskland"),
        ("Q896929", "Regierungsbezirk Aachen",
         "tidigare regeringsområde i Rhenprovinsen i Preussen"),
    ],
    "Arktonnesos": [],
    "Berlin": [
        ("Q64", "Berlin", "Tysklands huvudstad"),
        ("Q93000002", "Berlin", "stad i New Hampshire, USA"),
        ("Q93000007", "Berlin", None),
    ],
    "Iowa": [
        ("Q1546", "Iowa", "state of the United States of America"),
        ("Q99670857", "Iowa",
         "the federated state of Iowa in the USA as depicted in Star Trek"),
    ],
    "Stockholm": [
        ("Q1754", "Stockholm", "Sveriges huvudstad och största stad"),
        ("Q506250", "Stockholms kommun", "kommun i Stockholms län, Sverige"),
        ("Q2033099", "Stockholm", "ort i Aroostook County i Maine, USA"),
        ("Q93000001", "Stockholm", "musikalbum från 2017"),
        ("Q93000008", "Stockholm", "nedslagskrater på Mars"),
    ],
    "Uppsala": [
        ("Q25286", "Uppsala", "stad i Uppland, Sverige"),
        ("Q93000004", "Uppsala län", "län i Sverige"),
        ("Q93000005", "Uppsala", "musikgrupp bildad 2004"),
    ],
    "Wien": [
        ("Q1741", "Wien", "Österrikes huvudstad"),
        ("Q93000006", "Wien", "flod i Österrike"),
    ],
}

# Coordinate claims, as the WKT literals the SPARQL endpoint serves.
# Q99670857 (the Star Trek Iowa) deliberately has none.
COORD_WKT = {
    "Q1017": "Point(6.083611 50.776389)",
    "Q896929": "Point(6.083611 50.776389)",
    "Q64": "Point(13.388889 52.517222)",
    "Q1546": "Point(-93.5 42.0)",
    "Q1754": "Point(18.068611 59.329444)",
    "Q25286": "Point(17.64 59.858333)",
    "Q1741": "Point(16.3725 48.208333)",
}

# Frozen expectations for the fixture run (winner per location entry,
# None = no candidates).  Derived with the sparse-dict oracle in
# oracles.py; test_linker re-checks them against that oracle at test
# time, and the end-to-end test asserts the pipeline reproduces them.
EXPECTED_LINKS: dict[str, str | None] = {
    "1:101:1": "Q896929",    # the district outranks the city
    "2:57:1": None,          # no search hits
    "2:57:2": "Q64",
    "9:210:1": "Q99670857",  # the Star Trek homestead outranks the real state
    "9:211:2": "Q1754",
    "9:211:3": "Q25286",
    "30:5:1": "Q1741",
}

# QIDs the coords stage will put in its VALUES clause: linked entries
# in dataset order.
EXPECTED_SPARQL_QIDS = ["Q896929", "Q64", "Q99670857", "Q1754", "Q25286", "Q1741"]

# Entry id -> (lat, lon) after the coords stage.  Iowa stays ungeocoded.
def expected_coordinates() -> dict[str, tuple[float, float]]:
    out = {}
    for entry_id, qid in EXPECTED_LINKS.items():
        if qid is None or qid not in COORD_WKT:
            continue
        inside = COORD_WKT[qid][len("Point(") : -1]
        lon, lat = inside.split()
        out[entry_id] = (float(lat), float(lon))
    return out


# ── Writers ──────────────────────────────────────────────────────────────


def write_raw_corpus(raw_dir: Path) -> None:
    for volume, page_no, text in PAGES:
        page_dir = raw_dir / str(volume)
        page_dir.mkdir(parents=True, exist_ok=True)
        (page_dir / f"{page_no}.txt").write_text(text, encoding="utf-8")


def write_annotations(path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for entry_id in ENTRY_IDS:
            handle.write(
                json.dumps({"entry_id": entry_id, "is_location": IS_LOCATION[entry_id]})
            )
            handle.write("\n")


def search_answer(headword: str, hits) -> dict:
    return {
        "searchinfo": {"search": headword},
        "search": [
            {
                "id": qid,
                "label": label,
                **({"description": description} if description is not None else {}),
            }
            for qid, label, description in hits
        ],
        "success": 1,
    }


def _entities_answer(hits) -> dict:
    entities = {}
    for qid, _label, description in hits:
        descriptions = (
            {"sv": {"language": "sv", "value": description}}
            if description is not None
            else {}
        )
        entities[qid] = {"type": "item", "id": qid, "descriptions": descriptions}
    return {"entities": entities, "success": 1}


def _sparql_answer(qids) -> dict:
    bindings = []
    for qid in qids:
        if qid not in COORD_WKT:
            continue
        bindings.append(
            {
                "item": {
                    "type": "uri",
                    "value": f"http://www.wikidata.org/entity/{qid}",
                },
                "coords": {
                    "datatype": "http://www.opengis.net/ont/geosparql#wktLiteral",
                    "type": "literal",
                    "value": COORD_WKT[qid],
                },
            }
        )
    return {
        "head": {"vars": ["item", "coords"]},
        "results": {"bindings": bindings},
    }


def search_request(headword: str) -> HttpRequest:
    return HttpRequest(
        "GET",
        DEFAULT_API_URL,
        params=(
            ("action", "wbsearchentities"),
            ("format", "json"),
            ("language", "sv"),
            ("limit", "5"),
            ("search", headword),
            ("uselang", "sv"),
        ),
    )


def entities_request(qids) -> HttpRequest:
    return HttpRequest(
        "GET",
        DEFAULT_API_URL,
        params=(
            ("action", "wbgetentities"),
            ("format", "json"),
            ("ids", "|".join(qids)),
            ("languages", "sv"),
            ("props", "descriptions"),
        ),
    )


def sparql_request(qids) -> HttpRequest:
    import urllib.parse

    values = " ".join(f"wd:{qid}" for qid in qids)
    query = (
        "SELECT ?item ?coords WHERE { VALUES ?item { "
        + values
        + " } ?item wdt:P625 ?coords }"
    )
    return HttpRequest(
        "POST",
        DEFAULT_SPARQL_URL,
        body=urllib.parse.urlencode({"query": query}).encode("ascii"),
        headers=(
            ("Accept", "application/sparql-results+json"),
            ("Content-Type", "application/x-www-form-urlencoded"),
        ),
    )


def record(cache_dir: Path, request: HttpRequest, answer) -> str:
    """Store the JSON document ``answer`` as the recorded answer to
    ``request`` by sending it through a recording transport whose live
    side answers ``answer``; return the request's key in the cache's
    log.  A request already on file keeps its answer."""
    ReplayTransport(cache_dir, SimpleNamespace(send=lambda request: answer)).send(request)
    return canonical_request_key(request)


def log_rows(cache_dir: Path) -> list[bytes]:
    """The rows of the cache's replay log, each with its newline."""
    return (Path(cache_dir) / LOG_NAME).read_bytes().splitlines(keepends=True)[1:]


def recorded_keys(cache_dir: Path) -> list[str]:
    """The request key of every row of the cache's log, in log order."""
    return [json.loads(row)[0] for row in log_rows(cache_dir)]


def rewrite_row(cache_dir: Path, key: str, line: bytes) -> None:
    """Put ``line`` (bytes with their newline, or none to drop the row)
    where the cache's log holds the row recorded for ``key``."""
    path = Path(cache_dir) / LOG_NAME
    header, *rows = path.read_bytes().splitlines(keepends=True)
    [at] = [i for i, row in enumerate(rows) if json.loads(row)[0] == key]
    rows[at] = line
    path.write_bytes(header + b"".join(rows))


def drop_row(cache_dir: Path, key: str) -> None:
    """Delete the row recorded for ``key``: replaying its request misses."""
    rewrite_row(cache_dir, key, b"")


def answer_row(cache_dir: Path, key: str, answer) -> None:
    """Record the JSON document ``answer`` instead as the answer to the
    request of ``key``."""
    rewrite_row(cache_dir, key, json.dumps([key, answer]).encode("ascii") + b"\n")


def record_descriptions(cache_dir: Path, headwords) -> str:
    """Record the one description request link used to send, before
    search hits carried the descriptions, when exactly the searches for
    ``headwords`` succeeded: the distinct candidates of those
    headwords, in first-seen order (fewer than 50 here)."""
    hits = {qid: (qid, label, text)
            for headword in headwords
            for qid, label, text in SEARCH_RESULTS[headword]}
    return record(cache_dir, entities_request(list(hits)), _entities_answer(hits.values()))


def record_coordinates(cache_dir: Path, qids) -> str:
    """Record the SPARQL coordinate query for ``qids``."""
    return record(cache_dir, sparql_request(qids), _sparql_answer(qids))


def build_replay_cache(cache_dir: Path) -> dict[str, str]:
    """Record every response the fixture pipeline will need.

    Returns a label -> request-key map so tests can surgically drop or
    damage one recorded row and watch replay fail loudly.
    """
    keys: dict[str, str] = {}
    for headword, hits in SEARCH_RESULTS.items():
        keys[f"search:{headword}"] = record(
            cache_dir, search_request(headword), search_answer(headword, hits)
        )
    keys["sparql:coordinates"] = record_coordinates(cache_dir, EXPECTED_SPARQL_QIDS)

    # A second coords pass re-queries only the items still without a
    # coordinate (the Iowa mislink target); record its empty answer so
    # replayed pipelines can re-run the stage.
    retry_qids = [qid for qid in EXPECTED_SPARQL_QIDS if qid not in COORD_WKT]
    if retry_qids:
        keys["sparql:retry"] = record_coordinates(cache_dir, retry_qids)
    return keys


class FixtureTransport:
    """Answers searches straight from ``results`` (default:
    ``SEARCH_RESULTS``), so tests can link any entries without a
    recorded cache; any other request fails the test.  Keeps every
    request it was sent, in arrival order."""

    def __init__(self, results=None):
        self.results = SEARCH_RESULTS if results is None else results
        self.requests: list[HttpRequest] = []

    def send(self, request: HttpRequest) -> dict:
        self.requests.append(request)
        params = dict(request.params)
        if params.get("action") == "wbsearchentities":
            term = params["search"]
            hits = self.results.get(term, [])[: int(params["limit"])]
            return search_answer(term, hits)
        raise AssertionError(f"unexpected request {request.full_url()}")
