"""Seeded synthetic inputs for the benchmark.

``generate(workload, seed, out_dir)`` writes, under ``out_dir``:

* ``raw/<volume>/<page>.txt`` — OCR-style pages.  Entries start with a
  capitalised headword and a comma; every wrapped line starts with a
  lowercase letter, a digit or a bracket, so the program's headword
  heuristic never fires inside an entry.  Long words are split across
  lines with a hyphen, and entries run on across page breaks.
* ``annotations.jsonl`` — a class-balanced labelled sample.
* ``truth.jsonl`` — each entry's id, headword, label and intended QID.

and returns a :class:`World`: the Wikidata items the fake server
serves (search hits per headword, Swedish descriptions, coordinates).
The intended item's description repeats wording from the entry's
definition (place kind, region, water); decoy descriptions do not.

Entry sizes and class counts are fixed per workload and only their
order and wording depend on the seed, so the amount of work is the
same for every seed.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from dataclasses import dataclass, field
from pathlib import Path

LINE_WIDTH = 62
SEARCH_HITS = 7  # hits per headword; the program asks for 5


@dataclass(frozen=True)
class Shape:
    entries: int
    location_share: float
    # Entry text length in characters: lengths are spread evenly (in
    # log space) between these bounds.
    min_chars: int
    max_chars: int
    repeat_share: float  # share of entries whose headword repeats an earlier one
    shared_decoys: int  # size of the shared decoy pool; 0 = fresh decoys per headword
    annotations_per_class: int
    lines_per_page: int
    volumes: int


SHAPES = {
    "paper_replay": Shape(
        entries=4000, location_share=0.22, min_chars=230, max_chars=420,
        repeat_share=1 / 3, shared_decoys=400, annotations_per_class=250,
        lines_per_page=120, volumes=8,
    ),
    "long_entries_replay": Shape(
        entries=300, location_share=0.05, min_chars=2048, max_chars=131072,
        repeat_share=0.0, shared_decoys=0, annotations_per_class=12,
        lines_per_page=400, volumes=4,
    ),
    "live_ratelimited": Shape(
        entries=100, location_share=0.25, min_chars=230, max_chars=420,
        repeat_share=0.0, shared_decoys=0, annotations_per_class=20,
        lines_per_page=120, volumes=2,
    ),
}

# ── Word banks ───────────────────────────────────────────────────────────

_SYLLABLES = (
    "al an ar as berg bo by da dal ed el en er fa fors ga gå ha hed holm "
    "is ka kro la lid lund ma mo na nä or ra ros sa sjö skog sta strand "
    "ta to tor va ved vik ås äng ör ny gran sund bro lin mar sel"
).split()
_REGIONS = (
    "Uppland Södermanland Östergötland Småland Skåne Halland Västergötland "
    "Dalsland Värmland Närke Västmanland Dalarna Gästrikland Hälsingland "
    "Medelpad Ångermanland Jämtland Härjedalen Västerbotten Norrbotten "
    "Lappland Blekinge Gotland Öland Bohuslän Norge Finland Danmark "
    "Tyskland Ryssland Frankrike Italien Spanien Schweiz Holland"
).split()
_PLACE_KINDS = (
    "stad köping socken by sjö ö halvö herrgård bruk fiskläge härad "
    "kommun berg dal udde"
).split()
_DIRECTIONS = "n. s. ö. v. nö. nv. sö. sv.".split()
_OCCUPATIONS = (
    "författare målare skald tonsättare präst biskop ämbetsman krigare "
    "skådespelare läkare naturforskare kemist astronom historiker "
    "riksdagsman industriman arkitekt bildhuggare filosof jurist"
).split()
_NATIONS = "svensk norsk dansk finsk tysk fransk engelsk italiensk holländsk".split()
_FIRST_NAMES = (
    "Karl Johan Erik Gustaf Anders Nils Per Lars Olof Magnus Carl Axel "
    "Fredrik Maria Anna Kristina Sofia Eva Elsa Hedvig Ulrika Greta"
).split()
_FIELDS = (
    "botan. zool. kem. fys. mat. jur. med. teol. filos. mus. sjöv. krigsv."
).split()
_DECOY_KINDS = (
    "musikalbum från {y}", "svensk fotbollsspelare född {y}", "efternamn",
    "släkte av skalbaggar", "fartyg sjösatt {y}", "tysk adelsätt",
    "Wikimedia-förgreningssida", "roman av okänd författare utgiven {y}",
    "asteroid i asteroidbältet", "ishockeyklubb grundad {y}",
    "nedslagskrater på Mars", "film från {y}", "släkte av tvåvingar",
    "popgrupp bildad {y}", "mansnamn", "kvinnonamn", "tv-serie från {y}",
)
# Filler: lowercase words only, some long enough to be hyphenated.  A
# place entry goes on about the place, any other entry about its own
# subject; both share the function words.
_FUNCTION_WORDS = "och med af till samt genom under efter öfver emellan äfven dock".split()
_PLACE_FILLER = _FUNCTION_WORDS + (
    "järnvägsstation sockenkyrka befolkningsmängd handelsförbindelser "
    "jordbruksprodukter industrianläggningar medeltidsborg tegelbruk "
    "sågverk kvarnar fiske skeppsbyggeri boskapsskötsel skogsbruk "
    "bördig slätt bergig trakt vidsträckt skog odlad jord gammal kyrka "
    "vacker utsikt betydande handel livlig sjöfart ansenlig tillverkning "
    "läroverk hospital domkyrka rådhus torg hamn fästning slott gods "
    "privilegier erhöll förstördes återuppbyggdes utvidgades anlades "
    "marknader hållas årligen talrika fornlämningar finnas trakten"
).split()
_OTHER_FILLER = _FUNCTION_WORDS + (
    "författarskap avhandlingar undersökningar lärobok översättningar "
    "professor ledamot akademien utnämndes studerade universitetet "
    "skrifter arbeten utgaf samlade dikter afhandling betydelse "
    "egenskaper användning beskaffenhet förekommer sällsynt allmän "
    "benämning ursprungligen betecknar äldre språkbruk arter blommor "
    "blad frukt odlas prydnadsväxt medicinsk verkan tidigare ansågs "
    "omtalas redan nämnes hvilka hvarefter sedermera vidare likaledes"
).split()
_MONTHS = "jan. febr. mars april maj juni juli aug. sept. okt. nov. dec.".split()


def _headword(rng: random.Random) -> str:
    parts = [rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3))]
    return "".join(parts).capitalize()


def _filler_sentence(rng: random.Random, words_from: list[str]) -> str:
    words = [rng.choice(words_from) for _ in range(rng.randint(6, 14))]
    if rng.random() < 0.3:
        # a capitalised name mid-sentence, to exercise the wrap guard
        words.insert(rng.randrange(1, len(words)), rng.choice(_REGIONS) + ",")
    return " ".join(words) + "."


def _pad(rng: random.Random, text: str, length: int, words_from: list[str]) -> str:
    parts = [text]
    size = len(text)
    while size < length:
        sentence = _filler_sentence(rng, words_from)
        parts.append(sentence)
        size += len(sentence) + 1
    return " ".join(parts)


@dataclass
class Place:
    kind: str
    region: str
    water: str


def _place_definition(rng: random.Random, head: str, place: Place) -> str:
    near = _headword(rng)
    return (
        f"{head}, {place.kind} i {place.region}, vid {place.water}, "
        f"{rng.randint(3, 60)} km {rng.choice(_DIRECTIONS)} om {near}. "
        f"{rng.randint(2, 900) * 10} inv. ({rng.randint(1870, 1915)})."
    )


def _other_definition(rng: random.Random, head: str) -> str:
    roll = rng.random()
    if roll < 0.5:
        born = rng.randint(1600, 1880)
        return (
            f"{head}, {rng.choice(_FIRST_NAMES)} {rng.choice(_FIRST_NAMES)}, "
            f"{rng.choice(_NATIONS)} {rng.choice(_OCCUPATIONS)}, f. "
            f"{rng.randint(1, 28)} {rng.choice(_MONTHS)} {born}, d. "
            f"{born + rng.randint(25, 85)}."
        )
    if roll < 0.8:
        return (
            f"{head}, {rng.choice(_FIELDS)} benämning på ett slags "
            f"{rng.choice(_OTHER_FILLER)} eller {rng.choice(_OTHER_FILLER)}, "
            "hvilket brukas i äldre skrifter."
        )
    return (
        f"{head}, växtsläkte af familjen {_headword(rng)}aceæ, med "
        f"{rng.randint(2, 90)} arter i varmare länder."
    )


def _place_description(place: Place) -> str:
    return f"{place.kind} i {place.region}, vid {place.water}"


def _coords(rng: random.Random) -> tuple[float, float]:
    return round(rng.uniform(55.0, 69.0), 6), round(rng.uniform(11.0, 24.0), 6)


# ── Layout ───────────────────────────────────────────────────────────────


def _wrap(rng: random.Random, text: str) -> list[str]:
    """Wrap ``text`` so that joining the lines with the program's rules
    (hyphen + lowercase fuses, anything else joins with a space) gives
    ``text`` back, and no line but the first starts with a capital."""
    lines: list[str] = []
    current = ""
    for word in text.split(" "):
        if not current:
            current = word
            continue
        if len(current) + 1 + len(word) <= LINE_WIDTH:
            current += " " + word
            continue
        # The word does not fit.  Split it with a hyphen where possible:
        # the tail starts lowercase, so the program fuses it back.
        room = LINE_WIDTH - len(current) - 2
        if word.isalpha() and len(word) >= 8 and room >= 3:
            cut = rng.randint(3, min(room, len(word) - 3))
            lines.append(f"{current} {word[:cut]}-")
            current = word[cut:]
        elif word[0].isalpha() and word[0].isupper():
            current += " " + word  # a capital cannot start a line: overflow
        else:
            lines.append(current)
            current = word
    if current:
        lines.append(current)
    return lines


def _log_spread(count: int, low: int, high: int, rng: random.Random) -> list[int]:
    """``count`` lengths evenly spread in log space, in seeded order."""
    if count == 1:
        return [low]
    ratio = math.log(high / low)
    lengths = [int(low * math.exp(ratio * i / (count - 1))) for i in range(count)]
    rng.shuffle(lengths)
    return lengths


# ── World ────────────────────────────────────────────────────────────────


@dataclass
class World:
    """Everything the fake Wikidata serves."""

    search: dict[str, list[str]] = field(default_factory=dict)
    labels: dict[str, str] = field(default_factory=dict)
    descriptions: dict[str, str] = field(default_factory=dict)
    coords: dict[str, tuple[float, float]] = field(default_factory=dict)
    decoy_pool: list[str] = field(default_factory=list)

    def hits(self, term: str) -> list[str]:
        """Search hits for any term; unknown terms get decoys picked by
        a hash of the term, so the answer is stable across runs."""
        known = self.search.get(term)
        if known is not None:
            return known
        if not self.decoy_pool:
            return []
        start = zlib.crc32(term.encode("utf-8")) % len(self.decoy_pool)
        return [self.decoy_pool[(start + i) % len(self.decoy_pool)] for i in range(3)]


def _add_decoy(world: World, rng: random.Random, qid: str, label: str) -> None:
    world.labels[qid] = label
    world.descriptions[qid] = rng.choice(_DECOY_KINDS).format(y=rng.randint(1950, 2020))
    if rng.random() < 0.3:
        world.coords[qid] = _coords(rng)


def generate(workload: str, seed: int, out_dir: Path) -> World:
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    world = World()
    next_qid = iter(range(100_001, 10_000_000))

    if shape.shared_decoys:
        for _ in range(shape.shared_decoys):
            qid = f"Q{next(next_qid)}"
            _add_decoy(world, rng, qid, _headword(rng))
            world.decoy_pool.append(qid)

    n = shape.entries
    n_loc = round(n * shape.location_share)
    n_repeat = round(n * shape.repeat_share)
    labels = [True] * n_loc + [False] * (n - n_loc)
    rng.shuffle(labels)
    repeats = [True] * n_repeat + [False] * (n - n_repeat)
    rng.shuffle(repeats)
    lengths = _log_spread(n, shape.min_chars, shape.max_chars, rng)

    used: set[str] = set()
    reusable: list[str] = []
    uses: dict[str, int] = {}
    entries: list[dict] = []  # headword, text, is_location, qid
    for is_loc, repeat, length in zip(labels, repeats, lengths):
        if repeat and reusable:
            head = rng.choice(reusable)
        else:
            head = _headword(rng)
            while head in used:
                head = _headword(rng)
            used.add(head)
            reusable.append(head)
        uses[head] = uses.get(head, 0) + 1
        if uses[head] >= 3 and head in reusable:
            reusable.remove(head)  # at most 3 entries per headword
        qid = None
        if is_loc:
            place = Place(rng.choice(_PLACE_KINDS), rng.choice(_REGIONS),
                          _headword(rng) + "ån")
            text = _place_definition(rng, head, place)
            qid = f"Q{next(next_qid)}"
            world.labels[qid] = head
            world.descriptions[qid] = _place_description(place)
            if rng.random() < 0.97:  # a few items have no coordinates
                world.coords[qid] = _coords(rng)
            world.search.setdefault(head, []).append(qid)
        else:
            text = _other_definition(rng, head)
        filler = _PLACE_FILLER if is_loc else _OTHER_FILLER
        entries.append({"headword": head, "text": _pad(rng, text, length, filler),
                        "is_location": is_loc, "qid": qid})

    # Search hits: the headword's intended items (at most 3) sit among
    # decoys inside the first five; more decoys follow, so the answer
    # depends on the requested limit.
    for head, intended in world.search.items():
        wanted = SEARCH_HITS - len(intended)
        if shape.shared_decoys:
            decoys = rng.sample(world.decoy_pool, wanted)
        else:
            decoys = [f"Q{next(next_qid)}" for _ in range(wanted)]
            for qid in decoys:
                _add_decoy(world, rng, qid, head)
        top = intended + decoys[: 5 - len(intended)]
        rng.shuffle(top)
        world.search[head] = top + decoys[5 - len(intended):]

    _write_pages(rng, shape, entries, out_dir)
    _write_labels(rng, shape, entries, out_dir)
    return world


def _write_pages(rng: random.Random, shape: Shape, entries: list[dict],
                 out_dir: Path) -> None:
    per_volume = math.ceil(len(entries) / shape.volumes)
    for v in range(shape.volumes):
        volume = v + 1
        vol_dir = out_dir / "raw" / str(volume)
        vol_dir.mkdir(parents=True, exist_ok=True)
        page_no, page_lines, starts = 1, [], 0
        for entry in entries[v * per_volume:(v + 1) * per_volume]:
            for i, line in enumerate(_wrap(rng, entry["text"])):
                if len(page_lines) == shape.lines_per_page:
                    (vol_dir / f"{page_no}.txt").write_text(
                        "\n".join(page_lines) + "\n", encoding="utf-8")
                    page_no, page_lines, starts = page_no + 1, [], 0
                if i == 0:
                    starts += 1
                    entry["id"] = f"{volume}:{page_no}:{starts}"
                page_lines.append(line)
        if page_lines:
            (vol_dir / f"{page_no}.txt").write_text(
                "\n".join(page_lines) + "\n", encoding="utf-8")


def _write_labels(rng: random.Random, shape: Shape, entries: list[dict],
                  out_dir: Path) -> None:
    with open(out_dir / "truth.jsonl", "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(
                {"entry_id": entry["id"], "headword": entry["headword"],
                 "is_location": entry["is_location"], "qid": entry["qid"]},
                ensure_ascii=False) + "\n")
    positives = [e["id"] for e in entries if e["is_location"]]
    negatives = [e["id"] for e in entries if not e["is_location"]]
    k = shape.annotations_per_class
    sample = [(i, True) for i in rng.sample(positives, k)]
    sample += [(i, False) for i in rng.sample(negatives, k)]
    sample.sort()
    with open(out_dir / "annotations.jsonl", "w", encoding="utf-8") as handle:
        for entry_id, label in sample:
            handle.write(json.dumps({"entry_id": entry_id, "is_location": label}) + "\n")
