"""Independent re-implementations used as oracles by the tests.

Everything here is written from scratch against the documented
behavior, deliberately via different code paths than the package:
plain dicts instead of numpy arrays, reduce instead of a hand loop,
atan2 instead of asin, backwards scan instead of rfind.  Agreement
between package and oracle is then evidence, not tautology.
"""

from __future__ import annotations

import json
import math
from functools import reduce

import numpy as np

EARTH_RADIUS_KM = 6371.0


# ── Trigram hashing and cosine, sparse-dict flavor ───────────────────────


def fnv1a_64(data: bytes) -> int:
    return reduce(
        lambda h, b: ((h ^ b) * 0x100000001B3) % (1 << 64),
        data,
        0xCBF29CE484222325,
    )


def trigram_weights(text: str, dim: int = 384) -> dict[int, float]:
    """Unit-norm sparse vector of hashed character trigrams."""
    collapsed = " ".join(text.casefold().split())
    weights: dict[int, float] = {}
    for a, b, c in zip(collapsed, collapsed[1:], collapsed[2:]):
        bucket = fnv1a_64((a + b + c).encode("utf-8")) % dim
        weights[bucket] = weights.get(bucket, 0.0) + 1.0
    norm = math.sqrt(sum(w * w for w in weights.values()))
    if norm == 0.0:
        return {}
    return {bucket: w / norm for bucket, w in weights.items()}


def scalar_embed(text: str, dim: int = 384) -> np.ndarray:
    """The embedder's original per-trigram loop, kept as the reference
    the batched embedder must match bit for bit: one float64 increment
    per trigram, then division by ``np.linalg.norm`` of the vector."""
    vector = np.zeros(dim, dtype=np.float64)
    collapsed = " ".join(text.casefold().split())
    for i in range(len(collapsed) - 2):
        vector[fnv1a_64(collapsed[i : i + 3].encode("utf-8")) % dim] += 1.0
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        return np.zeros_like(vector)
    return vector / norm


def dense_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two dense vectors on ``np.linalg.norm`` norms: 0 if
    either is zero, else clamped to [-1, 1].  The linker's similarities
    must equal it bit for bit."""
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return max(-1.0, min(1.0, float(np.dot(a, b)) / (norm_a * norm_b)))


def sparse_cosine(a: dict[int, float], b: dict[int, float]) -> float:
    return sum(w * b[bucket] for bucket, w in a.items() if bucket in b)


def text_similarity(x: str, y: str, dim: int = 384) -> float:
    return sparse_cosine(trigram_weights(x, dim), trigram_weights(y, dim))


def best_candidate(definition: str, candidates: list[tuple[str, str | None]],
                   dim: int = 384) -> tuple[str, float] | None:
    """(qid, similarity) of the best candidate, ties to lower item number.

    ``candidates`` is a list of (qid, description-or-None); a missing
    description scores 0.
    """
    if not candidates:
        return None
    scored = [
        (
            text_similarity(definition, description, dim) if description else 0.0,
            qid,
        )
        for qid, description in candidates
    ]
    scored.sort(key=lambda pair: (-pair[0], int(pair[1][1:])))
    similarity, qid = scored[0]
    return qid, similarity


# ── Geometry ─────────────────────────────────────────────────────────────


def haversine_atan2_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Haversine via the atan2 formulation."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    d_phi = math.radians(lat2 - lat1)
    d_lam = math.radians(lon2 - lon1)
    a = math.sin(d_phi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(d_lam / 2) ** 2
    a = min(1.0, max(0.0, a))
    return 2.0 * EARTH_RADIUS_KM * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


# ── Text rules ───────────────────────────────────────────────────────────


def truncate_by_scan(text: str) -> str:
    """Definition cut, re-derived: keep 200 chars, walk backwards to
    the last period."""
    kept = text[:200]
    for i in range(len(kept) - 1, -1, -1):
        if kept[i] == ".":
            return kept[: i + 1]
    return kept


def join_lines(lines: list[str]) -> str:
    """The segmenter's original line joiner, kept as the reference the
    linear one must match: it grows one string, fusing a trailing
    hyphen with a lowercase continuation and spacing anything else."""
    text = ""
    for line in lines:
        if not text:
            text = line
        elif text.endswith("-") and line[:1].islower():
            text = text[:-1] + line
        else:
            text = text + " " + line
    return " ".join(text.split())


def looks_like_entry_start(line: str) -> bool:
    """The segmenter's original per-line start test: the stripped line
    starts with an uppercase letter and shows a comma or period within
    its first 40 characters."""
    stripped = line.lstrip()
    if not stripped:
        return False
    first = stripped[0]
    if not (first.isalpha() and first.isupper()):
        return False
    window = stripped[:40]
    return "," in window or "." in window


def segment_by_lines(pages) -> list[tuple]:
    """The segmenter's original line loop, kept as the reference the
    page scan must match: split each page with ``splitlines``, strip
    each line, drop blank ones, start an entry at each line that looks
    like a start, and join an entry's lines with ``join_lines``.

    ``pages`` holds objects with ``volume``, ``page_no`` and ``text``,
    sorted; the result holds each entry's ``(id, volume, page,
    headword, definition, raw_text)``."""
    entries: list[tuple] = []
    volume = None
    lines: list[str] = []
    start = None  # (page_no, ordinal)

    def flush():
        if start is not None:
            raw_text = join_lines(lines)
            entries.append((f"{volume}:{start[0]}:{start[1]}", volume, start[0],
                            headword_by_full_split(raw_text), truncate_by_scan(raw_text),
                            raw_text))

    for page in pages:
        if page.volume != volume:
            flush()
            volume, lines, start = page.volume, [], None
        ordinal = 0
        for line in page.text.splitlines():
            line = line.strip()
            if not line:
                continue
            if looks_like_entry_start(line):
                flush()
                ordinal += 1
                start, lines = (page.page_no, ordinal), [line]
            elif start is not None:
                lines.append(line)
    flush()
    return entries


def headword_by_regex(raw_text: str) -> str | None:
    """Headword rule, re-derived with a regex instead of token surgery."""
    import re

    match = re.match(r"\s*([^\s\[]+)", raw_text)
    if not match:
        return None
    return match.group(1).rstrip(",.:;") or None


def headword_by_full_split(raw_text: str) -> str:
    """The headword rule as first written, kept as the reference the
    one-split version must match, errors included: split the whole
    entry text, then trim the first token."""
    tokens = raw_text.split()
    if not tokens:
        raise ValueError("entry text is blank; no headword to extract")
    token = tokens[0]
    bracket = token.find("[")
    if bracket != -1:
        token = token[:bracket]
    token = token.rstrip(",.:;")
    if not token:
        raise ValueError(f"no usable headword at {raw_text[:40]!r}")
    return token


# ── Dataset lines ────────────────────────────────────────────────────────


def dataset_line(entry) -> str:
    """One dataset line, built field by field and dumped whole: the six
    required fields, then each optional one that is set."""
    record = {name: getattr(entry, name)
              for name in ("id", "volume", "page", "headword", "definition", "raw_text")}
    for name in ("is_location", "qid", "similarity", "lat", "lon"):
        if getattr(entry, name) is not None:
            record[name] = getattr(entry, name)
    return json.dumps(record, ensure_ascii=False)


_DATASET_REQUIRED = ("id", "volume", "page", "headword", "definition", "raw_text")
_DATASET_FIELDS = _DATASET_REQUIRED + ("is_location", "qid", "similarity", "lat", "lon")
_NULL = type(None)
_DATASET_TYPES = {
    "id": (str,), "volume": (int,), "page": (int,), "headword": (str,),
    "definition": (str,), "raw_text": (str,), "is_location": (bool, _NULL),
    "qid": (str, _NULL), "similarity": (int, float, _NULL),
    "lat": (int, float, _NULL), "lon": (int, float, _NULL),
}
# The smallest integer that rounds past the largest float: halfway
# between it, (2 - 2**-52) * 2**1023, and 2**1024, rounding to even.
_FLOAT_OVERFLOW = 2**1024 - 2**970


def check_dataset_record(record, where: str = "dataset") -> None:
    """The dataset record check as first written, kept as the reference
    the loader must match, message for message: the record must be an
    object with no unknown and no missing field, and then each field in
    record order must hold one of its exact types (a finite float, or
    for ``similarity``, ``lat`` and ``lon`` an integer no float
    overflows on), and a string must encode to UTF-8.  Raises
    ValueError with the message the loader's DatasetError carries."""
    if not isinstance(record, dict):
        raise ValueError(f"{where}: record is not an object")
    unknown = set(record) - set(_DATASET_FIELDS)
    if unknown:
        raise ValueError(f"{where}: unknown fields {sorted(unknown)}")
    missing = [name for name in _DATASET_REQUIRED if name not in record]
    if missing:
        raise ValueError(f"{where}: missing fields {missing}")
    for name, value in record.items():
        kinds = _DATASET_TYPES[name]
        if (
            type(value) not in kinds
            or (type(value) is float and not math.isfinite(value))
            or (type(value) is int and float in kinds and abs(value) >= _FLOAT_OVERFLOW)
        ):
            expected = " or ".join(kind.__name__ for kind in kinds if kind is not _NULL)
            raise ValueError(f"{where}: field {name!r} must be {expected}, got {value!r:.40}")
        if type(value) is str:
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as err:
                raise ValueError(
                    f"{where}: field {name!r} is not UTF-8 text: "
                    f"{value[err.start]!r} at index {err.start}"
                ) from None


# ── Classifier probability and metrics ───────────────────────────────────


def predict_proba(model, vector) -> float:
    """A model's location probability for one vector, the logistic of
    ``weights . vector + bias`` taken in whichever form keeps ``exp``
    from overflowing."""
    z = float(np.dot(model.weights, vector)) + model.bias
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    return math.exp(z) / (1.0 + math.exp(z))



def metrics_from_counts(tp: int, fp: int, fn: int, tn: int) -> dict[str, float]:
    total = tp + fp + fn + tn
    return {
        "accuracy": (tp + tn) / total,
        "precision": tp / (tp + fp),
        "recall": tp / (tp + fn),
        # algebraically 2PR/(P+R), computed on a different path
        "f1": 2.0 * tp / (2.0 * tp + fp + fn),
    }


def confusion_rows(tp: int, fp: int, fn: int, tn: int):
    return (
        (tp / (tp + fn), fn / (tp + fn)),
        (fp / (fp + tn), tn / (fp + tn)),
    )
