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
