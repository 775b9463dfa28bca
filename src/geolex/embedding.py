"""Text-to-vector providers and the similarity math the linker runs on.

Every provider exposes the same small surface: ``name``, ``dim``,
``embed(text)`` and ``embed_batch(texts)``.  Output vectors are
float64, L2-normalized, and the empty text maps to the all-zero
vector (which cosine treats as similar-to-nothing).

Two providers:

* ``HashedTrigramEmbedder`` — character-trigram feature hashing.  Pure
  arithmetic, no model weights, no I/O, identical output across
  processes and platforms.  The default.
* ``RemoteEmbedder`` — thin client for an external embedding service,
  for plugging a real sentence encoder behind the same interface.  It
  sends through ``wikidata.UrllibTransport``, the pipeline's one HTTP
  sender.

``CachedEmbedder`` wraps either with an on-disk text-hash → vector
cache so repeated runs don't recompute (or re-request) anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import iter_jsonl
from .errors import ProtocolError
from .wikidata import HttpRequest, RateLimiter, UrllibTransport

DEFAULT_DIM = 384
DEFAULT_TIMEOUT_S = 30.0

# Most texts a stage hands the provider in one call: peak memory holds
# one chunk of vectors instead of one per text.
EMBED_CHUNK = 1024

# FNV-1a, 64-bit: standard offset basis and prime.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(data: bytes) -> int:
    """FNV-1a hash of ``data``, as an unsigned 64-bit integer."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def l2_normalize(vector: np.ndarray) -> np.ndarray:
    """Scale to unit L2 norm; the zero vector stays zero."""
    vector = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        return np.zeros_like(vector)
    return vector / norm


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine of the angle between two vectors, in [-1, 1].

    If either vector is all-zero the similarity is defined as 0.
    Mismatched dimensions are a caller bug and raise.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    value = float(np.dot(a, b)) / (norm_a * norm_b)
    # Guard against rounding drift just past the mathematical range.
    return max(-1.0, min(1.0, value))


class HashedTrigramEmbedder:
    """Deterministic character-trigram feature hashing.

    Text is casefolded and whitespace-collapsed, then every contiguous
    3-character window (spaces included, no boundary padding) is hashed
    with FNV-1a into one of ``dim`` buckets.  Bucket weights are
    occurrence counts; the vector is L2-normalized.  No per-run seed
    anywhere, so the same text gives the same vector in any process.

    Each distinct trigram is hashed once per embedder: a trigram →
    bucket table fills on first sight and is never evicted, so it grows
    with the number of distinct trigrams seen.  Threads may share an
    embedder; two threads filling the same trigram store the same
    bucket, so the race is harmless.
    """

    name = "trigram"

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._buckets: dict[str, int] = {}

    @staticmethod
    def normalize_text(text: str) -> str:
        return " ".join(text.casefold().split())

    def bucket(self, trigram: str) -> int:
        return fnv1a_64(trigram.encode("utf-8")) % self.dim

    def _bucket_ids(self, text: str) -> list[int]:
        """Bucket of every trigram of ``text``, in order."""
        normalized = self.normalize_text(text)
        trigrams = [normalized[i : i + 3] for i in range(len(normalized) - 2)]
        table = self._buckets
        try:
            return list(map(table.__getitem__, trigrams))
        except KeyError:
            for trigram in set(trigrams).difference(table):
                table[trigram] = self.bucket(trigram)
            return list(map(table.__getitem__, trigrams))

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Iterable[str]) -> list[np.ndarray]:
        """One vector per text: the rows of a single ``(n, dim)`` matrix."""
        texts = list(texts)
        matrix = np.zeros((len(texts), self.dim), dtype=np.float64)
        for row, text in zip(matrix, texts):
            row[:] = np.bincount(self._bucket_ids(text), minlength=self.dim)
        # sqrt(row . row) is how np.linalg.norm (so l2_normalize) takes a
        # vector's norm, and with integer counts every sum of squares is
        # exact anyway.  Row by row, no squared copy of the matrix is
        # made.  All-zero rows divide by 1 and stay zero.
        norms = np.sqrt([row.dot(row) for row in matrix])
        norms[norms == 0.0] = 1.0
        matrix /= norms[:, None]
        return list(matrix)


class RemoteEmbedder:
    """Client for an embedding service speaking JSON over HTTP.

    Request: ``POST {"texts": [...]}``; response: ``{"vectors": [[...],
    ...]}`` with one vector per input, each of length ``dim``.  The URL
    comes from the constructor or the ``EMBED_URL`` environment
    variable.  Requests go through ``transport`` (by default an
    unspaced ``UrllibTransport``, so HTTP 429/5xx raise TransportError
    and other error statuses ProtocolError; nothing is retried).  At
    most ``max_in_flight`` requests run concurrently; responses are
    validated and re-normalized before use.
    """

    name = "remote"

    def __init__(
        self,
        url: str | None = None,
        dim: int = DEFAULT_DIM,
        timeout: float = DEFAULT_TIMEOUT_S,
        max_in_flight: int = 4,
        transport=None,
    ):
        self.url = url or os.environ.get("EMBED_URL") or ""
        if not self.url:
            raise ValueError("no embedding service URL: pass url= or set EMBED_URL")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.dim = dim
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self.transport = transport or UrllibTransport(
            timeout=timeout, rate_limiter=RateLimiter(0.0)
        )

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        texts = list(texts)
        if not texts:
            return []
        request = HttpRequest(
            "POST",
            self.url,
            body=json.dumps({"texts": texts}).encode("utf-8"),
            headers=(("Content-Type", "application/json"),),
        )
        with self._slots:
            body = self.transport.send(request)
        try:
            parsed = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ProtocolError(f"embedding service returned non-JSON: {err}") from err
        vectors = parsed.get("vectors") if isinstance(parsed, dict) else None
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ProtocolError(
                f"embedding service returned {0 if not isinstance(vectors, list) else len(vectors)} "
                f"vectors for {len(texts)} texts"
            )
        out: list[np.ndarray] = []
        for i, raw in enumerate(vectors):
            vector = np.asarray(raw, dtype=np.float64)
            if vector.shape != (self.dim,):
                raise ProtocolError(
                    f"vector {i} has shape {vector.shape}, expected ({self.dim},)"
                )
            if not np.all(np.isfinite(vector)):
                raise ProtocolError(f"vector {i} contains non-finite values")
            out.append(l2_normalize(vector))
        return out


def _trim_torn_line(path: Path) -> None:
    """End ``path`` at a line break.  A last line without one is an
    append cut short: dropped when it does not parse, closed with its
    newline when it does, so the next append starts a fresh line."""
    with open(path, "rb") as handle:
        size = handle.seek(0, os.SEEK_END)
        tail = b""
        while b"\n" not in tail and len(tail) < size:
            start = max(0, size - len(tail) - 65536)
            handle.seek(start)
            tail = handle.read(size - len(tail) - start) + tail
    torn = tail.rpartition(b"\n")[2]
    if not torn:
        return
    try:
        json.loads(torn)
    except ValueError:
        os.truncate(path, size - len(torn))
    else:
        with open(path, "ab") as handle:
            handle.write(b"\n")


class CachedEmbedder:
    """On-disk cache in front of another provider.

    One JSON line per cached text, keyed by SHA-256 of the text, stored
    at a single file path.  Thread-safe; lookups hit memory, misses go
    to the wrapped provider and are appended to the file, one write per
    batch.  A last line torn by a crash mid-append is dropped on open
    (see ``_trim_torn_line``); any other bad line is a ProtocolError.
    """

    def __init__(self, provider, path: str | os.PathLike[str]):
        self.provider = provider
        self.name = f"cached-{provider.name}"
        self.dim = provider.dim
        self._path = Path(path)
        self._lock = threading.Lock()
        self._memory: dict[str, np.ndarray] = {}
        if not self._path.exists():
            return
        _trim_torn_line(self._path)
        for where, record in iter_jsonl(self._path, ProtocolError, "bad cache record"):
            try:
                vector = np.asarray(record["vector"], dtype=np.float64)
                key = record["key"]
            except (KeyError, TypeError, ValueError) as err:
                raise ProtocolError(f"{where}: bad cache record: {err}") from err
            if vector.shape != (self.dim,):
                raise ProtocolError(
                    f"{where}: cached vector has shape "
                    f"{vector.shape}, expected ({self.dim},)"
                )
            self._memory[key] = vector

    @staticmethod
    def text_key(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        texts = list(texts)
        keys = [self.text_key(text) for text in texts]
        with self._lock:
            missing = [i for i, key in enumerate(keys) if key not in self._memory]
            miss_texts = [texts[i] for i in missing]
        if miss_texts:
            fresh = self.provider.embed_batch(miss_texts)
            with self._lock:
                lines = []
                for i, vector in zip(missing, fresh):
                    if keys[i] not in self._memory:
                        self._memory[keys[i]] = vector
                        lines.append(json.dumps({"key": keys[i], "vector": vector.tolist()}))
                if lines:
                    self._path.parent.mkdir(parents=True, exist_ok=True)
                    with open(self._path, "a", encoding="utf-8") as handle:
                        handle.write("\n".join(lines) + "\n")
        with self._lock:
            return [self._memory[key] for key in keys]
