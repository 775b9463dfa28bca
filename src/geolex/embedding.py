"""Text-to-vector providers and the similarity math the linker runs on.

Every provider exposes the same small surface: ``name``, ``dim`` and
``embed_batch(texts)``, one vector per text.  Output vectors are
float64, L2-normalized, and the empty text maps to the all-zero
vector (which cosine treats as similar-to-nothing).

Two providers:

* ``HashedTrigramEmbedder`` — character-trigram feature hashing.  Pure
  arithmetic on integer trigram keys, no model weights, no I/O,
  identical output across processes and platforms.  The default.
* ``RemoteEmbedder`` — thin client for an external embedding service,
  for plugging a real sentence encoder behind the same interface.  It
  sends through ``wikidata.UrllibTransport``, the pipeline's one HTTP
  sender.

``CachedEmbedder`` wraps either with an on-disk text-hash → vector
cache so repeated runs don't recompute (or re-request) anything.

``vector_norm`` and ``cosine_from_norms`` let the linker take each
distinct vector's norm once: a cosine is the dot product over the two
``sqrt(v . v)`` norms.
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

# Most texts a stage hands the provider in one call: peak memory holds
# one chunk of vectors instead of one per text.
EMBED_CHUNK = 1024

# Texts ``HashedTrigramEmbedder`` turns into trigram keys at a time.
_SLICE_TEXTS = 64
_NEWLINE = ord("\n")
# The dense bucket table covers code points below _DENSE_CODES and an
# alphabet of at most _DENSE_ALPHABET of them: an int32 index of at most
# 48 KB and an int16 table of at most 96**3 * 2 B = 1.8 MB.  Other
# slices, and every slice when ``dim`` does not fit in int16, take the
# sort path.
_DENSE_CODES = 0x3000
_DENSE_ALPHABET = 96
# On the sort path a code point fits in 21 bits, so a trigram's key is
# c0 << 42 | c1 << 21 | c2, taken as c0 * 2**42 + c1 * 2**21 + c2.
_CODE_MASK = (1 << 21) - 1
_SHIFT_C0 = 1 << 42
_SHIFT_C1 = 1 << 21

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


def vector_norm(vector: np.ndarray) -> float:
    """L2 norm as ``sqrt(v . v)``, the way ``np.linalg.norm`` takes it
    for a 1-D float64 vector, so the two agree bit for bit."""
    return float(np.sqrt(vector.dot(vector)))


def cosine_from_norms(a: np.ndarray, b: np.ndarray, norm_a: float, norm_b: float) -> float:
    """Cosine of ``a`` and ``b`` given their norms: 0 if either is
    zero, else the dot product over the norms, clamped to [-1, 1]."""
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    value = float(np.dot(a, b)) / (norm_a * norm_b)
    # Guard against rounding drift just past the mathematical range.
    return max(-1.0, min(1.0, value))


def _checked_vector(raw, dim: int, what: str) -> np.ndarray:
    """``raw``, a vector that came from outside the program, as float64.
    It must be a list of ``dim`` finite numbers; anything else raises
    ProtocolError naming ``what``."""
    try:
        vector = np.asarray(raw)
    except ValueError as err:  # a ragged nesting of lists
        raise ProtocolError(f"{what} is not a list of numbers: {err}") from err
    # An integer past int64 and uint64 (10**400, say) gives dtype object.
    if vector.dtype.kind not in "iuf":
        raise ProtocolError(f"{what} is not a list of numbers")
    if vector.shape != (dim,):
        raise ProtocolError(f"{what} has shape {vector.shape}, expected ({dim},)")
    vector = vector.astype(np.float64, copy=False)
    if not np.isfinite(vector).all():
        raise ProtocolError(f"{what} is not finite")
    return vector


class HashedTrigramEmbedder:
    """Deterministic character-trigram feature hashing.

    Text is casefolded and whitespace-collapsed, then every contiguous
    3-character window (spaces included, no boundary padding) is hashed
    with FNV-1a into one of ``dim`` buckets.  Bucket weights are
    occurrence counts; the vector is L2-normalized.  No per-run seed
    anywhere, so the same text gives the same vector in any process.

    ``embed_batch`` works on the code points of 64 texts at a time as
    integers, and one ``np.bincount`` counts every row of the slice.
    Each code point gets a small alphabet index on first sight, and a
    trigram's bucket sits in a dense int16 table at ``(a*K + b)*K + c``
    for an alphabet of K code points, filled on first sight by one
    vectorized FNV-1a over every missed trigram of the slice.  The
    table is rebuilt when the alphabet grows, so it holds K**3 * 2
    bytes.  A slice with a code point at or past U+3000, or one that
    would grow the alphabet past 96, takes the sort path instead: each
    trigram becomes one int64 key, one sort finds the distinct keys,
    and a key → bucket dict memoizes them.  Threads may share an
    embedder; two threads filling the same entry store the same
    bucket, so the race is harmless.
    """

    name = "trigram"

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._buckets: dict[int, int] = {}
        # (alphabet, its UTF-8 bytes, their counts) for ``_fnv_buckets``.
        self._utf8: tuple[str, np.ndarray, np.ndarray] = ("", np.empty(0), np.empty(0))
        # (code point → alphabet index, alphabet, flat K**3 table); None
        # when a bucket does not fit in the table's int16.
        self._dense: tuple[np.ndarray, str, np.ndarray] | None = None
        if dim <= np.iinfo(np.int16).max:
            self._dense = np.empty(0, dtype=np.int32), "", np.empty(0, dtype=np.int16)

    @staticmethod
    def normalize_text(text: str) -> str:
        return " ".join(text.casefold().split())

    def bucket(self, trigram: str) -> int:
        return fnv1a_64(trigram.encode("utf-8")) % self.dim

    def embed(self, text: str) -> np.ndarray:
        """One text's vector.  The pipeline calls only ``embed_batch``;
        the benchmark's tracer still patches this method by name."""
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Iterable[str]) -> list[np.ndarray]:
        """One vector per text: the rows of a single ``(n, dim)`` matrix."""
        texts = [self.normalize_text(text) for text in texts]
        matrix = np.zeros((len(texts), self.dim), dtype=np.float64)
        # The key arrays of a slice take about 70 bytes per character,
        # so a slice, not the whole call, bounds their peak memory.
        for start in range(0, len(texts), _SLICE_TEXTS):
            stop = start + _SLICE_TEXTS
            matrix[start:stop] = self._counts(texts[start:stop])
        # sqrt(row . row) is how ``vector_norm`` takes a vector's norm;
        # with integer counts every sum of squares is exact, so the
        # order ``einsum`` adds in cannot change it.  No squared copy
        # of the matrix is made.  All-zero rows divide by 1 and stay zero.
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        norms[norms == 0.0] = 1.0
        matrix /= norms[:, None]
        return list(matrix)

    def _counts(self, texts: list[str]) -> np.ndarray:
        """Trigram bucket counts of normalized ``texts``, one row each."""
        # A normalized text holds no "\n", so a trigram holding one spans
        # two texts and is dropped.  ``surrogatepass`` lets a lone
        # surrogate through to ``bucket``, which refuses it.
        joined = "\n".join(texts).encode("utf-32-le", "surrogatepass")
        codes = np.frombuffer(joined, dtype="<u4")
        breaks = codes == _NEWLINE
        inside = ~(breaks[:-2] | breaks[1:-1] | breaks[2:])
        rows = np.cumsum(breaks)[:-2][inside]
        buckets = self._dense_buckets(codes, breaks, inside)
        if buckets is None:
            rows, buckets = self._sorted_buckets(codes.astype(np.int64), inside, rows)
        counts = np.bincount(rows * self.dim + buckets, minlength=len(texts) * self.dim)
        return counts.reshape(len(texts), self.dim)

    def _dense_buckets(
        self, codes: np.ndarray, breaks: np.ndarray, inside: np.ndarray
    ) -> np.ndarray | None:
        """The bucket of each trigram ``inside`` the slice, looked up in
        the dense table; ``None`` when a code point is at or past
        ``_DENSE_CODES`` or the alphabet would outgrow ``_DENSE_ALPHABET``.

        The state is read once and published with one assignment, so a
        thread never mixes one state's index with another's table.  Two
        threads filling the same entry store the same bucket."""
        state = self._dense
        top = int(codes.max(initial=0))
        if state is None or top >= _DENSE_CODES:
            return None
        index, alphabet, table = state
        if top >= len(index):
            # The index reaches only as far as the code points seen.
            padding = np.full(top + 1 - len(index), -1, dtype=np.int32)
            index = np.concatenate((index, padding))
        ids = index[codes]
        unseen = (ids < 0) & ~breaks
        if unseen.any():
            fresh = sorted(set(codes[unseen].tolist()))
            size = len(alphabet)
            if size + len(fresh) > _DENSE_ALPHABET:
                return None
            index = index.copy()
            index[fresh] = np.arange(size, size + len(fresh))
            alphabet += "".join(map(chr, fresh))
            grown = len(alphabet)
            cube = np.full((grown, grown, grown), -1, dtype=np.int16)
            cube[:size, :size, :size] = table.reshape(size, size, size)
            table = cube.reshape(-1)
            self._dense = index, alphabet, table
            ids = index[codes]
        size = len(alphabet)
        flat = ((ids[:-2] * size + ids[1:-1]) * size + ids[2:])[inside]
        buckets = table[flat]
        missed = flat[buckets < 0]
        if len(missed):
            table[missed] = self._fnv_buckets(missed, alphabet)
            buckets = table[flat]
        return buckets

    def _fnv_buckets(self, keys: np.ndarray, alphabet: str) -> np.ndarray:
        """``bucket`` of the trigram at each dense table index in
        ``keys``, for all of them at once: FNV-1a over the UTF-8 bytes
        of the trigram's three code points, in wrapping ``uint64``.
        Every code point of the alphabet is below U+3000, so it takes
        one to three bytes."""
        size = len(alphabet)
        # The UTF-8 bytes of each alphabet code point, zero-padded to
        # three, and how many there are; kept until the alphabet grows.
        seen, utf8, lengths = self._utf8
        if seen != alphabet:
            encoded = [char.encode("utf-8") for char in alphabet]
            utf8 = np.array([list(code.ljust(3, b"\0")) for code in encoded], dtype=np.uint64)
            lengths = np.array([len(code) for code in encoded])
            self._utf8 = alphabet, utf8, lengths
        hashes = np.full(len(keys), _FNV_OFFSET, dtype=np.uint64)
        prime = np.uint64(_FNV_PRIME)
        for ids in (keys // (size * size), keys // size % size, keys % size):
            # Every code point has a first byte; the second and third
            # step only the hashes of code points that have them.
            hashes = (hashes ^ utf8[ids, 0]) * prime
            for byte in (1, 2):
                stepped = (hashes ^ utf8[ids, byte]) * prime
                hashes = np.where(lengths[ids] > byte, stepped, hashes)
        return hashes % np.uint64(self.dim)

    def _sorted_buckets(
        self, codes: np.ndarray, inside: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``rows`` and the bucket of each trigram ``inside`` the slice,
        both in the order of the sorted trigram keys."""
        keys = (codes[:-2] * _SHIFT_C0 + codes[1:-1] * _SHIFT_C1 + codes[2:])[inside]
        # Sorting puts equal keys side by side; ``first`` marks the first
        # of each run, and its running count numbers the distinct keys.
        # np.unique, or the default quicksort, would do the same, but the
        # numpy code they page in added about 0.3 MB (0.15 MB) to the
        # peak RSS of a benchmark run.
        order = keys.argsort(kind="stable")
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        distinct = keys[first].tolist()
        table = self._buckets
        found = list(map(table.get, distinct))
        if None in found:
            for i, key in enumerate(distinct):
                if found[i] is None:
                    trigram = chr(key >> 42) + chr(key >> 21 & _CODE_MASK) + chr(key & _CODE_MASK)
                    found[i] = table[key] = self.bucket(trigram)
        return rows[order], np.array(found, dtype=np.int64)[np.cumsum(first) - 1]


class RemoteEmbedder:
    """Client for an embedding service speaking JSON over HTTP.

    Request: ``POST {"texts": [...]}``; response: ``{"vectors": [[...],
    ...]}`` with one vector per input, each a list of ``dim`` finite
    numbers.  The CLI passes ``url`` from the ``embed_url`` setting
    (``EMBED_URL`` in the environment).  Requests go through
    ``transport`` (by default an unspaced ``UrllibTransport``, so HTTP
    429/5xx raise TransportError and other error statuses
    ProtocolError; nothing is retried).  It sets no bound on requests
    in flight: every stage embeds from one thread, one request at a
    time.  Any other malformed response is a ProtocolError too.
    Vectors are divided by their ``vector_norm``; the zero vector stays
    zero.  A non-zero vector whose ``v . v`` overflows to inf or
    underflows to 0 is divided by its largest magnitude first, so it
    still comes back a unit vector.
    """

    name = "remote"

    def __init__(self, url: str, dim: int = DEFAULT_DIM, transport=None):
        if not url:
            raise ValueError("no embedding service URL: set embed_url or EMBED_URL")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.url = url
        self.dim = dim
        self.transport = transport or UrllibTransport(rate_limiter=RateLimiter(0.0))

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
        # A finite v . v can still overflow to inf; that case is handled.
        with np.errstate(over="ignore"):
            for i, raw in enumerate(vectors):
                vector = _checked_vector(raw, self.dim, f"vector {i}")
                norm = vector_norm(vector)
                if (norm == 0.0 or norm == np.inf) and vector.any():
                    # v . v overflowed or underflowed: bring the largest
                    # magnitude to 1 first, so the norm is in [1, sqrt(dim)].
                    vector = vector / np.abs(vector).max()
                    norm = vector_norm(vector)
                out.append(vector / norm if norm else np.zeros(self.dim))
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
    except (ValueError, RecursionError):
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
                raw, key = record["vector"], record["key"]
            except (KeyError, TypeError) as err:
                raise ProtocolError(f"{where}: bad cache record: {err}") from err
            if not isinstance(key, str):
                raise ProtocolError(f"{where}: bad cache record: key is not a string")
            self._memory[key] = _checked_vector(raw, self.dim, f"{where}: cached vector")

    @staticmethod
    def text_key(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

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
