"""Text-to-vector providers and the similarity math the linker runs on.

Every provider exposes the same small surface: ``dim`` and
``embed_batch(texts)``, an ``(n, dim)`` float64 matrix with one row
per text.  Rows are L2-normalized, and the empty text maps to the
all-zero row (which cosine treats as similar-to-nothing).

Two providers:

* ``HashedTrigramEmbedder`` — character-trigram feature hashing.
  Stateless arithmetic on the UTF-8 bytes of each trigram, no model
  weights, no I/O, identical output across processes and platforms.
  The default.
* ``RemoteEmbedder`` — thin client for an external embedding service,
  for plugging a real sentence encoder behind the same interface.  It
  sends through ``wikidata.UrllibTransport``, the pipeline's one HTTP
  sender.

``CachedEmbedder`` wraps either with an on-disk text-hash → vector
cache of fixed-size binary records, so repeated runs don't recompute
(or re-request) anything.

``vector_norm`` and ``cosine_from_norms`` let the linker take each
distinct vector's norm once: a cosine is the dot product over the two
``sqrt(v . v)`` norms.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import _input_file, atomic_writer, parse_json
from .errors import ProtocolError
from .wikidata import HttpRequest, RateLimiter, UrllibTransport

DEFAULT_DIM = 384

# Most texts a stage hands the provider in one call: peak memory holds
# one chunk of vectors instead of one per text.  At 256 a chunk of
# 384-dim float64 vectors is 0.75 MB, and a ``RemoteEmbedder`` request
# from classify or link carries at most 256 texts.
EMBED_CHUNK = 256

# Texts ``HashedTrigramEmbedder`` hashes the trigrams of at a time.
_SLICE_TEXTS = 64
_NEWLINE = ord("\n")

# FNV-1a, 64-bit: standard offset basis and prime.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
# UTF-8: the first code point that takes 2, 3 and 4 bytes, and the lead
# byte's marker by the count of continuation bytes after it.
_UTF8_STARTS = np.array([0x80, 0x800, 0x10000], dtype=np.uint64)
_UTF8_LEAD = np.array([0, 0xC0, 0xE0, 0xF0], dtype=np.uint64)
_SIX = np.uint64(6)

# The bytes a cache record's key may hold: ``text_key``'s hex digits.
_HEX_DIGIT = np.zeros(256, dtype=bool)
_HEX_DIGIT[list(b"0123456789abcdef")] = True


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
    integers.  One vectorized FNV-1a hashes every trigram of the slice
    at once, and one ``np.bincount`` counts every row.  A bucket is a
    pure function of its trigram, so nothing is memoized and the
    embedder holds no state but ``dim``.
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim

    @staticmethod
    def normalize_text(text: str) -> str:
        return " ".join(text.casefold().split())

    def bucket(self, trigram: str) -> int:
        return fnv1a_64(trigram.encode("utf-8")) % self.dim

    def embed(self, text: str) -> np.ndarray:
        """One text's vector.  The pipeline calls only ``embed_batch``;
        the benchmark's tracer still patches this method by name."""
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Iterable[str]) -> np.ndarray:
        """One vector per text, as the rows of one ``(n, dim)`` matrix."""
        texts = [self.normalize_text(text) for text in texts]
        matrix = np.zeros((len(texts), self.dim), dtype=np.float64)
        # A slice's hash arrays take about 30 bytes per character besides
        # its counts, so a slice, not the whole call, bounds their peak.
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
        return matrix

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
        buckets = self._trigram_buckets(codes, inside)
        counts = np.bincount(rows * self.dim + buckets, minlength=len(texts) * self.dim)
        return counts.reshape(len(texts), self.dim)

    def _trigram_buckets(self, codes: np.ndarray, inside: np.ndarray) -> np.ndarray:
        """``bucket`` of each trigram ``inside`` the slice whose code
        points are ``codes``, for all of them at once: FNV-1a over the
        UTF-8 bytes of the trigram's three code points, in wrapping
        ``uint64``.  Every shift and mask stays in ``uint64``, so NumPy 1
        and NumPy 2 promote alike."""
        count = len(codes)
        # A code point past ASCII is wide: its UTF-8 is a lead byte and
        # ``tail`` continuation bytes, 1 to 3, of six bits each.
        wide = np.flatnonzero(codes >= 0x80)
        wide_codes = codes[wide].astype(np.uint64)
        lone = wide[(wide_codes >= np.uint64(0xD800)) & (wide_codes <= np.uint64(0xDFFF))]
        for at in lone.tolist():
            for start in range(max(at - 2, 0), min(at + 1, count - 2)):
                if inside[start]:
                    # refuses the lone surrogate with UnicodeEncodeError
                    self.bucket("".join(map(chr, codes[start : start + 3].tolist())))
        tail = np.searchsorted(_UTF8_STARTS, wide_codes, side="right").astype(np.uint64)
        # hashes[j] is the window that starts at code point j - 2, and
        # ``first`` holds each code point's first byte at its index + 2,
        # so every code point steps three windows in range.  The two
        # windows each side that hang past the slice are dropped.
        first = np.zeros(count + 4, dtype=np.uint64)
        first[2:-2] = codes
        first[wide + 2] = _UTF8_LEAD[tail] | wide_codes >> tail * _SIX
        # Per continuation byte, in byte order: the code points that
        # have it, as the ``hashes`` index of the window each starts, and
        # the byte itself.
        steps = []
        for byte in range(3):
            more = tail > np.uint64(byte)
            wide, wide_codes, tail = wide[more], wide_codes[more], tail[more]
            if not len(wide):
                break
            shift = (tail - np.uint64(byte + 1)) * _SIX
            steps.append((wide + 2, np.uint64(0x80) | wide_codes >> shift & np.uint64(0x3F)))
        hashes = np.full(count + 2, _FNV_OFFSET, dtype=np.uint64)
        prime = np.uint64(_FNV_PRIME)
        for offset in range(3):
            hashes ^= first[offset : offset + count + 2]
            hashes *= prime
            # A window holds one code point per offset, so no index
            # repeats within ``at``.
            for at, continuation in steps:
                stepped = hashes[at - offset]
                stepped ^= continuation
                stepped *= prime
                hashes[at - offset] = stepped
        hashes = hashes[2:count][inside]
        # hashes - hashes // dim * dim is hashes % dim: NumPy divides by
        # a scalar in about half the time it takes the remainder.
        dim = np.uint64(self.dim)
        return (hashes - hashes // dim * dim).astype(np.int64)


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

    def __init__(self, url: str, dim: int = DEFAULT_DIM, transport=None):
        if not url:
            raise ValueError("no embedding service URL: set embed_url or EMBED_URL")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.url = url
        self.dim = dim
        self.transport = transport or UrllibTransport(rate_limiter=RateLimiter(0.0))

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        texts = list(texts)
        if not texts:
            return np.zeros((0, self.dim))
        request = HttpRequest(
            "POST",
            self.url,
            body=json.dumps({"texts": texts}).encode("utf-8"),
            headers=(("Content-Type", "application/json"),),
        )
        body = self.transport.send(request)
        parsed = parse_json(body, ProtocolError, "embedding service returned non-JSON")
        vectors = parsed.get("vectors") if isinstance(parsed, dict) else None
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ProtocolError(
                f"embedding service returned {0 if not isinstance(vectors, list) else len(vectors)} "
                f"vectors for {len(texts)} texts"
            )
        out = np.zeros((len(texts), self.dim))
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
                if norm:
                    out[i] = vector / norm
        return out


class CachedEmbedder:
    """On-disk cache in front of another provider.

    The file starts with a one-line ASCII header that names the format
    and ``dim``, then holds one fixed-size record per cached text: the
    64 hex digits of ``text_key``, then ``dim`` little-endian float64.
    Open reads the file into one buffer and views every record with one
    ``np.frombuffer``, so each cached vector is a view of that buffer; a
    missing or empty file gets the header, written atomically.  Thread-safe;
    lookups hit memory, misses go to the wrapped provider and are
    appended to the file, one write per batch.  A record cut short at
    the end, as a crash mid-append leaves it, is cut off once the
    records before it load.  A file without the header (another
    format or ``dim``), a key that is not 64 hex digits (a record
    shifted by damage mid-file shows as one) and a vector that is not
    finite are each a ProtocolError naming the file, which is left as
    it is.
    """

    def __init__(self, provider, path: str | os.PathLike[str]):
        self.provider = provider
        self.dim = provider.dim
        self._path = Path(path)
        self._lock = threading.Lock()
        self._record = np.dtype([("key", "S64"), ("vector", "<f8", (self.dim,))])
        name = f"geolex-embedding-cache 1 dim={self.dim} key=sha256-hex vector=float64-le"
        # Padded to a multiple of 8 bytes, so every vector read is aligned.
        header = f"{name}{' ' * (7 - len(name) % 8)}\n".encode("ascii")
        try:
            with _input_file(self._path, ProtocolError) as handle:
                data = np.empty(os.fstat(handle.fileno()).st_size, np.uint8)
                data = data[: handle.readinto(data)]
        except FileNotFoundError:
            data = np.empty(0, np.uint8)
        if not data.size:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with atomic_writer(self._path, binary=True) as handle:
                handle.write(header)
            data = np.frombuffer(header, np.uint8)
        if data[: len(header)].tobytes() != header:
            raise ProtocolError(f"{self._path}: does not start with {header!r}")
        count, torn = divmod(data.size - len(header), self._record.itemsize)
        records = np.frombuffer(data, self._record, count, len(header))
        digits = np.frombuffer(records["key"].tobytes(), np.uint8).reshape(count, 64)
        bad_key = ~_HEX_DIGIT[digits].all(axis=1)
        bad_vector = ~np.isfinite(records["vector"]).all(axis=1)
        if (bad_key | bad_vector).any():
            at = int(np.argmax(bad_key | bad_vector))
            problem = "key is not 64 hex digits" if bad_key[at] else "vector is not finite"
            raise ProtocolError(f"{self._path}: record {at + 1}: {problem}")
        if torn:
            os.truncate(self._path, data.size - torn)
        self._memory: dict[str, np.ndarray] = dict(
            zip(records["key"].astype("U64").tolist(), records["vector"])
        )

    @staticmethod
    def text_key(text: str) -> str:
        # Imported here, not at module level: hashlib maps OpenSSL's
        # libcrypto, which a run without an embedding cache never needs.
        import hashlib

        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        texts = list(texts)
        keys = [self.text_key(text) for text in texts]
        with self._lock:
            missing = [i for i, key in enumerate(keys) if key not in self._memory]
            miss_texts = [texts[i] for i in missing]
        if miss_texts:
            fresh = self.provider.embed_batch(miss_texts)
            with self._lock:
                new = {}
                for i, vector in zip(missing, fresh):
                    if keys[i] not in self._memory:
                        self._memory[keys[i]] = new[keys[i]] = vector
                if new:
                    records = np.empty(len(new), self._record)
                    records["key"] = list(new)
                    records["vector"] = list(new.values())
                    with open(self._path, "ab") as handle:
                        handle.write(records.tobytes())
        with self._lock:
            rows = [self._memory[key] for key in keys]
        return np.array(rows, dtype=np.float64).reshape(len(keys), self.dim)
