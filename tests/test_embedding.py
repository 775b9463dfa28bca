"""Embedding provider and similarity math tests."""

from __future__ import annotations

import io
import json
import math
import re
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import run_on_threads
from geolex import embedding
from geolex.cli import Command
from geolex.config import apply_overrides, load_config
from geolex.corpus import AppendFile
from geolex.embedding import (
    CachedEmbedder,
    HashedTrigramEmbedder,
    RemoteEmbedder,
    cosine_from_norms,
    fnv1a_64,
    vector_norm,
)
from geolex.errors import ProtocolError, TransportError
from geolex.wikidata import DEFAULT_USER_AGENT


class TestFnv1a:
    def test_known_reference_values(self):
        # standard FNV-1a test vectors
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8

    def test_agrees_with_reduce_rederivation(self):
        for text in ("", "a", "abc", "Stockholm", "åäö blandat"):
            assert fnv1a_64(text.encode()) == oracles.fnv1a_64(text.encode())


def remote_normalize(vector: np.ndarray) -> np.ndarray:
    """``vector`` as ``RemoteEmbedder`` hands it on when the service
    replies with it."""
    transport = FakeTransport([vectors_answer([vector.tolist()])])
    embedder = RemoteEmbedder("http://embed.test", dim=len(vector), transport=transport)
    return embedder.embed_batch(["x"])[0]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """The linker's cosine: ``cosine_from_norms`` on ``vector_norm`` norms."""
    return cosine_from_norms(a, b, vector_norm(a), vector_norm(b))


class TestRemoteNormalization:
    def test_three_four_five(self):
        v = np.zeros(8)
        v[0], v[1] = 3.0, 4.0
        out = remote_normalize(v)
        assert out[0] == pytest.approx(0.6)
        assert out[1] == pytest.approx(0.8)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)

    def test_zero_vector_stays_zero(self):
        out = remote_normalize(np.zeros(5))
        assert out.shape == (5,)
        assert not out.any()
        assert not np.signbit(remote_normalize(-np.zeros(5))).any()

    def test_idempotent_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.normal(size=16)
            once = remote_normalize(v)
            # renormalizing divides by a norm within 1 ulp of 1.0
            np.testing.assert_allclose(remote_normalize(once), once, rtol=1e-14, atol=0)

    def test_equals_division_by_numpy_norm(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            # v . v stays in range even at 1e+-150, so no rescaling
            v = rng.normal(size=16) * rng.choice([1e-150, 1e-8, 1.0, 1e8, 1e150])
            assert vector_norm(v) == float(np.linalg.norm(v))
            assert np.array_equal(remote_normalize(v), v / vector_norm(v))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_vector_whose_square_leaves_float_range_stays_unit(self, scale):
        # v . v overflows to inf at 1e200 and underflows to 0 at 1e-200
        v = np.array([3.0, -4.0, 0.0]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = remote_normalize(v)
        np.testing.assert_allclose(out, [0.6, -0.8, 0.0], rtol=1e-15)


class TestCosineFromNorms:
    def test_self_similarity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.normal(size=12)
            assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_vectors(self):
        a = np.zeros(4)
        b = np.zeros(4)
        a[0] = 1.0
        b[1] = 1.0
        assert cosine(a, b) == 0.0

    def test_hand_arithmetic_padded(self):
        a = np.zeros(384)
        b = np.zeros(384)
        a[:3] = [1.0, 2.0, 3.0]
        b[:3] = [4.0, 5.0, 6.0]
        expected = 32.0 / (math.sqrt(14.0) * math.sqrt(77.0))
        assert cosine(a, b) == pytest.approx(expected, abs=1e-12)
        assert cosine(a, b) == pytest.approx(0.974631846, abs=5e-10)

    def test_zero_vector_convention(self):
        assert cosine(np.zeros(4), np.ones(4)) == 0.0
        assert cosine(np.ones(4), np.zeros(4)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            assert abs(cosine(a, b) - cosine(b, a)) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        base = cosine(a, b)
        for k in (1e-6, 0.5, 3.0, 1e6):
            assert cosine(k * a, b) == pytest.approx(base, abs=1e-9)

    def test_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = rng.normal(size=6) * rng.choice([1e-8, 1.0, 1e8])
            b = rng.normal(size=6) * rng.choice([1e-8, 1.0, 1e8])
            assert -1.0 - 1e-9 <= cosine(a, b) <= 1.0 + 1e-9


class TestHashedTrigramEmbedder:
    def test_empty_text_gives_zero_vector(self):
        embedder = HashedTrigramEmbedder()
        v = embedder.embed("")
        assert v.shape == (384,)
        assert not v.any()

    def test_too_short_for_any_trigram(self):
        embedder = HashedTrigramEmbedder()
        assert not embedder.embed("ab").any()

    def test_deterministic(self):
        embedder = HashedTrigramEmbedder()
        a = embedder.embed("Stockholm")
        b = embedder.embed("Stockholm")
        np.testing.assert_array_equal(a, b)

    def test_abcab_hits_exactly_its_trigram_buckets(self):
        embedder = HashedTrigramEmbedder()
        v = embedder.embed("abcab")
        # independent hash re-derivation gives the bucket set
        expected_buckets = {
            oracles.fnv1a_64(t.encode()) % 384 for t in ("abc", "bca", "cab")
        }
        assert expected_buckets == {75, 73, 145}
        assert set(np.nonzero(v)[0]) == expected_buckets
        for bucket in expected_buckets:
            assert v[bucket] == pytest.approx(1.0 / math.sqrt(3.0))

    def test_unit_norm_for_nonempty(self):
        embedder = HashedTrigramEmbedder()
        for text in ("abc", "Stockholm, Sveriges hufvudstad", "x y z"):
            assert np.linalg.norm(embedder.embed(text)) == pytest.approx(1.0, abs=1e-6)

    def test_casefold_and_whitespace_collapse(self):
        embedder = HashedTrigramEmbedder()
        np.testing.assert_array_equal(
            embedder.embed("STOCKHOLM  stad"), embedder.embed("stockholm stad")
        )

    def test_matches_sparse_oracle_vectors(self):
        embedder = HashedTrigramEmbedder()
        for text in (
            "Stockholm, Sveriges hufvudstad",
            "Sveriges huvudstad och största stad",
            "Iowa, en af Nord-Amerikas förenta stater",
        ):
            dense = embedder.embed(text)
            sparse = oracles.trigram_weights(text)
            assert set(np.nonzero(dense)[0]) == set(sparse)
            for bucket, weight in sparse.items():
                assert dense[bucket] == pytest.approx(weight, abs=1e-12)

    def test_cross_implementation_similarity(self):
        embedder = HashedTrigramEmbedder()
        a = "Stockholm, Sveriges hufvudstad"
        b = "Sveriges huvudstad och största stad"
        package_value = cosine(embedder.embed(a), embedder.embed(b))
        oracle_value = oracles.text_similarity(a, b)
        assert package_value == pytest.approx(oracle_value, abs=1e-12)

    def test_custom_dim(self):
        embedder = HashedTrigramEmbedder(dim=64)
        assert embedder.embed("Stockholm").shape == (64,)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            HashedTrigramEmbedder(dim=0)

    def test_embed_batch_matches_embed(self):
        embedder = HashedTrigramEmbedder()
        texts = ["a b c", "", "Uppsala"]
        batch = embedder.embed_batch(texts)
        for text, vector in zip(texts, batch):
            np.testing.assert_array_equal(vector, embedder.embed(text))


EDGE_TEXTS = [
    "",
    "a",
    "ab",
    "   ",
    "\t\n \u00a0",
    "Åsele, Västerbottens län, vid Ångermanälven",
    "ÅÄÖ åäö",
    "Östersund 🏔️ och 🇸🇪",
    "👨‍👩‍👧",
    "Mo\u0308lndal e\u0301 n\u0303",
    "ǅ ß ﬁ İ",
]

# Whitespace that normalisation collapses to one space, "\n" (the
# separator the embedder joins texts on) among it.
COLLAPSED_WHITESPACE = "\n\t\x1c\x1d\x1e\x1f\x85 \u3000"

texts_strategy = st.one_of(
    st.sampled_from(EDGE_TEXTS),
    st.text(max_size=80),
    st.text(alphabet="aäåöb \u0308\U0001F600\t", max_size=40),
    # Repeated words give bucket counts above 1, where a rescaling that
    # is not bit-identical (multiplying by 1/norm) shows.
    st.lists(
        st.sampled_from(["stad ", "i ", "län ", "Å", "å", "🏔", "e\u0301"]), max_size=40
    ).map("".join),
    st.text(alphabet=COLLAPSED_WHITESPACE + "ab\U0010FFFF", max_size=30),
    # Astral code points fill all 21 bits of a code point in a trigram key.
    st.text(
        alphabet=st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF), max_size=12
    ),
)

# Rows of 0, 1 and 2 characters, which have no trigram, between longer rows.
short_between_long = st.lists(
    st.tuples(st.text(max_size=2), texts_strategy), max_size=4
).map(lambda pairs: [text for pair in pairs for text in pair])

batches_strategy = st.one_of(st.lists(texts_strategy, max_size=6), short_between_long)


@pytest.fixture(scope="module")
def warm_embedders():
    """Embedders reused across examples: each must give every text the
    vector a fresh embedder gives it."""
    return {dim: HashedTrigramEmbedder(dim=dim) for dim in (384, 64)}


# Texts the trigram embedder hashes the trigrams of at a time.
SLICE = embedding._SLICE_TEXTS
# Alphabets of at most CAP code points below CEILING, whose UTF-8 takes
# one to three bytes, and texts past either limit.
CAP = 96
CEILING = 0x3000

# Texts whose code points all sit below the ceiling, drawn from pools
# small enough that a batch stays within the cap.
dense_texts = st.one_of(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzåäö \u00e9\u0308\u2014", max_size=60),
    st.text(
        alphabet=st.characters(max_codepoint=CEILING - 1, exclude_categories=("Cs",)),
        max_size=12,
    ),
    st.text(max_size=2),
)


class TestBatchMatchesScalarReference:
    @settings(deadline=None, max_examples=150)
    @given(texts=batches_strategy, dim=st.sampled_from([384, 64]))
    def test_fresh_embedder(self, texts, dim):
        expected = [oracles.scalar_embed(text, dim) for text in texts]
        batch = HashedTrigramEmbedder(dim=dim).embed_batch(texts)
        assert len(batch) == len(texts)
        for vector, reference in zip(batch, expected):
            assert vector.shape == (dim,) and vector.dtype == np.float64
            assert np.array_equal(vector, reference)
        for text, reference in zip(texts, expected):
            assert np.array_equal(HashedTrigramEmbedder(dim=dim).embed(text), reference)

    @settings(deadline=None, max_examples=150)
    @given(texts=batches_strategy, dim=st.sampled_from([384, 64]))
    def test_reused_embedder(self, warm_embedders, texts, dim):
        embedder = warm_embedders[dim]
        expected = [oracles.scalar_embed(text, dim) for text in texts]
        for vector, reference in zip(embedder.embed_batch(texts), expected):
            assert np.array_equal(vector, reference)
        for text, reference in zip(texts, expected):
            assert np.array_equal(embedder.embed(text), reference)

    @settings(deadline=None, max_examples=20)
    @given(
        size=st.sampled_from([SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1]),
        data=st.data(),
        dim=st.sampled_from([384, 64]),
    )
    def test_batches_around_the_slice_size(self, warm_embedders, size, data, dim):
        texts = data.draw(st.lists(texts_strategy, min_size=size, max_size=size))
        expected = [oracles.scalar_embed(text, dim) for text in texts]
        for embedder in (HashedTrigramEmbedder(dim=dim), warm_embedders[dim]):
            batch = embedder.embed_batch(texts)
            assert len(batch) == size
            assert all(np.array_equal(v, e) for v, e in zip(batch, expected))

    # The last two: a low surrogate only in the last or the first place
    # of the one trigram.
    @pytest.mark.parametrize(
        "text", ["ab\ud800cd", "\udfff\ud800x", "x y \ud83d\ude00", "ab\udfff", "\udfffab"]
    )
    def test_lone_surrogate_in_a_trigram_raises_like_the_reference(self, text):
        with pytest.raises(UnicodeEncodeError):
            oracles.scalar_embed(text)
        embedder = HashedTrigramEmbedder()
        with pytest.raises(UnicodeEncodeError):
            embedder.embed_batch(["Uppsala", text])
        with pytest.raises(UnicodeEncodeError):
            embedder.embed(text)
        # the failed call leaves the embedder matching the reference
        assert np.array_equal(embedder.embed("Uppsala"), oracles.scalar_embed("Uppsala"))

    def test_lone_surrogate_outside_any_trigram_embeds_to_zero(self):
        for vector in HashedTrigramEmbedder().embed_batch(["\ud800", "a\udfff", ""]):
            assert np.array_equal(vector, np.zeros(384))

    def test_empty_batch(self):
        batch = HashedTrigramEmbedder().embed_batch([])
        assert (batch.shape, batch.dtype) == ((0, 384), np.float64)

    @settings(deadline=None, max_examples=60)
    @given(
        batches=st.lists(st.lists(dense_texts, max_size=5), min_size=2, max_size=5),
        dim=st.sampled_from([384, 64]),
    )
    def test_warm_embedder_whose_alphabet_grows(self, batches, dim):
        # Each batch may bring new code points; every earlier text
        # still gets its reference vector.
        embedder = HashedTrigramEmbedder(dim=dim)
        for texts in batches + batches[:1]:
            for vector, text in zip(embedder.embed_batch(texts), texts):
                assert np.array_equal(vector, oracles.scalar_embed(text, dim))

    @settings(deadline=None, max_examples=40)
    @given(
        alphabet=st.lists(
            st.characters(max_codepoint=CEILING - 1, exclude_categories=("Cs",)),
            min_size=1, max_size=CAP, unique=True,
        ),
        dim=st.sampled_from([1, 7, 384, 32767]),
        data=st.data(),
    )
    def test_small_alphabets_match_the_per_trigram_hash(self, alphabet, dim, data):
        # Texts over at most 96 code points below U+3000, whose UTF-8
        # takes one to three bytes, at small and odd dims.
        texts = data.draw(st.lists(st.text(alphabet=alphabet, max_size=60), max_size=8))
        embedder = HashedTrigramEmbedder(dim=dim)
        for vector, text in zip(embedder.embed_batch(texts), texts):
            assert np.array_equal(vector, oracles.scalar_embed(text, dim))

    def test_every_trigram_of_an_alphabet_then_new_code_points(self):
        # A de Bruijn sequence holds all 27 trigrams over "abc".
        every_trigram = "aaabaacabbabcacbaccbbbcbcccaa"
        embedder = HashedTrigramEmbedder()
        embedder.embed_batch([every_trigram])
        embedder.embed_batch(["\n", "åäö\nxy", "ab", "abc åä"])
        for text in (every_trigram, "åäö", "abc åä", "xy", "cab bca"):
            assert np.array_equal(embedder.embed(text), oracles.scalar_embed(text))

    @pytest.mark.parametrize("past", ["cap", "ceiling"])
    def test_slices_past_the_small_alphabet_limits(self, past):
        embedder = HashedTrigramEmbedder()
        warm = ["Uppsala stad vid Fyrisån", "ab", "Åsele\nlän"]
        if past == "cap":
            # mathematical operators, which casefolding leaves alone
            odd = "".join(chr(0x2200 + i) for i in range(CAP + 20))
        else:
            odd = "東京 stad \u3000vid\U0001F600 havet"
        texts = warm + [odd, "x"]
        expected = [oracles.scalar_embed(text) for text in texts]
        for batch in ([odd], warm, texts, [odd] * 3):
            for vector, text in zip(embedder.embed_batch(batch), batch):
                assert np.array_equal(vector, expected[texts.index(text)])

    def test_lone_surrogate_after_a_warm_call(self):
        embedder = HashedTrigramEmbedder()
        embedder.embed_batch(["Uppsala stad", "Åsele"])
        for text in ("ab\ud800cd", "\udfff\ud800x"):
            with pytest.raises(UnicodeEncodeError):
                embedder.embed_batch(["Uppsala", text, "vid sjön"])
        for text in ("Uppsala stad", "Åsele", "vid sjön", "ab cd"):
            assert np.array_equal(embedder.embed(text), oracles.scalar_embed(text))

    def test_dim_past_int16(self):
        dim = 1 << 15
        embedder = HashedTrigramEmbedder(dim=dim)
        for text in ("Uppsala stad", "ab"):
            assert np.array_equal(embedder.embed(text), oracles.scalar_embed(text, dim))

    def test_holds_no_state_but_dim(self):
        embedder = HashedTrigramEmbedder(dim=64)
        embedder.embed_batch(["Uppsala stad", "東京 \U0001F600 Åsele"])
        assert vars(embedder) == {"dim": 64}

    def test_shared_embedder_across_threads(self):
        # Threads share one embedder and hash the same trigrams at once;
        # each must still get reference vectors.
        texts = EDGE_TEXTS + [f"ort {i} vid sjön {i * 7919}" for i in range(300)]
        expected = [oracles.scalar_embed(text) for text in texts]
        embedder = HashedTrigramEmbedder()
        results: list[list[np.ndarray] | None] = [None] * 4

        def work(slot: int) -> None:
            if slot % 2:
                results[slot] = [embedder.embed(text) for text in texts]
            else:
                results[slot] = embedder.embed_batch(texts)

        run_on_threads(work, len(results))
        for vectors in results:
            assert vectors is not None
            assert all(np.array_equal(v, e) for v, e in zip(vectors, expected))

    def test_threads_racing_over_new_code_points(self):
        # Every text brings one code point of its own, and each thread
        # walks the texts from a different start.
        letters = [chr(0x2200 + i) for i in range(80)]
        texts = [f"ort {letter}{letter}a vid {letter}sjön" for letter in letters]
        expected = {text: oracles.scalar_embed(text) for text in texts}
        embedder = HashedTrigramEmbedder()
        results: list[list[tuple[str, np.ndarray]]] = [[] for _ in range(4)]

        def work(slot: int) -> None:
            for i in range(len(texts)):
                text = texts[(i + 20 * slot) % len(texts)]
                results[slot].append((text, embedder.embed_batch([text])[0]))

        run_on_threads(work, len(results))
        for pairs in results:
            assert len(pairs) == len(texts)
            assert all(np.array_equal(vector, expected[text]) for text, vector in pairs)


class FakeTransport:
    """Scripted stand-in for the HTTP transport."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def send(self, request):
        self.calls.append((request.url, json.loads(request.body)))
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def vectors_answer(vectors) -> dict:
    return {"vectors": vectors}


class TestRemoteEmbedder:
    def test_happy_path_renormalizes(self):
        transport = FakeTransport([vectors_answer([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])])
        embedder = RemoteEmbedder(url="http://embed.test", dim=3, transport=transport)
        out = embedder.embed_batch(["a", "b"])
        np.testing.assert_allclose(out[0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(out[1], [0.0, 1.0, 0.0])
        assert transport.calls[0][1] == {"texts": ["a", "b"]}

    def test_url_from_environment(self):
        config = apply_overrides(
            load_config(env={"EMBED_URL": "http://env.test"}), embed_provider="remote"
        )
        assert Command(config).provider.url == "http://env.test"

    def test_missing_url_rejected(self, monkeypatch):
        # The config is the one reader of EMBED_URL; the embedder is not.
        monkeypatch.setenv("EMBED_URL", "http://env.test")
        with pytest.raises(ValueError, match="EMBED_URL"):
            RemoteEmbedder("", dim=2)
        with pytest.raises(ValueError, match="EMBED_URL"):
            Command(apply_overrides(load_config(env={}), embed_provider="remote")).provider

    def test_wrong_vector_count_is_protocol_error(self):
        transport = FakeTransport([vectors_answer([[1.0, 0.0]])])
        embedder = RemoteEmbedder(url="http://embed.test", dim=2, transport=transport)
        with pytest.raises(ProtocolError, match="1 vectors for 2"):
            embedder.embed_batch(["a", "b"])

    def test_wrong_dim_is_protocol_error(self):
        transport = FakeTransport([vectors_answer([[1.0, 0.0, 0.0]])])
        embedder = RemoteEmbedder(url="http://embed.test", dim=2, transport=transport)
        with pytest.raises(ProtocolError, match="shape"):
            embedder.embed_batch(["a"])

    def test_non_finite_vector_is_protocol_error(self):
        transport = FakeTransport([vectors_answer([[1.0, None]])])
        embedder = RemoteEmbedder(url="http://embed.test", dim=2, transport=transport)
        with pytest.raises(ProtocolError):
            embedder.embed_batch(["a"])

    @pytest.mark.parametrize("raw", [
        ["a", "b"],
        [[1.0], [1.0, 2.0]],  # ragged
        [10**400, 1.0],  # past any float
        [True, False],
        "ab",
        {"0": 1.0, "1": 2.0},
        [[1.0, 2.0]],
    ])
    def test_malformed_vector_is_protocol_error_naming_it(self, raw):
        transport = FakeTransport([vectors_answer([[1.0, 0.0], raw])])
        embedder = RemoteEmbedder("http://embed.test", dim=2, transport=transport)
        with pytest.raises(ProtocolError, match="^vector 1 "):
            embedder.embed_batch(["a", "b"])

    # too deep to parse, and past Python's integer digit limit
    @pytest.mark.parametrize(
        "body", [b"<html>oops</html>", b"[" * 100_000, b"1" * 5000],
        ids=["html", "deep", "digits"],
    )
    def test_non_json_is_protocol_error(self, monkeypatch, body):
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda request, timeout=None: io.BytesIO(body))
        embedder = RemoteEmbedder(url="http://embed.test", dim=2)
        with pytest.raises(ProtocolError, match="^non-JSON response from http://embed.test: "):
            embedder.embed_batch(["a"])

    def test_transport_error_passes_through(self):
        transport = FakeTransport([TransportError("connection refused")])
        embedder = RemoteEmbedder(url="http://embed.test", dim=2, transport=transport)
        with pytest.raises(TransportError):
            embedder.embed_batch(["a"])

    def test_empty_batch_sends_nothing(self):
        transport = FakeTransport([])
        embedder = RemoteEmbedder(url="http://embed.test", dim=2, transport=transport)
        batch = embedder.embed_batch([])
        assert (batch.shape, batch.dtype) == ((0, 2), np.float64)
        assert transport.calls == []


def every_provider(tmp_path):
    """One of each provider, at dim 3, answering the texts "a", "bc", ""."""
    remote = RemoteEmbedder("http://embed.test", dim=3, transport=FakeTransport(
        [vectors_answer([[3.0, 0.0, 4.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])]))
    return {
        "local": HashedTrigramEmbedder(dim=3),
        "remote": remote,
        "cached": CachedEmbedder(HashedTrigramEmbedder(dim=3), tmp_path / "cache.bin"),
    }


@pytest.mark.parametrize("name", ["local", "remote", "cached"])
def test_every_provider_returns_one_float64_matrix(tmp_path, name):
    provider = every_provider(tmp_path)[name]
    batch = provider.embed_batch(["a", "bc", ""])
    assert type(batch) is np.ndarray
    assert (batch.shape, batch.dtype) == ((3, 3), np.float64)
    assert np.array_equal(batch[2], np.zeros(3))
    empty = provider.embed_batch([])
    assert (type(empty), empty.shape, empty.dtype) == (np.ndarray, (0, 3), np.float64)


class TestRemoteEmbedderHttp:
    """The remote embedder's requests, down to ``urllib.request.urlopen``."""

    def test_posts_texts_as_json(self, monkeypatch):
        sent = []

        def fake_urlopen(request, timeout=None):
            sent.append((request, timeout))
            return io.BytesIO(json.dumps(vectors_answer([[1.0, 0.0], [0.0, 1.0]])).encode())

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        embedder = RemoteEmbedder("http://embed.test/v1", dim=2)
        embedder.embed_batch(["a", "b"])
        [(request, timeout)] = sent
        assert request.get_method() == "POST"
        assert request.full_url == "http://embed.test/v1"
        assert request.get_header("Content-type") == "application/json"
        assert request.get_header("User-agent") == DEFAULT_USER_AGENT
        assert json.loads(request.data) == {"texts": ["a", "b"]}
        assert timeout == 30.0
        assert embedder.transport.rate_limiter.min_interval == 0.0

    @pytest.mark.parametrize("code,expected", [(503, TransportError), (400, ProtocolError)])
    def test_http_status_maps_to_error_without_retry(self, monkeypatch, code, expected):
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(request)
            raise urllib.error.HTTPError(request.full_url, code, "boom", None, None)

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        embedder = RemoteEmbedder(url="http://embed.test", dim=2)
        with pytest.raises(expected, match=f"HTTP {code}"):
            embedder.embed_batch(["a"])
        assert len(calls) == 1

    def test_connection_failure_is_transport_error(self, monkeypatch):
        def fake_urlopen(request, timeout=None):
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        embedder = RemoteEmbedder(url="http://embed.test", dim=2)
        with pytest.raises(TransportError, match="connection refused"):
            embedder.embed_batch(["a"])


class CountingProvider:
    def __init__(self, dim=4):
        self.dim = dim
        self.embed_calls = 0

    def embed_batch(self, texts):
        self.embed_calls += len(texts)
        out = []
        for text in texts:
            v = np.zeros(self.dim)
            v[len(text) % self.dim] = 1.0
            out.append(v)
        return out


RECORD = 64 + 4 * 8  # a key's hex digits and CountingProvider's 4 float64


def cache_with(path, texts, dim=4):
    """A cache at ``path`` holding ``texts``, and its header's length."""
    CachedEmbedder(CountingProvider(dim), path).embed_batch(texts)
    return path.read_bytes().index(b"\n") + 1


class TestCachedEmbedder:
    def test_second_call_hits_cache(self, tmp_path):
        provider = CountingProvider()
        cached = CachedEmbedder(provider, tmp_path / "cache.bin")
        [first] = cached.embed_batch(["abc"])
        [second] = cached.embed_batch(["abc"])
        np.testing.assert_array_equal(first, second)
        assert provider.embed_calls == 1

    def test_cache_survives_reopen(self, tmp_path):
        path = tmp_path / "cache.bin"
        provider = CountingProvider()
        CachedEmbedder(provider, path).embed_batch(["abc"])
        reopened = CachedEmbedder(provider, path)
        reopened.embed_batch(["abc"])
        assert provider.embed_calls == 1

    def test_batch_only_fetches_misses(self, tmp_path):
        provider = CountingProvider()
        cached = CachedEmbedder(provider, tmp_path / "cache.bin")
        cached.embed_batch(["abc"])
        cached.embed_batch(["abc", "defg", "abc"])
        assert provider.embed_calls == 2  # abc once, defg once

    def test_misses_of_one_batch_are_appended_in_one_append(self, tmp_path, monkeypatch):
        appended: list[int] = []
        real_append = AppendFile.append

        def spy_append(file, data):
            appended.append(len(data))
            return real_append(file, data)

        monkeypatch.setattr(AppendFile, "append", spy_append)
        path = tmp_path / "cache.bin"
        cached = CachedEmbedder(CountingProvider(), path)
        header = path.stat().st_size
        cached.embed_batch(["ab", "abc", "abcd", "abc"])
        cached.embed_batch(["ab", "abcd"])
        assert appended == [3 * RECORD]
        assert path.stat().st_size == header + 3 * RECORD

    def test_loads_a_hand_written_cache(self, tmp_path):
        # The format as the file holds it: an ASCII header space-padded to
        # 72 bytes, then per text 64 hex digits and 16 little-endian float64.
        path = tmp_path / "cache.bin"
        header = b"geolex-embedding-cache 1 dim=16 key=sha256-hex vector=float64-le       \n"
        vectors = {
            "abc": [0.5] * 4 + [0.0] * 12,
            "Åmål": [0.0] * 15 + [-1.0],
        }
        keys = {
            "abc": b"ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            "Åmål": b"235a0ca5d92b3da2be8c26de63d5b39645c97a9100622687203d775a3e8ae41e",
        }
        content = header + b"".join(
            keys[text] + np.array(vector, "<f8").tobytes() for text, vector in vectors.items()
        )
        path.write_bytes(content)
        provider = CountingProvider(dim=16)
        got = CachedEmbedder(provider, path).embed_batch(["Åmål", "abc"])
        np.testing.assert_array_equal(got, [vectors["Åmål"], vectors["abc"]])
        assert provider.embed_calls == 0
        assert path.read_bytes() == content

    @pytest.mark.parametrize("kind", ["missing", "empty", "missing-directory"])
    def test_missing_or_empty_file_starts_a_cache(self, tmp_path, kind):
        path = tmp_path / "new" / "cache.bin" if kind == "missing-directory" else tmp_path / "c"
        if kind == "empty":
            path.write_bytes(b"")
        provider = CountingProvider()
        CachedEmbedder(provider, path)
        header = path.read_bytes()
        assert header.startswith(b"geolex-embedding-cache ") and b"dim=4 " in header
        assert header.endswith(b"\n") and header.count(b"\n") == 1
        CachedEmbedder(provider, path).embed_batch(["ab"])
        CachedEmbedder(provider, path).embed_batch(["ab"])
        assert path.stat().st_size == len(header) + RECORD
        assert provider.embed_calls == 1

    def test_records_are_sha256_hex_then_little_endian_float64(self, tmp_path):
        path = tmp_path / "cache.bin"
        header = cache_with(path, ["ab", "abc"])
        body = path.read_bytes()[header:]
        assert body == b"".join(
            CachedEmbedder.text_key(text).encode("ascii")
            + np.array(vector, dtype="<f8").tobytes()
            for text, vector in zip(["ab", "abc"], CountingProvider().embed_batch(["ab", "abc"]))
        )

    def test_corrupt_cache_rejected(self, tmp_path):
        path = tmp_path / "cache.bin"
        path.write_bytes(b"not a cache\n" + bytes(RECORD))
        with pytest.raises(ProtocolError, match=re.escape(f"{path}: does not start with")):
            CachedEmbedder(CountingProvider(), path)

    @pytest.mark.parametrize("key", [
        "AB" * 32,  # upper case: text_key writes lower-case digits
        "g" * 64,
        "0" * 63 + "\x00",
        "0" * 32 + "\n" + "0" * 31,
    ], ids=["upper-case", "not-hex", "nul", "newline"])
    def test_malformed_record_rejected_naming_it(self, tmp_path, key):
        path = tmp_path / "cache.bin"
        cache_with(path, ["ab"])
        with open(path, "ab") as handle:
            handle.write(key.encode("ascii") + np.zeros(4).tobytes())
        with pytest.raises(ProtocolError,
                           match=re.escape(f"{path}: record 2: key is not 64 hex digits")):
            CachedEmbedder(CountingProvider(), path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["NaN", "Infinity", "-Infinity"])
    def test_non_finite_cached_vector_rejected(self, tmp_path, bad):
        path = tmp_path / "cache.bin"
        header = cache_with(path, ["ab", "abc", "abcd"])
        data = bytearray(path.read_bytes())
        at = header + RECORD + 64 + 8  # record 2, its second number
        data[at : at + 8] = np.float64(bad).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ProtocolError,
                           match=re.escape(f"{path}: record 2: vector is not finite")):
            CachedEmbedder(CountingProvider(), path)

    @pytest.mark.parametrize("cut", [1, 40, RECORD - 1])
    def test_torn_last_record_is_dropped_and_the_next_append_lands_on_a_boundary(
        self, tmp_path, cut
    ):
        path = tmp_path / "cache.bin"
        asked: list[str] = []

        class RecordingProvider(CountingProvider):
            def embed_batch(self, texts):
                asked.extend(texts)
                return super().embed_batch(texts)

        provider = RecordingProvider()
        first = CachedEmbedder(provider, path).embed_batch(["ab", "abc", "abcd"])
        whole = path.read_bytes()
        path.write_bytes(whole[:-cut])  # a crash mid-append
        asked.clear()

        reopened = CachedEmbedder(provider, path)
        assert path.read_bytes() == whole[:-RECORD]
        reopened.embed_batch(["abcde"])
        assert path.stat().st_size == len(whole)  # three whole records again
        again = CachedEmbedder(provider, path)
        vectors = again.embed_batch(["ab", "abc", "abcd", "abcde"])
        for got, want in zip(vectors, first):
            np.testing.assert_array_equal(got, want)
        assert asked == ["abcde", "abcd"]  # the new text, then the torn one

    def test_cache_whose_only_record_is_torn_loads_empty(self, tmp_path):
        path = tmp_path / "cache.bin"
        header = cache_with(path, ["ab"])
        path.write_bytes(path.read_bytes()[: header + 10])
        provider = CountingProvider()
        CachedEmbedder(provider, path).embed_batch(["ab"])
        assert provider.embed_calls == 1
        assert path.stat().st_size == header + RECORD

    @pytest.mark.parametrize("damage, message", [
        # A bad record mid-file and a torn tail: the tail is not cut.
        (lambda data, header: data[: header + RECORD] + b"G" * 64 + data[header + RECORD + 64 :]
         + b"\x00" * 7, "record 2: key is not 64 hex digits"),
        # A cache written by an earlier version, one JSON line per text.
        (lambda data, header: b'{"key": "%s", "vector": [1.0, 0.0, 0.0, 0.0]}\n'
         % CachedEmbedder.text_key("ab").encode(), "does not start with"),
    ], ids=["bad-record-and-torn-tail", "json-lines"])
    def test_cache_that_fails_to_load_keeps_its_bytes(self, tmp_path, damage, message):
        path = tmp_path / "cache.bin"
        header = cache_with(path, ["ab", "abc", "abcd"])
        path.write_bytes(damage(path.read_bytes(), header))
        before = path.read_bytes()
        with pytest.raises(ProtocolError, match=re.escape(f"{path}: {message}")):
            CachedEmbedder(CountingProvider(), path)
        assert path.read_bytes() == before

    def test_cache_of_another_dim_is_refused(self, tmp_path):
        path = tmp_path / "cache.bin"
        cache_with(path, ["ab", "abc"], dim=2)
        before = path.read_bytes()
        with pytest.raises(ProtocolError, match=re.escape(f"{path}: does not start with b'")
                           + ".*dim=4 "):
            CachedEmbedder(CountingProvider(dim=4), path)
        assert path.read_bytes() == before

    def test_directory_cannot_be_read(self, tmp_path):
        with pytest.raises(ProtocolError, match=re.escape(f"{tmp_path}: cannot read: ")):
            CachedEmbedder(CountingProvider(), tmp_path)

    def test_damaged_record_in_the_middle_is_rejected(self, tmp_path):
        # 20 bytes lost from record 1 shift every record after it.
        path = tmp_path / "cache.bin"
        header = cache_with(path, ["ab", "abc", "abcd"])
        data = path.read_bytes()
        path.write_bytes(data[: header + RECORD - 20] + data[header + RECORD :])
        with pytest.raises(ProtocolError, match=r": record 2: key is not 64 hex digits"):
            CachedEmbedder(CountingProvider(), path)

    def test_key_is_sha256_of_text(self):
        import hashlib

        assert CachedEmbedder.text_key("abc") == hashlib.sha256(b"abc").hexdigest()

    # The digests every cache file on disk is keyed by, pinned.
    @pytest.mark.parametrize("text, digest", [
        ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        ("Åmål", "235a0ca5d92b3da2be8c26de63d5b39645c97a9100622687203d775a3e8ae41e"),
        ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ])
    def test_text_key_digests_are_unchanged(self, text, digest):
        assert CachedEmbedder.text_key(text) == digest
