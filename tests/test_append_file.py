"""The append-only file under both on-disk caches: what a failed append
leaves, and when the descriptor closes."""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from geolex.corpus import AppendFile
from geolex.embedding import CachedEmbedder
from geolex.wikidata import LOG_NAME, HttpRequest, ReplayTransport


class Echo:
    """A live transport whose answer to ``?n=N`` is ``N``; a provider
    whose vector for a text is one-hot at the text's length."""

    dim = 4

    def send(self, request: HttpRequest) -> str:
        return request.params[0][1]

    def embed_batch(self, texts):
        return np.eye(self.dim)[[len(text) % self.dim for text in texts]]


def replay_log(tmp_path):
    """The log's path, an append of item ``n`` and a check that a reopened
    reader serves items ``ns`` without recording anything."""
    requests = [HttpRequest("GET", "https://x.test/api", params=(("n", str(n)),))
                for n in range(3)]
    recorder = ReplayTransport(tmp_path, Echo())

    def loads(ns):
        replay = ReplayTransport(tmp_path)
        return [replay.send(requests[n]) for n in ns] == [str(n) for n in ns]

    return tmp_path / LOG_NAME, lambda n: recorder.send(requests[n]), loads


def embedding_cache(tmp_path):
    """As ``replay_log``, for an embedding cache."""
    path, texts = tmp_path / "cache.bin", ["a", "ab", "abc"]
    cache = CachedEmbedder(Echo(), path)

    class Refusing(Echo):
        def embed_batch(self, texts):
            raise AssertionError(f"not cached: {texts}")

    def loads(ns):
        got = CachedEmbedder(Refusing(), path).embed_batch([texts[n] for n in ns])
        return np.array_equal(got, Echo().embed_batch([texts[n] for n in ns]))

    return path, lambda n: cache.embed_batch([texts[n]]), loads


@pytest.mark.parametrize("store", [replay_log, embedding_cache])
def test_a_failed_append_is_cut_off_and_the_next_lands_on_a_record_boundary(
    tmp_path, monkeypatch, store
):
    path, append, loads = store(tmp_path)
    append(0)
    before = path.read_bytes()
    real_write = os.write

    def full_disk(fd, data):
        monkeypatch.setattr(os, "write", real_write)  # only this write fails
        real_write(fd, bytes(data)[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(OSError) as caught:
        append(1)
    assert caught.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    append(2)
    assert path.read_bytes()[: len(before)] == before
    assert loads([0, 2])
    append(1)  # the failed item was not taken as stored
    assert loads([0, 1, 2])


def test_the_descriptor_closes_on_close_or_when_collected(tmp_path):
    def opened():
        return AppendFile(tmp_path / "file", b"header\n", True, lambda handle: handle.tell())

    first = opened()
    fd = first.fd
    first.close()
    first.close()
    with pytest.raises(OSError):
        os.fstat(fd)
    fd = opened().fd  # the object is dropped at once
    with pytest.raises(OSError):
        os.fstat(fd)
