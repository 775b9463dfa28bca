"""Candidate ranking and entry → Wikidata linking.

For each location entry: search Wikidata for the headword, which
yields up to five item ids, each with its Swedish description, embed
the entry's definition and the descriptions with the same provider,
and keep the item whose description is most cosine-similar to the
definition.  Ties break toward the lower item number.  An item without
a description scores 0 (its text embeds to the zero vector).  Each
result's ``considered`` holds every ``(qid, similarity)`` pair, best
first.

``link_batch`` is the one way to link; one entry is a batch of one.
It works in two steps.  It searches once per distinct headword, in
first-seen order, each search sent when its result is needed: on the
calling thread one at a time, on a pool a few per worker ahead.  An
item keeps the description of the first search that found it.  Then
the entries are embedded and ranked chunk by chunk, at most
``EMBED_CHUNK // (1 + SEARCH_LIMIT)`` (42) entries a chunk, each
distinct text of a chunk embedded once and its vector's norm taken
once.  A batch never aborts on a single bad entry: a failed search
marks every entry with that headword (a hit with a malformed
description fails its search), a failed embedding call marks its
chunk, and a blank headword, which cannot be searched, marks its
entries.  A marked entry gets an unlinked result with an error note
("Type: message") and the batch carries on.

``concurrent.futures`` is imported only where a pool is built: it
pulls in ``logging``, which a link on the calling thread never uses.
"""

from __future__ import annotations

from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .corpus import Entry
from .embedding import EMBED_CHUNK, cosine_from_norms, vector_norm
from .errors import ProtocolError, ReplayCacheMiss, TransportError
from .wikidata import SEARCH_LIMIT, WikidataClient, qid_number

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor

# Similarity gate disabled by default: cosine never goes below -1.
NO_MIN_SIMILARITY = -1.0

_REMOTE_ERRORS = (TransportError, ProtocolError, ReplayCacheMiss)

# Searches a pool keeps queued or running, per worker: enough that the
# workers stay busy while the oldest search sleeps out a retry backoff,
# few enough that the futures stay few.
SEARCH_WINDOW_PER_WORKER = 4


# A candidate item and its similarity to the definition: (qid, similarity).
ScoredCandidate = tuple[str, float]


@dataclass
class LinkResult:
    """Outcome for one entry: chosen item (or None) plus the full
    ranking that produced the choice, ``(qid, similarity)`` pairs best
    first, each item scored by the description its search hit carried.
    ``error`` notes a failed search (a hit with a malformed description
    fails it) or embedding call; such an entry is unlinked and ranks
    nothing."""

    entry_id: str
    chosen: str | None
    similarity: float
    considered: list[ScoredCandidate] = field(default_factory=list)
    error: str | None = None


def rank_candidates(
    definition_vector: np.ndarray,
    scored_inputs: Sequence[tuple[str, np.ndarray]],
    norms: Sequence[float] | None = None,
) -> list[ScoredCandidate]:
    """Score ``(qid, vector)`` candidates against the definition vector
    and sort the ``(qid, similarity)`` pairs by similarity, highest
    first, lower item number winning ties.

    ``norms`` holds the definition vector's norm, then each candidate
    vector's, as ``vector_norm`` takes them (``sqrt(v . v)``); left out,
    they are taken here.  Each similarity is ``cosine_from_norms`` of
    the two vectors and their norms.  Input order never affects the
    output order.
    """
    if norms is None:
        norms = [vector_norm(definition_vector)]
        norms += [vector_norm(vector) for _, vector in scored_inputs]
    definition_norm, *candidate_norms = norms
    scored = [
        (qid, cosine_from_norms(definition_vector, vector, definition_norm, norm))
        for (qid, vector), norm in zip(scored_inputs, candidate_norms, strict=True)
    ]
    scored.sort(key=lambda sc: (-sc[1], qid_number(sc[0])))
    return scored


def link_batch(
    entries: Sequence[Entry],
    provider,
    client: WikidataClient,
    min_similarity: float = NO_MIN_SIMILARITY,
    workers: int = 1,
) -> list[LinkResult]:
    """Link entries, results in input order.

    A failing entry yields an unlinked result with an error note; the
    rest of the batch is unaffected.  ``workers`` > 1 sends the searches
    on a pool of that many threads, each with one request open at a
    time, so ``workers`` is the bound on requests in flight.  With
    ``workers`` = 1 every search is sent from the calling thread, which
    is fastest when no request waits on a network (replay).  Either way
    a search is sent when its result is needed, and a pool keeps up to
    ``SEARCH_WINDOW_PER_WORKER`` per worker queued or running ahead of
    the one taken.  Leaving early, on an exception or Ctrl-C, cancels
    the searches still queued.  Each item is ranked by the description
    of the first search that found it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # One search per distinct headword, in first-seen order.  A
    # ``ValueError`` is a blank headword.
    headwords = list(dict.fromkeys(entry.headword for entry in entries))
    search = _remote(client.search_candidates, ValueError)
    hits: dict[str, list[str] | Exception] = {}
    descriptions: dict[str, str | None] = {}
    with ExitStack() as stack:
        if workers > 1 and len(entries) > 1:
            executor = thread_pool(workers)
            # Leaving early (a bug, Ctrl-C) cancels the queued searches
            # and waits only for those already sent.
            stack.callback(executor.shutdown, cancel_futures=True)
            searched = _windowed_map(
                executor, search, headwords, SEARCH_WINDOW_PER_WORKER * workers
            )
        else:
            # Lazy: each search runs as its result is taken.
            searched = map(search, headwords)
        for headword, found in zip(headwords, searched):
            if not isinstance(found, Exception):
                for qid, description in found:
                    descriptions.setdefault(qid, description)
                found = [qid for qid, _ in found]
            hits[headword] = found

    # Each entry's search failed, found nothing, or leaves a placeholder
    # for the ranking below.
    results: list[LinkResult | None] = []
    for entry in entries:
        found = hits[entry.headword]
        if isinstance(found, Exception):
            results.append(_failed(entry, found))
        elif not found:
            results.append(LinkResult(entry.id, None, 0.0, []))
        else:
            results.append(None)

    # Rank in chunks, so one embedding call holds at most
    # EMBED_CHUNK vectors (a definition plus SEARCH_LIMIT descriptions
    # per entry).
    ranked = [i for i, result in enumerate(results) if result is None]
    step = EMBED_CHUNK // (1 + SEARCH_LIMIT)
    for start in range(0, len(ranked), step):
        chunk = ranked[start : start + step]
        pairs = [(entries[i], hits[entries[i].headword]) for i in chunk]
        chunk_results = _rank_chunk(pairs, descriptions, provider, min_similarity)
        for i, result in zip(chunk, chunk_results):
            results[i] = result
    return results


def thread_pool(workers: int) -> ThreadPoolExecutor:
    """A pool of ``workers`` threads for link's searches."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers)


def _failed(entry: Entry, err: Exception) -> LinkResult:
    """The unlinked result of an entry whose link failed with ``err``."""
    return LinkResult(entry.id, None, 0.0, [], error=f"{type(err).__name__}: {err}")


def _rank_chunk(
    chunk: Sequence[tuple[Entry, list[str]]],
    descriptions: dict[str, str | None],
    provider,
    min_similarity: float,
) -> list[LinkResult]:
    """Rank the candidate items of each entry of a chunk of (entry,
    item ids) pairs by their ``descriptions``, with one embedding call
    and one norm per distinct text of the chunk.  The vectors are freed
    on return, before the next chunk is embedded."""
    texts = list(dict.fromkeys(
        [entry.definition for entry, _ in chunk]
        + [descriptions.get(qid) or "" for _, found in chunk for qid in found]
    ))
    try:
        vectors = dict(zip(texts, provider.embed_batch(texts)))
    except _REMOTE_ERRORS as err:
        return [_failed(entry, err) for entry, _ in chunk]
    norms = {text: vector_norm(vector) for text, vector in vectors.items()}
    results: list[LinkResult] = []
    for entry, found in chunk:
        found_texts = [descriptions.get(qid) or "" for qid in found]
        ranking = rank_candidates(
            vectors[entry.definition],
            [(qid, vectors[text]) for qid, text in zip(found, found_texts)],
            [norms[entry.definition]] + [norms[text] for text in found_texts],
        )
        qid, similarity = ranking[0]
        chosen = qid if similarity >= min_similarity else None
        results.append(LinkResult(entry.id, chosen, similarity, ranking))
    return results


def _windowed_map(executor: ThreadPoolExecutor, call, args: list, window: int):
    """``executor.map(call, args)``, results in order, with at most
    ``window`` calls queued or running at once: the next call is queued
    only after the oldest one's result is taken."""
    pending: deque[Future] = deque()
    for arg in args:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(executor.submit(call, arg))
    while pending:
        yield pending.popleft().result()


def _remote(call, *also: type[Exception]):
    """``call`` with a remote failure, or one of ``also``, returned
    instead of raised."""
    errors = _REMOTE_ERRORS + also

    def guarded(arg):
        try:
            return call(arg)
        except errors as err:
            return err

    return guarded
