"""Candidate ranking and entry → Wikidata linking.

For each location entry: search Wikidata for the headword, which
yields up to five item ids, fetch the Swedish description of every
item, embed the entry's definition and the descriptions with the same
provider, and keep the item whose description is most cosine-similar
to the definition.  Ties break toward the lower item number.  An item
without a description scores 0 (its text embeds to the zero vector).
Each result's ``considered`` holds every ``(qid, similarity)`` pair,
best first.

``link_batch`` is the one way to link; one entry is a batch of one.
It searches once per distinct headword, in first-seen order, and
takes the results in input order; on a pool, at most a few searches
per worker are queued or running at a time.  The distinct candidate
items, in first-seen order, are cut into description requests of 50
ids; each request is queued as soon as its 50 ids are known, behind
the searches already queued, and the last, partial one after the
final search.  Once every description is in, the entries are embedded
and ranked chunk by chunk, each distinct text of a chunk embedded once
and its vector's norm taken once.  A batch never aborts on a single
bad entry: a failed search marks every entry with that headword, a
failed description request marks every entry with a candidate in it,
a failed embedding call marks its chunk, and a blank headword, which
cannot be searched, marks its entries.  A marked entry gets an unlinked
result with an error note ("Type: message") and the batch carries on.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Entry
from .embedding import EMBED_CHUNK, cosine_from_norms, vector_norm
from .errors import ProtocolError, ReplayCacheMiss, TransportError
from .wikidata import ENTITY_BATCH_SIZE, SEARCH_LIMIT, WikidataClient, qid_number

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
    first."""

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
    and the description requests on a pool of that many threads, each
    with one request open at a time, so ``workers`` is the bound on
    requests in flight.  Searches are queued as the results of earlier
    ones are taken, at most ``SEARCH_WINDOW_PER_WORKER`` per worker at a
    time; a description request is queued as soon as the searches before
    it have filled its 50 ids, so it can go out while later searches run
    or wait out a retry backoff.  Leaving early, on an exception or
    Ctrl-C, cancels the requests still queued.  With ``workers`` = 1
    every request is sent from the calling thread, which is fastest when
    no request waits on a network (replay): all searches first, then the
    description requests, in the same order a pool queues them.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    results: list[LinkResult | None] = [None] * len(entries)
    hits: list[list[str] | Exception] = []
    with ExitStack() as stack:
        # One search per distinct headword in first-seen order; the
        # results are taken in that order, which is the order of their
        # first entries.  A ``ValueError`` is a blank headword.
        headwords = list(dict.fromkeys(entry.headword for entry in entries))
        search = _remote(client.search_candidates, ValueError)
        if workers > 1 and len(entries) > 1:
            executor = ThreadPoolExecutor(max_workers=workers)
            # Leaving early (a bug, Ctrl-C) cancels the queued requests
            # and waits only for those already sent.
            stack.callback(executor.shutdown, cancel_futures=True)
            searched = _windowed_map(
                executor, search, headwords, SEARCH_WINDOW_PER_WORKER * workers
            )
        else:
            executor = _CallingThread()
            searched = executor.map(search, headwords)
        # The distinct candidates, in first-seen order, are cut into
        # batches of 50; each is queued as soon as it is full, behind
        # the searches already queued, so its ids never depend on thread
        # timing.
        fetch = _remote(client.fetch_descriptions)
        found_by_headword: dict[str, list[str] | Exception] = {}
        batches: list[tuple[list[str], Future]] = []
        seen: set[str] = set()
        batch: list[str] = []
        for i, entry in enumerate(entries):
            if entry.headword not in found_by_headword:
                found_by_headword[entry.headword] = next(searched)
            found = found_by_headword[entry.headword]
            hits.append(found)
            if isinstance(found, Exception):
                results[i] = _failed(entry, found)
                continue
            if not found:
                results[i] = LinkResult(entry.id, None, 0.0, [])
            for qid in found:
                if qid in seen:
                    continue
                seen.add(qid)
                batch.append(qid)
                if len(batch) == ENTITY_BATCH_SIZE:
                    batches.append((batch, executor.submit(fetch, batch)))
                    batch = []
        if batch:
            batches.append((batch, executor.submit(fetch, batch)))

        descriptions: dict[str, str | None] = {}
        failed: dict[str, Exception] = {}
        for batch, future in batches:
            answer = future.result()
            if isinstance(answer, Exception):
                failed.update(dict.fromkeys(batch, answer))
            else:
                descriptions.update(answer)
        for i, found in enumerate(hits):
            if results[i] is not None:
                continue
            errors = [failed[qid] for qid in found if qid in failed]
            if errors:
                results[i] = _failed(entries[i], errors[0])

    # Rank in chunks, so one embedding call holds at most
    # EMBED_CHUNK vectors (a definition plus SEARCH_LIMIT descriptions
    # per entry).
    ranked = [i for i, result in enumerate(results) if result is None]
    step = EMBED_CHUNK // (1 + SEARCH_LIMIT)
    for start in range(0, len(ranked), step):
        chunk = ranked[start : start + step]
        chunk_results = _rank_chunk(
            [(entries[i], hits[i]) for i in chunk], descriptions, provider, min_similarity
        )
        for i, result in zip(chunk, chunk_results):
            results[i] = result
    return results


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


class _CallingThread:
    """An executor's ``map`` and ``submit`` that run each call at once,
    on the calling thread.  ``map`` makes no future: link may search
    tens of thousands of headwords, and a future takes about 1.7 KB."""

    @staticmethod
    def map(call, args):
        return iter([call(arg) for arg in args])

    @staticmethod
    def submit(call, arg) -> Future:
        future: Future = Future()
        future.set_result(call(arg))
        return future


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
