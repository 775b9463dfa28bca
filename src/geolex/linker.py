"""Candidate ranking and entry → Wikidata linking.

For each location entry: search Wikidata for the headword (up to five
hits), fetch the Swedish description of every hit, embed the entry's
definition and the descriptions with the same provider, and keep the
candidate whose description is most cosine-similar to the definition.
Ties break toward the lower item number.  A candidate without a
description scores 0 (its text embeds to the zero vector).

``link_batch`` is the one way to link; one entry is a batch of one.
A batch is linked in three phases: search each distinct headword once,
in first-seen order; fetch the descriptions of the distinct candidate
items, 50 per request, in first-seen order; then embed and rank the
entries chunk by chunk, each distinct text of a chunk embedded once
and its vector's norm taken once.  A batch never aborts on a single
bad entry: a failed search marks every entry with that headword, a
failed description request marks every entry with a candidate in it,
and a failed embedding call marks its chunk.  A marked entry gets an
unlinked result with an error note ("Type: message") and the batch
carries on.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Entry
from .embedding import EMBED_CHUNK, cosine_from_norms, vector_norm
from .errors import ProtocolError, ReplayCacheMiss, TransportError
from .wikidata import ENTITY_BATCH_SIZE, SEARCH_LIMIT, WikidataCandidate, WikidataClient, qid_number

# Similarity gate disabled by default: cosine never goes below -1.
NO_MIN_SIMILARITY = -1.0

_REMOTE_ERRORS = (TransportError, ProtocolError, ReplayCacheMiss)


@dataclass
class ScoredCandidate:
    candidate: WikidataCandidate
    similarity: float


@dataclass
class LinkResult:
    """Outcome for one entry: chosen item (or None) plus the full
    scored ranking that produced the choice."""

    entry_id: str
    chosen: str | None
    similarity: float
    considered: list[ScoredCandidate] = field(default_factory=list)
    error: str | None = None


def rank_candidates(
    definition_vector: np.ndarray,
    scored_inputs: Sequence[tuple[WikidataCandidate, np.ndarray]],
    norms: Sequence[float] | None = None,
) -> list[ScoredCandidate]:
    """Score candidates against the definition vector and sort them by
    similarity, highest first, lower item number winning ties.

    ``norms`` holds the definition vector's norm, then each candidate
    vector's, as ``vector_norm`` takes them; left out, they are taken
    here.  The similarities equal ``cosine_similarity`` bit for bit.
    Input order never affects the output order.
    """
    if norms is None:
        norms = [vector_norm(definition_vector)]
        norms += [vector_norm(vector) for _, vector in scored_inputs]
    definition_norm, *candidate_norms = norms
    scored = [
        ScoredCandidate(
            candidate,
            cosine_from_norms(definition_vector, vector, definition_norm, norm),
        )
        for (candidate, vector), norm in zip(scored_inputs, candidate_norms, strict=True)
    ]
    scored.sort(key=lambda sc: (-sc.similarity, qid_number(sc.candidate.qid)))
    return scored


def link_batch(
    entries: Sequence[Entry],
    provider,
    client: WikidataClient,
    limit: int = SEARCH_LIMIT,
    min_similarity: float = NO_MIN_SIMILARITY,
    workers: int = 1,
) -> list[LinkResult]:
    """Link entries, results in input order.

    A failing entry yields an unlinked result with an error note; the
    rest of the batch is unaffected.  ``workers`` > 1 sends the
    searches and the description requests on a pool of that many
    threads, each with one request open at a time, so ``workers`` is
    the bound on requests in flight.  With ``workers`` = 1 every request
    is sent from the calling thread, which is fastest when no request
    waits on a network (replay).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    results: list[LinkResult | None] = [None] * len(entries)
    with ExitStack() as stack:
        if workers > 1 and len(entries) > 1:
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=workers))
            run_all = pool.map
        else:
            run_all = map

        # Phase 1: search each distinct headword once, in first-seen
        # order, and hand its hits to every entry that shares it.
        headwords = list(dict.fromkeys(entry.headword for entry in entries))
        found_by_headword = dict(zip(headwords, run_all(
            _remote(lambda headword: client.search_candidates(headword, limit=limit)),
            headwords,
        )))
        hits = [found_by_headword[entry.headword] for entry in entries]
        for i, (entry, found) in enumerate(zip(entries, hits)):
            if isinstance(found, Exception):
                results[i] = _failed(entry, found)
            elif not found:
                results[i] = LinkResult(entry.id, None, 0.0, [])

        # Phase 2: descriptions of the distinct candidates, in first-seen
        # order so a batch's ids never depend on thread timing.
        pending = [i for i, result in enumerate(results) if result is None]
        qids = list(dict.fromkeys(c.qid for i in pending for c in hits[i]))
        batches = [
            qids[start : start + ENTITY_BATCH_SIZE]
            for start in range(0, len(qids), ENTITY_BATCH_SIZE)
        ]
        descriptions: dict[str, str | None] = {}
        failed: dict[str, Exception] = {}
        for batch, answer in zip(
            batches, run_all(_remote(client.fetch_descriptions), batches)
        ):
            if isinstance(answer, Exception):
                failed.update(dict.fromkeys(batch, answer))
            else:
                descriptions.update(answer)
        for i in pending:
            errors = [failed[c.qid] for c in hits[i] if c.qid in failed]
            if errors:
                results[i] = _failed(entries[i], errors[0])
                continue
            for candidate in hits[i]:
                candidate.description_sv = descriptions.get(candidate.qid)

    # Phase 3: rank in chunks, so one embedding call holds at most
    # EMBED_CHUNK vectors (a definition plus ``limit`` descriptions per
    # entry).
    ranked = [i for i, result in enumerate(results) if result is None]
    step = EMBED_CHUNK // (1 + limit)
    for start in range(0, len(ranked), step):
        chunk = ranked[start : start + step]
        chunk_results = _rank_chunk(
            [entries[i] for i in chunk], [hits[i] for i in chunk], provider, min_similarity
        )
        for i, result in zip(chunk, chunk_results):
            results[i] = result
    return results


def _failed(entry: Entry, err: Exception) -> LinkResult:
    """The unlinked result of an entry whose link failed with ``err``."""
    return LinkResult(entry.id, None, 0.0, [], error=f"{type(err).__name__}: {err}")


def _rank_chunk(
    entries: Sequence[Entry],
    hits: Sequence[list[WikidataCandidate]],
    provider,
    min_similarity: float,
) -> list[LinkResult]:
    """Rank each entry's candidates with one embedding call and one
    norm per distinct text of the chunk.  The vectors are freed on
    return, before the next chunk is embedded."""
    texts = list(dict.fromkeys(
        [entry.definition for entry in entries]
        + [c.description_sv or "" for found in hits for c in found]
    ))
    try:
        vectors = dict(zip(texts, provider.embed_batch(texts)))
    except _REMOTE_ERRORS as err:
        return [_failed(entry, err) for entry in entries]
    norms = {text: vector_norm(vector) for text, vector in vectors.items()}
    results: list[LinkResult] = []
    for entry, found in zip(entries, hits):
        descriptions = [c.description_sv or "" for c in found]
        ranking = rank_candidates(
            vectors[entry.definition],
            [(c, vectors[text]) for c, text in zip(found, descriptions)],
            [norms[entry.definition]] + [norms[text] for text in descriptions],
        )
        best = ranking[0]
        chosen = best.candidate.qid if best.similarity >= min_similarity else None
        results.append(LinkResult(entry.id, chosen, best.similarity, ranking))
    return results


def _remote(call):
    """``call`` with a remote failure returned instead of raised."""

    def guarded(arg):
        try:
            return call(arg)
        except _REMOTE_ERRORS as err:
            return err

    return guarded
