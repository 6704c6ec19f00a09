"""Top-K pruned corpus search: cheap index ranking, full pipeline on survivors.

The :class:`CorpusSearcher` composes the two halves of corpus-scale matching:

1. the :class:`~repro.search.corpus.SchemaCorpus` ranks every registered
   schema against the query's vocabulary with an idf-weighted set overlap --
   microseconds per candidate, no matchers involved;
2. the full :class:`~repro.session.session.MatchSession` pipeline (including
   the reuse providers, finally exercised at the scale they were designed
   for) runs **only on the pruned survivor set**, and the survivors are
   re-ranked by real schema similarity.

The candidate pool is deliberately wider than the requested ``k`` (default
``max(4 * k, 16)``) so the cheap ranking only has to get the answer *into*
the pool, not order it perfectly -- the matcher pipeline does the final
ordering.  Both stages are deterministic (ties break by schema name), so two
searches over the same corpus return identical rankings -- the property the
service layer relies on for byte-identical ``POST /search`` responses.

Survivor matching runs on the session's
:meth:`~repro.session.session.MatchSession.match_many` unless a
``match_many`` override is passed, which is how the service layer routes it
through its thread or process pool, and ``coma search --processes`` through
worker processes.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.exceptions import SearchError
from repro.model.schema import Schema
from repro.repository.store import schema_content_digest, tokenizer_digest
from repro.search.corpus import CandidateScore, SchemaCorpus, schema_vocabulary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.match_operation import MatchOutcome
    from repro.session.session import MatchSession, StrategyLike

#: ``match_many`` override signature: a batch of (source, target, strategy)
#: items in, one MatchOutcome per item (in order) out.
MatchManyFn = Callable[
    [Sequence[Tuple[Schema, Schema, object]]], List["MatchOutcome"]
]

#: Widening factor of the candidate pool over the requested ``k``.
DEFAULT_POOL_FACTOR = 4
#: Floor of the candidate pool, so tiny ``k`` still casts a reasonable net.
DEFAULT_POOL_MIN = 16


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """One ranked hit of a corpus search.

    ``schema_similarity`` is the full-pipeline combined similarity (the
    ranking key); ``candidate_score`` is the cheap index score that got the
    schema into the survivor pool (useful for tuning the pool size);
    ``outcome`` carries the complete match outcome, including the selected
    per-path mapping (``outcome.result``).
    """

    name: str
    schema_similarity: float
    candidate_score: float
    outcome: "MatchOutcome"
    candidate: CandidateScore

    @property
    def mapping(self):
        """The selected path mapping of the full pipeline (``outcome.result``)."""
        return self.outcome.result


def candidate_pool_size(k: int, candidates: Optional[int] = None) -> int:
    """The survivor-pool size for a requested ``k`` (explicit or default).

    Examples
    --------
    >>> candidate_pool_size(10)
    40
    >>> candidate_pool_size(1)
    16
    >>> candidate_pool_size(3, candidates=7)
    7
    """
    if candidates is not None:
        if candidates < k:
            raise SearchError(
                f"candidate pool ({candidates}) must be >= k ({k})"
            )
        return int(candidates)
    return max(DEFAULT_POOL_FACTOR * int(k), DEFAULT_POOL_MIN)


class CorpusSearcher:
    """Search a :class:`SchemaCorpus` with a session's full match pipeline.

    Parameters
    ----------
    session:
        The :class:`~repro.session.session.MatchSession` whose resources
        (library, strategy resolution, caches, reuse providers) score the
        survivors.  Its tokenizer must match the corpus' pinned tokenizer
        configuration -- otherwise query vocabularies would not line up with
        the index and ranking would silently degrade, so the mismatch raises.
    corpus:
        The corpus to search.

    Examples
    --------
    >>> from repro.datasets.figure1 import load_po1, load_po2
    >>> from repro.session import MatchSession
    >>> corpus = SchemaCorpus(":memory:")
    >>> _ = corpus.add_many([load_po1(), load_po2()])
    >>> searcher = CorpusSearcher(MatchSession(), corpus)
    >>> [hit.name for hit in searcher.search(load_po1(), k=1)]
    ['PO2']
    """

    def __init__(self, session: "MatchSession", corpus: SchemaCorpus):
        session_digest = tokenizer_digest(session.tokenizer)
        if session_digest != corpus.tokenizer_digest:
            raise SearchError(
                "the session's tokenizer configuration differs from the one "
                "this corpus was indexed with; query and index vocabularies "
                f"would not line up (corpus {corpus.tokenizer_digest[:12]}..., "
                f"session {session_digest[:12]}...)"
            )
        self._session = session
        self._corpus = corpus

    @property
    def session(self) -> "MatchSession":
        """The session scoring the survivors."""
        return self._session

    @property
    def corpus(self) -> SchemaCorpus:
        """The corpus being searched."""
        return self._corpus

    # -- stage 1: cheap index ranking ------------------------------------------

    def rank(
        self,
        schema: Schema,
        limit: Optional[int] = None,
        exclude_self: bool = True,
        exclude_names: Sequence[str] = (),
    ) -> List[CandidateScore]:
        """The index-only candidate ranking (no matchers run).

        Uses the session's :class:`~repro.engine.profiles.PathSetProfile` of
        the query (cached by the session when it was not already) and
        :meth:`SchemaCorpus.rank <repro.search.corpus.SchemaCorpus.rank>`,
        which scores from the corpus's in-memory postings.
        ``exclude_names`` leaves specific registered schemas out of the
        ranking (e.g. known near-copies of the query crowding out more
        distant targets).
        """
        profile = self._session.profile_for(schema)
        exclude = (schema_content_digest(schema),) if exclude_self else ()
        return self._corpus.rank(
            schema_vocabulary(profile),
            limit=limit,
            exclude_digests=exclude,
            exclude_names=exclude_names,
        )

    # -- stage 2: full pipeline on survivors -----------------------------------

    def search(
        self,
        schema: Schema,
        k: int = 10,
        strategy: "StrategyLike" = None,
        candidates: Optional[int] = None,
        exclude_self: bool = True,
        exclude_names: Sequence[str] = (),
        match_many: Optional[MatchManyFn] = None,
    ) -> List[SearchResult]:
        """Find the best match targets for ``schema`` in the corpus.

        The index ranks the corpus (:meth:`rank`), and the survivors go to
        ``match_many`` as one batch -- on the session's serial path, one
        engine execution matches the query against all of them (see
        :meth:`~repro.session.session.MatchSession.match_many`).  The search
        keeps nothing per query: the query's profile leaves the session's
        profile cache at the end unless it was cached before the search.

        Parameters
        ----------
        schema:
            The query schema.
        k:
            Number of ranked results to return.
        strategy:
            Any strategy reference the session resolves; ``None`` uses the
            session default.
        candidates:
            Explicit survivor-pool size (default ``max(4 * k, 16)``).  The
            full pipeline runs on exactly this many index-ranked candidates
            (fewer if the corpus is smaller).
        exclude_self:
            Drop registered schemas whose content digest equals the query's
            (a corpus usually contains the query schema itself).
        exclude_names:
            Leave these registered schemas out of the ranking entirely
            (e.g. known near-copies of the query that would otherwise crowd
            the survivor pool).
        match_many:
            Override the survivor-matching executor with any callable of the
            same shape (items of ``(source, target, strategy)`` in, outcomes
            in order out).  The service layer passes its pool's
            ``match_many`` here, so survivors run on its backend (thread or
            process) while the query's profile stays transient on this
            session.

        Returns
        -------
        list of SearchResult
            At most ``k`` results ordered by full-pipeline schema similarity
            (descending), ties broken by index score then name.

        Raises
        ------
        SearchError
            If ``k < 1`` or the candidate pool is smaller than ``k``.
        """
        if k < 1:
            raise SearchError(f"k must be >= 1, got {k}")
        pool = candidate_pool_size(k, candidates)
        with self._session.transient_profile(schema):
            ranked = self.rank(
                schema,
                limit=pool,
                exclude_self=exclude_self,
                exclude_names=exclude_names,
            )
            if not ranked:
                return []
            survivors = [self._corpus.load(candidate.name) for candidate in ranked]
            items: List[Tuple[Schema, Schema, object]] = [
                (schema, target, strategy) for target in survivors
            ]
            if match_many is None:
                match_many = self._session.match_many
            outcomes = match_many(items)
        if len(outcomes) != len(ranked):
            raise SearchError(
                f"survivor matching returned {len(outcomes)} outcomes for "
                f"{len(ranked)} candidates"
            )
        results = [
            SearchResult(
                name=candidate.name,
                schema_similarity=float(outcome.schema_similarity),
                candidate_score=candidate.score,
                outcome=outcome,
                candidate=candidate,
            )
            for candidate, outcome in zip(ranked, outcomes)
        ]
        results.sort(
            key=lambda r: (-r.schema_similarity, -r.candidate_score, r.name)
        )
        return results[: int(k)]
