"""Corpus-scale schema search: inverted candidate index + top-K pruned matching.

This subsystem answers the repository-scale question the pairwise API cannot:
*"find the best match targets for this schema among thousands"*.  It is built
from two pieces:

* :mod:`repro.search.corpus` -- :class:`SchemaCorpus`, a persistent SQLite
  inverted index over the profile vocabularies (name tokens, n-grams,
  soundex codes) plus the schema documents themselves, with idf-weighted
  numpy candidate ranking;
* :mod:`repro.search.searcher` -- :class:`CorpusSearcher`, which prunes the
  corpus to a top-K survivor pool via the index and runs the full
  :class:`~repro.session.session.MatchSession` pipeline only on survivors.

(:mod:`repro.search.intervals` encodes path trees for the rematch digests.)

The subsystem is wired through all three public layers:
``MatchSession.search(schema, k=...)``, ``POST /search`` (+ corpus
registration on ``POST /schemas``) in :mod:`repro.service`, and the
``coma search`` / ``coma corpus`` CLI.  See ``docs/search.md``.
"""

from repro.search.corpus import (
    CandidateScore,
    SchemaCorpus,
    schema_vocabulary,
    vocabulary_norm,
)
from repro.search.intervals import IntervalNode, interval_encode
from repro.search.searcher import (
    CorpusSearcher,
    SearchResult,
    candidate_pool_size,
)

__all__ = [
    "CandidateScore",
    "CorpusSearcher",
    "IntervalNode",
    "SchemaCorpus",
    "SearchResult",
    "candidate_pool_size",
    "interval_encode",
    "schema_vocabulary",
    "vocabulary_norm",
]
