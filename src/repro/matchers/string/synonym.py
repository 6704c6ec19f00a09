"""The Synonym string matcher: dictionary-based semantic similarity (Section 4.1).

"This matcher estimates the similarity between element names by looking up the
terminological relationships in a specified dictionary.  Currently, it simply
uses relationship-specific similarity values, e.g. 1.0 for a synonymy and 0.8
for a hypernymy relationship."

The matcher needs a :class:`~repro.auxiliary.synonyms.SynonymDictionary`; when
used inside the hybrid Name matcher the dictionary comes from the
:class:`~repro.matchers.base.MatchContext`, so :class:`SynonymStringMatcher`
may be constructed either with an explicit dictionary or bound to one later.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.auxiliary.synonyms import SynonymDictionary
from repro.exceptions import MatcherError
from repro.matchers.base import StringMatcher


class SynonymStringMatcher(StringMatcher):
    """Relationship-specific similarity from a synonym dictionary."""

    name = "Synonym"

    def __init__(self, dictionary: Optional[SynonymDictionary] = None):
        self._dictionary = dictionary

    @property
    def dictionary(self) -> Optional[SynonymDictionary]:
        """The bound dictionary (``None`` until bound)."""
        return self._dictionary

    def bound_to(self, dictionary: SynonymDictionary) -> "SynonymStringMatcher":
        """A copy of this matcher bound to ``dictionary``."""
        return SynonymStringMatcher(dictionary)

    def _bound_dictionary(self) -> SynonymDictionary:
        if self._dictionary is None:
            raise MatcherError(
                "SynonymStringMatcher has no dictionary; construct it with one or "
                "use bound_to() before calling similarity()"
            )
        return self._dictionary

    def similarity(self, a: str, b: str) -> float:
        dictionary = self._bound_dictionary()
        if not a or not b:
            return 0.0
        return dictionary.similarity(a, b)

    def similarity_many(self, sources: Sequence[str], targets: Sequence[str]) -> np.ndarray:
        """All pairs at once through :meth:`SynonymDictionary.similarity_many`.

        Rows and columns of raw-empty words are 0, as in :meth:`similarity`.
        """
        values = self._bound_dictionary().similarity_many(sources, targets)
        values[[i for i, word in enumerate(sources) if not word]] = 0.0
        values[:, [j for j, word in enumerate(targets) if not word]] = 0.0
        return values
