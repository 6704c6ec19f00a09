"""The EditDistance string matcher: Levenshtein-based similarity (Section 4.1).

"String similarity is computed from the number of edit operations necessary to
transform one string to another one (the Levenshtein metric)."

The similarity is ``1 - distance / max(len(a), len(b))`` so that identical
strings score 1.0 and completely different strings of equal length score 0.0.

Two kernels implement the metric:

* :func:`levenshtein_distance` -- the scalar entry point, backed by Myers'
  bit-parallel recurrence (:func:`repro.matchers.string.bitparallel
  .myers_distance`): Python's arbitrary-precision integers hold the whole
  pattern in one bit vector, so each text character costs a handful of
  integer operations instead of an ``O(m)`` row sweep.  It accepts an
  optional ``upper_bound``: when the length-difference lower bound
  ``abs(len(a) - len(b))`` already reaches the bound, the kernel is skipped
  entirely and the lower bound is returned (callers that map distances at or
  beyond the bound to a fixed outcome -- e.g. similarity clamped to 0 -- lose
  nothing).
* :func:`levenshtein_distance_many` -- the batch entry point.  Pairs whose
  shorter string fits the bit-parallel ladder (up to
  :data:`~repro.matchers.string.bitparallel.MAX_PATTERN_LENGTH` code points)
  run through the vectorized Myers kernel
  (:func:`repro.matchers.string.bitparallel.distances_into`), which advances
  64 pattern positions per uint64 word per step; longer pairs take the
  scalar Myers kernel.  Equal and empty pairs (the cases the
  length-difference bound decides outright) never enter either kernel.

:func:`levenshtein_distance_dp`, the classic two-row dynamic program
(O(len(a) * len(b)) time, O(min) space), is kept as the independent scalar
reference the fuzz suites compare both kernels against.

:class:`EditDistanceMatcher` normalises case once per *unique* string (not
once per pair), batches all unique pairs through the vectorized kernel, and
shares results process-wide through the kernel memo pool
(:mod:`repro.matchers.memo`).  All kernels are exact; the fuzz suite in
``tests/test_levenshtein_batch.py`` asserts they agree on arbitrary unicode
input, with zero tolerance.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.matchers.base import StringMatcher
from repro.matchers.string import bitparallel


def levenshtein_distance(a: str, b: str, upper_bound: Optional[int] = None) -> int:
    """The Levenshtein edit distance between two strings.

    Parameters
    ----------
    a / b:
        The strings to compare.
    upper_bound:
        When given, and the length-difference lower bound
        ``abs(len(a) - len(b))`` is already at or beyond it, the kernel is
        skipped and that lower bound is returned.  The result is then only
        guaranteed to be ``>= upper_bound`` (and ``<= `` the true distance),
        which is exactly what similarity computations clamping at a bound
        need.

    Examples
    --------
    >>> levenshtein_distance("kitten", "sitting")
    3
    >>> levenshtein_distance("po", "purchaseorder", upper_bound=11)
    11
    """
    if a == b:
        return 0
    length_bound = abs(len(a) - len(b))
    if upper_bound is not None and length_bound >= upper_bound:
        # The distance cannot come in below the length difference; skip.
        return length_bound
    return bitparallel.myers_distance(a, b)


def levenshtein_distance_dp(a: str, b: str) -> int:
    """The classic two-row dynamic program, kept as the scalar reference.

    The production paths run Myers' bit-parallel recurrence
    (:func:`levenshtein_distance`, :func:`levenshtein_distance_many`); this
    independent implementation is what the fuzz/differential suites compare
    them against, so it must stay the straightforward textbook DP.

    Examples
    --------
    >>> levenshtein_distance_dp("kitten", "sitting")
    3
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    # Keep the shorter string on the column axis to minimise memory.
    if len(b) > len(a):
        a, b = b, a
    previous = list(range(len(b) + 1))
    current = [0] * (len(b) + 1)
    for i, char_a in enumerate(a, start=1):
        current[0] = i
        for j, char_b in enumerate(b, start=1):
            substitution_cost = 0 if char_a == char_b else 1
            current[j] = min(
                previous[j] + 1,              # deletion
                current[j - 1] + 1,           # insertion
                previous[j - 1] + substitution_cost,  # substitution
            )
        previous, current = current, previous
    return previous[len(b)]


def levenshtein_distance_many(pairs: Sequence[Tuple[str, str]]) -> np.ndarray:
    """Exact Levenshtein distances of many string pairs, computed in one batch.

    Pairs whose shorter string fits the bit-parallel ladder (at most
    :data:`~repro.matchers.string.bitparallel.MAX_PATTERN_LENGTH` code
    points -- effectively every schema element name) run through the
    vectorized Myers kernel: 64 pattern positions per uint64 word, one
    Python-level step per text character, every word operation spanning the
    whole batch.  Longer pairs take the scalar Myers kernel
    (:func:`~repro.matchers.string.bitparallel.myers_distance`).  Pairs
    decided by the length-difference lower bound without any kernel work
    (equal strings, one side empty) are short-circuited.

    Examples
    --------
    >>> levenshtein_distance_many([("kitten", "sitting"), ("", "abc"), ("x", "x")])
    array([3, 3, 0])
    """
    distances = np.zeros(len(pairs), dtype=np.intp)
    bit_eligible: List[int] = []
    for index, (a, b) in enumerate(pairs):
        if a == b:
            continue  # distance 0
        if not a or not b:
            # Length-difference bound is tight here: distance == abs diff.
            distances[index] = abs(len(a) - len(b))
        elif min(len(a), len(b)) <= bitparallel.MAX_PATTERN_LENGTH:
            bit_eligible.append(index)
        else:
            distances[index] = bitparallel.myers_distance(a, b)
    if bit_eligible:
        bitparallel.distances_into(pairs, bit_eligible, distances)
    return distances


class EditDistanceMatcher(StringMatcher):
    """Normalised Levenshtein similarity between two strings.

    The batch entry point (:meth:`similarity_many`) folds case once per
    unique input string, deduplicates the folded strings, serves known pairs
    from the process-wide kernel memo pool and pushes only the remaining
    distinct pairs through the vectorized batch kernel
    (:func:`levenshtein_distance_many`).
    """

    name = "EditDistance"

    def __init__(self, case_sensitive: bool = False):
        self._case_sensitive = bool(case_sensitive)

    def memo_key(self) -> Optional[tuple]:
        # Folded strings enter the pool for the case-insensitive default, so
        # the flag must separate the two key spaces.
        return ("EditDistance", self._case_sensitive)

    def similarity(self, a: str, b: str) -> float:
        if not a and not b:
            return 0.0
        first = a if self._case_sensitive else a.lower()
        second = b if self._case_sensitive else b.lower()
        if first == second:
            return 1.0
        longest = max(len(first), len(second))
        if longest == 0:
            return 0.0
        # ``longest`` is this matcher's zero-similarity cutoff.  For two
        # non-empty strings the length-difference bound can never reach it
        # (that would require an empty side, handled above), so the value is
        # exact here; callers pruning against a real threshold pass a
        # tighter bound, e.g. ``upper_bound=ceil((1 - thr) * longest)``.
        distance = levenshtein_distance(first, second, upper_bound=longest)
        return max(0.0, 1.0 - distance / longest)

    # -- batch evaluation -------------------------------------------------------

    def similarity_many(self, sources, targets) -> np.ndarray:
        """The full cross-product similarity matrix, vectorized and memoised.

        Case is folded once per unique string; the memo pool then sees
        canonical (folded) pairs, so results are shared across schemas and
        sessions regardless of the casing each schema uses.
        """
        from repro.engine.profiles import unique_index
        from repro.matchers.memo import active_pool

        if self._case_sensitive:
            folded_sources: Sequence[str] = list(sources)
            folded_targets: Sequence[str] = list(targets)
        else:
            folded_sources = [word.lower() for word in sources]
            folded_targets = [word.lower() for word in targets]
        unique_sources, source_inverse = unique_index(folded_sources)
        unique_targets, target_inverse = unique_index(folded_targets)
        pool = active_pool()
        if pool is not None:
            unique = pool.block(
                self.memo_key(), unique_sources, unique_targets, self._batch_kernel
            )
        else:
            pairs = [(a, b) for a in unique_sources for b in unique_targets]
            unique = self._batch_kernel(pairs).reshape(
                len(unique_sources), len(unique_targets)
            )
        return unique[np.ix_(source_inverse, target_inverse)]

    @staticmethod
    def _batch_kernel(pairs: Sequence[Tuple[str, str]]) -> np.ndarray:
        """Similarities of (already case-folded) string pairs via the batch kernel."""
        values = np.zeros(len(pairs), dtype=float)
        lively: List[int] = []
        for index, (a, b) in enumerate(pairs):
            if a == b:
                values[index] = 1.0 if a else 0.0
            elif a and b:
                lively.append(index)
            # one side empty: similarity 0 (the length bound decides it)
        if lively:
            subset = [pairs[index] for index in lively]
            distances = levenshtein_distance_many(subset)
            longest = np.array(
                [max(len(a), len(b)) for a, b in subset], dtype=float
            )
            values[lively] = np.maximum(0.0, 1.0 - distances / longest)
        return values
