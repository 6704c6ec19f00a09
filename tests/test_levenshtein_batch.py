"""Fuzz/property tests: the bit-parallel kernels equal the scalar DP.

The batch kernel (:func:`repro.matchers.string.edit_distance
.levenshtein_distance_many`) routes pairs through the vectorized Myers
bit-parallel recurrence (with a scalar Myers fallback); these tests pin
it -- and the scalar Myers kernel behind :func:`levenshtein_distance` -- to
the classic two-row DP reference on arbitrary unicode input, including the
edges the bit packing has to get right (empty strings, equal strings,
patterns crossing the 64- and 128-bit word boundaries, astral code points),
and check the upper-bound short-circuit contract of the scalar kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matchers.memo import KernelMemoPool, set_active_pool
from repro.matchers.string import bitparallel
from repro.matchers.string.edit_distance import (
    EditDistanceMatcher,
    levenshtein_distance,
    levenshtein_distance_dp,
    levenshtein_distance_many,
)

#: Unicode text including combining marks, CJK and astral code points -- the
#: batch kernel works on raw code points, so anything ord() accepts is fair.
unicode_names = st.text(min_size=0, max_size=16)
ascii_names = st.text(
    alphabet="abcdefghijklmnop_ -0123456789", min_size=0, max_size=12
)
#: Long names spanning the multi-word ladder (>64 and >128 code points) from
#: a small alphabet so edits collide often; astral code points included.
long_names = st.text(
    alphabet="ab\U0001f600", min_size=0, max_size=200
)


def scalar_reference(a: str, b: str) -> int:
    """The classic two-row DP (the ground truth for every comparison)."""
    return levenshtein_distance_dp(a, b)


class TestBatchEqualsScalar:
    @given(pairs=st.lists(st.tuples(unicode_names, unicode_names), max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_random_unicode_pairs(self, pairs):
        batch = levenshtein_distance_many(pairs)
        expected = [scalar_reference(a, b) for a, b in pairs]
        assert batch.tolist() == expected

    @given(words=st.lists(unicode_names, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_cross_product_blocks(self, words):
        pairs = [(a, b) for a in words for b in words]
        batch = levenshtein_distance_many(pairs)
        expected = [scalar_reference(a, b) for a, b in pairs]
        assert batch.tolist() == expected

    def test_edge_cases(self):
        pairs = [
            ("", ""),
            ("", "abc"),
            ("abc", ""),
            ("abc", "abc"),
            ("a", "b"),
            ("a", "a"),
            ("kitten", "sitting"),
            ("flaw", "lawn"),
            ("日本語", "日本"),
            ("naïve", "naive"),
            ("\U0001f600", "\U0001f601"),  # astral plane code points
            ("aaaa", "aaaa"),
            ("ab" * 8, "ba" * 8),
        ]
        batch = levenshtein_distance_many(pairs)
        assert batch.tolist() == [scalar_reference(a, b) for a, b in pairs]

    def test_empty_batch(self):
        assert levenshtein_distance_many([]).tolist() == []

    def test_mixed_lengths_in_one_batch(self):
        # Pairs finishing at very different outer iterations share one batch:
        # each must record its result at exactly its own final DP row.
        pairs = [("a" * n, "b" * (17 - n)) for n in range(1, 17)]
        batch = levenshtein_distance_many(pairs)
        assert batch.tolist() == [scalar_reference(a, b) for a, b in pairs]


class TestBitParallelKernel:
    """The Myers kernels (scalar + vectorized ladder) against the two-row DP."""

    @given(a=long_names, b=long_names)
    @settings(max_examples=150, deadline=None)
    def test_scalar_myers_matches_dp(self, a, b):
        assert bitparallel.myers_distance(a, b) == scalar_reference(a, b)

    @given(pairs=st.lists(st.tuples(long_names, long_names), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_multiword_ladder_matches_dp(self, pairs):
        # Lengths up to 200 span the 1-, 2- and 3-word ladders in one batch.
        batch = levenshtein_distance_many(pairs)
        assert batch.tolist() == [scalar_reference(a, b) for a, b in pairs]

    def test_word_boundary_lengths(self):
        # Patterns of exactly 63/64/65 and 127/128/129 code points exercise
        # the score bit landing on (and wrapping off) the top of a word.
        pairs = []
        for m in (63, 64, 65, 127, 128, 129):
            pairs.append(("a" * m, "a" * (m - 1) + "b"))
            pairs.append(("a" * m, "b" * m))
            pairs.append(("ab" * (m // 2), "ba" * (m // 2) + "a"))
            pairs.append(("a" * m, "a" * (m + 40)))
        batch = levenshtein_distance_many(pairs)
        assert batch.tolist() == [scalar_reference(a, b) for a, b in pairs]

    def test_astral_plane_multiword(self):
        # Astral code points (> 0xFFFF) in patterns crossing word boundaries.
        a = "\U0001f600\U0001f601" * 40  # 80 code points, 2 words
        b = "\U0001f600\U0001f602" * 45
        pairs = [(a, b), (a, a[:-1]), ("x" + a, b + "\U0001f603")]
        batch = levenshtein_distance_many(pairs)
        assert batch.tolist() == [scalar_reference(x, y) for x, y in pairs]

    def test_all_equal_block(self):
        # An all-equal batch never enters the kernel (short-circuit) but must
        # still come back all-zero, and a block where every pair shares one
        # text must finish every pair on the same step.
        same = [("purchase_order", "purchase_order")] * 50
        assert levenshtein_distance_many(same).tolist() == [0] * 50
        shared = [("name%d" % i, "label") for i in range(50)]
        batch = levenshtein_distance_many(shared)
        assert batch.tolist() == [scalar_reference(a, b) for a, b in shared]

    def test_empty_strings_short_circuit(self):
        pairs = [("", ""), ("", "abc"), ("abc", ""), ("", "\U0001f600")]
        assert levenshtein_distance_many(pairs).tolist() == [0, 3, 3, 1]

    def test_fallback_beyond_ladder_cap(self):
        # Patterns longer than MAX_PATTERN_LENGTH take the scalar Myers
        # kernel inside levenshtein_distance_many; results stay exact.
        m = bitparallel.MAX_PATTERN_LENGTH + 5
        pairs = [("a" * m, "a" * (m - 3) + "bcd"), ("ab" * m, "ba" * m), ("s", "t")]
        batch = levenshtein_distance_many(pairs)
        assert batch.tolist() == [scalar_reference(a, b) for a, b in pairs]

    def test_chunked_peq_budget(self, monkeypatch):
        # Shrink the Peq budget so one call spans many chunks; per-chunk
        # alphabets and score scatter must still line up pair-by-pair.
        monkeypatch.setattr(bitparallel, "_PEQ_BUDGET_BYTES", 2048)
        pairs = [("name%d" % i, "label%d" % (i % 7)) for i in range(300)]
        batch = levenshtein_distance_many(pairs)
        assert batch.tolist() == [scalar_reference(a, b) for a, b in pairs]


class TestScalarUpperBound:
    @given(a=unicode_names, b=unicode_names)
    @settings(max_examples=150, deadline=None)
    def test_bound_contract(self, a, b):
        """With a bound, the result is exact below it and >= the bound otherwise."""
        exact = scalar_reference(a, b)
        bound = max(len(a), len(b))
        result = levenshtein_distance(a, b, upper_bound=bound)
        if exact < bound:
            assert result == exact
        else:
            assert bound <= result <= exact

    def test_length_difference_short_circuit(self):
        # The length difference alone reaches the bound: the DP is skipped
        # and the (lower-bound) length difference comes back.
        assert levenshtein_distance("po", "purchaseorder", upper_bound=11) == 11
        # One character less and the DP must run (bound not yet reached).
        assert levenshtein_distance("po", "purchaseorder", upper_bound=12) == 11

    def test_no_bound_is_exact(self):
        assert levenshtein_distance("abcdef", "xyz") == 6


class TestMatcherBatchEquivalence:
    """EditDistanceMatcher.similarity_many == per-pair similarity, exactly."""

    @pytest.fixture(autouse=True)
    def fresh_pool(self):
        previous = set_active_pool(KernelMemoPool())
        yield
        set_active_pool(previous)

    @given(
        sources=st.lists(ascii_names, min_size=1, max_size=8),
        targets=st.lists(ascii_names, min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_matrix_equals_pairwise(self, sources, targets):
        matcher = EditDistanceMatcher()
        got = matcher.similarity_many(sources, targets)
        want = np.array(
            [[matcher.similarity(a, b) for b in targets] for a in sources]
        )
        assert np.array_equal(got, want)

    @given(
        sources=st.lists(ascii_names, min_size=1, max_size=6),
        targets=st.lists(ascii_names, min_size=1, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_pool_disabled_equals_pooled(self, sources, targets):
        matcher = EditDistanceMatcher()
        pooled = matcher.similarity_many(sources, targets)
        previous = set_active_pool(None)
        try:
            plain = matcher.similarity_many(sources, targets)
        finally:
            set_active_pool(previous)
        assert np.array_equal(pooled, plain)

    def test_case_sensitive_variant(self):
        matcher = EditDistanceMatcher(case_sensitive=True)
        got = matcher.similarity_many(["Ab", "ab"], ["AB", "ab"])
        want = np.array(
            [[matcher.similarity(a, b) for b in ("AB", "ab")] for a in ("Ab", "ab")]
        )
        assert np.array_equal(got, want)
