"""The Name/NamePath token-set kernel against the padded gather it replaced.

``batch_set_similarity`` used to gather a padded ``count_a x count_b x
width_a x width_b`` array of token similarities, take argmax over both inner
axes and sum each row of kept values with numpy's ``sum``.  That code is kept
below as the oracle.  numpy sums fewer than 8 values left to right but switches
to pairwise summation from 8 on, so the oracle's bits for a set pair depended
on the longest source set among the requested rows.  The kernel adds left to
right at every width.  So it must equal the oracle bit for bit while every
source set has fewer than 8 tokens, and at any width it must equal the
pairwise reference ``set_similarity`` and give every row subset the bits of
the full request.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.combination.aggregation import MAX
from repro.combination.combined import AVERAGE_COMBINED, DICE_COMBINED, DiceCombined
from repro.core.match_operation import build_context
from repro.datasets.figure1 import load_po1, load_po2
from repro.datasets.generators import generate_pair
from repro.matchers.hybrid import name as name_module
from repro.matchers.hybrid.name import NameMatcher, NamePathMatcher
from repro.matchers.hybrid.set_similarity import batch_set_similarity, set_similarity

# -- the oracle: the padded 4-d gather ------------------------------------------


def oracle_batch_set_similarity(
    vocabulary_matrix, index_sets_a, index_sets_b, combined, max_chunk_elements=4_000_000
):
    """The former kernel, verbatim."""
    count_a = len(index_sets_a)
    count_b = len(index_sets_b)
    result = np.zeros((count_a, count_b), dtype=float)
    if count_a == 0 or count_b == 0:
        return result

    lengths_a = np.array([len(indices) for indices in index_sets_a], dtype=np.intp)
    lengths_b = np.array([len(indices) for indices in index_sets_b], dtype=np.intp)
    width_a = int(lengths_a.max())
    width_b = int(lengths_b.max())
    if width_a == 0 or width_b == 0:
        # One side consists only of empty sets: every similarity is 0.
        return result

    padded_a = np.zeros((count_a, width_a), dtype=np.intp)
    for row, indices in enumerate(index_sets_a):
        padded_a[row, : len(indices)] = indices
    padded_b = np.zeros((count_b, width_b), dtype=np.intp)
    for row, indices in enumerate(index_sets_b):
        padded_b[row, : len(indices)] = indices
    valid_a = np.arange(width_a)[None, :] < lengths_a[:, None]
    valid_b = np.arange(width_b)[None, :] < lengths_b[:, None]

    use_dice = isinstance(combined, DiceCombined)
    totals = lengths_a[:, None] + lengths_b[None, :]

    chunk_rows = max(1, max_chunk_elements // max(1, count_b * width_a * width_b))
    row_positions = np.arange(width_a)[None, None, :]
    for start in range(0, count_a, chunk_rows):
        stop = min(start + chunk_rows, count_a)
        # cells: (chunk, count_b, width_a, width_b); padding cells get -1 so
        # they can never win an argmax against a valid cell (valid values >= 0).
        cells = vocabulary_matrix[
            padded_a[start:stop, None, :, None], padded_b[None, :, None, :]
        ]
        mask = valid_a[start:stop, None, :, None] & valid_b[None, :, None, :]
        cells = np.where(mask, cells, -1.0)
        best_column = cells.argmax(axis=3)
        row_best_value = cells.max(axis=3)
        best_row = cells.argmax(axis=2)
        # Max1 in both directions: a row is matched iff it is its best
        # column's best row and the value is strictly positive.
        mutual_row = np.take_along_axis(best_row, best_column, axis=2) == row_positions
        matched = mutual_row & (row_best_value > 0.0)
        if use_dice:
            contribution = matched.sum(axis=2, dtype=float)
        else:
            contribution = (row_best_value * matched).sum(axis=2)
        # Each mutual pair matches exactly one row and one column, so both
        # directions contribute the same count / value sum.
        with np.errstate(divide="ignore", invalid="ignore"):
            block = np.where(
                totals[start:stop] > 0, 2.0 * contribution / totals[start:stop], 0.0
            )
        result[start:stop] = np.clip(block, 0.0, 1.0)
    return result


# -- random cases ---------------------------------------------------------------------

#: Few distinct values, so rows and columns tie often.
TIE_LEVELS = np.array([0.0, 0.0, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.5, 0.75, 1.0])


def random_case(rng, max_width_a, max_width_b):
    """A vocabulary matrix and two lists of deduplicated index sets."""
    items_a = int(rng.integers(1, max_width_a + 4))
    items_b = int(rng.integers(1, max_width_b + 4))
    if rng.random() < 0.5:
        matrix = rng.choice(TIE_LEVELS, size=(items_a, items_b))
    else:
        matrix = rng.random((items_a, items_b)) * (rng.random((items_a, items_b)) > 0.3)

    def sets(count, items, max_width):
        return [
            [int(k) for k in rng.permutation(items)[: rng.integers(0, min(items, max_width) + 1)]]
            for _ in range(count)
        ]

    sets_a = sets(int(rng.integers(0, 7)), items_a, max_width_a)
    sets_b = sets(int(rng.integers(0, 7)), items_b, max_width_b)
    combined = DICE_COMBINED if rng.random() < 0.4 else AVERAGE_COMBINED
    return matrix, sets_a, sets_b, combined


@pytest.mark.parametrize("seed", range(6))
def test_equals_the_oracle_below_eight_source_tokens(seed):
    rng = np.random.default_rng(seed)
    for _ in range(250):
        matrix, sets_a, sets_b, combined = random_case(rng, 7, 10)
        expected = oracle_batch_set_similarity(matrix, sets_a, sets_b, combined)
        got = batch_set_similarity(matrix, sets_a, sets_b, combined)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_equals_pairwise_set_similarity_at_any_width(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(150):
        matrix, sets_a, sets_b, combined = random_case(rng, 10, 10)

        def layer(a, b, matrix=matrix):
            return matrix[a, b]

        expected = np.array(
            [[set_similarity(a, b, [layer], MAX, combined) for b in sets_b] for a in sets_a]
        ).reshape(len(sets_a), len(sets_b))
        got = batch_set_similarity(matrix, sets_a, sets_b, combined)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_every_row_and_column_subset_gives_the_full_bits(seed):
    rng = np.random.default_rng(200 + seed)
    for _ in range(150):
        matrix, sets_a, sets_b, combined = random_case(rng, 10, 10)
        full = batch_set_similarity(matrix, sets_a, sets_b, combined)
        rows = [i for i in range(len(sets_a)) if rng.random() < 0.5]
        columns = [j for j in range(len(sets_b)) if rng.random() < 0.5]
        part = batch_set_similarity(
            matrix, [sets_a[i] for i in rows], [sets_b[j] for j in columns], combined
        )
        assert part.tobytes() == full[np.ix_(rows, columns)].tobytes()


def test_wide_source_sets_differ_from_the_oracle_only_in_summation_order():
    rng = np.random.default_rng(300)
    differing = 0
    for _ in range(300):
        matrix, sets_a, sets_b, combined = random_case(rng, 10, 10)
        expected = oracle_batch_set_similarity(matrix, sets_a, sets_b, combined)
        got = batch_set_similarity(matrix, sets_a, sets_b, combined)
        # At most 10 kept values of at most 1 each: a few ulps of 1.0 apart.
        np.testing.assert_allclose(got, expected, rtol=0, atol=16 * np.finfo(float).eps)
        differing += got.tobytes() != expected.tobytes()
    assert differing > 0, "no case reached numpy's pairwise summation"


def test_row_chunks_give_the_unchunked_bits(monkeypatch):
    rng = np.random.default_rng(400)
    from repro.matchers.hybrid import set_similarity as module

    for _ in range(50):
        matrix, sets_a, sets_b, combined = random_case(rng, 10, 10)
        whole = batch_set_similarity(matrix, sets_a, sets_b, combined)
        monkeypatch.setattr(module, "MAX_CHUNK_ELEMENTS", max(1, len(sets_b)))
        chunked = batch_set_similarity(matrix, sets_a, sets_b, combined)
        monkeypatch.undo()
        assert chunked.tobytes() == whole.tobytes()


# -- Name and NamePath layers -----------------------------------------------------------


def _schema_pairs():
    po1, po2 = load_po1(), load_po2()
    pairs = [("PO1->PO2", po1, po2), ("PO2->PO1", po2, po1)]
    for seed, (sections, fields) in enumerate([(3, 4), (5, 6), (8, 5), (14, 8)]):
        pair = generate_pair(sections=sections, fields_per_section=fields, seed=60 + seed)
        pairs.append((f"generated {sections}x{fields}", pair.source, pair.target))
    return pairs


@pytest.mark.parametrize(
    "matcher",
    [
        NameMatcher(),
        NamePathMatcher(),
        NameMatcher(combined_similarity=DICE_COMBINED),
        NamePathMatcher(combined_similarity=DICE_COMBINED),
    ],
    ids=["Name", "NamePath", "Name-Dice", "NamePath-Dice"],
)
def test_name_layers_equal_the_oracle(matcher, monkeypatch):
    for label, source, target in _schema_pairs():
        source_paths, target_paths = source.paths(), target.paths()
        context = build_context(source, target)
        got = matcher.compute_batch(source_paths, target_paths, context).values
        monkeypatch.setattr(name_module, "batch_set_similarity", oracle_batch_set_similarity)
        expected = matcher.compute_batch(source_paths, target_paths, context).values
        monkeypatch.undo()
        assert got.tobytes() == expected.tobytes(), label
