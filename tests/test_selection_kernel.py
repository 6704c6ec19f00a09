"""The array selection kernel against the per-row selection it replaced.

Direction and selection used to run one Python sort per row and per column
of the aggregated matrix.  That code is kept below as the oracle: a ranked
candidate list per element, the list-based strategy rules, and a set of
selected triples per direction.  The kernel must agree with it exactly --
the same triples in the same order, the same float bits and the same
combined similarity.  Pairs whose name tuples are equal on both sides come
in axis order (source position, then target position), never in the order
element ids would give them.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Set

import numpy as np
import pytest

from repro.combination import (
    AVERAGE_COMBINED,
    BOTH,
    DICE_COMBINED,
    LARGE_SMALL,
    SMALL_LARGE,
    Both,
    CombinationStrategy,
    CombinedSelection,
    LargeSmall,
    MaxDelta,
    MaxN,
    SelectedPair,
    SelectionStrategy,
    SimilarityMatrix,
    SmallLarge,
    Threshold,
)
from repro.combination.stable_marriage import StableMarriageDirection
from repro.datasets.figure1 import load_po1, load_po2
from repro.datasets.generators import generate_pair
from repro.model import element
from repro.model.builder import SchemaBuilder
from repro.model.element import SchemaElement
from repro.model.mapping import MatchResult
from repro.model.path import SchemaPath
from repro.model.schema import Schema
from repro.session import MatchSession

# -- the oracle: per-row ranking and list-based rules -------------------------


def _positive(ranked):
    return [(path, sim) for path, sim in ranked if sim > 0.0]


def oracle_select(selection: SelectionStrategy, ranked):
    """The list-based rule of ``selection`` over one descending-ranked list."""
    if isinstance(selection, MaxN):
        return _positive(ranked)[: selection.n]
    if isinstance(selection, MaxDelta):
        positive = _positive(ranked)
        if not positive:
            return []
        best = positive[0][1]
        tolerance = best * selection.delta if selection.relative else selection.delta
        floor = best - tolerance
        return [(path, sim) for path, sim in positive if sim >= floor]
    if isinstance(selection, Threshold):
        return [(path, sim) for path, sim in _positive(ranked) if sim >= selection.threshold]
    if isinstance(selection, CombinedSelection):
        accepted = [
            {path for path, _ in oracle_select(strategy, ranked)}
            for strategy in selection.strategies
        ]
        common = set.intersection(*accepted)
        return [(path, sim) for path, sim in _positive(ranked) if path in common]
    raise TypeError(f"no oracle rule for {selection!r}")


def _oracle_source_to_target(matrix: SimilarityMatrix, selection) -> Set[SelectedPair]:
    pairs: Set[SelectedPair] = set()
    for source in matrix.source_paths:
        for target, similarity in oracle_select(selection, matrix.ranked_targets(source)):
            pairs.add((source, target, similarity))
    return pairs


def _oracle_target_to_source(matrix: SimilarityMatrix, selection) -> Set[SelectedPair]:
    pairs: Set[SelectedPair] = set()
    for target in matrix.target_paths:
        for source, similarity in oracle_select(selection, matrix.ranked_sources(target)):
            pairs.add((source, target, similarity))
    return pairs


def oracle_select_pairs(direction, matrix: SimilarityMatrix, selection) -> List[SelectedPair]:
    """``direction.select_pairs(matrix, selection)`` the per-row way."""
    rows, columns = matrix.shape
    if isinstance(direction, Both):
        pairs = _oracle_source_to_target(matrix, selection) & _oracle_target_to_source(
            matrix, selection
        )
    elif isinstance(direction, LargeSmall):
        pairs = (
            _oracle_target_to_source(matrix, selection)
            if rows >= columns
            else _oracle_source_to_target(matrix, selection)
        )
    elif isinstance(direction, SmallLarge):
        pairs = (
            _oracle_source_to_target(matrix, selection)
            if rows >= columns
            else _oracle_target_to_source(matrix, selection)
        )
    else:
        raise TypeError(f"no oracle for {direction!r}")
    source_position = {path: i for i, path in enumerate(matrix.source_paths)}
    target_position = {path: j for j, path in enumerate(matrix.target_paths)}
    return sorted(
        pairs,
        key=lambda p: (
            p[0].names, p[1].names, source_position[p[0]], target_position[p[1]]
        ),
    )


# -- comparison helpers ----------------------------------------------------------


def _bits(pairs: Sequence[SelectedPair]) -> list:
    return [(source, target, similarity.hex()) for source, target, similarity in pairs]


def _assert_same_selection(direction, matrix, selection) -> List[SelectedPair]:
    expected = oracle_select_pairs(direction, matrix, selection)
    actual = direction.select_pairs(matrix, selection)
    assert actual == expected, f"{direction} / {selection} on {matrix.values!r}"
    assert _bits(actual) == _bits(expected)
    rows, columns = matrix.shape
    for combined in (AVERAGE_COMBINED, DICE_COMBINED):
        assert combined.combine(actual, rows, columns).hex() == combined.combine(
            expected, rows, columns
        ).hex()
    return actual


# -- seeded tie-heavy matrices ----------------------------------------------------

#: Cell values: exact ties, a tie broken in the last bit, and values on the
#: Thr(0.5) / Delta floors.
VALUES = (0.0, 0.25, 0.5, 0.5 + 1e-12, 0.51, 0.98, 1.0)

SELECTIONS = (
    MaxN(1),
    MaxN(2),
    MaxN(3),
    MaxDelta(0.02),
    MaxDelta(0.5),
    MaxDelta(0.01, relative=False),
    MaxDelta(0.49, relative=False),
    Threshold(0.5),
    Threshold(0.51),
    Threshold(0.5) + MaxDelta(0.02),
    Threshold(0.5) + MaxN(1),
    MaxN(2) + MaxDelta(0.02, relative=False),
    Threshold(0.5) + MaxN(2) + MaxDelta(0.5),
)

DIRECTIONS = (LARGE_SMALL, SMALL_LARGE, BOTH)

#: Few distinct names per axis, so equal name tuples are common.
NAMES = ("A", "B", "C")


def _paths(rng: random.Random, root: str, count: int) -> List[SchemaPath]:
    parent = SchemaElement(root)
    return [SchemaPath([parent, SchemaElement(rng.choice(NAMES))]) for _ in range(count)]


def _shape(rng: random.Random, case: int) -> tuple:
    if case % 4 == 0:
        return 1, rng.randint(1, 8)
    if case % 4 == 1:
        return rng.randint(1, 8), 1
    return rng.randint(1, 8), rng.randint(1, 8)


def _random_matrix(rng: random.Random, case: int) -> SimilarityMatrix:
    rows, columns = _shape(rng, case)
    values = np.array(
        [[rng.choice(VALUES) for _ in range(columns)] for _ in range(rows)], dtype=float
    )
    if rng.random() < 0.3:
        values[rng.randrange(rows), :] = 0.0
    if rng.random() < 0.3:
        values[:, rng.randrange(columns)] = 0.0
    return SimilarityMatrix(_paths(rng, "S", rows), _paths(rng, "T", columns), values)


@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_the_per_row_oracle_on_tie_heavy_matrices(seed):
    rng = random.Random(seed)
    for case in range(40):
        matrix = _random_matrix(rng, case)
        for direction in DIRECTIONS:
            for selection in SELECTIONS:
                _assert_same_selection(direction, matrix, selection)


def test_equal_name_pairs_keep_the_oracle_order():
    """Four cells share one name-tuple pair; they come in axis order."""
    source_root, target_root = SchemaElement("S"), SchemaElement("T")
    sources = [SchemaPath([source_root, SchemaElement("Comment")]) for _ in range(2)]
    targets = [SchemaPath([target_root, SchemaElement("Note")]) for _ in range(2)]
    matrix = SimilarityMatrix(sources, targets, np.full((2, 2), 0.75))
    for direction in DIRECTIONS:
        for selection in (Threshold(0.5), MaxN(2), MaxDelta(0.02)):
            selected = _assert_same_selection(direction, matrix, selection)
            assert [(s, t) for s, t, _ in selected] == [
                (sources[0], targets[0]), (sources[0], targets[1]),
                (sources[1], targets[0]), (sources[1], targets[1]),
            ]


def test_all_zero_matrix_selects_nothing():
    rng = random.Random(0)
    matrix = SimilarityMatrix(_paths(rng, "S", 3), _paths(rng, "T", 4))
    for direction in DIRECTIONS:
        for selection in SELECTIONS:
            assert _assert_same_selection(direction, matrix, selection) == []


def _address_schema(name: str, city_types) -> Schema:
    builder = SchemaBuilder(name)
    with builder.inner("Address"):
        for city_type in city_types:
            builder.leaf("City", city_type)
        builder.leaf("Zip", "string")
    return builder.build()


def test_equal_name_pairs_do_not_depend_on_element_ids():
    """Element ids come from a process-wide counter; the mapping must not see them."""
    results = set()
    for offset in range(60):
        for _ in range(offset):
            element._next_element_id()
        source = _address_schema("S", ("string", "integer"))
        target = _address_schema("T", ("string", "decimal"))
        result = MatchSession().match(source, target).result
        results.add(tuple((s, t, similarity.hex()) for s, t, similarity in result.as_tuples()))
        cities = [(c.source.source_type, c.target.source_type)
                  for c in result if c.source.name == "City"]
        assert cities == [("string", "string"), ("integer", "decimal")]
    assert len(results) == 1


@pytest.mark.parametrize("selection", SELECTIONS, ids=str)
def test_select_adapter_matches_the_list_rules(selection):
    rng = random.Random(str(selection))
    paths = _paths(rng, "T", 6)
    for _ in range(50):
        ranked = sorted(
            ((path, rng.choice(VALUES)) for path in rng.sample(paths, rng.randint(0, 6))),
            key=lambda candidate: (-candidate[1], candidate[0].names),
        )
        assert selection.select(ranked) == oracle_select(selection, ranked)


# -- generated pairs at the benchmark's sizes -----------------------------------------

#: The benchmark's request-mix strategies.
WARM_SPECS = (
    "All(Average,Both,Thr(0.5)+Delta(0.02),Average)",
    "All(Max,Both,Thr(0.5)+MaxN(1),Average)",
    "All(Average,Both,Thr(0.6),Dice)",
)

#: (sections, fields per section): the cold and warm workload sizes, 15-108
#: paths per side.
PAIR_SIZES = ((3, 4), (5, 6), (6, 8), (8, 5), (9, 7), (11, 6), (12, 8), (13, 7), (14, 6))


def _oracle_cells(direction, matrix: SimilarityMatrix, selection) -> tuple:
    """The oracle's pairs as the cell kernel's index arrays, in the oracle's order."""
    pairs = oracle_select_pairs(direction, matrix, selection)
    row_of = {path: i for i, path in enumerate(matrix.source_paths)}
    column_of = {path: j for j, path in enumerate(matrix.target_paths)}
    return (
        np.array([row_of[source] for source, _, _ in pairs], dtype=np.intp),
        np.array([column_of[target] for _, target, _ in pairs], dtype=np.intp),
    )


def _oracle_directions(monkeypatch) -> None:
    """Route every direction strategy's cell kernel, which ``combine_cube`` reaches, to the oracle."""
    for direction_class in (LargeSmall, SmallLarge, Both):
        monkeypatch.setattr(direction_class, "select_cells", _oracle_cells)


def _outcomes(source, target) -> list:
    session = MatchSession()
    return [session.match(source, target, strategy=spec) for spec in WARM_SPECS]


def _fingerprint(outcome) -> tuple:
    return (
        outcome.cube.as_array().tobytes(),
        outcome.aggregated.values.tobytes(),
        [(s, t, float(sim).hex()) for s, t, sim in outcome.result.as_tuples()],
        outcome.schema_similarity.hex(),
    )


@pytest.mark.parametrize("sections,fields", PAIR_SIZES)
def test_generated_pairs_match_the_oracle_under_the_warm_specs(sections, fields, monkeypatch):
    pair = generate_pair(sections, fields, overlap=0.7, seed=100 + sections)
    kernel = _outcomes(pair.source, pair.target)
    for outcome in kernel:
        combination = outcome.strategy.combination
        _assert_same_selection(combination.direction, outcome.aggregated, combination.selection)
    _oracle_directions(monkeypatch)
    oracle = _outcomes(pair.source, pair.target)
    assert [_fingerprint(o) for o in kernel] == [_fingerprint(o) for o in oracle]


def test_figure1_pair_matches_the_oracle(monkeypatch):
    kernel = _outcomes(load_po1(), load_po2())
    _oracle_directions(monkeypatch)
    oracle = _outcomes(load_po1(), load_po2())
    assert [_fingerprint(o) for o in kernel] == [_fingerprint(o) for o in oracle]


def test_stable_marriage_through_the_session_keeps_its_rows():
    """StableMarriage through ``combine_cube``: its stable pairs, mapped to cells, give these rows."""
    session = MatchSession()
    strategy = session.default_strategy.replaced(
        combination=CombinationStrategy(direction=StableMarriageDirection())
    )
    outcome = session.match(load_po1(), load_po2(), strategy=strategy)
    rows = [(s, t, similarity.hex()) for s, t, similarity in outcome.result.as_tuples()]
    assert rows == [
        ("PO1.Customer.custCity", "PO2.PO2.BillTo.Address.City", "0x1.468acf13579bep-1"),
        ("PO1.Customer.custStreet", "PO2.PO2.BillTo.Address.Street", "0x1.468acf13579bep-1"),
        ("PO1.Customer.custZip", "PO2.PO2.BillTo.Address.Zip", "0x1.480d67b409ae6p-1"),
        ("PO1.ShipTo", "PO2.PO2.DeliverTo", "0x1.42b4cf23fc7d3p-1"),
        ("PO1.ShipTo.shipToCity", "PO2.PO2.DeliverTo.Address.City", "0x1.3851eb851eb85p-1"),
        ("PO1.ShipTo.shipToStreet", "PO2.PO2.DeliverTo.Address.Street", "0x1.3851eb851eb85p-1"),
        ("PO1.ShipTo.shipToZip", "PO2.PO2.DeliverTo.Address.Zip", "0x1.3cc1e098ead66p-1"),
    ]
    assert outcome.schema_similarity.hex() == "0x1.867a023269553p-2"
    assert [c.pair for c in outcome.result] == [
        c.pair for c in MatchResult(outcome.result.source_schema, outcome.result.target_schema,
                                    outcome.result.correspondences)
    ]
