"""The Children/Leaves array kernel against the per-pair recursion it replaced.

Children and Leaves used to score every pair of elements with a Python
recursion: component sets per pair, a ``k x l`` component matrix, Both +
Max1 through ``select_pairs`` (or a singleton shortcut), then Average or Dice.
That code is kept below as the oracle.  The kernel must agree with it bit for
bit -- including pairs whose kept cells have equal names on both sides, which
both add in axis order -- a partial execution must return the same bits
as a full one, and Children and Leaves sharing one execution's level-1 pass
must return the bits each computes alone.
"""

from __future__ import annotations

import collections
import random
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.combination import (
    AVERAGE_COMBINED,
    BOTH,
    DICE_COMBINED,
    MaxN,
    SimilarityCube,
    SimilarityMatrix,
)
from repro.combination.strategy import default_combination
from repro.core.match_operation import build_context, combine_cube
from repro.core.strategy import default_strategy
from repro.datasets.figure1 import load_po1, load_po2
from repro.datasets.generators import generate_pair
from repro.datasets.purchase_orders import load_all_schemas
from repro.engine.engine import MatchEngine
from repro.exceptions import MatcherError
from repro.matchers.base import Matcher, layer_memo
from repro.matchers.hybrid import structural
from repro.matchers.hybrid.name import NameMatcher
from repro.matchers.hybrid.structural import ChildrenMatcher, LeavesMatcher
from repro.model.builder import SchemaBuilder
from repro.model.path import SchemaPath

# -- the oracle: the per-pair recursion ---------------------------------------


def _singleton_selection(source_set, target_set, component_values):
    """Both + Max1 on a ``1 x k`` or ``k x 1`` block: the single best pair."""
    if len(source_set) > 1 and len(target_set) > 1:
        return None
    if len(source_set) == 1:
        row = component_values[0]
        best = min(range(len(target_set)), key=lambda j: (-row[j], target_set[j].names))
        value = float(row[best])
        return [] if value <= 0.0 else [(source_set[0], target_set[best], value)]
    column = component_values[:, 0]
    best = min(range(len(source_set)), key=lambda i: (-column[i], source_set[i].names))
    value = float(column[best])
    return [] if value <= 0.0 else [(source_set[best], target_set[0], value)]


def oracle_matrix(matcher, source_paths, target_paths, context, leaf_matrix):
    """The matrix the recursion computed for ``matcher`` over ``leaf_matrix``."""
    recursive = isinstance(matcher, ChildrenMatcher)
    combined = matcher.combined_similarity
    source_schema, target_schema = context.source_schema, context.target_schema
    leaf_row = {path: i for i, path in enumerate(leaf_matrix.source_paths)}
    leaf_column = {path: j for j, path in enumerate(leaf_matrix.target_paths)}
    leaf_values = leaf_matrix.values

    cache: Dict[Tuple[int, SchemaPath], Tuple[SchemaPath, ...]] = {}

    def components(schema, path):
        key = (id(schema), path)
        if key not in cache:
            cache[key] = (
                schema.child_paths(path) if recursive else schema.leaf_paths_under(path)
            )
        return cache[key]

    memo: Dict[Tuple[SchemaPath, SchemaPath], float] = {}

    def pair_similarity(source, target):
        key = (source, target)
        if key in memo:
            return memo[key]
        source_leaf = source_schema.is_leaf(source.leaf)
        target_leaf = target_schema.is_leaf(target.leaf)
        if source_leaf and target_leaf:
            value = float(leaf_values[leaf_row[source], leaf_column[target]])
        else:
            source_set = (source,) if source_leaf else components(source_schema, source)
            target_set = (target,) if target_leaf else components(target_schema, target)
            if recursive:
                block = np.empty((len(source_set), len(target_set)))
                for i, a in enumerate(source_set):
                    for j, b in enumerate(target_set):
                        block[i, j] = pair_similarity(a, b)
            else:
                block = leaf_values[np.ix_(
                    [leaf_row[path] for path in source_set],
                    [leaf_column[path] for path in target_set],
                )]
            selected = _singleton_selection(source_set, target_set, block)
            if selected is None:
                selected = BOTH.select_pairs(
                    SimilarityMatrix(source_set, target_set, block), MaxN(1)
                )
            value = combined.combine(selected, len(source_set), len(target_set))
        memo[key] = value
        return value

    values = np.empty((len(source_paths), len(target_paths)))
    for i, source in enumerate(source_paths):
        for j, target in enumerate(target_paths):
            values[i, j] = pair_similarity(source, target)
    return SimilarityMatrix(source_paths, target_paths, values)


# -- helpers --------------------------------------------------------------------


def _leaf_matrix(matcher, context):
    return matcher.leaf_matcher.compute_shared(
        context.source_schema.paths(), context.target_schema.paths(), context
    )


def _mismatches(got: np.ndarray, want: np.ndarray, limit: int = 5):
    cells = np.argwhere(got.view(np.uint64) != want.view(np.uint64))[:limit]
    return [(int(i), int(j), float(got[i, j]).hex(), float(want[i, j]).hex()) for i, j in cells]


def assert_kernel_matches_oracle(matchers, source, target):
    context = build_context(source, target)
    sources, targets = source.paths(), target.paths()
    with layer_memo(context):  # one leaf matrix for kernel and oracle
        for matcher in matchers:
            got = matcher.compute_batch(sources, targets, context).values
            want = oracle_matrix(
                matcher, sources, targets, context, _leaf_matrix(matcher, context)
            ).values
            assert got.tobytes() == want.tobytes(), (matcher.name, _mismatches(got, want))


def _mapping(cube: SimilarityCube, context):
    result, _, similarity = combine_cube(cube, default_combination(), context)
    rows = [(c.source.dotted(), c.target.dotted(), float(c.similarity).hex()) for c in result]
    return rows, float(similarity).hex()


MATCHERS = [
    pytest.param(ChildrenMatcher, AVERAGE_COMBINED, id="Children-Average"),
    pytest.param(LeavesMatcher, AVERAGE_COMBINED, id="Leaves-Average"),
    pytest.param(ChildrenMatcher, DICE_COMBINED, id="Children-Dice"),
    pytest.param(LeavesMatcher, DICE_COMBINED, id="Leaves-Dice"),
]

#: Every cold-match size of the benchmark plus its 40 x 4 evolve size.
GENERATED_SIZES = [
    (3, 4), (4, 8), (5, 6), (6, 5), (7, 7), (8, 4),
    (9, 6), (10, 8), (11, 5), (12, 7), (13, 4), (14, 6), (40, 4),
]


def _make(matcher_type, combined, leaf_matcher=None):
    matcher = matcher_type(leaf_matcher=leaf_matcher)
    return matcher if combined is AVERAGE_COMBINED else matcher.with_combined_similarity(combined)


# -- kernel == oracle -------------------------------------------------------------


class TestGeneratedPairs:
    @pytest.mark.parametrize("sections, fields", GENERATED_SIZES)
    def test_every_benchmark_size(self, sections, fields):
        pair = generate_pair(sections, fields, overlap=0.7, seed=sections * 31 + fields)
        matchers = [ChildrenMatcher(), LeavesMatcher()]
        assert_kernel_matches_oracle(matchers, pair.source, pair.target)

    @pytest.mark.parametrize("matcher_type, combined", MATCHERS[2:])
    def test_dice(self, matcher_type, combined):
        for seed, (sections, fields) in enumerate([(3, 4), (8, 4), (14, 6)]):
            pair = generate_pair(sections, fields, overlap=0.7, seed=seed)
            assert_kernel_matches_oracle(
                [_make(matcher_type, combined)], pair.source, pair.target
            )

    def test_mappings_and_schema_similarity(self):
        # The default combination over a cube whose structural layers come
        # from the kernel vs from the oracle: same pairs, same bits.
        pair = generate_pair(12, 7, overlap=0.7, seed=5)
        context = build_context(pair.source, pair.target)
        matchers = [NameMatcher(), ChildrenMatcher(), LeavesMatcher()]
        kernel = MatchEngine().execute(matchers, context)
        oracle_layers = [("Name", kernel.layer("Name"))] + [
            (matcher.name, oracle_matrix(matcher, pair.source.paths(), pair.target.paths(),
                                         context, _leaf_matrix(matcher, context)))
            for matcher in matchers[1:]
        ]
        oracle = SimilarityCube.from_layers(
            pair.source.paths(), pair.target.paths(), oracle_layers
        )
        assert kernel.as_array().tobytes() == oracle.as_array().tobytes()
        assert _mapping(kernel, context) == _mapping(oracle, context)


class TestFigure1:
    @pytest.mark.parametrize("matcher_type, combined", MATCHERS)
    @pytest.mark.parametrize("swap", [False, True], ids=["PO1-PO2", "PO2-PO1"])
    def test_po_pair_both_orientations(self, matcher_type, combined, swap):
        # PO2's shared Address fragment sits under DeliverTo and BillTo.
        source, target = (load_po2(), load_po1()) if swap else (load_po1(), load_po2())
        assert_kernel_matches_oracle([_make(matcher_type, combined)], source, target)

    @pytest.mark.parametrize("matcher_type, combined", MATCHERS[:2])
    def test_non_default_leaf_matcher(self, matcher_type, combined):
        for source, target in [(load_po1(), load_po2()), (load_po2(), load_po1())]:
            matcher = _make(matcher_type, combined, leaf_matcher=NameMatcher())
            assert_kernel_matches_oracle([matcher], source, target)
        pair = generate_pair(9, 6, overlap=0.7, seed=3)
        matcher = _make(matcher_type, combined, leaf_matcher=NameMatcher())
        assert_kernel_matches_oracle([matcher], pair.source, pair.target)


# -- name ties ---------------------------------------------------------------------

NAMES = ("id", "city", "City", "zip")
TYPES = ("varchar(20)", "varchar(40)", "int", "decimal(8,2)", "date", None, "float", "boolean")


def _tie_schema(rng: random.Random, name: str):
    """A small schema with duplicate sibling names, mixed types and a shared fragment."""
    builder = SchemaBuilder(name)
    inner = []

    def fill(depth: int) -> None:
        for _ in range(rng.randint(2, 5)):
            label = rng.choice(NAMES)
            if depth < 2 and rng.random() < 0.4:
                with builder.inner(label) as element:
                    inner.append(element)
                    fill(depth + 1)
            else:
                builder.leaf(label, rng.choice(TYPES))

    with builder.shared("Address"):
        for _ in range(rng.randint(1, 3)):
            builder.leaf(rng.choice(NAMES), rng.choice(TYPES))
    fill(0)
    for parent in rng.sample(inner, min(len(inner), rng.randint(0, 2))):
        builder.attach_shared("Address", parent)
    return builder.build()


class _CountingBoth(type(BOTH)):
    """Both, counting the selections whose kept cells repeat a name pair."""

    calls = 0

    def select_pairs(self, matrix, selection):
        pairs = super().select_pairs(matrix, selection)
        names = [(source.names, target.names) for source, target, _ in pairs]
        if len(set(names)) < len(names):
            type(self).calls += 1
        return pairs


class TestNameTies:
    def test_300_tie_heavy_pairs(self, monkeypatch):
        monkeypatch.setitem(globals(), "BOTH", _CountingBoth())  # the oracle's
        rng = random.Random(1)
        for index in range(300):
            source = _tie_schema(rng, f"S{index}")
            target = _tie_schema(rng, f"T{index}")
            # Dice counts, so only Average depends on the order; Dice runs on a fifth.
            assert_kernel_matches_oracle(
                [_make(matcher_type, combined)
                 for combined in (AVERAGE_COMBINED, DICE_COMBINED)[: 1 + (index % 5 == 0)]
                 for matcher_type in (ChildrenMatcher, LeavesMatcher)],
                source, target,
            )
        # The suite reaches pairs whose kept cells repeat a name pair.
        assert _CountingBoth.calls > 0


class _StubLeafMatcher(Matcher):
    """Leaf similarities read from a fixed ``{(source name, target name): value}``."""

    name = "Stub"

    def __init__(self, table):
        self._table = table

    def compute(self, source_paths, target_paths, context):
        values = [[self._table.get((a.name, b.name), 0.0) for b in target_paths]
                  for a in source_paths]
        return SimilarityMatrix(source_paths, target_paths, np.array(values))


def test_average_sums_like_combine():
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 added left to right and 0.6
    # compensated (the builtin sum from Python 3.12): the cell must follow
    # AverageCombined.combine on the running interpreter.
    left, right = SchemaBuilder("L"), SchemaBuilder("R")
    with left.inner("Group"):
        left.leaves("a", "b", "c")
    with right.inner("Group"):
        right.leaves("x", "y", "z")
    source, target = left.build(), right.build()
    stub = _StubLeafMatcher({("a", "x"): 0.1, ("b", "y"): 0.2, ("c", "z"): 0.3})
    context = build_context(source, target)
    group_s, group_t = source.find_path("L.Group"), target.find_path("R.Group")
    selected = [
        (source.find_path(f"L.Group.{a}"), target.find_path(f"R.Group.{b}"), value)
        for a, b, value in [("a", "x", 0.1), ("b", "y", 0.2), ("c", "z", 0.3)]
    ]
    expected = AVERAGE_COMBINED.combine(selected, 3, 3)
    for matcher in (LeavesMatcher(leaf_matcher=stub), ChildrenMatcher(leaf_matcher=stub)):
        cell = matcher.compute_batch(source.paths(), target.paths(), context).get(group_s, group_t)
        assert cell.hex() == expected.hex()


def test_chunked_blocks_agree(monkeypatch):
    # Batches larger than the cell budget are split by row sets.
    pair = generate_pair(6, 5, overlap=0.7, seed=8)
    context = build_context(pair.source, pair.target)
    matchers = [ChildrenMatcher(), LeavesMatcher()]
    whole = [m.compute_batch(pair.source.paths(), pair.target.paths(), context) for m in matchers]
    monkeypatch.setattr(structural, "_BLOCK_CELLS", 1)
    for matcher, expected in zip(matchers, whole):
        got = matcher.compute_batch(pair.source.paths(), pair.target.paths(), context)
        assert got.values.tobytes() == expected.values.tobytes()


def test_rejects_other_combined_similarity():
    with pytest.raises(MatcherError):
        LeavesMatcher(combined_similarity=object())  # type: ignore[arg-type]


# -- locality: a partial execution returns the cells of a full one ------------


class TestPartialLocality:
    @pytest.mark.parametrize("matcher_type", [ChildrenMatcher, LeavesMatcher])
    def test_random_row_and_column_subsets(self, matcher_type):
        rng = random.Random(7)
        pair = generate_pair(9, 6, overlap=0.7, seed=12)
        context = build_context(pair.source, pair.target)
        matcher = matcher_type()
        sources, targets = pair.source.paths(), pair.target.paths()
        full = MatchEngine().execute([matcher], context).layer(matcher.name).values
        inner_rows = [i for i, path in enumerate(sources) if not pair.source.is_leaf(path.leaf)]
        for _ in range(12):
            rows = sorted(rng.sample(range(len(sources)), rng.randint(1, 8)))
            columns = sorted(rng.sample(range(len(targets)), rng.randint(1, len(targets))))
            # An inner row alone: none of its descendants is requested.
            rows = sorted(set(rows) | {rng.choice(inner_rows)})
            part = MatchEngine().execute_partial(
                [matcher], context,
                source_rows=[sources[i] for i in rows],
                target_columns=[targets[j] for j in columns],
            ).layer(matcher.name).values
            assert part.tobytes() == full[np.ix_(rows, columns)].tobytes()

    def test_single_inner_row_without_descendants(self):
        po1, po2 = load_po1(), load_po2()
        context = build_context(po1, po2)
        ship_to = po1.find_path("PO1.ShipTo")
        row = po1.paths().index(ship_to)
        for matcher in (ChildrenMatcher(), LeavesMatcher()):
            full = matcher.compute_batch(po1.paths(), po2.paths(), context).values
            part = matcher.compute_batch([ship_to], po2.paths()[::-1], context).values
            assert part.tobytes() == full[row:row + 1, ::-1].tobytes()


# -- one level-1 pass per execution ---------------------------------------------
#
# A path of height 1 has only leaf children, so its child set is its leaf set
# and every cell between such paths, or between one and a leaf, is the same
# for Children and Leaves.  One full execution computes those cells once.


def _mixed_height_pairs():
    """PO1/PO2 both ways, the 20 ordered gold pairs and ten tie-heavy pairs.

    Each pair holds leaves, paths of height 1 and taller paths.
    """
    po1, po2 = load_po1(), load_po2()
    gold = list(load_all_schemas().values())
    rng = random.Random(4)
    ties = [(_tie_schema(rng, f"S{index}"), _tie_schema(rng, f"T{index}")) for index in range(10)]
    return [(po1, po2), (po2, po1), *((a, b) for a in gold for b in gold if a is not b), *ties]


@pytest.fixture()
def level_one_passes(monkeypatch):
    """The combined strategies of the level-1 passes run."""
    passes = []
    original = structural._level_one

    def counting(leaf_matrix, source, target, rows, columns, combined):
        passes.append(combined)
        return original(leaf_matrix, source, target, rows, columns, combined)

    monkeypatch.setattr(structural, "_level_one", counting)
    return passes


class TestSharedLevelOne:
    @pytest.mark.parametrize("combined, every", [
        pytest.param(AVERAGE_COMBINED, 1, id="Average"),
        pytest.param(DICE_COMBINED, 2, id="Dice"),  # counts, so every other pair
    ])
    def test_both_matchers_in_one_memo_match_the_oracle(self, combined, every):
        for source, target in _mixed_height_pairs()[::every]:
            assert_kernel_matches_oracle(
                [_make(ChildrenMatcher, combined), _make(LeavesMatcher, combined)], source, target
            )

    @pytest.mark.parametrize("combined", [AVERAGE_COMBINED, DICE_COMBINED], ids=["Average", "Dice"])
    @pytest.mark.parametrize("order", [
        pytest.param((ChildrenMatcher, LeavesMatcher), id="Children-first"),
        pytest.param((LeavesMatcher, ChildrenMatcher), id="Leaves-first"),
    ])
    def test_shared_layers_equal_layers_computed_alone(self, combined, order):
        # Whichever matcher runs first computes the pass the other reads.
        for source, target in _mixed_height_pairs():
            matchers = [_make(matcher_type, combined) for matcher_type in order]
            shared = MatchEngine().execute(matchers, build_context(source, target))
            for matcher in matchers:
                alone = matcher.compute_batch(
                    source.paths(), target.paths(), build_context(source, target)
                )
                assert shared.layer(matcher.name).values.tobytes() == alone.values.tobytes()

    def test_one_default_execution_scores_each_level_one_cell_once(self, monkeypatch):
        scored = collections.Counter()
        original = structural._set_similarities

        def recording(values, rows, columns, source, target, *rest):
            scored.update(
                (row, column)
                for row in rows[source.height[rows] == 1].tolist()
                for column in columns[target.height[columns] == 1].tolist()
            )
            return original(values, rows, columns, source, target, *rest)

        monkeypatch.setattr(structural, "_set_similarities", recording)
        po1, po2 = load_po1(), load_po2()
        cube = MatchEngine().execute(
            default_strategy().resolve_matchers(None), build_context(po1, po2)
        )
        assert {"Children", "Leaves"} <= set(cube.matcher_names)
        assert scored and set(scored.values()) == {1}

    def test_one_default_execution_runs_one_pass(self, level_one_passes):
        po1, po2 = load_po1(), load_po2()
        MatchEngine().execute(default_strategy().resolve_matchers(None), build_context(po1, po2))
        assert level_one_passes == [AVERAGE_COMBINED]

    @pytest.mark.parametrize("matchers", [
        pytest.param(lambda: [ChildrenMatcher(), _make(LeavesMatcher, DICE_COMBINED)],
                     id="Children-Average+Leaves-Dice"),
        pytest.param(lambda: [ChildrenMatcher(), LeavesMatcher(leaf_matcher=NameMatcher())],
                     id="Children+Leaves-Name-leaf"),
    ])
    def test_other_configurations_run_their_own_pass(self, level_one_passes, matchers):
        po1, po2 = load_po1(), load_po2()
        MatchEngine().execute(matchers(), build_context(po1, po2))
        assert len(level_one_passes) == 2
        assert_kernel_matches_oracle(matchers(), po1, po2)

    def test_partial_and_pairwise_executions_share_nothing(self, level_one_passes):
        # A partial execution evaluates Children's descendants too, and the
        # pairwise reference computes a fresh leaf matrix per matcher.
        po1, po2 = load_po1(), load_po2()
        matchers = [ChildrenMatcher(), LeavesMatcher()]
        context = build_context(po1, po2)
        MatchEngine().execute_partial(matchers, context, source_rows=po1.paths()[:2])
        MatchEngine(use_batch=False).execute(matchers, context)
        assert len(level_one_passes) == 4
