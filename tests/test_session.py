"""Tests for the session-based public API (MatchSession)."""

import collections
import hashlib
import json
import struct

import pytest

from repro.combination import CombinationStrategy
from repro.core.strategy import MatchStrategy, default_strategy
from repro.datasets.generators import generate_schema, mutate_schema
from repro.datasets.gold_standard import load_all_tasks
from repro.engine.engine import MatchEngine
from repro.engine.profiles import ForestProfile, PathSetProfile, PathTree
from repro.exceptions import SessionError
from repro.matchers.hybrid import NameMatcher
from repro.model.builder import SchemaBuilder
from repro.repository.repository import Repository
from repro.repository.store import SimilarityStore
from repro.session import MatchSession
from repro.session import session as session_module


def _rows(outcome):
    return [
        (c.source.dotted(), c.target.dotted(), c.similarity)
        for c in outcome.result.correspondences
    ]


def _campaign_schemas():
    schemas = {}
    for task in load_all_tasks():
        schemas[task.source.name] = task.source
        schemas[task.target.name] = task.target
    return [schemas[name] for name in sorted(schemas)]


@pytest.fixture()
def session():
    return MatchSession()


class TestSessionMatch:
    def test_match_equals_free_function(self, session, po1, po2):
        outcome = session.match(po1, po2)
        reference = MatchSession().match(po1, po2)
        assert _rows(outcome) == _rows(reference)
        assert outcome.schema_similarity == reference.schema_similarity

    def test_type_compatibility_is_copied_per_context(self, session, po1, po2):
        first = session.match(po1, po2).context
        second = session.match(po2, po1).context
        assert first.type_compatibility is not second.type_compatibility

    def test_strategy_spec_strings_are_accepted(self, session, po1, po2):
        spec = "NamePath+Leaves(Max,Both,MaxN(1),Average)"
        outcome = session.match(po1, po2, strategy=spec)
        reference = MatchSession().match(po1, po2, MatchStrategy.parse(spec))
        assert _rows(outcome) == _rows(reference)

    def test_default_strategy_is_configurable(self, po1, po2):
        session = MatchSession(strategy="Name(Average,Both,MaxN(1),Average)")
        assert session.default_strategy.matcher_names() == ("Name",)
        session.set_default_strategy("Leaves")
        assert session.default_strategy.matcher_names() == ("Leaves",)
        assert session.match(po1, po2).strategy.matcher_names() == ("Leaves",)

    def test_invalid_strategy_reference_raises(self, session):
        with pytest.raises(SessionError):
            session.resolve_strategy(42)


class TestMatchMany:
    def test_byte_identical_to_per_pair_match(self, session):
        """The acceptance criterion: match_many == per-pair match over the task set."""
        schemas = _campaign_schemas()
        pairs = [
            (source, target)
            for i, source in enumerate(schemas)
            for target in schemas[i + 1 :]
        ]
        batched = session.match_many(pairs)
        for (source, target), outcome in zip(pairs, batched):
            reference = MatchSession().match(source, target)
            assert _rows(outcome) == _rows(reference)
            assert outcome.schema_similarity == reference.schema_similarity

    def test_profiles_built_at_most_once_per_schema(self, monkeypatch):
        """Each schema's path profile is constructed once for the whole batch."""
        built = []
        original = PathSetProfile.__init__

        def counting_init(self, paths, tokenizer, token_memo=None):
            built.append(tuple(paths))
            original(self, paths, tokenizer, token_memo=token_memo)

        monkeypatch.setattr(PathSetProfile, "__init__", counting_init)
        schemas = _campaign_schemas()
        session = MatchSession()
        session.match_many(
            (source, target)
            for i, source in enumerate(schemas)
            for target in schemas[i + 1 :]
        )
        assert len(built) == len(schemas)
        assert len(set(built)) == len(built)
        assert session.cache_info()["profiles"] == len(schemas)

    def test_per_request_strategy_override(self, session, po1, po2):
        spec = "Name(Average,Both,MaxN(1),Average)"
        default_outcome, overridden = session.match_many([(po1, po2), (po1, po2, spec)])
        assert default_outcome.strategy.matcher_names() != ("Name",)
        assert overridden.strategy.matcher_names() == ("Name",)

    def test_malformed_request_raises(self, session, po1, po2):
        with pytest.raises(SessionError):
            session.match_many([(po1, po2, None, "extra")])

    def test_empty_strategy_spec_fails_loudly(self, session, po1, po2):
        from repro.exceptions import StrategyError

        with pytest.raises(StrategyError):
            session.match_many([(po1, po2, "")], strategy="Name")


#: Every cacheable matcher of the library, combined with Dice.
ALL_DICE = (
    "Affix+Digram+Trigram+EditDistance+Soundex+Synonym+DataType+Name+NamePath"
    "+TypeName+Children+Leaves(Average,Both,Thr(0.5),Dice)"
)


def _result_sha256(outcome) -> str:
    """Digest of the serialized MatchResult, sensitive to every float bit."""
    document = {
        "source": outcome.result.source_schema.name,
        "target": outcome.result.target_schema.name,
        "schema_similarity": float(outcome.schema_similarity).hex(),
        "rows": [
            [source, target, float(similarity).hex()]
            for source, target, similarity in outcome.result.as_tuples()
        ],
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _assert_identical(outcome, reference) -> None:
    assert outcome.context.source_schema is reference.context.source_schema
    assert outcome.context.target_schema is reference.context.target_schema
    assert outcome.cube.matcher_names == reference.cube.matcher_names
    assert outcome.cube.source_paths == reference.cube.source_paths
    assert outcome.cube.target_paths == reference.cube.target_paths
    assert outcome.cube.as_array().tobytes() == reference.cube.as_array().tobytes()
    assert outcome.aggregated.values.tobytes() == reference.aggregated.values.tobytes()
    assert _result_sha256(outcome) == _result_sha256(reference)
    assert struct.pack("<d", outcome.schema_similarity) == struct.pack(
        "<d", reference.schema_similarity
    )


def _batch_query():
    return generate_schema("Query", sections=3, fields_per_section=4, seed=1)[0]


def _batch_targets():
    """Twelve targets: generated shapes, a root-name twin, one leaf, foreign names."""
    targets = [
        generate_schema(
            f"T{i}", sections=1 + i % 4, fields_per_section=2 + i % 3,
            variant=i % 2, seed=10 + i,
        )[0]
        for i in range(8)
    ]
    targets.append(mutate_schema(_batch_query(), "Near", seed=4))
    twin = generate_schema("T0", sections=2, fields_per_section=3, seed=99)[0]
    single = SchemaBuilder("Single")
    single.leaf("quantity", "int")
    foreign = SchemaBuilder("Foreign")
    with foreign.inner("Zyqx"):
        foreign.leaves(("Wvkj", "date"), ("Xqpz", "string"))
    return targets + [twin, single.build(), foreign.build()]


class _CountingEngine(MatchEngine):
    """Counts engine executions."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def execute(self, *args, **kwargs):
        self.calls += 1
        return super().execute(*args, **kwargs)


class TestBatchedMatchMany:
    """match_many runs one engine execution per source group, byte-identically."""

    @pytest.mark.parametrize("strategy", [None, ALL_DICE])
    @pytest.mark.parametrize("count", [1, 2, 5, 12])
    def test_equals_per_pair_match(self, strategy, count):
        query, targets = _batch_query(), _batch_targets()[-count:]
        # The first target again, as the same object.
        batch = [(query, target) for target in targets] + [(query, targets[0])]
        engine = _CountingEngine()
        session = MatchSession(engine=engine)
        outcomes = session.match_many(batch, strategy=strategy)
        assert engine.calls == 1
        for (source, target), outcome in zip(batch, outcomes):
            _assert_identical(outcome, MatchSession().match(source, target, strategy))
        info = session.cache_info()
        assert (info["cube_misses"], info["cube_hits"]) == (count, 1)
        assert info["profiles"] == count + 1

    def test_one_target_per_execution_when_the_budget_is_tiny(self, monkeypatch):
        monkeypatch.setattr(session_module, "_BATCH_CELLS", 1)
        query, targets = _batch_query(), _batch_targets()
        engine = _CountingEngine()
        outcomes = MatchSession(engine=engine).match_many(
            [(query, target) for target in targets], strategy=ALL_DICE
        )
        assert engine.calls == len(targets)
        for target, outcome in zip(targets, outcomes):
            _assert_identical(outcome, MatchSession().match(query, target, ALL_DICE))

    def test_groups_by_source_and_matcher_usage(self):
        query, other = _batch_query(), generate_schema("Other", seed=3)[0]
        targets = _batch_targets()[:4]
        batch = [(query, target) for target in targets]
        batch += [(other, target) for target in targets]
        # Same matchers, other combination: shares the default group's cubes.
        batch += [(query, target, "All(Max,Both,MaxN(1),Dice)") for target in targets]
        batch += [(query, target, "Name+Leaves") for target in targets]
        engine = _CountingEngine()
        session = MatchSession(engine=engine)
        outcomes = session.match_many(batch)
        assert engine.calls == 3
        for (source, target, *strategy), outcome in zip(batch, outcomes):
            reference = MatchSession().match(source, target, strategy[0] if strategy else None)
            _assert_identical(outcome, reference)
        info = session.cache_info()
        assert (info["cube_misses"], info["cube_hits"]) == (12, 4)

    def test_pairwise_engine(self):
        query, targets = _batch_query(), _batch_targets()[-4:]
        engine = MatchEngine(use_batch=False)
        outcomes = MatchSession(engine=engine).match_many(
            [(query, target) for target in targets]
        )
        for target, outcome in zip(targets, outcomes):
            _assert_identical(outcome, MatchSession(engine=engine).match(query, target))

    def test_forest_path_tree_equals_the_tree_of_its_paths(self):
        session = MatchSession()
        parts = [session.profile_for(target) for target in _batch_targets()]
        forest = ForestProfile(parts).path_tree()
        reference = PathTree(forest.paths)
        assert vars(forest).keys() == vars(reference).keys()
        for field in ("end", "leaf", "height", "dense"):
            assert getattr(forest, field).tolist() == getattr(reference, field).tolist()
        assert (forest.children, forest.leaves) == (reference.children, reference.leaves)

    def test_store_hits_and_misses_match_per_pair_matching(self, tmp_path):
        query, targets = _batch_query(), _batch_targets()
        batch = [(query, target) for target in targets] + [(query, targets[2])]
        sessions = {}
        for mode in ("batched", "per_pair"):
            store = SimilarityStore(str(tmp_path / f"{mode}.db"))
            primer = MatchSession(store=store)
            for target in targets[::3]:
                primer.match(query, target)
            store.flush()
            sessions[mode] = MatchSession(store=store)
        batched = sessions["batched"].match_many(batch)
        per_pair = [sessions["per_pair"].match(source, target) for source, target in batch]
        for outcome, reference in zip(batched, per_pair):
            _assert_identical(outcome, reference)
        counters = ("cube_hits", "cube_misses", "store_hits", "store_misses")
        infos = {mode: session.cache_info() for mode, session in sessions.items()}
        assert [infos["batched"][key] for key in counters] == [
            infos["per_pair"][key] for key in counters
        ]
        assert infos["batched"]["store_hits"] == len(targets[::3])
        for session in sessions.values():
            session.store.flush()
        assert sessions["batched"].store.cube_count() == len(targets)
        assert sessions["per_pair"].store.cube_count() == len(targets)
        for session in sessions.values():
            session.store.close()


class TestCubeCache:
    def test_repeated_pair_reuses_cube(self, session, po1, po2):
        first = session.match(po1, po2)
        second = session.match(po1, po2, strategy="All(Max,Both,MaxN(1),Average)")
        info = session.cache_info()
        assert info["cube_hits"] == 1 and info["cube_misses"] == 1
        assert second.cube is first.cube  # same matcher usage -> same cube object
        # ... while the combination differs
        assert _rows(second) != _rows(first) or second.schema_similarity != first.schema_similarity

    def test_cached_results_stay_equivalent(self, session, po1, po2):
        spec = "All(Max,Both,MaxN(1),Dice)"
        session.match(po1, po2)  # populate the cube cache
        cached = session.match(po1, po2, strategy=spec)
        fresh = MatchSession().match(po1, po2, MatchStrategy.parse(spec))
        assert _rows(cached) == _rows(fresh)
        assert cached.schema_similarity == fresh.schema_similarity

    def test_instance_matchers_bypass_the_cache(self, session, po1, po2):
        strategy = MatchStrategy(matchers=[NameMatcher()], name="inst")
        session.match(po1, po2, strategy=strategy)
        session.match(po1, po2, strategy=strategy)
        info = session.cache_info()
        assert info["cubes"] == 0 and info["cube_hits"] == 0

    def test_cache_can_be_cleared(self, po1, po2):
        cached = MatchSession()
        cached.match(po1, po2)
        assert cached.cache_info()["cubes"] == 1
        cached.clear_caches()
        assert cached.cache_info()["cubes"] == 0
        assert cached.cache_info()["profiles"] == 0

    def test_cube_eviction_hands_freed_heap_back(self, po1, po2, monkeypatch):
        assert isinstance(session_module._malloc_trim(0), int)
        calls = []
        monkeypatch.setattr(session_module, "_malloc_trim", calls.append)
        session = MatchSession(max_cached_cubes=1)
        session.match(po1, po2)
        session.match(po1, po2, strategy="All(Max,Both,MaxN(1),Average)")
        assert calls == []  # a miss that fits and a hit: nothing evicted
        session.match(po2, po1)  # the reversed pair evicts the first cube
        assert calls == [0]

    def test_a_cube_hit_runs_each_combination_step_once(self, session, po1, po2, monkeypatch):
        # perfbench times Section 6's steps at these three seams.
        session.match(po1, po2)
        calls = collections.Counter()
        for step in ("aggregate", "select", "combine_pairs"):
            def counted(self, *args, _step=step, _original=getattr(CombinationStrategy, step)):
                calls[_step] += 1
                return _original(self, *args)

            monkeypatch.setattr(CombinationStrategy, step, counted)
        session.match(po1, po2, strategy="All(Max,Both,MaxN(1),Average)")
        assert session.cache_info()["cube_hits"] == 1
        assert calls == {"aggregate": 1, "select": 1, "combine_pairs": 1}

    def test_a_cached_cube_cannot_be_changed_through_an_outcome(self, session, po1, po2):
        spec = "Name(Max,Both,Thr(0.5),Average)"
        first = session.match(po1, po2, strategy=spec)
        layer = first.cube.layer("Name")
        for source in po1.paths():
            for target in po2.paths():
                layer.set(source, target, 1.0)
        again = session.match(po1, po2, strategy=spec)
        assert session.cache_info()["cube_hits"] == 1
        assert _rows(again) == _rows(first)
        assert again.schema_similarity == first.schema_similarity
        stack = first.cube.as_array()
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0


class TestIterate:
    def test_feedback_loop_through_session(self, session, po1, po2):
        processor = session.iterate(po1, po2)
        first = processor.run_iteration()
        assert first.result.correspondences
        processor.reject(
            first.result.correspondences[0].source,
            first.result.correspondences[0].target,
        )
        processor.run_iteration()
        result = processor.current_result()
        rejected = (
            first.result.correspondences[0].source,
            first.result.correspondences[0].target,
        )
        assert all((c.source, c.target) != rejected for c in result.correspondences)

    def test_iterate_shares_the_profile_cache(self, session, po1, po2):
        session.match(po1, po2)
        profiles_before = session.cache_info()["profiles"]
        processor = session.iterate(po1, po2)
        processor.run_iteration()
        assert session.cache_info()["profiles"] == profiles_before

    def test_session_feedback_store_is_shared(self, po1, po2):
        from repro.matchers.simple.user_feedback import UserFeedbackStore

        store = UserFeedbackStore()
        session = MatchSession(feedback=store)
        processor = session.iterate(po1, po2)
        assert processor.feedback is store


class TestEvaluate:
    def test_campaign_uses_session_contexts(self, session):
        tasks = load_all_tasks()[:2]
        campaign = session.evaluate(tasks=tasks, include_reuse=False)
        campaign.prepare()
        # the campaign's matcher executions populated the session profile cache
        assert session.cache_info()["profiles"] >= 2
        workbench = campaign.workbench(tasks[0].name)
        assert workbench.context.profile_cache is campaign.workbench(tasks[1].name).context.profile_cache


class TestNamedStrategies:
    def test_in_memory_registry(self, session, po1, po2):
        saved = session.save_strategy("quick", "Name(Average,Both,MaxN(1),Average)")
        assert saved.name == "quick"
        assert session.strategy_names() == ("quick",)
        outcome = session.match(po1, po2, strategy="quick")
        assert outcome.strategy.matcher_names() == ("Name",)

    def test_repository_persistence(self, tmp_path, po1, po2):
        db = str(tmp_path / "repo.db")
        with Repository(db) as repository:
            session = MatchSession(repository=repository)
            session.save_strategy("tuned", "All(Max,Both,Thr(0.6),Dice)")
        # a brand-new session over the same repository sees the strategy
        with Repository(db) as repository:
            fresh = MatchSession(repository=repository)
            assert "tuned" in fresh.strategy_names()
            loaded = fresh.load_strategy("tuned")
            assert loaded.to_spec() == "All(Max,Both,Thr(0.6),Dice)"
            outcome = fresh.match(po1, po2, strategy="tuned")
            assert str(outcome.strategy.combination.combined_similarity) == "Dice"

    def test_missing_strategy_raises(self, session):
        with pytest.raises(SessionError):
            session.load_strategy("absent")

    def test_strategy_names_must_not_look_like_specs(self, session):
        with pytest.raises(SessionError, match="parentheses"):
            session.save_strategy("bad(name)", "Name")

    def test_repository_strategy_roundtrip_keeps_feedback_flag(self):
        repository = Repository(":memory:")
        strategy = default_strategy().replaced(apply_feedback_overrides=False)
        repository.store_strategy("nofeedback", strategy)
        loaded = repository.load_strategy("nofeedback")
        assert loaded.apply_feedback_overrides is False
        assert loaded == strategy

    def test_repository_rejects_unserialisable_strategies_at_store_time(self):
        from repro.combination.aggregation import WeightedAggregation
        from repro.exceptions import RepositoryError

        repository = Repository(":memory:")
        weighted = default_strategy().replaced(
            combination=default_strategy().combination.replaced(
                aggregation=WeightedAggregation({"Name": 1.0})
            )
        )
        with pytest.raises(RepositoryError, match="does not reload"):
            repository.store_strategy("weighted", weighted)
        assert repository.strategy_names() == ()
        # a failed save must not leave the name resolvable in the session either
        session = MatchSession(repository=repository)
        with pytest.raises(RepositoryError):
            session.save_strategy("weighted", weighted)
        with pytest.raises(SessionError):
            session.load_strategy("weighted")

    def test_constructor_accepts_stored_strategy_names(self, po1, po2):
        repository = Repository(":memory:")
        repository.store_strategy("tuned", "All(Max,Both,Thr(0.6),Dice)")
        session = MatchSession(repository=repository, strategy="tuned")
        assert session.default_strategy.to_spec() == "All(Max,Both,Thr(0.6),Dice)"

    def test_cache_bounds_evict_oldest(self, po1, po2):
        session = MatchSession(max_cached_cubes=1, max_cached_profiles=2)
        session.match(po1, po2)
        session.match(po2, po1)  # a second (reversed) pair evicts the first cube
        info = session.cache_info()
        assert info["cubes"] == 1
        assert info["profiles"] <= 2
        with pytest.raises(SessionError):
            MatchSession(max_cached_cubes=0)
