"""Differential harness: serial vs process-pool execution.

VOODB-style methodology: a parallel execution backend is only trustworthy
when validated against a serial reference.  These tests generate schema
pairs (fixed sweep + hypothesis-driven shapes), match each pair through

* the **serial** reference (a plain :class:`MatchSession`) and
* the **process pool** (``match_many(..., process_pool=...)`` over spawned
  workers),

and assert *byte identity*: sha256-identical serialized ``MatchResult``s and
bit-identical cube / aggregated-matrix floats across both backends.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.combination.aggregation import WeightedAggregation
from repro.combination.stable_marriage import StableMarriageDirection
from repro.core.strategy import MatchStrategy
from repro.datasets.figure1 import load_po1, load_po2
from repro.datasets.generators import generate_pair
from repro.exceptions import ServiceError, SessionError
from repro.matchers.registry import DEFAULT_LIBRARY
from repro.matchers.simple.user_feedback import UserFeedbackStore
from repro.model.builder import SchemaBuilder
from repro.parallel import ProcessSessionPool
from repro.session import MatchSession

#: Cacheable strategies exercising different combination tuples.
SPECS = (
    "All(Average,Both,Thr(0.5)+Delta(0.02),Average)",
    "All(Max,Both,Thr(0.5)+MaxN(1),Average)",
    "Name+Leaves(Average,Both,Thr(0.6),Dice)",
)


@pytest.fixture(scope="module")
def process_pool():
    """One spawned two-worker pool shared by the whole module (spawns are slow)."""
    pool = ProcessSessionPool(size=2)
    yield pool
    pool.close()


def result_sha256(outcome) -> str:
    """The digest of a canonical serialization of the outcome's MatchResult.

    Similarities are serialized with ``float.hex`` so the digest is sensitive
    to every bit of every float -- "equal" here means *byte-identical*, not
    approximately equal.
    """
    document = {
        "source": outcome.result.source_schema.name,
        "target": outcome.result.target_schema.name,
        "strategy": outcome.strategy.to_spec(),
        "schema_similarity": float(outcome.schema_similarity).hex(),
        "rows": [
            [source, target, float(similarity).hex()]
            for source, target, similarity in outcome.result.as_tuples()
        ],
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def assert_byte_identical(reference, candidate, label: str) -> None:
    """Assert two outcomes agree bit-for-bit (mapping, cube, aggregation)."""
    assert result_sha256(candidate) == result_sha256(reference), (
        f"{label}: serialized MatchResult diverged from the serial reference"
    )
    assert candidate.cube.matcher_names == reference.cube.matcher_names
    assert candidate.cube.as_array().tobytes() == reference.cube.as_array().tobytes(), (
        f"{label}: similarity-cube floats diverged"
    )
    assert (
        candidate.aggregated.values.tobytes() == reference.aggregated.values.tobytes()
    ), f"{label}: aggregated-matrix floats diverged"
    assert struct.pack("<d", candidate.schema_similarity) == struct.pack(
        "<d", reference.schema_similarity
    ), f"{label}: schema similarity diverged"


def _pair_sweep():
    """104 deterministic generated pairs of varying shape, overlap and seed."""
    pairs = []
    for seed in range(13):
        for sections in (2, 3):
            for fields in (2, 3):
                for overlap in (0.4, 0.8):
                    pairs.append(
                        generate_pair(
                            sections=sections,
                            fields_per_section=fields,
                            overlap=overlap,
                            seed=seed * 101 + sections * 7 + fields,
                            source_name=f"A{seed}s{sections}f{fields}o{int(overlap * 10)}",
                            target_name=f"B{seed}s{sections}f{fields}o{int(overlap * 10)}",
                        )
                    )
    return pairs


def _address_schema(name: str, city_types):
    """``name``.Address with one ``City`` leaf per type, then ``Zip``."""
    builder = SchemaBuilder(name)
    with builder.inner("Address"):
        for city_type in city_types:
            builder.leaf("City", city_type)
        builder.leaf("Zip", "string")
    return builder.build()


class TestHundredPairSweep:
    """The acceptance sweep: >= 100 generated pairs, two backends, one truth."""

    def test_serial_and_process_agree_on_104_pairs(self, process_pool):
        pairs = _pair_sweep()
        assert len(pairs) >= 100
        requests = [
            (pair.source, pair.target, SPECS[index % len(SPECS)])
            for index, pair in enumerate(pairs)
        ]
        # Two kept pairs with equal dotted names (S.Address.City twice): the
        # wire must tell them apart.
        requests.append(
            (
                _address_schema("S", ("string", "integer")),
                _address_schema("T", ("string", "decimal")),
                SPECS[0],
            )
        )
        serial = MatchSession().match_many(requests)
        processed = MatchSession().match_many(requests, process_pool=process_pool)
        assert len(serial) == len(processed) == len(requests)
        for reference, process_outcome in zip(serial, processed):
            assert_byte_identical(reference, process_outcome, "process pool")


class TestGeneratedShapes:
    """Hypothesis-driven shapes: any generator output must stay byte-identical."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        sections=st.integers(min_value=1, max_value=4),
        fields=st.integers(min_value=1, max_value=4),
        overlap=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
        seed=st.integers(min_value=0, max_value=2**20),
        spec=st.sampled_from(SPECS),
    )
    def test_process_pool_matches_serial(
        self, process_pool, sections, fields, overlap, seed, spec
    ):
        pair = generate_pair(
            sections=sections, fields_per_section=fields, overlap=overlap, seed=seed
        )
        reference = MatchSession().match(pair.source, pair.target, strategy=spec)
        remote = process_pool.match(pair.source, pair.target, strategy=spec)
        assert_byte_identical(reference, remote, "process pool")


class TestSessionFanOut:
    """The session-level fan-out contract around the raw pool."""

    def test_remote_cubes_fold_back_into_the_session_cache(self, process_pool):
        pair = generate_pair(sections=2, fields_per_section=2, seed=99)
        session = MatchSession()
        fanned = session.match_many(
            [(pair.source, pair.target)], process_pool=process_pool
        )[0]
        info = session.cache_info()
        assert (info["cubes"], info["cube_misses"]) == (1, 1)
        # The folded-back cube now serves the serial path as a cache hit,
        # and the hit is byte-identical to the remote execution.
        local = session.match(pair.source, pair.target)
        assert session.cache_info()["cube_hits"] == 1
        assert_byte_identical(fanned, local, "cache refold")

    def test_non_wireable_strategies_run_locally(self, process_pool):
        # UserFeedback depends on parent-side state, so it must not fan out --
        # but the batch as a whole still succeeds, byte-identically.
        pair = generate_pair(sections=2, fields_per_section=2, seed=7)
        spec = "Name+UserFeedback(Average,Both,Thr(0.5),Average)"
        session = MatchSession()
        fanned = session.match_many(
            [(pair.source, pair.target, spec)], process_pool=process_pool
        )[0]
        reference = MatchSession().match(pair.source, pair.target, strategy=spec)
        assert_byte_identical(reference, fanned, "local fallback")

    def test_strategies_without_a_spec_form_run_locally(self):
        # A weighted aggregation or a stable-marriage direction serialises to
        # a spec no worker can parse, and a weighted aggregation labelled
        # "Average" to one that parses into plain Average: those requests
        # must run here, and the rest of the batch still fans out, all
        # byte-identical to match().
        po1, po2 = load_po1(), load_po2()
        spec = "Name+Leaves(Average,Both,Thr(0.5),Average)"
        base = MatchStrategy.parse(spec)
        weights = {"Name": 2.0, "Leaves": 1.0}
        strategies = [
            base.replaced(combination=dataclasses.replace(
                base.combination, aggregation=WeightedAggregation(weights),
            )),
            base.replaced(combination=dataclasses.replace(
                base.combination,
                aggregation=WeightedAggregation(weights, label="Average"),
            )),
            base.replaced(combination=dataclasses.replace(
                base.combination, direction=StableMarriageDirection()
            )),
            spec,
            base.replaced(matchers=[DEFAULT_LIBRARY.create("Name"), "Leaves"]),
        ]
        fanned = MatchSession().match_many(
            [(po1, po2, strategy) for strategy in strategies], processes=1
        )
        for strategy, outcome in zip(strategies, fanned):
            reference = MatchSession().match(po1, po2, strategy=strategy)
            assert_byte_identical(reference, outcome, f"fan-out of {strategy}")

    def test_mismatched_configuration_is_refused(self, process_pool):
        from repro.linguistic.tokenizer import NameTokenizer

        session = MatchSession(
            tokenizer=NameTokenizer(expand_abbreviations=False)
        )
        pair = generate_pair(sections=2, fields_per_section=2, seed=3)
        with pytest.raises(SessionError):
            session.match_many(
                [(pair.source, pair.target)], process_pool=process_pool
            )

    def test_a_batch_that_sends_nothing_spawns_no_workers(self, monkeypatch):
        built = []
        original = ProcessSessionPool.__init__

        def counting(pool, *args, **kwargs):
            built.append(pool)
            original(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessSessionPool, "__init__", counting)
        po1, po2 = load_po1(), load_po2()
        requests = [(po1, po2), (po2, po1)]
        # A feedback store keeps every request local; so do cached cubes.
        feedback, cached = MatchSession(feedback=UserFeedbackStore()), MatchSession()
        cached.match_many(requests)
        batches = [session.match_many(requests, processes=2) for session in (feedback, cached)]
        assert built == []
        for outcomes in batches:
            for (source, target), outcome in zip(requests, outcomes):
                assert_byte_identical(MatchSession().match(source, target), outcome, "local batch")
        with pytest.raises(ServiceError):
            cached.match_many(requests, processes=0)
        # One request to send builds the one pool.
        pair = generate_pair(sections=2, fields_per_section=2, seed=5)
        cached.match_many([*requests, (pair.source, pair.target)], processes=2)
        assert len(built) == 1

    def test_processes_and_pool_are_mutually_exclusive(self, process_pool):
        pair = generate_pair(sections=2, fields_per_section=2, seed=4)
        with pytest.raises(SessionError):
            MatchSession().match_many(
                [(pair.source, pair.target)],
                processes=1,
                process_pool=process_pool,
            )
