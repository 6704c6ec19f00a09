"""Incremental re-matching: digests, deltas, splice byte-identity, staleness fixes.

The hard contract under test: ``MatchSession.rematch`` must be *byte-identical*
to a from-scratch ``match`` of the evolved pair, for every delta -- splicing is
an execution shortcut, never an approximation.  Identity is asserted through a
sha256 of a canonical serialization with ``float.hex`` similarities plus raw
``tobytes()`` comparison of the cube, so "equal" means every bit of every float.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.figure1 import PO1_DDL, PO2_XSD, load_po1, load_po2
from repro.datasets.generators import generate_schema, mutate_schema
from repro.model.digests import (
    path_signatures,
    schema_delta,
    schema_digests,
)
from repro.model.element import ElementKind, LinkKind
from repro.model.schema import Schema
from repro.exceptions import SessionError
from repro.repository.store import _schema_fingerprint
from repro.session import MatchSession


def result_sha256(outcome) -> str:
    """The digest of a canonical serialization of the outcome's MatchResult."""
    document = {
        "strategy": outcome.strategy.to_spec(),
        "schema_similarity": float(outcome.schema_similarity).hex(),
        "rows": [
            [source, target, float(similarity).hex()]
            for source, target, similarity in outcome.result.as_tuples()
        ],
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def assert_outcomes_identical(spliced, cold, label: str) -> None:
    assert result_sha256(spliced) == result_sha256(cold), (
        f"{label}: spliced MatchResult diverged from the cold reference"
    )
    assert spliced.cube.matcher_names == cold.cube.matcher_names
    assert spliced.cube.as_array().tobytes() == cold.cube.as_array().tobytes(), (
        f"{label}: similarity-cube floats diverged"
    )
    assert spliced.aggregated.values.tobytes() == cold.aggregated.values.tobytes()


def rebuild_schema(schema, name=None, edit=None):
    """A deep copy of a schema's containment tree, optionally with one edit.

    ``edit`` is ``None`` or a dict: ``{"op": "rename"|"retype", "at": dotted,
    "value": str}``, ``{"op": "remove", "at": dotted}``, or ``{"op": "add",
    "at": parent-name-or-None, "value": leaf-name}``.  Dotted names are
    root-exclusive, matching ``SchemaPath.dotted(skip_root=True)``.
    """
    copy = Schema(name or schema.name)
    mapping = {schema.root: copy.root}

    def visit(element, parent, prefix):
        for child in schema.children(element):
            dotted = f"{prefix}.{child.name}" if prefix else child.name
            child_name, child_type = child.name, child.source_type
            if edit is not None and edit.get("at") == dotted:
                if edit["op"] == "remove":
                    continue
                if edit["op"] == "rename":
                    child_name = edit["value"]
                elif edit["op"] == "retype":
                    child_type = edit["value"]
            made = copy.add_element(
                child_name,
                parent=parent,
                kind=child.kind,
                source_type=child_type,
                documentation=child.documentation,
            )
            mapping[child] = made
            visit(child, made, dotted)

    visit(schema.root, None, "")
    for link in schema.references():
        if link.source in mapping and link.target in mapping:
            copy.add_link(mapping[link.source], mapping[link.target], kind=link.kind)
    if edit is not None and edit["op"] == "add":
        parent = copy.find_element(edit["at"]) if edit["at"] else None
        copy.add_element(
            edit["value"], parent=parent, kind=ElementKind.COLUMN,
            source_type="VARCHAR(24)",
        )
    return copy


class TestSchemaDigests:
    def test_signatures_are_content_determined(self):
        first, _ = generate_schema("Sig", sections=3, fields_per_section=3, seed=3)
        second, _ = generate_schema("Sig", sections=3, fields_per_section=3, seed=3)
        assert path_signatures(first) == path_signatures(second)
        assert len(path_signatures(first)) == len(first.paths())

    def test_schema_name_does_not_affect_signatures(self):
        """Pins the root-exclusion invariant: re-uploading an identical schema
        under a new name must keep every row signature (and splice fully)."""
        schema, _ = generate_schema("NameA", sections=2, fields_per_section=3, seed=1)
        renamed = rebuild_schema(schema, name="NameB")
        assert path_signatures(schema) == path_signatures(renamed)

    def test_leaf_rename_changes_exactly_the_affected_signatures(self):
        schema = load_po1()
        leaf = schema.find_path("PO1.ShipTo.poNo")
        edited = rebuild_schema(
            schema, edit={"op": "rename", "at": leaf.dotted(skip_root=True),
                          "value": "purchaseOrderNo"}
        )
        before = path_signatures(schema)
        after = path_signatures(edited)
        assert len(before) == len(after)
        changed = {
            path.dotted(skip_root=True)
            for path, old_sig, new_sig in zip(schema.paths(), before, after)
            if old_sig != new_sig
        }
        # The renamed leaf's own row changes (chain digest), and its ancestor
        # section's subtree digest changes; every other row stays reusable.
        assert changed == {"ShipTo", "ShipTo.poNo"}

    def test_inner_rename_invalidates_the_whole_chain_below(self):
        schema = load_po1()
        edited = rebuild_schema(
            schema, edit={"op": "rename", "at": "ShipTo", "value": "Destination"}
        )
        delta = schema_delta(schema, edited)
        recomputed = {edited.paths()[index].dotted(skip_root=True)
                      for index in delta.changed}
        assert "Destination" in recomputed
        assert any(name.startswith("Destination.") for name in recomputed)


class TestSchemaDelta:
    def test_identical_versions_reuse_everything(self):
        schema, _ = generate_schema("Same", sections=2, fields_per_section=2, seed=2)
        delta = schema_delta(schema, rebuild_schema(schema))
        assert delta.recomputed == 0
        assert delta.reused == len(schema.paths())
        assert delta.added == () and delta.removed == ()
        assert not delta.full

    def test_single_rename_is_classified_as_add_plus_remove(self):
        schema = load_po1()
        edited = rebuild_schema(
            schema, name="PO1v2",
            edit={"op": "rename", "at": "ShipTo.poNo", "value": "purchaseOrderNo"},
        )
        delta = schema_delta(schema, edited)
        assert delta.added == ("ShipTo.purchaseOrderNo",)
        assert delta.removed == ("ShipTo.poNo",)
        assert delta.reused == len(schema.paths()) - 2  # leaf row + ShipTo row

    def test_differing_reference_links_force_a_full_delta(self):
        schema = Schema("Refs")
        table = schema.add_element("Orders", kind=ElementKind.TABLE)
        column = schema.add_element("custId", parent=table, kind=ElementKind.COLUMN)
        other = schema.add_element("Customers", kind=ElementKind.TABLE)
        key = schema.add_element("id", parent=other, kind=ElementKind.COLUMN)
        linked = rebuild_schema(schema)
        linked.add_link(
            linked.find_element("custId"), linked.find_element("id"),
            kind=LinkKind.REFERENCE,
        )
        delta = schema_delta(schema, linked)
        assert delta.full
        assert column is not key  # silence unused warnings, keep identities alive

    def test_duplicate_content_paths_pair_up(self):
        schema = Schema("Dup")
        for section in ("BillTo", "ShipTo"):
            inner = schema.add_element(section, kind=ElementKind.ELEMENT)
            schema.add_element("City", parent=inner, kind=ElementKind.COLUMN,
                               source_type="VARCHAR(40)")
        delta = schema_delta(schema, rebuild_schema(schema))
        assert delta.recomputed == 0
        assert delta.reused == len(schema.paths())


EDIT_OPS = ("rename", "retype", "remove", "add")


def _single_edit(schema, op, index, token):
    """One deterministic structural edit of the drawn kind."""
    leaves = [path.dotted(skip_root=True) for path in schema.leaf_paths()]
    inners = [path.dotted(skip_root=True) for path in schema.inner_paths()]
    if op == "rename":
        return {"op": "rename", "at": leaves[index % len(leaves)],
                "value": f"evolved_field_{token}"}
    if op == "retype":
        return {"op": "retype", "at": leaves[index % len(leaves)], "value": "DATE"}
    if op == "remove":
        return {"op": "remove", "at": leaves[index % len(leaves)]}
    parent = inners[index % len(inners)] if inners else None
    return {"op": "add", "at": parent.split(".")[-1] if parent else None,
            "value": f"grafted_field_{token}"}


class TestRematchByteIdentity:
    """The property suite: random single-edit deltas, sha256-identical splices."""

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_single_edit_rematch_equals_cold_match(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=10_000), label="seed")
        sections = data.draw(st.integers(min_value=2, max_value=3), label="sections")
        fields = data.draw(st.integers(min_value=2, max_value=3), label="fields")
        op = data.draw(st.sampled_from(EDIT_OPS), label="op")
        index = data.draw(st.integers(min_value=0, max_value=40), label="index")

        old, _ = generate_schema("EvolveA", sections=sections,
                                 fields_per_section=fields, seed=seed)
        target, _ = generate_schema("TargetB", sections=sections,
                                    fields_per_section=fields, variant=1,
                                    seed=seed + 1)
        edit = _single_edit(old, op, index, seed)
        new = rebuild_schema(old, name="EvolveA2", edit=edit)

        warm = MatchSession()
        previous = warm.match(old, target)
        spliced = warm.rematch(old, new, previous)
        assert warm.cache_info()["rematch_spliced"] == 1
        assert warm.cache_info()["rematch_fallbacks"] == 0

        cold = MatchSession().match(new, target)
        assert_outcomes_identical(spliced, cold, f"single-edit {op}")

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_target_side_evolution_splices_columns(self, seed):
        source, _ = generate_schema("FixedA", sections=2, fields_per_section=3,
                                    seed=seed)
        old, _ = generate_schema("EvolveB", sections=2, fields_per_section=3,
                                 variant=1, seed=seed + 1)
        edit = _single_edit(old, EDIT_OPS[seed % len(EDIT_OPS)], seed, seed)
        new = rebuild_schema(old, name="EvolveB2", edit=edit)

        warm = MatchSession()
        previous = warm.match(source, old)
        spliced = warm.rematch(old, new, previous)
        cold = MatchSession().match(source, new)
        assert_outcomes_identical(spliced, cold, "target-side edit")

    def test_mutate_schema_deltas_stay_identical(self):
        """Heavier drift via the corpus mutator: renames + type drift at once."""
        old, _ = generate_schema("Drift", sections=3, fields_per_section=3, seed=9)
        target, _ = generate_schema("DriftTarget", sections=3,
                                    fields_per_section=3, variant=1, seed=10)
        new = mutate_schema(old, "Drift", seed=21, rename_rate=0.3,
                            graft_sections=1, graft_fields=2, drift_rate=0.3)
        warm = MatchSession()
        previous = warm.match(old, target)
        spliced = warm.rematch(old, new, previous)
        cold = MatchSession().match(new, target)
        assert_outcomes_identical(spliced, cold, "mutate_schema drift")

    def test_schema_renamed_on_upload_still_splices(self):
        """Same content, new schema name: every row must be reused."""
        old, _ = generate_schema("V1", sections=3, fields_per_section=3, seed=4)
        target, _ = generate_schema("T", sections=3, fields_per_section=3,
                                    variant=1, seed=5)
        leaf = old.leaf_paths()[0].dotted(skip_root=True)
        new = rebuild_schema(
            old, name="V2",
            edit={"op": "rename", "at": leaf, "value": "renamed_on_upload"},
        )
        warm = MatchSession()
        previous = warm.match(old, target)
        spliced = warm.rematch(old, new, previous)
        info = warm.cache_info()
        assert info["rematch_spliced"] == 1
        assert info["rematch_reused_rows"] >= len(old.paths()) - 2
        cold = MatchSession().match(new, target)
        assert_outcomes_identical(spliced, cold, "renamed upload")


#: CamelCase words with trigram and synonym overlap, so token sets keep many
#: mutual-best pairs.
WIDE_WORDS = ("Street", "Streets", "Address", "Addr", "Line", "Lines", "City",
              "Town", "Postal", "Code", "Ship", "Bill", "Name", "Number")


def _wide_schema(name, seed, rename_at=None, new_name=None):
    """Sections of multi-word leaves plus a 4-level chain of 3-word names.

    The chain's deepest path has up to 12 NamePath tokens, more than any
    section leaf.  Returns the schema and its number of section leaves;
    ``rename_at`` renames the section leaf with that index.
    """
    rng = random.Random(seed)

    def camel(low, high):
        return "".join(rng.choice(WIDE_WORDS) for _ in range(rng.randint(low, high)))

    schema = Schema(name)
    leaves = 0
    for index in range(rng.randint(2, 4)):
        section = schema.add_element(camel(2, 3) + str(index), kind=ElementKind.ELEMENT)
        for field in range(rng.randint(2, 4)):
            leaf = camel(2, 4) + str(field)
            if leaves == rename_at:
                leaf = new_name
            schema.add_element(leaf, parent=section, kind=ElementKind.ELEMENT,
                               source_type="VARCHAR(20)")
            leaves += 1
    chain = None
    for level in range(4):
        chain = schema.add_element(camel(3, 3), parent=chain, kind=ElementKind.ELEMENT,
                                   source_type="VARCHAR(20)" if level == 3 else None)
    return schema, leaves


class TestWideNamePathRematch:
    """A rematch requests only the renamed row, whose NamePath set is narrower
    than the chain's 12 tokens in the cold match.  Cells must not depend on
    the widest requested set (seeds 170 and 214 differed by 1 ulp while the
    token-set kernel summed with numpy's pairwise ``sum``)."""

    @pytest.mark.parametrize("seed", [170, 214, 0, 1, 2, 3])
    def test_depth_two_rename_equals_cold_match(self, seed):
        old, leaves = _wide_schema("Src", seed)
        target, _ = _wide_schema("Tgt", seed + 10_000)
        rng = random.Random(seed * 7 + 1)
        at = rng.randrange(leaves)
        new_name = "".join(rng.choice(WIDE_WORDS) for _ in range(rng.randint(2, 4))) + "X"
        new, _ = _wide_schema("Src", seed, rename_at=at, new_name=new_name)

        session = MatchSession()
        previous = session.match(old, target)
        spliced = session.rematch(old, new, previous, target=target)
        assert session.cache_info()["rematch_spliced"] == 1
        cold = MatchSession().match(new, target)
        assert_outcomes_identical(spliced, cold, f"wide NamePath rename, seed {seed}")


class TestRematchProcessBackend:
    """The cold reference computed by a spawned worker process must agree too."""

    @pytest.fixture(scope="class")
    def process_pool(self):
        from repro.parallel.pool import ProcessSessionPool

        pool = ProcessSessionPool(size=1)
        yield pool
        pool.close()

    @pytest.mark.parametrize("op", EDIT_OPS)
    def test_rematch_matches_process_backend_cold_match(self, process_pool, op):
        old, _ = generate_schema("ProcA", sections=2, fields_per_section=3, seed=13)
        target, _ = generate_schema("ProcB", sections=2, fields_per_section=3,
                                    variant=1, seed=14)
        new = rebuild_schema(old, name="ProcA2",
                             edit=_single_edit(old, op, 1, 13))
        warm = MatchSession()
        previous = warm.match(old, target)
        spliced = warm.rematch(old, new, previous)
        cold = process_pool.match(new, target)
        assert result_sha256(spliced) == result_sha256(cold), (
            f"{op}: spliced result diverged from the process-backend reference"
        )


class TestRematchFallbacks:
    def test_without_previous_or_target_is_an_error(self):
        old, _ = generate_schema("E", sections=2, fields_per_section=2, seed=1)
        new = rebuild_schema(old)
        with pytest.raises(SessionError):
            MatchSession().rematch(old, new)

    def test_unrelated_previous_result_is_an_error(self):
        old, _ = generate_schema("E", sections=2, fields_per_section=2, seed=1)
        new = rebuild_schema(old)
        other = MatchSession().match(load_po1(), load_po2())
        with pytest.raises(SessionError):
            MatchSession().rematch(old, new, other)

    def test_cold_session_without_store_falls_back_to_full_match(self):
        old, _ = generate_schema("Cold", sections=2, fields_per_section=2, seed=6)
        target, _ = generate_schema("ColdT", sections=2, fields_per_section=2,
                                    variant=1, seed=7)
        new = rebuild_schema(old, edit={"op": "retype",
                                        "at": old.leaf_paths()[0].dotted(skip_root=True),
                                        "value": "DATE"})
        session = MatchSession()
        outcome = session.rematch(old, new, target=target)
        info = session.cache_info()
        assert info["rematch_fallbacks"] == 1
        assert info["rematch_spliced"] == 0
        cold = MatchSession().match(new, target)
        assert_outcomes_identical(outcome, cold, "cold fallback")

    def test_full_delta_from_reference_links_falls_back(self):
        schema = Schema("RefFall")
        table = schema.add_element("Orders", kind=ElementKind.TABLE)
        schema.add_element("custId", parent=table, kind=ElementKind.COLUMN)
        other = schema.add_element("Customers", kind=ElementKind.TABLE)
        schema.add_element("id", parent=other, kind=ElementKind.COLUMN)
        linked = rebuild_schema(schema)
        linked.add_link(linked.find_element("custId"), linked.find_element("id"),
                        kind=LinkKind.REFERENCE)
        target, _ = generate_schema("RefT", sections=2, fields_per_section=2, seed=8)
        session = MatchSession()
        previous = session.match(schema, target)
        outcome = session.rematch(schema, linked, previous)
        assert session.cache_info()["rematch_fallbacks"] == 1
        cold = MatchSession().match(linked, target)
        assert_outcomes_identical(outcome, cold, "reference-link fallback")


class TestRestartSplice:
    """A fresh process splices from the persistent store, guarded by the
    persisted path signatures."""

    def test_splice_across_sessions_via_store(self, tmp_path):
        store = str(tmp_path / "store.db")
        old = load_po1()
        target = load_po2()
        new = rebuild_schema(
            old, name="PO1v2",
            edit={"op": "rename", "at": "ShipTo.poNo", "value": "purchaseOrderNo"},
        )
        with MatchSession(store=store) as first:
            first.match(old, target)
        with MatchSession(store=store) as second:
            outcome = second.rematch(load_po1(), new, target=load_po2())
            info = second.cache_info()
        assert info["rematch_spliced"] == 1
        assert info["rematch_fallbacks"] == 0
        cold = MatchSession().match(new, target)
        assert_outcomes_identical(outcome, cold, "restart splice")

    def test_impostor_old_schema_is_caught_by_persisted_signatures(self, tmp_path):
        """If the store's cube was computed from a different 'old' than the
        caller presents, the persisted signature vector disagrees and the
        session must fall back instead of splicing garbage."""
        store = str(tmp_path / "store.db")
        target = load_po2()
        with MatchSession(store=store) as first:
            first.match(load_po1(), target)
        impostor = rebuild_schema(
            load_po1(), name="PO1",
            edit={"op": "retype", "at": "ShipTo.poNo", "value": "DATE"},
        )
        new = rebuild_schema(
            impostor, name="PO1v2",
            edit={"op": "rename", "at": "ShipTo.poNo", "value": "purchaseOrderNo"},
        )
        with MatchSession(store=store) as second:
            outcome = second.rematch(impostor, new, target=load_po2())
            info = second.cache_info()
        assert info["rematch_fallbacks"] == 1
        cold = MatchSession().match(new, target)
        assert_outcomes_identical(outcome, cold, "impostor fallback")

    def test_store_round_trips_path_signatures(self, tmp_path):
        from repro.repository.store import SimilarityStore

        schema = load_po1()
        signatures = list(path_signatures(schema))
        with SimilarityStore(str(tmp_path / "sig.db")) as store:
            assert store.load_path_signatures("d" * 64) is None
            store.store_path_signatures("d" * 64, signatures)
            assert store.load_path_signatures("d" * 64) == tuple(signatures)
            store.store_path_signatures_async("e" * 64, signatures)
            store.flush()
            assert store.load_path_signatures("e" * 64) == tuple(signatures)
            assert store.info()["subtrees"] == 2


class TestStaleDigestMemoRegression:
    """Satellite bugfix: the session memoised schema digests by object identity
    and returned stale digests after in-place mutation, poisoning the store's
    content addresses."""

    def _mutate_in_place(self, schema):
        leaf = schema.find_path("PO1.ShipTo.poNo").leaf
        leaf.name = "purchaseOrderNo"
        section = schema.find_element("ShipTo")
        schema.add_element("auditedAt", parent=section, kind=ElementKind.COLUMN,
                           source_type="DATE")

    def test_in_place_mutation_misses_the_store_and_recomputes(self, tmp_path):
        store = str(tmp_path / "store.db")
        with MatchSession(store=store) as session:
            old = load_po1()
            target = load_po2()
            session.match(old, target)
            misses_before = session.cache_info()["store_misses"]
            # Mutating in place keeps the Schema *object* (the memo key) but
            # changes its content; adding an element also changes the path
            # tuple, so the cube cache misses and the store is consulted.
            self._mutate_in_place(old)
            session.match(old, target)
            info = session.cache_info()
        # The mutated schema is new content: the store cannot have it yet, so
        # the lookup must MISS (the stale memo would have hit the old address).
        assert info["store_misses"] > misses_before

    def test_mutated_schema_is_stored_under_its_true_address(self, tmp_path):
        store = str(tmp_path / "store.db")
        old = load_po1()
        target = load_po2()
        with MatchSession(store=store) as first:
            first.match(old, target)  # memoises the pristine digest
            self._mutate_in_place(old)
            first.match(old, target)  # must store under the *mutated* digest
        # An independent schema with the same content (and registration
        # order, which the content digest is sensitive to): a fresh parse
        # with the same mutation replayed.
        mutated_copy = load_po1()
        self._mutate_in_place(mutated_copy)
        with MatchSession(store=store) as second:
            second.match(mutated_copy, target)
            info = second.cache_info()
        assert info["store_hits"] == 1, (
            "the mutated pair's cube was not stored under its true content "
            "address -- the stale digest memo is back"
        )

    def test_fingerprint_tracks_renames_and_growth(self):
        schema = load_po1()
        first = _schema_fingerprint(schema)
        schema.find_path("PO1.ShipTo.poNo").leaf.name = "renamed"
        second = _schema_fingerprint(schema)
        assert first != second
        schema.add_element("extra", parent=schema.find_element("ShipTo"),
                           kind=ElementKind.COLUMN)
        assert _schema_fingerprint(schema) != second


class TestServiceRematch:
    """POST /rematch on the transport-agnostic service core."""

    @staticmethod
    def _service(pool_size):
        from repro.service.server import MatchService

        service = MatchService(pool_size=pool_size)
        for name, text, fmt in (
            ("PO1", PO1_DDL, "sql"),
            ("PO1v2", PO1_DDL.replace("poNo", "purchaseOrderNo"), "sql"),
            ("PO2", PO2_XSD, "xsd"),
        ):
            status, _ = service.handle_request(
                "POST", "/schemas", {"name": name, "text": text, "format": fmt}
            )
            assert status == 201
        return service

    @pytest.fixture()
    def service(self):
        service = self._service(pool_size=1)
        yield service
        service.close()

    def test_rematch_payload_matches_match_bytes(self, service):
        status, warm = service.handle_request(
            "POST", "/match", {"source": "PO1", "target": "PO2"}
        )
        assert status == 200
        status, rematch = service.handle_request(
            "POST", "/rematch", {"old": "PO1", "new": "PO1v2", "target": "PO2"}
        )
        assert status == 200
        status, cold = service.handle_request(
            "POST", "/match", {"source": "PO1v2", "target": "PO2"}
        )
        assert status == 200
        detail = rematch.pop("rematch")
        assert rematch == cold
        assert detail["spliced"] is True
        assert detail["added"] == ["ShipTo.purchaseOrderNo"]
        assert detail["removed"] == ["ShipTo.poNo"]
        assert detail["reused_rows"] + detail["recomputed_rows"] >= len(
            load_po1().paths()
        ) - 1
        assert warm["schema_similarity"] >= 0.0

    def test_rematch_without_history_reports_unspliced(self, service):
        status, body = service.handle_request(
            "POST", "/rematch", {"old": "PO1", "new": "PO1v2", "target": "PO2"}
        )
        assert status == 200
        assert body["rematch"]["spliced"] is False

    def test_concurrent_rematches_each_report_their_own_splice(self):
        # The thread backend shares one session: a fallback answered while
        # other requests splice must still read "spliced": false.  Six pool
        # slots let the six threads' rematches overlap.
        import sys
        import threading

        service = self._service(pool_size=6)
        assert service.handle_request(
            "POST", "/match", {"source": "PO1", "target": "PO2"})[0] == 200
        spliceable = {"old": "PO1", "new": "PO1v2", "target": "PO2"}
        # UserFeedback makes the strategy non-cacheable: never spliced.
        fallback = dict(
            spliceable, strategy="Name+UserFeedback(Average,Both,Thr(0.5),Average)"
        )
        answers = []

        def rematch(index):
            for step in range(6):
                splices = (index + step) % 2 == 1
                status, body = service.handle_request(
                    "POST", "/rematch", spliceable if splices else fallback
                )
                answers.append((splices, status, body["rematch"]["spliced"]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=rematch, args=(index,), daemon=True)
                       for index in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 36
        assert all(status == 200 for _, status, _ in answers)
        assert all(spliced is expected for expected, _, spliced in answers)

    def test_rematch_validation_errors(self, service):
        status, _ = service.handle_request("POST", "/rematch", {"old": "PO1"})
        assert status == 400
        status, _ = service.handle_request(
            "POST", "/rematch", {"old": "PO1", "new": "Nope", "target": "PO2"}
        )
        assert status == 404
        status, _ = service.handle_request(
            "POST", "/rematch",
            {"old": "PO1", "new": "PO1v2", "target": "PO2",
             "min_similarity": "high"},
        )
        assert status == 400


class TestCliRematch:
    def test_rematch_command_prints_splice_stats(self, tmp_path, capsys):
        from repro.cli import main

        old = tmp_path / "old.sql"
        old.write_text(PO1_DDL, encoding="utf-8")
        new = tmp_path / "new.sql"
        new.write_text(PO1_DDL.replace("poNo", "purchaseOrderNo"), encoding="utf-8")
        target = tmp_path / "po2.xsd"
        target.write_text(PO2_XSD, encoding="utf-8")
        exit_code = main(["rematch", str(old), str(new), str(target)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "spliced:           yes" in out
        assert "paths added:       ShipTo.purchaseOrderNo" in out

    def test_rematch_command_splices_from_a_store(self, tmp_path, capsys):
        from repro.cli import main

        old = tmp_path / "old.sql"
        old.write_text(PO1_DDL, encoding="utf-8")
        new = tmp_path / "new.sql"
        new.write_text(PO1_DDL.replace("poNo", "purchaseOrderNo"), encoding="utf-8")
        target = tmp_path / "po2.xsd"
        target.write_text(PO2_XSD, encoding="utf-8")
        store = str(tmp_path / "store.db")
        with MatchSession(store=store) as session:
            from repro.importers.registry import DEFAULT_IMPORTERS

            session.match(
                DEFAULT_IMPORTERS.import_file(str(old)),
                DEFAULT_IMPORTERS.import_file(str(target)),
            )
        exit_code = main(["rematch", str(old), str(new), str(target),
                          "--store", store])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "spliced:           yes" in out
