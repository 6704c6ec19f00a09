"""The service's schema registry with a corpus attached: durable across restarts.

With ``corpus_path``, the corpus is the registry: every endpoint finds a
schema there, and uploads and deletes write it.  These tests restart a
service on the same files, change the file through a second handle, fail the
corpus under the service, and race a delete against an upload of the same
name.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading

from repro import faults
from repro.datasets.figure1 import PO1_DDL, PO2_XSD
from repro.importers.registry import DEFAULT_IMPORTERS
from repro.search import SchemaCorpus
from repro.service import MatchService

#: A cacheable strategy for the batch request of the transcript.
SPEC = "Name+Leaves(Average,Both,Thr(0.6),Dice)"


def _upload_po_schemas(service):
    for name, text, format_name in (("PO1", PO1_DDL, "sql"), ("PO2", PO2_XSD, "xsd")):
        status, payload = service.handle_request(
            "POST", "/schemas", {"name": name, "text": text, "format": format_name}
        )
        assert status == 201, payload


def _answer(service, method, path, payload=None):
    """The JSON text of a 200 answer (sorted keys, so equal answers are equal bytes)."""
    status, body = service.handle_request(method, path, payload)
    assert status == 200, body
    return json.dumps(body, sort_keys=True)


#: Reads of every endpoint that finds a schema by name.
_TRANSCRIPT = (
    ("GET", "/schemas", None),
    ("GET", "/schemas/PO2", None),
    ("POST", "/match", {"source": "PO1", "target": "PO2"}),
    ("POST", "/match/batch", {"requests": [
        {"source": "PO1", "target": "PO2"},
        {"source": "PO2", "target": "PO1", "strategy": SPEC},
    ]}),
    ("POST", "/search", {"source": "PO1", "k": 1}),
)


def _transcript_sha256(service) -> str:
    answers = [_answer(service, *request) for request in _TRANSCRIPT]
    return hashlib.sha256("\n".join(answers).encode("utf-8")).hexdigest()


class TestDurableRegistry:
    """With a corpus attached, the registry outlives the process that filled it."""

    @staticmethod
    def _files(tmp_path):
        return {
            "corpus_path": str(tmp_path / "corpus.db"),
            "repository_path": str(tmp_path / "repository.db"),
            "store_path": str(tmp_path / "store.db"),
        }

    def test_restart_answers_the_same_transcript(self, tmp_path):
        first = MatchService(pool_size=1, **self._files(tmp_path))
        try:
            _upload_po_schemas(first)
            before = _transcript_sha256(first)
        finally:
            first.close()
        second = MatchService(pool_size=1, **self._files(tmp_path))
        try:
            assert _transcript_sha256(second) == before
            assert second.handle_request("GET", "/health", None)[1]["schemas"] == 2
            # Uploaded by the first process, removable through the second.
            status, _ = second.handle_request("DELETE", "/schemas/PO2", None)
            assert status == 200
            status, payload = second.handle_request("POST", "/search", {"source": "PO1"})
            assert status == 200 and payload["results"] == []
            status, payload = second.handle_request("GET", "/schemas", None)
            assert [entry["name"] for entry in payload["schemas"]] == ["PO1"]
            status, _ = second.handle_request("DELETE", "/schemas/PO2", None)
            assert status == 404
            # Re-uploading a name only the corpus holds replaces it.
            status, payload = second.handle_request(
                "POST", "/schemas", {"name": "PO1", "text": PO1_DDL, "format": "sql"}
            )
            assert (status, payload["replaced"]) == (200, True)
        finally:
            second.close()

    def test_another_handle_on_the_file_changes_the_registry(self, tmp_path):
        path = str(tmp_path / "corpus.db")
        service = MatchService(pool_size=1, corpus_path=path)
        try:
            _upload_po_schemas(service)
            with SchemaCorpus(path) as other:
                assert other.remove("PO2")
            status, payload = service.handle_request("GET", "/schemas", None)
            assert [entry["name"] for entry in payload["schemas"]] == ["PO1"]
            status, _ = service.handle_request(
                "POST", "/match", {"source": "PO1", "target": "PO2"}
            )
            assert status == 404
            remark = '<xsd:element name="Remark" type="xsd:string"/>'
            wider = PO2_XSD.replace("</xsd:sequence>", f"  {remark}\n    </xsd:sequence>", 1)
            with SchemaCorpus(path) as other:
                other.add(DEFAULT_IMPORTERS.by_format("xsd").import_text(wider, "PO2"))
            status, payload = service.handle_request("GET", "/schemas/PO2", None)
            assert (status, payload["paths"]) == (200, 12)
        finally:
            service.close()

    def test_failed_corpus_write_leaves_the_registry_as_it_was(self, monkeypatch):
        service = MatchService(pool_size=1, corpus_path=":memory:")
        try:
            status, _ = service.handle_request(
                "POST", "/schemas", {"name": "PO1", "text": PO1_DDL, "format": "sql"}
            )
            assert status == 201

            def broken(*args):
                raise sqlite3.OperationalError("disk I/O error")

            monkeypatch.setattr(service._corpus, "_index_terms_locked", broken)
            status, payload = service.handle_request(
                "POST", "/schemas", {"name": "PO2", "text": PO2_XSD, "format": "xsd"}
            )
            assert status == 503 and payload["component"] == "corpus"
            monkeypatch.undo()
            status, payload = service.handle_request("GET", "/schemas", None)
            assert [entry["name"] for entry in payload["schemas"]] == ["PO1"]
            status, _ = service.handle_request(
                "POST", "/match", {"source": "PO1", "target": "PO2"}
            )
            assert status == 404
            assert service._corpus.names() == ("PO1",)
            status, health = service.handle_request("GET", "/health", None)
            assert health["components"]["corpus"]["status"] == "degraded"
            assert health["schemas"] == 1
        finally:
            service.close()

    def test_a_delete_racing_an_upload_lists_what_the_file_holds(self, tmp_path, monkeypatch):
        """A delete sent while an upload sits between its corpus write and the dict."""
        path = str(tmp_path / "corpus.db")
        service = MatchService(pool_size=1, corpus_path=path)
        add = service._corpus.add
        added, deleted = threading.Event(), threading.Event()

        def add_then_wait(*args, **kwargs):
            schema_id = add(*args, **kwargs)
            added.set()
            deleted.wait(timeout=0.5)  # the registry lock keeps the delete out
            return schema_id

        def delete():
            added.wait(timeout=10)
            statuses.append(service.handle_request("DELETE", "/schemas/PO1", None)[0])
            deleted.set()

        monkeypatch.setattr(service._corpus, "add", add_then_wait)
        statuses = []
        try:
            thread = threading.Thread(target=delete)
            thread.start()
            status, _ = service.handle_request(
                "POST", "/schemas", {"name": "PO1", "text": PO1_DDL, "format": "sql"}
            )
            thread.join(timeout=10)
            assert not thread.is_alive() and (status, statuses) == (201, [200])
            listed = service.handle_request("GET", "/schemas", None)[1]["schemas"]
            with SchemaCorpus(path) as corpus:
                assert [entry["name"] for entry in listed] == list(corpus.names()) == []
        finally:
            service.close()

    def test_corpus_read_failure_is_a_typed_503(self, tmp_path):
        files = {"corpus_path": str(tmp_path / "corpus.db")}
        first = MatchService(pool_size=1, **files)
        try:
            _upload_po_schemas(first)
            before = _answer(first, "POST", "/match", {"source": "PO1", "target": "PO2"})
        finally:
            first.close()
        second = MatchService(pool_size=1, **files)
        try:
            plan = faults.FaultPlan([faults.FaultRule(point="corpus.load", action="raise")])
            with faults.armed(plan):
                status, payload = second.handle_request(
                    "POST", "/match", {"source": "PO1", "target": "PO2"}
                )
                assert status == 503 and payload["component"] == "corpus"
                status, health = second.handle_request("GET", "/health", None)
                assert status == 200 and health["status"] == "degraded"
                assert health["components"]["corpus"]["status"] == "degraded"
            after = _answer(second, "POST", "/match", {"source": "PO1", "target": "PO2"})
            assert after == before
        finally:
            second.close()
