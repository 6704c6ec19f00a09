"""Documentation checks: markdown links resolve, docstring examples run.

Two cheap, dependency-free guards that keep the docs suite honest:

* every relative link (and in-page anchor) in ``README.md`` and ``docs/``
  points at a file / heading that actually exists;
* the runnable examples in the ``repro.session`` / ``repro.engine`` /
  ``repro.service`` docstrings execute cleanly (the same modules CI runs
  through ``pytest --doctest-modules``);
* every script under ``examples/`` runs to a clean exit.
"""

from __future__ import annotations

import doctest
import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The runnable example scripts.
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))

#: The documentation set covered by the link check.
DOCUMENTS = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]

#: Inline markdown links: [text](target) -- images and nested brackets are
#: out of scope for this docs set.
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

#: Markdown headings, for anchor validation.
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _strip_code_blocks(text: str) -> str:
    """Drop fenced code blocks: their brackets are code, not links."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def _anchor_of(heading: str) -> str:
    """GitHub's anchor slug for a heading (sufficient for this docs set)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\s-]", "", slug)
    return re.sub(r"[\s]+", "-", slug).strip("-")


def _anchors(path: pathlib.Path) -> set:
    return {
        _anchor_of(match.group(1))
        for match in _HEADING.finditer(path.read_text(encoding="utf-8"))
    }


def _links(path: pathlib.Path):
    text = _strip_code_blocks(path.read_text(encoding="utf-8"))
    return [match.group(1) for match in _LINK.finditer(text)]


class TestMarkdownLinks:
    @pytest.mark.parametrize(
        "document", DOCUMENTS, ids=[d.relative_to(REPO_ROOT).as_posix() for d in DOCUMENTS]
    )
    def test_relative_links_resolve(self, document):
        assert document.exists(), f"documentation file {document} disappeared"
        broken = []
        for link in _links(document):
            if re.match(r"^[a-z][a-z0-9+.-]*:", link):  # http:, https:, mailto:
                continue
            target, _, anchor = link.partition("#")
            base = document.parent / target if target else document
            if target and not base.exists():
                broken.append(link)
                continue
            if anchor and base.suffix == ".md" and _anchor_of(anchor) not in _anchors(base):
                broken.append(link)
        assert not broken, f"broken links in {document.name}: {broken}"

    def test_docs_suite_is_complete(self):
        """The three documentation pages exist and README links all of them."""
        expected = {"architecture.md", "strategy-spec.md", "service.md", "robustness.md"}
        present = {path.name for path in (REPO_ROOT / "docs").glob("*.md")}
        assert expected <= present
        readme_links = _links(REPO_ROOT / "README.md")
        for name in expected:
            assert any(link.endswith(f"docs/{name}") for link in readme_links), (
                f"README.md does not link docs/{name}"
            )


class TestDoctests:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core.processor",
            "repro.combination.direction",
            "repro.combination.matrix",
            "repro.repository.sqlite",
            "repro.session",
            "repro.session.session",
            "repro.engine.engine",
            "repro.engine.profiles",
            "repro.service.pool",
            "repro.service.server",
            "repro.service.client",
            "repro.faults.plan",
            "repro.faults.catalog",
        ],
    )
    def test_module_doctests_pass(self, module_name):
        module = __import__(module_name, fromlist=["_"])
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"

    def test_session_module_has_examples(self):
        """The docstring pass is real: the session exposes runnable examples."""
        module = __import__("repro.session.session", fromlist=["_"])
        finder = doctest.DocTestFinder()
        examples = [test for test in finder.find(module) if test.examples]
        assert len(examples) >= 10


class TestExamples:
    @pytest.mark.parametrize("script", EXAMPLES, ids=[path.name for path in EXAMPLES])
    def test_example_runs(self, script):
        environment = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        completed = subprocess.run(
            [sys.executable, str(script)],
            cwd=REPO_ROOT,
            env=environment,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
