"""Importer base class and shared helpers.

Importers convert external schema definitions (relational DDL, XML Schema,
plain dict specifications) into the internal graph representation
(:class:`~repro.model.schema.Schema`) on which all matchers operate
(Section 3, Figure 1).
"""

from __future__ import annotations

import abc
import pathlib
from typing import Union

from repro.exceptions import ImportError_
from repro.model.schema import Schema

#: Anything an importer accepts as source text: a string or a path to a file.
SchemaSource = Union[str, pathlib.Path]


class SchemaImporter(abc.ABC):
    """Base class for schema importers."""

    #: The format name used by the importer registry (e.g. ``"sql"``, ``"xsd"``).
    format_name: str = "unknown"

    #: File suffixes (lower-case, with dot) this importer claims.
    file_suffixes: tuple[str, ...] = ()

    @abc.abstractmethod
    def import_text(self, text: str, name: str) -> Schema:
        """Parse schema ``text`` into the internal representation named ``name``."""

    def import_file(self, path: SchemaSource, name: str | None = None) -> Schema:
        """Read a file and import it; the schema name defaults to the file stem.

        A file that cannot be read as UTF-8 text raises
        :class:`~repro.exceptions.ImportError_` naming the path.
        """
        file_path = pathlib.Path(path)
        try:
            text = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            raise ImportError_(f"cannot read schema file {str(path)!r}: {error}") from error
        return self.import_text(text, name or file_path.stem)

    def accepts(self, path: SchemaSource) -> bool:
        """True if this importer claims the file suffix of ``path``."""
        suffix = pathlib.Path(path).suffix.lower()
        return suffix in self.file_suffixes
