"""The DBMS-based repository (Section 3 / Section 8), backed by SQLite.

The repository stores three kinds of objects:

* **schemas** -- the imported schema graphs (loss-lessly serialised),
* **mappings** -- complete (possibly user-confirmed) match results in the
  relational representation of Figure 3c, labelled with an origin
  (``manual`` / ``automatic`` / ``composed``) so the SchemaM / SchemaA reuse
  variants can filter them,
* **strategies** -- named declarative strategy specs (see
  :mod:`repro.core.spec`), stored in both the compact spec form (for listing)
  and the complete dict/JSON form (for loss-less reload), so tuned strategies
  are addressable by name from sessions, the CLI and configuration.

Cubes live in the :class:`~repro.repository.store.SimilarityStore`.

The class implements the :class:`~repro.matchers.reuse.provider.MappingProvider`
protocol, so it can be handed directly to the reuse matchers via
``MatchContext.repository``.
"""

from __future__ import annotations

import functools
import json
import sqlite3
import threading
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.exceptions import ComaError, RepositoryError
from repro.matchers.reuse.provider import MappingRow, StoredMapping
from repro.model.mapping import MatchResult
from repro.model.schema import Schema
from repro.repository.serialization import schema_from_json, schema_to_json
from repro.repository.sqlite import Layout, open_database

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import MatchStrategy
    from repro.matchers.registry import MatcherLibrary

_SCHEMA_DDL = """
PRAGMA foreign_keys = ON;
CREATE TABLE IF NOT EXISTS schemas (
    name        TEXT PRIMARY KEY,
    format      TEXT NOT NULL DEFAULT 'internal',
    document    TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS mappings (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    name           TEXT NOT NULL,
    source_schema  TEXT NOT NULL,
    target_schema  TEXT NOT NULL,
    origin         TEXT NOT NULL DEFAULT 'automatic'
);
CREATE TABLE IF NOT EXISTS mapping_rows (
    mapping_id   INTEGER NOT NULL REFERENCES mappings(id) ON DELETE CASCADE,
    source_path  TEXT NOT NULL,
    target_path  TEXT NOT NULL,
    similarity   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_mappings_pair
    ON mappings (source_schema, target_schema, origin);
CREATE INDEX IF NOT EXISTS idx_mapping_rows_mapping
    ON mapping_rows (mapping_id);
CREATE TABLE IF NOT EXISTS strategies (
    name       TEXT PRIMARY KEY,
    spec       TEXT NOT NULL,
    document   TEXT NOT NULL
);
"""

#: Mappings and named strategies may be user-confirmed work, so the
#: repository keeps SQLite's ``synchronous=FULL``: a commit survives a
#: power cut.  Older files also hold a cube table that nothing read; their
#: first writable open drops it.
_REPOSITORY_LAYOUT = Layout(
    label="repository",
    error=RepositoryError,
    tables=("schemas", "mappings", "mapping_rows", "strategies"),
    ddl=_SCHEMA_DDL,
    migrations=("DROP TABLE IF EXISTS cube_entries",),
    synchronous=None,
)


def _locked(method):
    """Run ``method`` under the repository lock."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


class Repository:
    """SQLite-backed store for schemas, mappings and named strategies.

    Every write method commits as one transaction, or rolls back entirely
    when it raises.  The file opens through :mod:`repro.repository.sqlite`,
    so processes may share it, and every method runs under an internal
    reentrant lock, so threads may share one repository.

    Parameters
    ----------
    path:
        The database file (``":memory:"`` for an in-memory repository).
    """

    def __init__(self, path: str = ":memory:"):
        self._path = path
        self._lock = threading.RLock()
        self._connection = open_database(path, _REPOSITORY_LAYOUT)

    # -- lifecycle -------------------------------------------------------------

    @property
    def path(self) -> str:
        """The database path (``":memory:"`` for an in-memory repository)."""
        return self._path

    @_locked
    def close(self) -> None:
        """Close the underlying database connection."""
        self._connection.close()

    def __enter__(self) -> "Repository":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- schemas -----------------------------------------------------------------

    @_locked
    def store_schema(self, schema: Schema, replace: bool = True) -> None:
        """Persist a schema graph under its name."""
        document = schema_to_json(schema)
        try:
            with self._connection:
                if replace:
                    self._connection.execute(
                        "INSERT OR REPLACE INTO schemas (name, document) VALUES (?, ?)",
                        (schema.name, document),
                    )
                else:
                    self._connection.execute(
                        "INSERT INTO schemas (name, document) VALUES (?, ?)",
                        (schema.name, document),
                    )
        except sqlite3.IntegrityError as error:
            raise RepositoryError(f"schema {schema.name!r} is already stored") from error

    @_locked
    def load_schema(self, name: str) -> Schema:
        """Load a previously stored schema graph by name."""
        row = self._connection.execute(
            "SELECT document FROM schemas WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise RepositoryError(f"no schema named {name!r} in the repository")
        return schema_from_json(row[0])

    @_locked
    def schema_names(self) -> Tuple[str, ...]:
        """Names of all stored schemas, sorted."""
        rows = self._connection.execute("SELECT name FROM schemas ORDER BY name").fetchall()
        return tuple(r[0] for r in rows)

    @_locked
    def has_schema(self, name: str) -> bool:
        """True if a schema with this name is stored."""
        row = self._connection.execute(
            "SELECT 1 FROM schemas WHERE name = ?", (name,)
        ).fetchone()
        return row is not None

    @_locked
    def delete_schema(self, name: str) -> bool:
        """Delete a stored schema; returns True if one was removed."""
        with self._connection:
            cursor = self._connection.execute("DELETE FROM schemas WHERE name = ?", (name,))
        return cursor.rowcount > 0

    # -- mappings -----------------------------------------------------------------------

    @_locked
    def store_mapping(
        self,
        mapping: MatchResult | StoredMapping,
        origin: str = "automatic",
        name: Optional[str] = None,
    ) -> int:
        """Persist a mapping; returns its repository id."""
        if isinstance(mapping, MatchResult):
            stored = StoredMapping.from_match_result(mapping, origin=origin, name=name or "")
        else:
            stored = mapping
            if name or origin != "automatic":
                stored = StoredMapping(
                    source_schema=stored.source_schema,
                    target_schema=stored.target_schema,
                    rows=stored.rows,
                    origin=origin if origin != "automatic" else stored.origin,
                    name=name or stored.name,
                )
        with self._connection:
            cursor = self._connection.execute(
                "INSERT INTO mappings (name, source_schema, target_schema, origin) "
                "VALUES (?, ?, ?, ?)",
                (
                    stored.name or f"{stored.source_schema}<->{stored.target_schema}",
                    stored.source_schema,
                    stored.target_schema,
                    stored.origin,
                ),
            )
            mapping_id = int(cursor.lastrowid)
            self._connection.executemany(
                "INSERT INTO mapping_rows (mapping_id, source_path, target_path, similarity) "
                "VALUES (?, ?, ?, ?)",
                [(mapping_id, s, t, float(v)) for s, t, v in stored.rows],
            )
        return mapping_id

    def _load_rows(self, mapping_id: int) -> Tuple[MappingRow, ...]:
        rows = self._connection.execute(
            "SELECT source_path, target_path, similarity FROM mapping_rows "
            "WHERE mapping_id = ? ORDER BY source_path, target_path",
            (mapping_id,),
        ).fetchall()
        return tuple((r[0], r[1], float(r[2])) for r in rows)

    @_locked
    def stored_mappings(self, origin: Optional[str] = None) -> Sequence[StoredMapping]:
        """All stored mappings (the :class:`MappingProvider` protocol method)."""
        if origin is None:
            header_rows = self._connection.execute(
                "SELECT id, name, source_schema, target_schema, origin FROM mappings ORDER BY id"
            ).fetchall()
        else:
            header_rows = self._connection.execute(
                "SELECT id, name, source_schema, target_schema, origin FROM mappings "
                "WHERE origin = ? ORDER BY id",
                (origin,),
            ).fetchall()
        mappings: List[StoredMapping] = []
        for mapping_id, name, source_schema, target_schema, row_origin in header_rows:
            mappings.append(
                StoredMapping(
                    source_schema=source_schema,
                    target_schema=target_schema,
                    rows=self._load_rows(int(mapping_id)),
                    origin=row_origin,
                    name=name,
                )
            )
        return tuple(mappings)

    @_locked
    def mappings_between(
        self, first: str, second: str, origin: Optional[str] = None
    ) -> Tuple[StoredMapping, ...]:
        """Stored mappings whose schema pair is ``{first, second}`` in either orientation."""
        return tuple(
            m
            for m in self.stored_mappings(origin)
            if {m.source_schema, m.target_schema} == {first, second}
        )

    @_locked
    def delete_mappings(
        self, source: Optional[str] = None, target: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> int:
        """Delete mappings matching the given filters; returns the number removed."""
        clauses = []
        parameters: List[object] = []
        if source is not None:
            clauses.append("source_schema = ?")
            parameters.append(source)
        if target is not None:
            clauses.append("target_schema = ?")
            parameters.append(target)
        if origin is not None:
            clauses.append("origin = ?")
            parameters.append(origin)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        ids = [
            int(r[0])
            for r in self._connection.execute(
                f"SELECT id FROM mappings{where}", parameters
            ).fetchall()
        ]
        if not ids:
            return 0
        placeholders = ",".join("?" for _ in ids)
        with self._connection:
            self._connection.execute(
                f"DELETE FROM mapping_rows WHERE mapping_id IN ({placeholders})", ids
            )
            cursor = self._connection.execute(
                f"DELETE FROM mappings WHERE id IN ({placeholders})", ids
            )
        return cursor.rowcount

    @_locked
    def mapping_count(self, origin: Optional[str] = None) -> int:
        """The number of stored mappings, optionally restricted by origin."""
        if origin is None:
            row = self._connection.execute("SELECT COUNT(*) FROM mappings").fetchone()
        else:
            row = self._connection.execute(
                "SELECT COUNT(*) FROM mappings WHERE origin = ?", (origin,)
            ).fetchone()
        return int(row[0])

    # -- strategies ----------------------------------------------------------------------------

    @_locked
    def store_strategy(
        self, name: str, strategy: "MatchStrategy | str", replace: bool = True
    ) -> None:
        """Persist a named strategy (an object or a declarative spec string).

        Matcher references are stored by *name*: a strategy carrying
        pre-configured matcher instances reloads as library-default instances.
        The combination must reload into an equal one (its parts compare by
        type and value); a strategy whose document would reload as another
        one (a labelled Weighted aggregation, a threshold with more digits
        than its name prints) raises :class:`RepositoryError`.
        """
        from repro.core.strategy import MatchStrategy

        if isinstance(strategy, str):
            strategy = MatchStrategy.parse(strategy)
        if not name:
            raise RepositoryError("a stored strategy needs a non-empty name")
        document = json.dumps(strategy.to_dict(), sort_keys=True)
        spec = strategy.to_spec()
        try:
            # Validate at write time that the document reloads: a strategy
            # whose sub-strategies have no textual form (e.g. a Weighted
            # aggregation) must fail here, not on every later listing/load.
            reloaded = MatchStrategy.from_dict(json.loads(document))
        except ComaError as error:
            raise RepositoryError(
                f"strategy {name!r} cannot be stored: its serialised form does "
                f"not reload ({error})"
            ) from error
        if reloaded.combination != strategy.combination:
            raise RepositoryError(
                f"strategy {name!r} cannot be stored: its serialised form reloads "
                f"as a different strategy ({reloaded.to_spec()})"
            )
        try:
            with self._connection:
                if replace:
                    self._connection.execute(
                        "INSERT OR REPLACE INTO strategies (name, spec, document) "
                        "VALUES (?, ?, ?)",
                        (name, spec, document),
                    )
                else:
                    self._connection.execute(
                        "INSERT INTO strategies (name, spec, document) VALUES (?, ?, ?)",
                        (name, spec, document),
                    )
        except sqlite3.IntegrityError as error:
            raise RepositoryError(f"strategy {name!r} is already stored") from error

    @_locked
    def load_strategy(
        self, name: str, library: Optional["MatcherLibrary"] = None
    ) -> "MatchStrategy":
        """Load a stored strategy by name (optionally validated against ``library``)."""
        from repro.core.strategy import MatchStrategy

        row = self._connection.execute(
            "SELECT document FROM strategies WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise RepositoryError(f"no strategy named {name!r} in the repository")
        return MatchStrategy.from_dict(json.loads(row[0]), library=library)

    @_locked
    def strategy_spec(self, name: str) -> str:
        """The compact spec form of a stored strategy (for listings)."""
        row = self._connection.execute(
            "SELECT spec FROM strategies WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise RepositoryError(f"no strategy named {name!r} in the repository")
        return row[0]

    @_locked
    def strategy_names(self) -> Tuple[str, ...]:
        """Names of all stored strategies, sorted."""
        rows = self._connection.execute(
            "SELECT name FROM strategies ORDER BY name"
        ).fetchall()
        return tuple(r[0] for r in rows)

    @_locked
    def has_strategy(self, name: str) -> bool:
        """True if a strategy with this name is stored."""
        row = self._connection.execute(
            "SELECT 1 FROM strategies WHERE name = ?", (name,)
        ).fetchone()
        return row is not None

    @_locked
    def delete_strategy(self, name: str) -> bool:
        """Delete a stored strategy; returns True if one was removed."""
        with self._connection:
            cursor = self._connection.execute("DELETE FROM strategies WHERE name = ?", (name,))
        return cursor.rowcount > 0
