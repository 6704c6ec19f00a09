"""One SQLite layer for the repository, the similarity store and the corpus.

COMA keeps schemas, mappings and similarity cubes in one DBMS-based
repository (Section 3).  This reproduction keeps them in the SQLite files of
three components -- :class:`~repro.repository.repository.Repository`,
:class:`~repro.repository.store.SimilarityStore` and
:class:`~repro.search.corpus.SchemaCorpus` -- and each of them opens its file
through :func:`open_database`, which

* refuses a file that is not the component's: a non-SQLite file, or a
  database that holds tables but none of the component's, raises the
  component's typed error and leaves the file byte-identical;
* journals in WAL mode with a 30 s busy timeout: one file is shared by
  processes (every worker of ``coma serve --backend process`` opens its own
  connection), readers proceed while a writer commits, and concurrent
  writers queue instead of failing;
* returns a connection any thread may use; each component serialises its
  calls under its own lock;
* sets the component's durability.  ``synchronous=NORMAL``, the documented
  WAL pairing, stops commits waiting on fsync, so a power cut may lose the
  last commits: fine for the store and the corpus, which can be rebuilt.
  The repository holds user-confirmed mappings and named strategies and
  keeps SQLite's default ``FULL``;
* runs the component's DDL and the migrations for files of older versions:
  added columns, and dropped tables that nothing reads any more.

Components write inside ``with connection:``, which commits the block or
rolls it back as a whole.

Examples
--------
>>> from repro.exceptions import RepositoryError
>>> layout = Layout("notebook", RepositoryError, ("notes",),
...                 "CREATE TABLE IF NOT EXISTS notes (text TEXT);")
>>> connection = open_database(":memory:", layout)
>>> with connection:
...     _ = connection.execute("INSERT INTO notes VALUES ('hello')")
>>> connection.execute("SELECT text FROM notes").fetchall()
[('hello',)]
>>> connection.close()
"""

from __future__ import annotations

import contextlib
import dataclasses
import sqlite3
from typing import Optional, Tuple, Type

from repro.exceptions import ComaError

#: How long a connection waits on another connection's write lock before
#: giving up.  30 s comfortably covers a slow checkpoint.
BUSY_TIMEOUT_SECONDS = 30.0


@dataclasses.dataclass(frozen=True)
class Layout:
    """What one component keeps in its SQLite file."""

    #: Names the component in error messages (``"similarity store"``).
    label: str
    #: The component's typed error.
    error: Type[ComaError]
    #: The tables that identify the component's files.  A read-only open
    #: needs all of them; a writable open refuses a database that holds
    #: tables but none of these.
    tables: Tuple[str, ...]
    #: ``CREATE ... IF NOT EXISTS`` statements, run by every writable open.
    ddl: str
    #: Statements that bring a file of an older version up to date, run by
    #: every writable open.  On a file that already has its change each one
    #: fails and is skipped (``ALTER TABLE ... ADD COLUMN``) or does nothing
    #: (``DROP TABLE IF EXISTS``), so a second open changes nothing.
    migrations: Tuple[str, ...] = ()
    #: ``PRAGMA synchronous`` of writable opens; None keeps SQLite's ``FULL``.
    synchronous: Optional[str] = "NORMAL"


def open_database(
    path: str, layout: Layout, readonly: bool = False
) -> sqlite3.Connection:
    """Open ``path`` as a ``layout`` file, or raise ``layout.error``.

    ``readonly`` opens an inspection handle (``mode=ro``): a missing file
    fails instead of being created, and neither the journal mode, the DDL
    nor the migrations run.
    """
    connection: Optional[sqlite3.Connection] = None
    try:
        connection = sqlite3.connect(
            f"file:{path}?mode=ro" if readonly else path,
            uri=readonly,
            check_same_thread=False,
            timeout=BUSY_TIMEOUT_SECONDS,  # sets PRAGMA busy_timeout
        )
        # Checked before anything writes: switching the journal mode alone
        # would rewrite a foreign file's header.
        present = [
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
            if not name.startswith("sqlite_")
        ]
        missing = [table for table in layout.tables if table not in present]
        if missing and (readonly or len(missing) == len(layout.tables) and present):
            raise layout.error(
                f"{path!r} is not a {layout.label} (missing table(s): "
                f"{', '.join(sorted(missing))})"
            )
        if not readonly:
            with contextlib.suppress(sqlite3.Error):
                # Some filesystems cannot memory-map the WAL side files; the
                # file still works, with coarser locking.
                connection.execute("PRAGMA journal_mode = WAL")
            if layout.synchronous is not None:
                connection.execute(f"PRAGMA synchronous = {layout.synchronous}")
            connection.executescript(layout.ddl)
            for migration in layout.migrations:
                with contextlib.suppress(sqlite3.OperationalError):
                    connection.execute(migration)
        return connection
    except BaseException as error:
        if connection is not None:
            connection.close()
        if isinstance(error, sqlite3.Error):
            # A corrupt file, a non-SQLite file or an unwritable path.
            raise layout.error(
                f"cannot open {layout.label} {path!r}: {error}"
            ) from error
        raise
