"""The schema corpus: a persistent inverted candidate index over schemas.

Corpus-scale matching ("find the best targets for this schema among
thousands") cannot afford the full matcher pipeline per candidate -- the
pipeline is milliseconds per pair, and a repository holds thousands of pairs
per query.  A :class:`SchemaCorpus` therefore registers every schema into a
small SQLite database holding two structures:

* an **inverted term index** over the unique-key vocabularies the batch
  engine already extracts per :class:`~repro.engine.profiles.PathSetProfile`:
  name *tokens*, lower-cased character *n-grams* and *soundex* codes.  Each
  (kind, term) row carries its document frequency, so candidate ranking is a
  cheap idf-weighted set-overlap computed with numpy over the posting lists
  (see :meth:`SchemaCorpus.rank`).  Each handle ranks from an in-memory copy
  of these tables, loaded at its first ranking and kept current by its own
  writes; ``PRAGMA data_version`` tells it when another connection wrote;
* the **schema documents** themselves (the canonical JSON serialisation), so
  pruned survivors can be loaded and pushed through the full
  :class:`~repro.session.session.MatchSession` pipeline without a separate
  schema store.

The corpus lives in its own SQLite file (or ``":memory:"``) alongside the
:class:`~repro.repository.repository.Repository` and the
:class:`~repro.repository.store.SimilarityStore` -- same deployment model,
same SQLite layer (:mod:`repro.repository.sqlite`), same thread-safety
discipline (one internal lock).  All vocabulary extraction goes through one
tokenizer whose configuration digest is pinned in the corpus metadata:
opening a corpus with a differently configured tokenizer raises rather than
silently producing disjoint query/index vocabularies.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import itertools
import sqlite3
import threading
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.engine.profiles import PathSetProfile, TOKEN_MODE_NAME
from repro.exceptions import SearchError
from repro.linguistic.tokenizer import NameTokenizer
from repro.model.schema import Schema
from repro.repository.serialization import schema_from_json, schema_to_json
from repro.repository.sqlite import Layout, open_database
from repro.repository.store import schema_content_digest, tokenizer_digest

#: Term kinds of the inverted index, with their contribution weights in the
#: candidate score.  Tokens are the strongest signal (they survive the
#: tokenizer's abbreviation expansion), soundex codes catch spelling drift,
#: and grams are the high-recall backstop -- individually weak (their high
#: document frequency also earns them low idf) but dense.
TERM_KINDS: Tuple[str, ...] = ("token", "gram", "soundex")
KIND_WEIGHTS: Dict[str, float] = {"token": 1.0, "soundex": 0.6, "gram": 0.25}

#: n of the indexed character n-grams (matches the Trigram library matcher).
GRAM_SIZE = 3

#: SQL ``IN (...)`` chunk size (SQLite's default variable limit is 999).
_SQL_CHUNK = 400

_CORPUS_DDL = """
CREATE TABLE IF NOT EXISTS corpus_meta (
    key    TEXT PRIMARY KEY,
    value  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS corpus_schemas (
    schema_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    name           TEXT NOT NULL UNIQUE,
    digest         TEXT NOT NULL,
    path_count     INTEGER NOT NULL,
    norm           REAL NOT NULL,
    document       TEXT NOT NULL,
    registered_at  REAL NOT NULL DEFAULT (julianday('now'))
);
CREATE TABLE IF NOT EXISTS corpus_terms (
    term_id  INTEGER PRIMARY KEY AUTOINCREMENT,
    kind     TEXT NOT NULL,
    term     TEXT NOT NULL,
    df       INTEGER NOT NULL DEFAULT 0,
    UNIQUE (kind, term)
);
CREATE TABLE IF NOT EXISTS corpus_postings (
    term_id    INTEGER NOT NULL,
    schema_id  INTEGER NOT NULL,
    count      INTEGER NOT NULL,
    PRIMARY KEY (term_id, schema_id)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS corpus_postings_by_schema
    ON corpus_postings (schema_id);
"""

#: Older files also hold a node interval table that nothing read; their
#: first writable open drops it.
_CORPUS_LAYOUT = Layout(
    label="schema corpus",
    error=SearchError,
    tables=("corpus_meta", "corpus_schemas", "corpus_terms", "corpus_postings"),
    ddl=_CORPUS_DDL,
    migrations=("DROP TABLE IF EXISTS corpus_nodes",),
)


def schema_vocabulary(
    profile: PathSetProfile,
) -> Dict[Tuple[str, str], int]:
    """The indexed (kind, term) -> occurrence-count vocabulary of one profile.

    Counts are per path occurrence: a term carried by a shared element that
    appears on several paths counts once per path, mirroring COMA's
    path-granular match model.  The extraction reuses exactly the derived
    representations the batch matchers evaluate (token profile, n-gram sets,
    soundex codes), so the index vocabulary and the matcher vocabulary can
    never drift apart.
    """
    vocabulary: Dict[Tuple[str, str], int] = {}

    token_profile = profile.token_profile(TOKEN_MODE_NAME)
    for key in token_profile.keys:
        for token in key:
            entry = ("token", token)
            vocabulary[entry] = vocabulary.get(entry, 0) + 1

    gram_sets = profile.ngram_sets(GRAM_SIZE)
    soundex_codes = profile.soundex_codes()
    for unique_index in profile.name_inverse:
        for gram in gram_sets[unique_index]:
            entry = ("gram", gram)
            vocabulary[entry] = vocabulary.get(entry, 0) + 1
        code = soundex_codes[unique_index]
        if code:
            entry = ("soundex", code)
            vocabulary[entry] = vocabulary.get(entry, 0) + 1
    return vocabulary


def vocabulary_norm(vocabulary: Mapping[Tuple[str, str], int]) -> float:
    """The kind-weighted norm of a vocabulary (``sqrt`` of summed weights).

    Scores are normalised by both sides' norms, so a large schema does not
    dominate the ranking merely by carrying more terms.
    """
    total = sum(KIND_WEIGHTS[kind] for kind, _ in vocabulary)
    return float(np.sqrt(total)) if total > 0.0 else 1.0


@dataclasses.dataclass(frozen=True)
class CandidateScore:
    """One ranked candidate of the cheap index pass (no matchers involved)."""

    name: str
    score: float
    schema_id: int
    digest: str
    path_count: int


def _chunks(items: Sequence, size: int = _SQL_CHUNK) -> Iterable[Sequence]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


class _RankIndex:
    """The in-memory copy of the tables :meth:`SchemaCorpus.rank` reads.

    ``version`` is the connection's ``PRAGMA data_version`` when the copy was
    loaded; a different value means another connection has committed since.
    A term's document frequency is the length of its posting list, which is
    a plain list, so a write's upkeep is one append or delete per term of
    its schema.
    """

    def __init__(self, connection: sqlite3.Connection, version: int):
        self.version = version
        #: (kind, term) -> term id.  A term whose last posting went keeps its
        #: entry until the next load: ``rank`` skips ids without postings, and
        #: a re-added term gets a new id (AUTOINCREMENT).
        self.terms: Dict[Tuple[str, str], int] = {}
        #: schema id -> (name, digest, path count, norm).
        self.schemas: Dict[int, Tuple[str, str, int, float]] = {}
        # One read transaction, so the three tables come from one snapshot.
        connection.execute("BEGIN")
        try:
            for term_id, kind, term in connection.execute(
                "SELECT term_id, kind, term FROM corpus_terms"
            ):
                self.terms[(kind, term)] = term_id
            flat = np.fromiter(
                itertools.chain.from_iterable(
                    connection.execute(
                        "SELECT term_id, schema_id FROM corpus_postings "
                        "ORDER BY term_id, schema_id"
                    )
                ),
                dtype=np.int64,
            )
            for schema_id, name, digest, paths, norm in connection.execute(
                "SELECT schema_id, name, digest, path_count, norm FROM corpus_schemas"
            ):
                self.schemas[schema_id] = (name, digest, int(paths), float(norm))
        finally:
            connection.commit()
        term_ids, schema_ids = flat[0::2], flat[1::2].tolist()
        starts = np.flatnonzero(np.diff(term_ids, prepend=-1)).tolist()
        #: term id -> the schema ids of its postings, ascending.
        self.postings: Dict[int, List[int]] = {
            int(term_ids[start]): schema_ids[start:stop]
            for start, stop in zip(starts, starts[1:] + [len(schema_ids)])
        }

    def add(
        self,
        schema_id: int,
        details: Tuple[str, str, int, float],
        entries: Sequence[Tuple[Tuple[str, str], int]],
        term_ids: Sequence[int],
    ) -> None:
        """Apply a committed registration (its vocabulary ``entries`` and their ``term_ids``)."""
        for (key, _), term_id in zip(entries, term_ids):
            postings = self.postings.get(term_id)
            if postings is None:
                self.terms[key] = term_id
                self.postings[term_id] = [schema_id]
            else:
                # Schema ids only grow (AUTOINCREMENT): appending keeps order.
                postings.append(schema_id)
        self.schemas[schema_id] = details

    def remove(self, schema_id: int, term_ids: Sequence[int]) -> None:
        """Apply a committed removal of the schema whose postings were ``term_ids``."""
        for term_id in term_ids:
            postings = self.postings[term_id]
            del postings[bisect.bisect_left(postings, schema_id)]
            if not postings:  # the SQL side deleted the term row
                del self.postings[term_id]
        del self.schemas[schema_id]


class SchemaCorpus:
    """A persistent, incrementally maintained schema corpus with a candidate index.

    Parameters
    ----------
    path:
        The SQLite database file (``":memory:"`` for tests and throwaway
        corpora).
    tokenizer:
        The tokenizer all vocabulary extraction goes through (default: a
        stock :class:`~repro.linguistic.tokenizer.NameTokenizer`).  Its
        configuration digest is pinned in the corpus on first write; opening
        an existing corpus with a different configuration raises
        :class:`~repro.exceptions.SearchError`.

    Thread safety: one internal reentrant lock serialises database access;
    the corpus may be shared by many sessions and service threads.

    Examples
    --------
    >>> from repro.datasets.figure1 import load_po1
    >>> corpus = SchemaCorpus(":memory:")
    >>> corpus.add(load_po1())
    1
    >>> len(corpus), corpus.names()
    (1, ('PO1',))
    >>> corpus.close()
    """

    #: Bound on the loaded-schema cache (documents are re-parsed on demand).
    MAX_LOADED_SCHEMAS = 2048

    def __init__(self, path: str, tokenizer: Optional[NameTokenizer] = None):
        self._path = path
        self._tokenizer = tokenizer if tokenizer is not None else NameTokenizer()
        self._tokenizer_digest = tokenizer_digest(self._tokenizer)
        self._lock = threading.RLock()
        self._loaded: Dict[int, Tuple[str, Schema]] = {}
        #: Loaded by the first rank(), never by registrations before it.
        self._index: Optional[_RankIndex] = None
        self._connection = open_database(path, _CORPUS_LAYOUT)
        pinned = self._meta("tokenizer_digest")
        if pinned is None:
            self._set_meta("tokenizer_digest", self._tokenizer_digest)
        elif pinned != self._tokenizer_digest:
            self._connection.close()
            raise SearchError(
                f"schema corpus {path!r} was built with a differently "
                f"configured tokenizer; query and index vocabularies would "
                f"not line up (expected digest {pinned[:12]}..., got "
                f"{self._tokenizer_digest[:12]}...)"
            )

    # -- lifecycle -------------------------------------------------------------

    @property
    def path(self) -> str:
        """The database path."""
        return self._path

    @property
    def tokenizer(self) -> NameTokenizer:
        """The tokenizer vocabulary extraction goes through."""
        return self._tokenizer

    @property
    def tokenizer_digest(self) -> str:
        """The pinned tokenizer-configuration digest of this corpus."""
        return self._tokenizer_digest

    def close(self) -> None:
        """Close the database.  Idempotent."""
        with self._lock:
            with contextlib.suppress(sqlite3.Error):
                self._connection.close()

    def __enter__(self) -> "SchemaCorpus":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _meta(self, key: str) -> Optional[str]:
        with self._lock:
            row = self._connection.execute(
                "SELECT value FROM corpus_meta WHERE key = ?", (key,)
            ).fetchone()
        return row[0] if row is not None else None

    def _set_meta(self, key: str, value: str) -> None:
        with self._lock, self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO corpus_meta (key, value) VALUES (?, ?)",
                (key, value),
            )

    # -- registration ----------------------------------------------------------

    def add(
        self,
        schema: Schema,
        replace: bool = True,
        profile: Optional[PathSetProfile] = None,
    ) -> int:
        """Register a schema: index its vocabulary and store its document.

        Later :meth:`load` calls of this handle answer with ``schema`` itself
        (not a copy rebuilt from the document) until the stored row changes,
        so the registered object must not be edited afterwards.  A
        registration by another handle or process replaces the row, and the
        next load rebuilds that one.

        Parameters
        ----------
        schema:
            The schema to register (keyed by its name).
        replace:
            Replace an existing registration of the same name (default);
            with ``False`` a name collision raises
            :class:`~repro.exceptions.SearchError`.
        profile:
            An existing :class:`~repro.engine.profiles.PathSetProfile` of the
            schema's paths (e.g. the session-cached one); built on the spot
            when omitted.

        Returns
        -------
        int
            The corpus-internal schema id.

        Examples
        --------
        >>> from repro.datasets.figure1 import load_po1
        >>> corpus = SchemaCorpus(":memory:")
        >>> corpus.add(load_po1()) > 0
        True
        >>> corpus.add(load_po1(), replace=False)
        Traceback (most recent call last):
          ...
        repro.exceptions.SearchError: schema 'PO1' is already registered...
        """
        if profile is None:
            profile = PathSetProfile(schema.paths(), self._tokenizer)
        vocabulary = schema_vocabulary(profile)
        norm = vocabulary_norm(vocabulary)
        document = schema_to_json(schema)
        digest = schema_content_digest(schema)
        path_count = len(schema.paths())
        entries = sorted(vocabulary.items())  # deterministic insert order
        with self._lock:
            existing = self._connection.execute(
                "SELECT schema_id FROM corpus_schemas WHERE name = ?",
                (schema.name,),
            ).fetchone()
            if existing is not None and not replace:
                raise SearchError(
                    f"schema {schema.name!r} is already registered in "
                    f"corpus {self._path!r}; pass replace=True to update it"
                )
            with self._transaction():
                removed = None
                if existing is not None:
                    removed = (int(existing[0]), self._remove_locked(int(existing[0])))
                cursor = self._connection.execute(
                    "INSERT INTO corpus_schemas (name, digest, path_count, norm, "
                    "document) VALUES (?, ?, ?, ?, ?)",
                    (schema.name, digest, path_count, norm, document),
                )
                schema_id = int(cursor.lastrowid)
                term_ids = self._index_terms_locked(schema_id, entries)
            self._cache_loaded_locked(schema_id, digest, schema)
            index = self._index_after_commit_locked()
            if index is not None:
                if removed is not None:
                    index.remove(*removed)
                index.add(
                    schema_id, (schema.name, digest, path_count, norm), entries, term_ids
                )
        return schema_id

    def add_many(self, schemas: Iterable[Schema], replace: bool = True) -> List[int]:
        """Register many schemas; returns their ids in input order."""
        return [self.add(schema, replace=replace) for schema in schemas]

    @contextlib.contextmanager
    def _transaction(self) -> Iterator[None]:
        """One write, committed or rolled back as a whole.

        The in-memory index is patched only after the commit, so a failed
        write leaves it in step with the rolled-back file.
        """
        try:
            with self._connection:
                yield
        except sqlite3.Error as error:
            raise SearchError(
                f"write to schema corpus {self._path!r} failed: {error}"
            ) from error

    def _index_after_commit_locked(self) -> Optional[_RankIndex]:
        """The in-memory index, if this handle's own commit is all it missed.

        A connection's own commits leave its ``PRAGMA data_version``
        unchanged, so a different value means another connection or process
        committed since the index was loaded.  Patching such an index with
        this write could fail (its posting lists predate the other write), so
        it is dropped instead and the next :meth:`rank` reloads it.
        """
        index = self._index
        if index is not None and self._data_version_locked() != index.version:
            self._index = None
        return self._index

    def _data_version_locked(self) -> int:
        return self._connection.execute("PRAGMA data_version").fetchone()[0]

    def _index_terms_locked(
        self, schema_id: int, entries: Sequence[Tuple[Tuple[str, str], int]]
    ) -> List[int]:
        """Insert one schema's postings; returns the term id of each entry.

        Only the terms the corpus has not seen yet are inserted, in entry
        order, so term ids stay a function of the registration sequence.
        """
        by_key: Dict[Tuple[str, str], int] = {}
        for chunk in _chunks(entries):
            placeholders = ",".join("(?,?)" for _ in chunk)
            parameters: List[str] = []
            for (kind, term), _ in chunk:
                parameters.extend((kind, term))
            rows = self._connection.execute(
                f"SELECT kind, term, term_id FROM corpus_terms "
                f"WHERE (kind, term) IN (VALUES {placeholders})",
                parameters,
            ).fetchall()
            by_key.update(((kind, term), term_id) for kind, term, term_id in rows)
        for key, _ in entries:
            if key not in by_key:
                by_key[key] = self._connection.execute(
                    "INSERT INTO corpus_terms (kind, term, df) VALUES (?, ?, 0)", key
                ).lastrowid
        term_ids = [by_key[key] for key, _ in entries]
        for chunk in _chunks(term_ids):
            self._connection.execute(
                f"UPDATE corpus_terms SET df = df + 1 "
                f"WHERE term_id IN ({','.join('?' for _ in chunk)})",
                chunk,
            )
        self._connection.executemany(
            "INSERT INTO corpus_postings (term_id, schema_id, count) "
            "VALUES (?, ?, ?)",
            [
                (term_id, schema_id, count)
                for term_id, (_, count) in zip(term_ids, entries)
            ],
        )
        return term_ids

    def _remove_locked(self, schema_id: int) -> List[int]:
        """Delete one schema's rows; returns the term ids of its postings."""
        term_ids = [
            term_id
            for (term_id,) in self._connection.execute(
                "SELECT term_id FROM corpus_postings WHERE schema_id = ?",
                (schema_id,),
            )
        ]
        for chunk in _chunks(term_ids):
            self._connection.execute(
                f"UPDATE corpus_terms SET df = df - 1 "
                f"WHERE term_id IN ({','.join('?' for _ in chunk)})",
                chunk,
            )
        self._connection.execute(
            "DELETE FROM corpus_postings WHERE schema_id = ?", (schema_id,)
        )
        self._connection.execute("DELETE FROM corpus_terms WHERE df <= 0")
        self._connection.execute(
            "DELETE FROM corpus_schemas WHERE schema_id = ?", (schema_id,)
        )
        self._loaded.pop(schema_id, None)
        return term_ids

    def remove(self, name: str) -> bool:
        """Deregister a schema by name; True when something was removed.

        Removal is fully incremental: postings disappear, document
        frequencies are decremented and orphaned vocabulary rows are dropped,
        so subsequent rankings behave as if the schema had never been
        registered.
        """
        with self._lock:
            row = self._connection.execute(
                "SELECT schema_id FROM corpus_schemas WHERE name = ?", (name,)
            ).fetchone()
            if row is None:
                return False
            schema_id = int(row[0])
            with self._transaction():
                term_ids = self._remove_locked(schema_id)
            index = self._index_after_commit_locked()
            if index is not None:
                index.remove(schema_id, term_ids)
        return True

    # -- accessors -------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            row = self._connection.execute(
                "SELECT COUNT(*) FROM corpus_schemas"
            ).fetchone()
        return int(row[0])

    def names(self) -> Tuple[str, ...]:
        """All registered schema names, sorted."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT name FROM corpus_schemas ORDER BY name"
            ).fetchall()
        return tuple(name for (name,) in rows)

    def has(self, name: str) -> bool:
        """True if a schema of that name is registered."""
        with self._lock:
            row = self._connection.execute(
                "SELECT 1 FROM corpus_schemas WHERE name = ?", (name,)
            ).fetchone()
        return row is not None

    def load(self, name: str) -> Schema:
        """The registered schema, rebuilt from its stored document (cached).

        Raises
        ------
        SearchError
            If no schema of that name is registered.
        """
        faults.fault_point("corpus.load", key=name)
        with self._lock:
            # The document is read only on a miss of the loaded-schema cache.
            row = self._connection.execute(
                "SELECT schema_id, digest FROM corpus_schemas WHERE name = ?", (name,)
            ).fetchone()
            if row is not None:
                cached = self._loaded.get(int(row[0]))
                if cached is not None and cached[0] == row[1]:
                    return cached[1]
                row = self._connection.execute(
                    "SELECT schema_id, digest, document FROM corpus_schemas "
                    "WHERE name = ?",
                    (name,),
                ).fetchone()
            if row is None:
                raise SearchError(
                    f"no schema named {name!r} in corpus {self._path!r}"
                )
            schema_id, digest = int(row[0]), row[1]
        schema = schema_from_json(row[2])
        with self._lock:
            self._cache_loaded_locked(schema_id, digest, schema)
        return schema

    def _cache_loaded_locked(self, schema_id: int, digest: str, schema: Schema) -> None:
        self._loaded[schema_id] = (digest, schema)
        while len(self._loaded) > self.MAX_LOADED_SCHEMAS:
            self._loaded.pop(next(iter(self._loaded)))

    def info(self) -> Dict[str, object]:
        """Occupancy statistics of the corpus."""
        with self._lock:
            schemas, paths = self._connection.execute(
                "SELECT COUNT(*), COALESCE(SUM(path_count), 0) FROM corpus_schemas"
            ).fetchone()
            terms = self._connection.execute(
                "SELECT COUNT(*) FROM corpus_terms"
            ).fetchone()[0]
            postings = self._connection.execute(
                "SELECT COUNT(*) FROM corpus_postings"
            ).fetchone()[0]
        return {
            "path": self._path,
            "schemas": int(schemas),
            "paths": int(paths),
            "terms": int(terms),
            "postings": int(postings),
            "tokenizer_digest": self._tokenizer_digest,
        }

    # -- candidate ranking -----------------------------------------------------

    def rank(
        self,
        vocabulary: Mapping[Tuple[str, str], int],
        limit: Optional[int] = None,
        exclude_digests: Sequence[str] = (),
        exclude_names: Sequence[str] = (),
    ) -> List[CandidateScore]:
        """Rank registered schemas against a query vocabulary -- no matchers run.

        The score of candidate ``c`` is the idf-weighted set overlap

        .. math::

            \\frac{\\sum_{t \\in Q \\cap C} w_{kind(t)} \\cdot
                   \\log(1 + N / df_t)}{\\|Q\\| \\cdot \\|C\\|}

        computed with numpy over the concatenated posting lists of the
        query's terms: each term's contribution is taken once, repeated over
        its postings, and one weighted ``np.bincount`` accumulates every
        posting into its candidate's score.  Ties break by name, so the
        ranking is fully deterministic for a given corpus file.

        The postings come from the handle's in-memory index, loaded at the
        first call and updated by the handle's own writes; when ``PRAGMA
        data_version`` shows that another connection committed since, the
        index is reloaded.  Postings are summed in the order the SQL join
        over ``corpus_terms`` and ``corpus_postings`` returned them (kind,
        then 400-term chunk of the sorted terms, then term id and schema
        id), so scores keep their bits.

        Parameters
        ----------
        vocabulary:
            The query's (kind, term) -> count vocabulary
            (:func:`schema_vocabulary` of its profile).
        limit:
            Return at most this many candidates (default: all with a
            positive score).
        exclude_digests / exclude_names:
            Registered schemas to leave out (typically the query itself,
            when it is part of the corpus).
        """
        faults.fault_point("corpus.rank")
        query_norm = vocabulary_norm(vocabulary)
        by_kind: Dict[str, List[str]] = {}
        for kind, term in vocabulary:
            by_kind.setdefault(kind, []).append(term)
        postings: List[List[int]] = []
        contributions: List[float] = []
        with self._lock:
            index = self._current_index_locked()
            total = len(index.schemas)
            if total == 0:
                return []
            for kind in TERM_KINDS:
                terms = sorted(by_kind.get(kind, ()))
                weight = KIND_WEIGHTS[kind]
                for chunk in _chunks(terms):
                    found = (index.terms.get((kind, term)) for term in chunk)
                    for term_id in sorted(t for t in found if t is not None):
                        schema_ids = index.postings.get(term_id)
                        if schema_ids:  # a term row without postings matches nothing
                            postings.append(schema_ids)
                            contributions.append(
                                weight * float(np.log1p(total / max(len(schema_ids), 1)))
                            )
            if not postings:
                return []
            lengths = [len(schema_ids) for schema_ids in postings]
            ids = np.fromiter(
                itertools.chain.from_iterable(postings), dtype=np.int64, count=sum(lengths)
            )
            values = np.repeat(contributions, lengths)
            # bincount adds in element order, exactly like np.add.at.  Only
            # the schemas that occur are converted, so the cost follows the
            # postings, not the largest schema id.
            present = np.flatnonzero(np.bincount(ids))
            scores = np.bincount(ids, weights=values)[present].tolist()
            details = [
                (schema_id, index.schemas[schema_id]) for schema_id in present.tolist()
            ]
        excluded_digests = frozenset(exclude_digests)
        excluded_names = frozenset(exclude_names)
        candidates = [
            CandidateScore(
                name=name,
                score=score / (query_norm * norm),
                schema_id=schema_id,
                digest=digest,
                path_count=paths,
            )
            for (schema_id, (name, digest, paths, norm)), score in zip(details, scores)
            if digest not in excluded_digests and name not in excluded_names
        ]
        candidates.sort(key=lambda c: (-c.score, c.name))
        if limit is not None:
            return candidates[: max(int(limit), 0)]
        return candidates

    def _current_index_locked(self) -> _RankIndex:
        """The in-memory index, (re)loaded when absent or another connection wrote."""
        version = self._data_version_locked()
        if self._index is None or self._index.version != version:
            self._index = _RankIndex(self._connection, version)
        return self._index

    def rank_schema(
        self,
        schema: Schema,
        limit: Optional[int] = None,
        profile: Optional[PathSetProfile] = None,
        exclude_self: bool = True,
    ) -> List[CandidateScore]:
        """Rank registered schemas against a query *schema* (convenience).

        ``exclude_self`` drops registered schemas whose content digest equals
        the query's -- searching a corpus that contains the query schema
        itself should surface its best *other* matches, not the identity.
        """
        if profile is None:
            profile = PathSetProfile(schema.paths(), self._tokenizer)
        exclude = (schema_content_digest(schema),) if exclude_self else ()
        return self.rank(
            schema_vocabulary(profile), limit=limit, exclude_digests=exclude
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SchemaCorpus(path={self._path!r}, schemas={len(self)})"
