"""The batch match engine: orchestrates matcher execution over a match task.

The engine replaces the cell-by-cell matcher execution of the original
pipeline with a three-stage batch scheme:

1. the shared :class:`~repro.engine.profiles.PathSetProfile` caches (hung off
   the :class:`~repro.matchers.base.MatchContext`) pre-compute per-path
   structure once per schema per operation;
2. every matcher runs through its :meth:`~repro.matchers.base.Matcher.compute_batch`
   entry point, which evaluates unique cache keys only and scatters results
   into the full matrix with numpy fancy indexing;
3. the engine stacks the per-matcher layers into the
   :class:`~repro.combination.cube.SimilarityCube`.  Within one execution,
   matrices requested more than once -- the Name matrix by the Name layer
   and by TypeName, the TypeName matrix by its layer and as the leaf matrix
   of Children and Leaves, the token matrix by Name and NamePath, the
   structural kernel's level-1 pass (the cells of height-1 paths, whose
   children are their leaves) by Children and Leaves -- are computed once
   (:func:`~repro.matchers.base.layer_memo`).

``MatchEngine(use_batch=False)`` runs the original pairwise reference
implementation through the same interface, which is how the equivalence tests
and the speed-up benchmark compare the two paths.

The engine itself is stateless and therefore safe to share across threads --
the module-level :data:`DEFAULT_ENGINE` serves every session of a process.
Per-operation state lives in the :class:`~repro.matchers.base.MatchContext`;
when several engine calls share one context (a session's shared profile
cache), profile publication is ``setdefault``-based so concurrent operations
converge on one profile instance per schema.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from repro.combination.cube import SimilarityCube
from repro.combination.matrix import SimilarityMatrix
from repro.matchers.base import layer_memo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matchers.base import MatchContext, Matcher
    from repro.model.path import SchemaPath


class MatchEngine:
    """Executes a set of matchers over a match context as a batch pipeline.

    Parameters
    ----------
    use_batch:
        When True (the default) every matcher runs through its vectorized
        ``compute_batch`` entry point; when False the original pairwise
        ``compute`` path is used.  Both produce numerically identical cubes.

    Examples
    --------
    >>> MatchEngine().use_batch
    True
    """

    def __init__(self, use_batch: bool = True):
        self._use_batch = bool(use_batch)

    # -- configuration ---------------------------------------------------------

    @property
    def use_batch(self) -> bool:
        """Whether the vectorized batch path is active.

        Examples
        --------
        >>> MatchEngine(use_batch=False).use_batch
        False
        """
        return self._use_batch

    # -- execution -------------------------------------------------------------

    def compute_matrix(
        self,
        matcher: "Matcher",
        source_paths: Sequence["SchemaPath"],
        target_paths: Sequence["SchemaPath"],
        context: "MatchContext",
    ) -> SimilarityMatrix:
        """Run one matcher over two path sets through the configured path.

        Parameters
        ----------
        matcher:
            The matcher to execute.
        source_paths / target_paths:
            The two path sets spanning the similarity matrix.
        context:
            The match context carrying the shared resources and profile cache.

        Returns
        -------
        SimilarityMatrix
            The matcher's ``len(source_paths) x len(target_paths)`` matrix;
            numerically identical between the batch and pairwise paths.

        Examples
        --------
        >>> from repro.core.match_operation import build_context
        >>> from repro.datasets.figure1 import load_po1, load_po2
        >>> from repro.matchers.registry import DEFAULT_LIBRARY
        >>> a, b = load_po1(), load_po2()
        >>> context = build_context(a, b)
        >>> matrix = MatchEngine().compute_matrix(
        ...     DEFAULT_LIBRARY.create("Name"), a.paths(), b.paths(), context)
        >>> matrix.values.shape == (len(a.paths()), len(b.paths()))
        True
        """
        if self._use_batch:
            return matcher.compute_shared(source_paths, target_paths, context)
        return matcher.compute(source_paths, target_paths, context)

    def execute(
        self,
        matchers: Sequence["Matcher"],
        context: "MatchContext",
        source_paths: Optional[Sequence["SchemaPath"]] = None,
        target_paths: Optional[Sequence["SchemaPath"]] = None,
    ) -> SimilarityCube:
        """Run every matcher over the path sets, stacking the results.

        This is the engine's main entry point, used by
        :class:`~repro.session.session.MatchSession` for every match.

        Parameters
        ----------
        matchers:
            The matchers whose layers form the cube, in layer order.
        context:
            The match context; its schemas provide the path sets unless
            overridden.
        source_paths / target_paths:
            Optional explicit path sets (default: all paths of the context's
            schemas).

        Returns
        -------
        SimilarityCube
            One layer per matcher, stacked in matcher order.

        Examples
        --------
        >>> from repro.core.match_operation import build_context
        >>> from repro.datasets.figure1 import load_po1, load_po2
        >>> from repro.matchers.registry import DEFAULT_LIBRARY
        >>> context = build_context(load_po1(), load_po2())
        >>> cube = MatchEngine().execute(
        ...     DEFAULT_LIBRARY.create_many(["Name", "Leaves"]), context)
        >>> cube.matcher_names
        ('Name', 'Leaves')
        """
        sources = (
            tuple(source_paths) if source_paths is not None else context.source_schema.paths()
        )
        targets = (
            tuple(target_paths) if target_paths is not None else context.target_schema.paths()
        )
        with layer_memo(context):
            layers = [
                (matcher.name, self.compute_matrix(matcher, sources, targets, context))
                for matcher in matchers
            ]
        return SimilarityCube.from_layers(sources, targets, layers)

    def execute_partial(
        self,
        matchers: Sequence["Matcher"],
        context: "MatchContext",
        source_rows: Optional[Sequence["SchemaPath"]] = None,
        target_columns: Optional[Sequence["SchemaPath"]] = None,
    ) -> SimilarityCube:
        """Run every matcher over a *slice* of the match task's cell plane.

        The incremental re-matching tier re-runs matchers only on the rows
        (or columns) an edit touched and copies every other cell from the
        previous cube.  That splice is sound because per-cell values are
        independent of which subset is requested: batch matchers evaluate
        unique cache-key pairs and scatter, and the structural kernel reads
        a leaf matrix over the context's *full* schemas but evaluates only
        the requested rows and columns (plus, for Children, the paths
        beneath them).  A partial execution therefore costs what it asks
        for, and each of its cells is bitwise identical to the same cell of
        a full one.

        Parameters
        ----------
        matchers:
            The matchers whose layers form the cube, in layer order.
        context:
            The match context; axes not overridden below default to the full
            path sets of its schemas.
        source_rows:
            The source paths (rows) to compute, or ``None`` for all rows.
        target_columns:
            The target paths (columns) to compute, or ``None`` for all
            columns.

        Returns
        -------
        SimilarityCube
            A cube over ``source_rows x target_columns``, one layer per
            matcher.

        Examples
        --------
        >>> from repro.core.match_operation import build_context
        >>> from repro.datasets.figure1 import load_po1, load_po2
        >>> from repro.matchers.registry import DEFAULT_LIBRARY
        >>> a, b = load_po1(), load_po2()
        >>> context = build_context(a, b)
        >>> matchers = DEFAULT_LIBRARY.create_many(["Name", "Leaves"])
        >>> full = MatchEngine().execute(matchers, context)
        >>> part = MatchEngine().execute_partial(
        ...     matchers, context, source_rows=a.paths()[2:5])
        >>> bool((part.as_array() == full.as_array()[:, 2:5]).all())
        True
        """
        return self.execute(
            matchers, context, source_paths=source_rows, target_paths=target_columns
        )


#: The engine used by default throughout the system (vectorized, sequential).
DEFAULT_ENGINE = MatchEngine()

#: The pairwise reference engine: same interface, original cell-by-cell path.
PAIRWISE_REFERENCE_ENGINE = MatchEngine(use_batch=False)
