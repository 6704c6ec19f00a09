"""The process-pool wire codec: compact frames for schemas, specs and results.

The process backend moves three kinds of payload between the parent and its
worker processes: *schemas* (shipped once per worker, as the loss-less JSON
document of :mod:`repro.repository.serialization`), *strategy specs* (the
declarative strings of :mod:`repro.core.spec`) and *match outcomes*.  None of
these go through :mod:`pickle` object graphs -- a frame is a small JSON header
followed by raw buffers, so

* similarity layers travel as the bytes of the computed ``float64`` numpy
  arrays, so a reassembled cube is **bit-identical** to the one the worker
  produced (which in turn is bit-identical to a serial in-process execution
  -- the property the differential test suite locks down);
* the parent and worker only need to agree on this module, not on the pickle
  compatibility of every model class;
* decoding cost is one JSON parse plus ``np.frombuffer`` views; a rebuilt
  cube's stack is copied out of the frame once, so a cached cube never keeps
  a whole batch frame alive.

Frame layout (all integers big-endian)::

    magic   4 bytes   b"CPF2"
    hlen    u32       length of the JSON header
    header  hlen      UTF-8 JSON object (must carry a "kind" key)
    count   u32       number of raw buffers
    count * (u64 length + payload bytes)

Examples
--------
>>> frame = encode_frame({"kind": "ping"}, [b"abc"])
>>> header, buffers = decode_frame(frame)
>>> header["kind"], bytes(buffers[0])
('ping', b'abc')
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.combination.cube import SimilarityCube
from repro.combination.matrix import SimilarityMatrix
from repro.exceptions import ServiceError
from repro.model.mapping import MatchResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.match_operation import MatchOutcome
    from repro.model.schema import Schema

#: Frame magic; bump the digit when the layout changes so a version-skewed
#: worker fails loudly instead of misreading buffers.
MAGIC = b"CPF2"

_PREFIX = struct.Struct(">4sI")
_COUNT = struct.Struct(">I")
_BUFFER_LENGTH = struct.Struct(">Q")


def encode_frame(header: Dict[str, object], buffers: Sequence[object] = ()) -> bytes:
    """Serialise one message: a JSON header plus raw byte buffers.

    ``buffers`` entries may be ``bytes``-like or numpy arrays (sent as their
    C-order byte representation).
    """
    header_bytes = json.dumps(
        header, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    parts = [
        _PREFIX.pack(MAGIC, len(header_bytes)),
        header_bytes,
        _COUNT.pack(len(buffers)),
    ]
    for item in buffers:
        if isinstance(item, np.ndarray):
            # A byte view of the array: the join below is its only copy.
            data = np.ascontiguousarray(item, dtype=np.float64).reshape(-1).view(np.uint8)
        else:
            data = bytes(item)
        parts.append(_BUFFER_LENGTH.pack(len(data)))
        parts.append(data)
    return b"".join(parts)


def decode_frame(data: bytes) -> Tuple[Dict[str, object], List[memoryview]]:
    """Decode one frame into ``(header, buffers)``.

    Buffers are returned as zero-copy memoryviews into ``data``.

    Raises
    ------
    ServiceError
        If the frame is truncated or carries the wrong magic.
    """
    view = memoryview(data)
    try:
        magic, header_length = _PREFIX.unpack_from(view, 0)
        if magic != MAGIC:
            raise ServiceError(
                f"bad wire frame magic {magic!r} (version skew between the "
                f"parent and a match worker?)"
            )
        offset = _PREFIX.size
        header = json.loads(bytes(view[offset:offset + header_length]).decode("utf-8"))
        offset += header_length
        (count,) = _COUNT.unpack_from(view, offset)
        offset += _COUNT.size
        buffers: List[memoryview] = []
        for _ in range(count):
            (length,) = _BUFFER_LENGTH.unpack_from(view, offset)
            offset += _BUFFER_LENGTH.size
            if offset + int(length) > len(view):
                raise ValueError(
                    f"buffer of {length} bytes extends past the frame end"
                )
            buffers.append(view[offset:offset + int(length)])
            offset += int(length)
    except (struct.error, ValueError, json.JSONDecodeError) as error:
        raise ServiceError(f"truncated or corrupt wire frame: {error}") from error
    if not isinstance(header, dict) or "kind" not in header:
        raise ServiceError("wire frame header must be a JSON object with a 'kind'")
    return header, buffers


# -- outcome encoding (worker side) ---------------------------------------------


def encode_outcomes(outcomes: Sequence["MatchOutcome"]) -> bytes:
    """Encode a batch of match outcomes as one ``outcomes`` frame.

    Per outcome the header carries the matcher names, the cube shape, the
    selected pairs as ``(row, column)`` indexes into the cube's path axes
    (names may repeat on an axis, indexes do not) and the strategy spec
    actually used; three raw ``float64`` buffers carry the cube stack, the
    aggregated matrix and the correspondence similarities (with the combined
    schema similarity appended as the final element), so every float
    crosses the boundary bit-exactly.

    The pairs are the result's cells
    (:meth:`~repro.model.mapping.MatchResult.cells`), as the match built
    them; a result changed since has none and raises :class:`ServiceError`.
    """
    items: List[Dict[str, object]] = []
    buffers: List[object] = []
    for outcome in outcomes:
        stack = outcome.cube.as_array()
        cells = outcome.result.cells()
        if cells is None:
            raise ServiceError("only a match result as its match built it can be encoded")
        rows, columns, similarities = cells
        sims = np.array(similarities + [outcome.schema_similarity], dtype=np.float64)
        items.append(
            {
                "matchers": list(outcome.cube.matcher_names),
                "shape": list(stack.shape),
                "pairs": [[row, column] for row, column in zip(rows, columns)],
                "strategy": outcome.strategy.to_spec(),
                "buffers": [len(buffers), len(buffers) + 1, len(buffers) + 2],
            }
        )
        buffers.extend([stack, outcome.aggregated.values, sims])
    return encode_frame({"kind": "outcomes", "items": items}, buffers)


# -- outcome rebuilding (parent side) -------------------------------------------


def rebuild_outcome(
    item: Dict[str, object],
    buffers: Sequence[memoryview],
    source: "Schema",
    target: "Schema",
    strategy,
    context,
) -> "MatchOutcome":
    """Reassemble one :class:`~repro.core.match_operation.MatchOutcome`.

    ``source`` / ``target`` are the *parent's* schema objects -- the worker
    matched content-identical reconstructions, so the path axes line up by
    construction (a shape mismatch means the schema mutated between digesting
    and dispatching and is reported as a :class:`ServiceError`, as is a pair
    index outside the cube).  All floats
    are taken from the raw buffers, never from JSON, so the rebuilt outcome
    is bit-identical to the worker's.
    """
    from repro.core.match_operation import MatchOutcome

    source_paths = source.paths()
    target_paths = target.paths()
    matcher_names = list(item["matchers"])
    shape = tuple(int(value) for value in item["shape"])
    if shape != (len(matcher_names), len(source_paths), len(target_paths)):
        raise ServiceError(
            f"match worker returned a cube of shape {shape} for path axes "
            f"({len(source_paths)}, {len(target_paths)}); was a schema "
            f"mutated mid-request?"
        )
    cube_index, aggregated_index, sims_index = (int(i) for i in item["buffers"])
    # The stack is copied out of the frame, so the cached cube does not keep
    # the whole receive buffer alive; the aggregated matrix copies its own.
    stack = np.frombuffer(buffers[cube_index], dtype=np.float64).reshape(shape).copy()
    aggregated_values = np.frombuffer(
        buffers[aggregated_index], dtype=np.float64
    ).reshape(shape[1], shape[2])
    sims = np.frombuffer(buffers[sims_index], dtype=np.float64)
    pairs = list(item["pairs"])
    if len(sims) != len(pairs) + 1:
        raise ServiceError(
            f"match worker returned {len(sims)} similarities for "
            f"{len(pairs)} correspondences"
        )
    cube = SimilarityCube(source_paths, target_paths, matcher_names, stack)
    aggregated = SimilarityMatrix(source_paths, target_paths, aggregated_values)
    for row, column in pairs:
        if not (0 <= row < shape[1] and 0 <= column < shape[2]):
            raise ServiceError(
                f"match worker returned a correspondence at ({row}, {column}), "
                f"outside its {shape[1]} x {shape[2]} cube"
            )
    result = MatchResult.from_cells(
        source, target, source_paths, target_paths,
        [row for row, _ in pairs], [column for _, column in pairs], sims[:-1],
    )
    return MatchOutcome(
        result=result,
        cube=cube,
        aggregated=aggregated,
        schema_similarity=float(sims[-1]),
        strategy=strategy,
        context=context,
    )


# -- error frames ----------------------------------------------------------------


def encode_error(error: BaseException) -> bytes:
    """Encode an exception as an ``error`` frame (type name + message + status)."""
    status = getattr(error, "status", 0)
    return encode_frame(
        {
            "kind": "error",
            "error": str(error),
            "error_type": type(error).__name__,
            "status": int(status) if isinstance(status, int) else 0,
        }
    )


def raise_remote_error(header: Dict[str, object]) -> None:
    """Re-raise a worker's ``error`` frame as a :class:`ServiceError`."""
    raise ServiceError(
        f"match worker failed: {header.get('error_type', 'Error')}: "
        f"{header.get('error', 'unknown error')}",
        status=int(header.get("status", 0) or 0),
    )


def schema_payload(schema: "Schema") -> bytes:
    """The wire form of one schema (the loss-less repository JSON document)."""
    from repro.repository.serialization import schema_to_json

    return schema_to_json(schema).encode("utf-8")


def schema_from_payload(payload: memoryview) -> "Schema":
    """Rebuild a schema from its wire form."""
    from repro.repository.serialization import schema_from_json

    return schema_from_json(bytes(payload).decode("utf-8"))
