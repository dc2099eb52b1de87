"""Wire protocol of the query service: every JSON shape, in both directions.

This module is the only place a body shape is written down.  The HTTP
front-end (:mod:`repro.server.http`), ``repro batch`` and the cluster
router's node pushes all parse and render through it, so the same bytes
mean the same thing whichever door they arrive at.

One request is one JSON object -- ``POST /query``, one line of a ``POST
/batch`` body and one line of a ``repro batch --queries`` file alike, so
offline query files replay against a live server verbatim::

    {"keywords": ["w0001", "w0002"],   # or a "w0001,w0002" string
     "k": 10,                          # optional, service default otherwise
     "radius": 2.0,                    # optional
     "algorithm": "espq-sco",          # optional; "auto": the global scan
     "grid_size": 20,                  # optional
     "score_mode": "range",            # optional
     "deadline_ms": 250,               # optional latency budget (admission)
     "stats": true}                    # optional: attach execution stats

One response is one JSON object::

    {"results": [{"oid": ..., "score": ..., "x": ..., "y": ...}, ...],
     "algorithm": "espq-sco",          # as requested (may be "auto")
     "planned_algorithm": "global-scan",  # what "auto" ran
     "cached": false,                  # served from the result cache?
     "stats": {...}}                   # only when requested; an "auto"
                                       # answer has no "simulated_seconds"

Parsing resolves every optional field against the service defaults, so the
parsed request carries concrete values -- that is what makes the *canonical
query key* well defined: two requests that resolve to the same
``(k, radius, keywords, algorithm, grid size, score mode)`` hit the same
result-cache entry (within one dataset version).

Each direction has its inverse beside it: :func:`resolved_spec` renders a
parsed request back into a request object (what a router scatters) and
:func:`scored_entries` reads a response's ``results`` back into scored
objects (what a router gathers); both round-trip exactly, floats included,
which is what scatter-gather exactness rests on.

The state-changing bodies are built from one object-list codec
(:func:`encode_objects` / :func:`decode_objects`, one ``{"oid", "x", "y"[,
"keywords"]}`` object per data / feature object): :func:`dataset_body` /
:func:`parse_dataset_spec` for ``POST /datasets``, :func:`objects_body` /
:func:`parse_objects_spec` for ``POST /objects``, with the cluster router's
``"epoch"`` tag split off by :func:`split_epoch`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.scoring import SCORE_MODES
from repro.exceptions import InvalidQueryError
from repro.index.planner import BatchQuery
from repro.model.objects import DataObject, FeatureObject, SpatialObject
from repro.model.query import SpatialPreferenceQuery
from repro.model.result import QueryResult, ScoredObject

#: Result-stats keys copied into a response when ``"stats": true``.
STATS_KEYS = (
    "algorithm",
    "grid_size",
    "shuffled_records",
    "features_pruned",
    "features_examined",
    "score_computations",
    "simulated_seconds",
    "index",
    "sharding",
    "cluster",
)

#: Request fields the parser understands; anything else is rejected so a
#: typoed field name ("keyword") fails loudly instead of being ignored.
REQUEST_FIELDS = frozenset(
    {
        "keywords",
        "k",
        "radius",
        "algorithm",
        "grid_size",
        "score_mode",
        "stats",
        "deadline_ms",
    }
)


@dataclass(frozen=True)
class RequestDefaults:
    """Service-level defaults applied to unset request fields."""

    k: int
    radius: float
    algorithm: str
    grid_size: int
    score_mode: str = "range"


@dataclass(frozen=True)
class ParsedRequest:
    """A fully resolved request: every optional field made concrete.

    Attributes:
        item: The batch item handed to ``SPQEngine.execute_many`` (all
            overrides set explicitly, never deferring to batch defaults --
            micro-batch composition must not change a request's meaning).
        include_stats: Attach the :data:`STATS_KEYS` subset to the response.
        deadline_ms: Client latency budget for admission control (None =
            service default).  Deliberately *not* part of the canonical
            key: a deadline changes when a request is worth serving, never
            what its answer is, so requests differing only in deadline
            share one cache entry.
    """

    item: BatchQuery
    include_stats: bool = False
    deadline_ms: Optional[float] = None

    def canonical_key(self, dataset_version: int) -> Tuple[object, ...]:
        """The result-cache key of this request under one dataset snapshot."""
        query = self.item.query
        return (
            dataset_version,
            query.k,
            query.radius,
            tuple(sorted(query.keywords)),
            self.item.algorithm,
            self.item.grid_size,
            self.item.score_mode,
        )


def parse_query_spec(
    spec: Mapping[str, object],
    defaults: RequestDefaults,
    algorithm_choices: Tuple[str, ...],
) -> ParsedRequest:
    """Parse one request object into a :class:`ParsedRequest`.

    Raises:
        InvalidQueryError: for a structurally invalid request (wrong types,
            unknown fields, unknown algorithm / score mode, invalid query
            parameters).  Combination rules (e.g. ``auto`` only with the
            ``range`` score mode) are enforced separately by
            ``SPQEngine.validate_combination``.
    """
    if not isinstance(spec, Mapping):
        raise InvalidQueryError(
            f"request must be a JSON object, got {type(spec).__name__}"
        )
    unknown = set(spec) - REQUEST_FIELDS
    if unknown:
        raise InvalidQueryError(
            f"unknown request field(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(REQUEST_FIELDS)}"
        )

    keywords = spec.get("keywords")
    if isinstance(keywords, str):
        keywords = keywords.split(",")
    if isinstance(keywords, (list, tuple)) and all(
        isinstance(word, str) for word in keywords
    ):
        # Strip whitespace identically for both spellings, so [" w0001"] and
        # "w0001" resolve to the same canonical query (and cache entry).
        keywords = [word for word in map(str.strip, keywords) if word]
    else:
        keywords = None
    if not keywords:
        raise InvalidQueryError(
            "'keywords' must be a non-empty list of non-empty strings "
            "(or a comma-separated string)"
        )

    k = _int_field(spec, "k", defaults.k, minimum=1)
    grid_size = _int_field(spec, "grid_size", defaults.grid_size, minimum=1)

    radius = spec.get("radius", defaults.radius)
    if not _is_finite_number(radius):
        # json.loads accepts the bare tokens NaN/Infinity; letting them
        # through would emit invalid JSON (NaN) or crash the grid (inf).
        raise InvalidQueryError(f"'radius' must be a finite number, got {radius!r}")

    algorithm = spec.get("algorithm", defaults.algorithm)
    if algorithm not in algorithm_choices:
        raise InvalidQueryError(
            f"unknown algorithm {algorithm!r}; expected one of {algorithm_choices}"
        )
    score_mode = spec.get("score_mode", defaults.score_mode)
    if score_mode not in SCORE_MODES:
        raise InvalidQueryError(
            f"unknown score_mode {score_mode!r}; expected one of {SCORE_MODES}"
        )
    include_stats = spec.get("stats", False)
    if not isinstance(include_stats, bool):
        raise InvalidQueryError(f"'stats' must be a boolean, got {include_stats!r}")

    deadline_ms = spec.get("deadline_ms")
    if deadline_ms is not None:
        if not _is_finite_number(deadline_ms) or deadline_ms <= 0:
            raise InvalidQueryError(
                f"'deadline_ms' must be a positive finite number, "
                f"got {deadline_ms!r}"
            )
        deadline_ms = float(deadline_ms)

    query = SpatialPreferenceQuery.create(
        k=k, radius=float(radius), keywords=keywords
    )
    return ParsedRequest(
        item=BatchQuery(
            query=query,
            algorithm=str(algorithm),
            grid_size=grid_size,
            score_mode=str(score_mode),
        ),
        include_stats=include_stats,
        deadline_ms=deadline_ms,
    )


def _is_finite_number(value: object) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and math.isfinite(value)
    )


def _int_field(
    spec: Mapping[str, object], name: str, default: int, minimum: int
) -> int:
    value = spec.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidQueryError(f"{name!r} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidQueryError(f"{name!r} must be >= {minimum}, got {value}")
    return value


def resolved_spec(item: BatchQuery) -> Dict[str, object]:
    """The request object of a resolved item: :func:`parse_query_spec`'s inverse.

    Every field is explicit, so whoever parses it -- a shard service, a
    cluster node -- can never reinterpret it through defaults of its own,
    and it always asks for stats (routers cache the stats-bearing payload
    and strip on answer).
    """
    return {
        "keywords": sorted(item.query.keywords),
        "k": item.query.k,
        "radius": item.query.radius,
        "algorithm": item.algorithm,
        "grid_size": item.grid_size,
        "score_mode": item.score_mode,
        "stats": True,
    }


def result_payload(
    parsed: ParsedRequest, result: QueryResult, cached: bool = False
) -> Dict[str, object]:
    """Build the response object of one executed (or cache-served) request."""
    payload: Dict[str, object] = {
        "results": [
            {"oid": entry.obj.oid, "score": entry.score,
             "x": entry.obj.x, "y": entry.obj.y}
            for entry in result
        ],
        "k": parsed.item.query.k,
        "radius": parsed.item.query.radius,
        "keywords": sorted(parsed.item.query.keywords),
        "algorithm": parsed.item.algorithm,
        "cached": cached,
    }
    if "planned_algorithm" in result.stats:
        payload["planned_algorithm"] = result.stats["planned_algorithm"]
    if parsed.include_stats:
        payload["stats"] = {
            key: result.stats[key] for key in STATS_KEYS if key in result.stats
        }
    return payload


def scored_entries(results: Iterable[Mapping[str, object]]) -> List[ScoredObject]:
    """A response's ``"results"`` list as scored objects: the inverse of the
    rendering in :func:`result_payload`, bit-for-bit on the floats."""
    return [
        ScoredObject(
            DataObject(oid=entry["oid"], x=entry["x"], y=entry["y"]),
            entry["score"],
        )
        for entry in results
    ]


def copy_payload(payload: Mapping[str, object]) -> Dict[str, object]:
    """Recursive copy of a response payload (containers only).

    Payloads are plain JSON trees -- and stats-bearing ones nest three
    levels deep (``stats.index``, ``stats.sharding``) -- so every
    dict and list is copied: a cache entry never shares mutable state with
    a delivered response, however deep a caller mutates it.
    """
    return {key: _copy_value(value) for key, value in payload.items()}


def _copy_value(value: object) -> object:
    if isinstance(value, Mapping):
        return {key: _copy_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_value(item) for item in value]
    return value


def error_payload(message: str) -> Dict[str, str]:
    """The uniform error response body."""
    return {"error": message}


def batch_lines(payloads: List[Dict[str, object]]) -> str:
    """Serialize batch responses as JSONL (one response object per line)."""
    return "".join(json.dumps(payload) + "\n" for payload in payloads)


# --------------------------------------------------------------------- #
# request bodies: JSON text, batches


def load_json(body: Union[bytes, str]) -> object:
    """Decode one JSON request body.

    Raises:
        ValueError: ``invalid JSON: ...`` for undecodable text.
    """
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc


def split_batch_body(body: Union[bytes, str]) -> List[Tuple[int, object]]:
    """Split a batch body into ``(line number, request object)`` pairs.

    The body is JSONL -- one object per line, blank lines and ``#`` comment
    lines skipped, numbered as in the body -- or a single JSON array
    (numbered by position).  Serves ``POST /batch`` and ``repro batch
    --queries`` alike; the objects themselves are validated later, by
    :func:`parse_query_spec`.

    Raises:
        ValueError: for an empty body, invalid JSON (``line N: ...``) or a
            body without queries.
    """
    if isinstance(body, bytes):
        body = body.decode("utf-8", errors="replace")
    head = body.lstrip()
    if not head:
        raise ValueError("empty batch body; send JSONL or a JSON array")
    if head.startswith("["):
        try:
            specs = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON array: {exc}") from exc
        if not isinstance(specs, list):
            raise ValueError("batch body must be a JSON array or JSONL")
        return list(enumerate(specs, start=1))
    numbered: List[Tuple[int, object]] = []
    for number, line in enumerate(body.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            numbered.append((number, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {number}: invalid JSON ({exc})") from exc
    if not numbered:
        raise ValueError("batch body contains no queries")
    return numbered


# --------------------------------------------------------------------- #
# object lists and the state-changing bodies built from them


def encode_objects(objects: Iterable[SpatialObject]) -> List[Dict[str, object]]:
    """Data / feature objects as wire objects: ``{"oid", "x", "y"}``, plus
    the sorted ``"keywords"`` of a feature object."""
    encoded = []
    for obj in objects:
        row: Dict[str, object] = {"oid": obj.oid, "x": obj.x, "y": obj.y}
        if isinstance(obj, FeatureObject):
            row["keywords"] = list(obj.keywords)
        encoded.append(row)
    return encoded


def decode_objects(rows: Iterable[Mapping[str, object]], features: bool) -> List:
    """Wire objects back into data (or, with ``features``, feature) objects.

    The inverse of :func:`encode_objects`; a feature object without
    ``"keywords"`` has none.

    Raises:
        ValueError: ``malformed inline object: ...`` for a missing field, a
            value that is not a number, or ``"keywords"`` given as one string.
    """
    try:
        if features:
            return [
                FeatureObject(
                    oid=str(row["oid"]),
                    x=float(row["x"]),
                    y=float(row["y"]),
                    keywords=_words(row.get("keywords", [])),
                )
                for row in rows
            ]
        return [
            DataObject(oid=str(row["oid"]), x=float(row["x"]), y=float(row["y"]))
            for row in rows
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed inline object: {exc}") from exc


def _words(keywords: object) -> List[str]:
    # A string would iterate as its characters: "cafe,bar" is no word list.
    if isinstance(keywords, str):
        raise TypeError(f"'keywords' must be a list of words, not {keywords!r}")
    return [str(word) for word in keywords]


def split_epoch(spec: object, accepted: bool = True) -> Tuple[object, Dict[str, str]]:
    """Split the cluster router's ``"epoch"`` tag off a push body.

    Returns the body without the tag and ``{"epoch": tag}`` -- or the body
    untouched and ``{}`` when it carries none, or when the receiving
    service is not one that ``accepted`` it (only shard nodes are; anywhere
    else the tag stays in the body and is rejected as an unknown field).

    Raises:
        ValueError: for an epoch that is not a non-empty string.
    """
    if not accepted or not isinstance(spec, Mapping) or "epoch" not in spec:
        return spec, {}
    spec = dict(spec)
    epoch = spec.pop("epoch")
    if not isinstance(epoch, str) or not epoch:
        raise ValueError(f"'epoch' must be a non-empty string, got {epoch!r}")
    return spec, {"epoch": epoch}


def _reject_unknown(
    section: str, spec: Mapping[str, object], allowed: set, expected: str
) -> None:
    unknown = set(spec) - allowed
    if unknown:
        raise ValueError(
            f"unknown {section}field(s) {sorted(unknown)}; expected {expected}"
        )


def _tagged(body: Dict[str, object], epoch: Optional[str]) -> Dict[str, object]:
    return body if epoch is None else {"epoch": epoch, **body}


def dataset_body(
    data_objects: Iterable[DataObject],
    feature_objects: Iterable[FeatureObject],
    epoch: Optional[str] = None,
) -> Dict[str, object]:
    """The inline ``POST /datasets`` body of one snapshot (epoch-tagged when
    the cluster router pushes it)."""
    return _tagged(
        {
            "data_objects": encode_objects(data_objects),
            "feature_objects": encode_objects(feature_objects),
        },
        epoch,
    )


def parse_dataset_spec(spec: object) -> Tuple[List, List]:
    """Resolve a ``POST /datasets`` body into (data objects, feature objects).

    Two body shapes are accepted:

    * ``{"path": "file.tsv"}`` -- a dataset file in the ``repro generate``
      text format, loaded server-side (the operational path: generate or
      copy the file next to the server, then swap);
    * ``{"data_objects": [{"oid", "x", "y"}, ...],
      "feature_objects": [{"oid", "x", "y", "keywords": [...]}, ...]}`` --
      inline object lists (the programmatic path, practical for tests and
      small datasets; what :func:`dataset_body` renders).

    Raises:
        ValueError: for a structurally invalid body, an unreadable or
            malformed dataset file, or a dataset without data objects.
    """
    from repro.datagen.io import load_dataset
    from repro.exceptions import DatasetFormatError

    if not isinstance(spec, Mapping):
        raise ValueError(f"body must be a JSON object, got {type(spec).__name__}")
    _reject_unknown(
        "", spec, {"path", "data_objects", "feature_objects"},
        "'path' or 'data_objects' + 'feature_objects'",
    )
    if "path" in spec:
        if "data_objects" in spec or "feature_objects" in spec:
            raise ValueError("'path' and inline object lists are mutually exclusive")
        path = spec["path"]
        if not isinstance(path, str) or not path:
            raise ValueError(f"'path' must be a non-empty string, got {path!r}")
        try:
            data, features = load_dataset(path)
        except OSError as exc:
            raise ValueError(f"cannot read dataset file: {exc}") from exc
        except DatasetFormatError as exc:
            raise ValueError(f"malformed dataset file: {exc}") from exc
    else:
        raw_data = spec.get("data_objects")
        raw_features = spec.get("feature_objects", [])
        if not isinstance(raw_data, list) or not isinstance(raw_features, list):
            raise ValueError(
                "'data_objects' and 'feature_objects' must be lists of objects"
            )
        data = decode_objects(raw_data, features=False)
        features = decode_objects(raw_features, features=True)
    if not data:
        raise ValueError("dataset contains no data objects")
    return data, features


def objects_body(
    update: Mapping[str, Sequence], epoch: Optional[str] = None
) -> Dict[str, object]:
    """The ``POST /objects`` body of one write batch, given as the keyword
    arguments of ``apply_objects``.

    An all-empty update is still a body: with an epoch tag a shard node
    accepts it as a pure epoch bump.
    """
    return _tagged(
        {
            "append": {
                "data_objects": encode_objects(update["append_data"]),
                "feature_objects": encode_objects(update["append_features"]),
            },
            "delete": {
                "data_oids": update["delete_data_oids"],
                "feature_oids": update["delete_feature_oids"],
            },
        },
        epoch,
    )


def parse_objects_spec(spec: object, allow_empty: bool = False) -> Dict[str, List]:
    """Resolve a ``POST /objects`` body into ``apply_objects`` arguments.

    Body shape (both sections optional, but not both absent unless
    ``allow_empty`` -- an epoch-tagged router push may carry no work)::

        {"append": {"data_objects": [{"oid", "x", "y"}, ...],
                    "feature_objects": [{"oid", "x", "y", "keywords"}, ...]},
         "delete": {"data_oids": ["d1", ...], "feature_oids": ["f1", ...]}}

    Returns:
        ``{"append_data", "append_features", "delete_data_oids",
        "delete_feature_oids"}`` -- what :func:`objects_body` renders.

    Raises:
        ValueError: for a structurally invalid body or an empty update.
    """
    if not isinstance(spec, Mapping):
        raise ValueError(f"body must be a JSON object, got {type(spec).__name__}")
    _reject_unknown("", spec, {"append", "delete"}, "'append' and/or 'delete'")
    append = spec.get("append", {})
    delete = spec.get("delete", {})
    if not isinstance(append, Mapping) or not isinstance(delete, Mapping):
        raise ValueError("'append' and 'delete' must be JSON objects")
    _reject_unknown(
        "append ", append, {"data_objects", "feature_objects"},
        "'data_objects' and/or 'feature_objects'",
    )
    _reject_unknown(
        "delete ", delete, {"data_oids", "feature_oids"},
        "'data_oids' and/or 'feature_oids'",
    )
    raw = {
        "append.data_objects": append.get("data_objects", []),
        "append.feature_objects": append.get("feature_objects", []),
        "delete.data_oids": delete.get("data_oids", []),
        "delete.feature_oids": delete.get("feature_oids", []),
    }
    for name, value in raw.items():
        if not isinstance(value, list):
            raise ValueError(f"'{name}' must be a list")
    update = {
        "append_data": decode_objects(raw["append.data_objects"], features=False),
        "append_features": decode_objects(
            raw["append.feature_objects"], features=True
        ),
        "delete_data_oids": [str(oid) for oid in raw["delete.data_oids"]],
        "delete_feature_oids": [str(oid) for oid in raw["delete.feature_oids"]],
    }
    if not allow_empty and not any(update.values()):
        raise ValueError("empty update: nothing to append or delete")
    return update
