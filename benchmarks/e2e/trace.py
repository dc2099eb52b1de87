"""Outside-in tracing: spans around the repo's layer boundaries.

Nothing in ``src/repro`` knows about tracing.  :class:`Tracer` wraps the
public functions that sit at layer boundaries with ``setattr`` at run time
(and puts the originals back afterwards); each call records one span --
name, start, end, in-thread parent, thread and the operation id of the
benchmark operation in flight.  Spans live in memory and are written as
JSONL when the run ends.

The traced run uses a single client, so exactly one operation is in flight
at a time and thread hops (the micro-batch dispatcher, the scatter pool)
can be attributed by *time containment*: a span with no parent in its own
thread hangs under the innermost span of any other thread that encloses it
in time.  A layer's *self time* is its span minus the union of its child
spans, so the self times of one operation's tree add up exactly to the
duration of its root -- the client-side span the benchmark times.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: ``span name -> [(module, attribute path)]``: where each layer boundary
#: lives.  A module-level function imported by name elsewhere is patched in
#: every namespace that calls it.
PATCH_POINTS: Dict[str, Sequence[Tuple[str, str]]] = {
    "core.engine": [
        ("repro.core.engine", "SPQEngine.execute"),
        ("repro.core.engine", "SPQEngine.execute_many"),
    ],
    "mapreduce.run": [("repro.mapreduce.runtime", "LocalJobRunner.run")],
    "execution.map": [("repro.execution.serial", "SerialBackend.run_map_tasks")],
    "execution.reduce": [
        ("repro.execution.serial", "SerialBackend.run_reduce_tasks"),
    ],
    "model.merge_top_k": [
        ("repro.core.engine", "merge_top_k"),
        ("repro.cluster.router", "merge_top_k"),
        ("repro.sharding.router", "merge_top_k"),
    ],
    "index.build": [("repro.index.dataset_index", "DatasetIndex.__init__")],
    "index.prepare": [("repro.index.dataset_index", "DatasetIndex.prepare")],
    "planner.collect": [("repro.planner.core", "QueryPlanner.collect")],
    "planner.decide": [("repro.planner.core", "QueryPlanner.decide")],
    "planner.observe": [("repro.planner.core", "QueryPlanner.observe")],
    "server.http": [("repro.server.http", "_ServiceRequestHandler.do_POST")],
    "server.protocol.parse": [
        ("repro.server.service", "parse_query_spec"),
        ("repro.cluster.router", "parse_query_spec"),
        ("repro.sharding.router", "parse_query_spec"),
        ("repro.server.http", "_parse_objects_spec"),
    ],
    "server.protocol.payload": [
        ("repro.server.service", "result_payload"),
        ("repro.cluster.router", "result_payload"),
        ("repro.sharding.router", "result_payload"),
    ],
    "server.admission.wait": [
        ("repro.server.admission", "AdmissionController.on_arrival"),
        ("repro.server.admission", "AdmissionController.acquire"),
    ],
    "server.batching.wait": [("repro.server.batching", "PendingRequest.wait")],
    "server.cache.get": [("repro.server.cache", "ResultCache.get")],
    "server.cache.put": [("repro.server.cache", "ResultCache.put")],
    "server.service": [
        ("repro.server.service", "QueryService.submit"),
        ("repro.server.service", "QueryService.apply_objects"),
    ],
    "index.delta.apply": [("repro.index.delta", "DatasetDelta.apply")],
    "index.compact": [("repro.server.service", "QueryService.compact")],
    "cluster.router": [
        ("repro.cluster.router", "ClusterRouter.submit"),
    ],
    "cluster.write_push": [("repro.cluster.router", "ClusterRouter.apply_objects")],
    # post_json only: heartbeats (get_json) run on their own thread and
    # would be mis-attributed to whatever operation happens to enclose them.
    "cluster.transport.roundtrip": [("repro.cluster.router", "post_json")],
    "sharding.router": [("repro.sharding.router", "ShardRouter.submit")],
}

#: The root span the benchmark opens around every timed operation.
ROOT_SPAN = "bench.client"


class Span:
    """One recorded call."""

    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "op")

    def __init__(
        self, sid: int, name: str, start: float, parent: Optional[int],
        thread: int, op: Optional[int],
    ) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.op = op

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        """The JSONL row of this span."""
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "thread": self.thread,
            "op": self.op,
        }


class Tracer:
    """Records spans; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []
        self._current_op: Optional[int] = None
        self._next_op = 0
        #: ``span name -> callback(result)``: lets the run read counters off
        #: the values crossing a traced boundary (called after the span ends).
        self.taps: Dict[str, Callable[[object], None]] = {}

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1].sid if stack else None
        with self._lock:
            span = Span(
                len(self.spans), name, 0.0, parent,
                threading.get_ident(), self._current_op,
            )
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    def operation(self) -> "_Operation":
        """Context manager: one benchmark operation and its root span."""
        return _Operation(self)

    def _wrap(self, name: str, original: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            # Only inside a benchmark operation: the oracle's own engine
            # crosses the same boundaries between operations.
            if span.op is not None:
                tap = tracer.taps.get(name)
                if tap is not None:
                    tap(result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every patch point (idempotent per tracer)."""
        if self._installed:
            return
        for name, targets in PATCH_POINTS.items():
            for module_name, path in targets:
                owner: object = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = owner.__dict__[attribute] if isinstance(
                    owner, type
                ) else getattr(owner, attribute)
                setattr(owner, attribute, self._wrap(name, original))
                self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed = []

    # --------------------------------------------------------------- output

    def write_jsonl(self, path) -> None:
        """One span per line, in recording order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


class _Operation:
    """``with tracer.operation() as root`` -- scopes one operation id."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        tracer._current_op = tracer._next_op
        tracer._next_op += 1
        self.span = tracer._open(ROOT_SPAN)
        return self.span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close(self.span)
        self._tracer._current_op = None


# --------------------------------------------------------------------- #
# analysis


def attach_by_containment(spans: Sequence[Span]) -> Dict[int, Optional[int]]:
    """Resolved parent of every span: in-thread parent, else time containment.

    A span without an in-thread parent (the first frame of a dispatcher,
    scatter-pool or handler thread) is hung under the innermost span of
    another thread that encloses it in time.  Spans nothing encloses stay
    roots: the benchmark's own operation roots, and background work that
    outlives the operation that triggered it.
    """
    parents: Dict[int, Optional[int]] = {s.sid: s.parent for s in spans}
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    active: List[Span] = []
    for span in ordered:
        active = [other for other in active if other.end >= span.start]
        if span.parent is None and span.name != ROOT_SPAN:
            best: Optional[Span] = None
            for other in active:
                if other.thread == span.thread or other.end < span.end:
                    continue
                if best is None or other.start >= best.start:
                    best = other
            if best is not None:
                parents[span.sid] = best.sid
        active.append(span)
    return parents


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def concurrent_shares(
    intervals: Sequence[Tuple[float, float]]
) -> List[float]:
    """Each interval's share of the time the intervals cover together.

    Where ``n`` intervals overlap, each is credited ``1/n`` of that stretch,
    so the shares add up to :func:`union_length` -- the wall-clock the
    caller actually waited, however many threads were busy.
    """
    shares = [0.0] * len(intervals)
    bounds = sorted({edge for interval in intervals for edge in interval})
    for low, high in zip(bounds, bounds[1:]):
        active = [
            index for index, (start, end) in enumerate(intervals)
            if start <= low and high <= end
        ]
        for index in active:
            shares[index] += (high - low) / len(active)
    return shares


def self_times(
    spans: Sequence[Span], parents: Dict[int, Optional[int]]
) -> Dict[int, float]:
    """Self time per span id, in wall-clock seconds of its operation.

    A span's self time is its duration minus the union of its child spans.
    Children that run concurrently (a scatter's round trips on pool
    threads) split the stretch they overlap, and that discount carries down
    their subtrees, so the self times of one tree always add up to the
    duration of its root.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        parent = parents[span.sid]
        if parent is not None:
            children[parent].append(span)
    scale: Dict[int, float] = {}
    result: Dict[int, float] = {}
    # Parents enclose their children, so this order visits parents first.
    for span in sorted(spans, key=lambda s: (s.start, -s.end, s.sid)):
        weight = scale.setdefault(span.sid, 1.0)
        kids = children[span.sid]
        clipped = [
            (max(kid.start, span.start), min(kid.end, span.end)) for kid in kids
        ]
        clipped = [(start, max(start, end)) for start, end in clipped]
        covered = union_length(clipped)
        result[span.sid] = weight * max(0.0, span.duration - covered)
        lengths = [end - start for start, end in clipped]
        if covered < sum(lengths):
            lengths = concurrent_shares(clipped)
        for kid, share in zip(kids, lengths):
            scale[kid.sid] = weight * share / kid.duration if kid.duration else 0.0
    return result


def roots_of(
    spans: Sequence[Span], parents: Dict[int, Optional[int]]
) -> Dict[int, int]:
    """The root span id each span's tree hangs from."""
    roots: Dict[int, int] = {}
    for span in spans:
        path = []
        current = span.sid
        while current not in roots and parents[current] is not None:
            path.append(current)
            current = parents[current]
        root = roots.get(current, current)
        roots[current] = root
        for sid in path:
            roots[sid] = root
    return roots


class TraceSummary:
    """Per-layer self times of the operations rooted at ``bench.client``."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = [span for span in spans if span.end >= span.start]
        self.parents = attach_by_containment(self.spans)
        self.self_time = self_times(self.spans, self.parents)
        roots = roots_of(self.spans, self.parents)
        by_id = {span.sid: span for span in self.spans}
        #: Spans inside an operation tree (root is a ``bench.client`` span).
        self.in_operation = {
            span.sid for span in self.spans
            if by_id[roots[span.sid]].name == ROOT_SPAN
        }
        self.operations = sum(1 for s in self.spans if s.name == ROOT_SPAN)

    def self_seconds(self, name: str, ops: Optional[Set[int]] = None) -> float:
        """Summed self time of ``name`` inside (the given) operation trees."""
        return sum(
            self.self_time[span.sid] for span in self.spans
            if span.name == name and span.sid in self.in_operation
            and (ops is None or span.op in ops)
        )

    def self_ms_per_operation(
        self, name: str, ops: Optional[Set[int]] = None
    ) -> float:
        """Mean self milliseconds of layer ``name`` per operation."""
        count = len(ops) if ops is not None else self.operations
        return 1000.0 * self.self_seconds(name, ops) / count if count else 0.0

    def durations(self, name: str) -> List[float]:
        """Durations (seconds) of every ``name`` span, in or out of a tree."""
        return [span.duration for span in self.spans if span.name == name]

    def end_to_end_seconds(self) -> float:
        """Summed duration of the operation roots."""
        return sum(s.duration for s in self.spans if s.name == ROOT_SPAN)

    def accounted_seconds(self) -> float:
        """Summed self time over every span of every operation tree."""
        return sum(self.self_time[sid] for sid in self.in_operation)

    def layer_table(self) -> Dict[str, float]:
        """``layer -> self ms per operation`` for every layer seen."""
        names = sorted({s.name for s in self.spans if s.sid in self.in_operation})
        return {name: self.self_ms_per_operation(name) for name in names}
