"""A bulk-loaded R-tree (Sort-Tile-Recursive packing) for point data.

The paper's related work evaluates centralized spatial preference queries over
R-tree-indexed data (e.g. Yiu et al., Rocha-Junior et al.).  This module
provides the spatial index needed to implement such a centralized, indexed
baseline: an STR-packed R-tree over points supporting range (disk) queries and
bounding-box queries, with node-access accounting so baselines can report I/O
style cost next to the MapReduce algorithms' counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generic, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.spatial.geometry import BoundingBox

T = TypeVar("T")


@dataclass
class _Entry(Generic[T]):
    """Leaf entry: a point payload with its coordinates."""

    x: float
    y: float
    item: T


@dataclass
class _Node(Generic[T]):
    """R-tree node: either a leaf (entries) or an internal node (children)."""

    box: BoundingBox
    entries: List[_Entry[T]] = field(default_factory=list)
    children: List["_Node[T]"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _bounding_box_of_entries(entries: Sequence[_Entry]) -> BoundingBox:
    xs = [entry.x for entry in entries]
    ys = [entry.y for entry in entries]
    return BoundingBox(min(xs), min(ys), max(xs), max(ys))


def _bounding_box_of_nodes(nodes: Sequence[_Node]) -> BoundingBox:
    return BoundingBox(
        min(node.box.min_x for node in nodes),
        min(node.box.min_y for node in nodes),
        max(node.box.max_x for node in nodes),
        max(node.box.max_y for node in nodes),
    )


class RTree(Generic[T]):
    """Static R-tree over points, bulk-loaded with Sort-Tile-Recursive packing.

    Args:
        items: ``(x, y, payload)`` triples to index.
        max_entries: Node fan-out (default 32, a typical page-sized fan-out).
    """

    def __init__(self, items: Iterable[Tuple[float, float, T]], max_entries: int = 32) -> None:
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries}")
        self.max_entries = max_entries
        entries = [_Entry(x, y, item) for x, y, item in items]
        self._size = len(entries)
        self._root: Optional[_Node[T]] = self._bulk_load(entries) if entries else None
        #: Number of nodes visited by queries since construction (reset with
        #: :meth:`reset_stats`); a proxy for index I/O.
        self.nodes_accessed = 0

    # ------------------------------------------------------------------ #
    # construction

    def _bulk_load(self, entries: List[_Entry[T]]) -> _Node[T]:
        leaves = self._pack_leaves(entries)
        levels = leaves
        while len(levels) > 1:
            levels = self._pack_internal(levels)
        return levels[0]

    def _pack_leaves(self, entries: List[_Entry[T]]) -> List[_Node[T]]:
        capacity = self.max_entries
        num_leaves = math.ceil(len(entries) / capacity)
        slices = math.ceil(math.sqrt(num_leaves))
        entries = sorted(entries, key=lambda e: e.x)
        slice_size = slices * capacity
        leaves: List[_Node[T]] = []
        for start in range(0, len(entries), slice_size):
            vertical = sorted(entries[start:start + slice_size], key=lambda e: e.y)
            for inner in range(0, len(vertical), capacity):
                chunk = vertical[inner:inner + capacity]
                leaves.append(_Node(box=_bounding_box_of_entries(chunk), entries=chunk))
        return leaves

    def _pack_internal(self, nodes: List[_Node[T]]) -> List[_Node[T]]:
        capacity = self.max_entries
        num_parents = math.ceil(len(nodes) / capacity)
        slices = math.ceil(math.sqrt(num_parents))
        nodes = sorted(nodes, key=lambda n: n.box.center.x)
        slice_size = slices * capacity
        parents: List[_Node[T]] = []
        for start in range(0, len(nodes), slice_size):
            vertical = sorted(nodes[start:start + slice_size], key=lambda n: n.box.center.y)
            for inner in range(0, len(vertical), capacity):
                chunk = vertical[inner:inner + capacity]
                parents.append(_Node(box=_bounding_box_of_nodes(chunk), children=chunk))
        return parents

    # ------------------------------------------------------------------ #
    # inspection

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Tree height (0 for an empty tree, 1 for a single leaf)."""
        height = 0
        node = self._root
        while node is not None:
            height += 1
            node = node.children[0] if node.children else None
        return height

    def reset_stats(self) -> None:
        """Reset the node-access counter."""
        self.nodes_accessed = 0

    # ------------------------------------------------------------------ #
    # queries

    def query_range(self, x: float, y: float, radius: float) -> List[T]:
        """All payloads within Euclidean distance ``radius`` of ``(x, y)``."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        if self._root is None:
            return []
        results: List[T] = []
        radius_sq = radius * radius
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.nodes_accessed += 1
            if node.is_leaf:
                for entry in node.entries:
                    dx = entry.x - x
                    dy = entry.y - y
                    if dx * dx + dy * dy <= radius_sq:
                        results.append(entry.item)
                continue
            for child in node.children:
                if child.box.min_distance(x, y) <= radius:
                    stack.append(child)
        return results

    def query_box(self, box: BoundingBox) -> List[T]:
        """All payloads whose point lies inside ``box``."""
        if self._root is None:
            return []
        results: List[T] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.nodes_accessed += 1
            if not node.box.intersects(box):
                continue
            if node.is_leaf:
                results.extend(
                    entry.item for entry in node.entries if box.contains(entry.x, entry.y)
                )
            else:
                stack.extend(node.children)
        return results

    def all_items(self) -> List[T]:
        """Every indexed payload (in no particular order)."""
        if self._root is None:
            return []
        results: List[T] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                results.extend(entry.item for entry in node.entries)
            else:
                stack.extend(node.children)
        return results
