"""Hadoop-style job counters.

Counters are the primary measurement instrument of this reproduction: since
the cluster is simulated, the figures are regenerated from *work counters*
(score computations, feature objects examined, records shuffled) rather than
wall-clock time, and the cost model converts counters into simulated seconds.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Tuple


class Counters:
    """A two-level (group, name) -> integer counter map."""

    def __init__(self) -> None:
        self._values: Dict[str, Dict[str, int]] = defaultdict(dict)

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``(group, name)`` (creates it at 0)."""
        names = self._values[group]
        names[name] = names.get(name, 0) + amount

    def get(self, group: str, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        return self._values.get(group, {}).get(name, 0)

    def group(self, group: str) -> Dict[str, int]:
        """Copy of all counters in a group."""
        return dict(self._values.get(group, {}))

    def merge(self, other: "Counters") -> None:
        """Add every counter of ``other`` into this object."""
        for group, names in other._values.items():
            for name, value in names.items():
                self.increment(group, name, value)

    def items(self) -> Iterator[Tuple[str, str, int]]:
        """Iterate ``(group, name, value)`` triples in sorted order."""
        for group in sorted(self._values):
            for name in sorted(self._values[group]):
                yield group, name, self._values[group][name]

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Nested-dict copy of all counters."""
        return {group: dict(names) for group, names in self._values.items()}

    def copy(self) -> "Counters":
        """Deep copy."""
        clone = Counters()
        clone.merge(self)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        parts = [f"{g}.{n}={v}" for g, n, v in self.items()]
        return f"Counters({', '.join(parts)})"


# Standard counter names used across the engine; algorithms add their own.
GROUP_MAP = "map"
GROUP_SHUFFLE = "shuffle"
GROUP_REDUCE = "reduce"

MAP_INPUT_RECORDS = "input_records"
MAP_OUTPUT_RECORDS = "output_records"
#: Map-side algorithm work (e.g. eSPQsco's per-feature score computations);
#: kept in the "map" group so reduce-task work accounting is unaffected.
MAP_SCORE_COMPUTATIONS = "score_computations"
SHUFFLE_RECORDS = "records"
SHUFFLE_BYTES = "bytes"
REDUCE_INPUT_GROUPS = "input_groups"
REDUCE_INPUT_RECORDS = "input_records"
REDUCE_CONSUMED_RECORDS = "consumed_records"
REDUCE_OUTPUT_RECORDS = "output_records"
REDUCE_TASKS_SKIPPED = "tasks_skipped"
