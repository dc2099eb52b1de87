"""What ``algorithm="auto"`` runs: the global Lemma-3 scan, as a constant.

The paper compares pSPQ, eSPQlen and eSPQsco on a simulated Hadoop
cluster and finds the winner moving with the grid, ``|q.W|``, the radius
and ``k``.  ``auto`` chooses none of them: every cell of a query is
reduced in one process here, so eSPQsco's per-cell bound (Lemma 3) can be
applied across the whole grid at once -- one score-ordered scan
(``DatasetIndex.scan``) that examines a few features per query and
answers exactly as the centralized oracle does, ties included.
``docs/paper-map.md`` has the measured table and
``benchmarks/bench_planner.py`` re-measures it.

:class:`QueryPlanner` is the seam every query runs through:
:meth:`~QueryPlanner.collect` walks the query's posting lists once (for
``DatasetIndex.prepare`` or the scan), and :meth:`~QueryPlanner.decide`
names what ``auto`` runs and counts it.  Nothing is left to plan; the
class stays because ``benchmarks/e2e/trace.py`` patches its ``collect`` /
``decide`` / ``observe`` (the ``planner.*`` per-layer metrics), and the
benchmark's harness is not edited in a change that claims a gain.  It
goes when the tracer reads spans from the source (ROADMAP item 2(i)).
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from repro.index.dataset_index import DatasetIndex
from repro.model.query import SpatialPreferenceQuery

#: The algorithm name that asks the engine to choose.
AUTO_ALGORITHM = "auto"

#: What ``auto`` runs: the engine's global Lemma-3 scan
#: (``DatasetIndex.scan``), named in ``stats["algorithm"]`` and
#: ``planned_algorithm``.
AUTO_CHOICE = "global-scan"


class QueryPlanner:
    """Per-engine ``auto`` accounting plus the shared posting-list walk."""

    def __init__(self) -> None:
        #: ``auto`` queries resolved (the ``/stats`` planner surface).
        self.decisions = 0

    def collect(
        self, index: DatasetIndex, query: SpatialPreferenceQuery, grid_size: int
    ) -> Tuple[Mapping[int, int], List[int]]:
        """The query's keyword hits and sorted candidate positions (one
        posting-list walk, handed on to ``prepare``)."""
        hits = index.keyword_hits(query.keywords, query.radius)
        return hits, sorted(hits)

    def decide(self, stats: Tuple[Mapping[int, int], List[int]]) -> str:
        """What an ``auto`` query runs: always :data:`AUTO_CHOICE`."""
        self.decisions += 1
        return AUTO_CHOICE

    def observe(self, *args: object) -> None:
        """Nothing to learn; the engine does not call this.

        Kept because ``benchmarks/e2e/trace.py`` resolves its three
        ``planner.*`` patch points -- ``collect``, ``decide`` and this --
        from the class ``__dict__``; its ``planner.observe_ms`` reads 0.
        """
