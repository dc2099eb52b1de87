"""What ``algorithm="auto"`` runs: eSPQsco, as a constant.

The paper compares pSPQ, eSPQlen and eSPQsco on a simulated Hadoop
cluster and finds the winner moving with the grid, ``|q.W|``, the radius
and ``k``.  Measured per query on this engine's CPU over the same
Section 7 axes, eSPQsco wins or ties nearly everywhere; where it does not
(a few regimes of the uniform dataset), a cost-based planner that
estimated the choice from index statistics did not pick the winner
either -- it picked eSPQsco on every query measured.  ``docs/paper-map.md``
has the table and ``benchmarks/bench_planner.py`` re-measures it.

:class:`QueryPlanner` is the seam every query runs through:
:meth:`~QueryPlanner.collect` walks the query's posting lists once for
:meth:`~repro.index.dataset_index.DatasetIndex.prepare`, and
:meth:`~QueryPlanner.decide` resolves ``auto``.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from repro.index.dataset_index import DatasetIndex
from repro.model.query import SpatialPreferenceQuery

#: The algorithm name that asks the engine to choose.
AUTO_ALGORITHM = "auto"

#: The algorithm ``auto`` runs.
AUTO_CHOICE = "espq-sco"


class QueryPlanner:
    """Per-engine ``auto`` resolution plus the shared posting-list walk."""

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
        """The algorithm an ``auto`` query runs: always :data:`AUTO_CHOICE`."""
        self.decisions += 1
        return AUTO_CHOICE

    def observe(self, *args: object) -> None:
        """Nothing to learn; the engine does not call this.

        Kept because ``benchmarks/e2e/trace.py`` resolves its three
        ``planner.*`` patch points -- ``collect``, ``decide`` and this --
        from the class ``__dict__``; its ``planner.observe_ms`` reads 0.
        """
