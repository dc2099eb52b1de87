"""MapReduce job specification.

A job is defined by subclassing :class:`MapReduceJob` and overriding:

* :meth:`MapReduceJob.map` -- emits ``(key, value)`` pairs for one input record,
* :meth:`MapReduceJob.partition` -- routes a key to a reduce task (the
  Hadoop ``Partitioner``),
* :meth:`MapReduceJob.sort_key` -- total order of keys within a partition
  (the Hadoop sort ``Comparator``),
* :meth:`MapReduceJob.group_key` -- grouping of sorted keys into reduce calls
  (the Hadoop grouping comparator), and
* :meth:`MapReduceJob.reduce` -- consumes a value iterator for one group.

The SPQ algorithms of the paper use composite keys ``(cell_id, tag)`` where
``tag`` is 0/1 (pSPQ), the keyword-list length (eSPQlen) or the Jaccard score
(eSPQsco); they partition and group by ``cell_id`` only and sort by the full
composite key, so each reducer sees all objects of a cell in a deliberate
order.  The hooks above express that directly.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Tuple

from repro.mapreduce.counters import Counters


class MapReduceJob:
    """Base class for MapReduce jobs executed by :class:`~repro.mapreduce.runtime.LocalJobRunner`.

    Subclasses may also override :meth:`setup` / :meth:`cleanup` which run once
    per job before the first map call and after the last reduce call.
    """

    #: Human-readable job name used in reports.
    name: str = "mapreduce-job"

    #: Set True when a reduce group consisting solely of preloaded-shuffle
    #: records is guaranteed to produce no output.  The runner then skips
    #: (and never sorts) partitions that received no live map output during a
    #: preloaded run -- e.g. SPQ grid cells containing data objects but no
    #: query-relevant feature, which reduce to an empty top-k list.
    preloaded_only_partitions_are_empty: bool = False

    # ------------------------------------------------------------------ #
    # lifecycle hooks

    def setup(self, counters: Counters) -> None:
        """Called once before any map invocation."""

    def cleanup(self, counters: Counters) -> None:
        """Called once after all reduce invocations."""

    # ------------------------------------------------------------------ #
    # map side

    def map(self, record: Any, counters: Counters) -> Iterable[Tuple[Any, Any]]:
        """Process one input record and yield ``(key, value)`` pairs."""
        raise NotImplementedError

    def partition(self, key: Any, num_reducers: int) -> int:
        """Route ``key`` to a reduce task in ``[0, num_reducers)``.

        The default is hash partitioning on the whole key, like Hadoop's
        default partitioner.
        """
        return hash(key) % num_reducers

    # ------------------------------------------------------------------ #
    # shuffle ordering

    def sort_key(self, key: Any) -> Any:
        """Sort key used to order records within a reduce partition.

        Must return a value comparable across all keys of the job.  The
        default sorts by the key itself.
        """
        return key

    def group_key(self, key: Any) -> Any:
        """Grouping key: consecutive sorted records with equal group keys form
        one reduce call.  Defaults to the full key (one group per distinct key).
        """
        return key

    # ------------------------------------------------------------------ #
    # reduce side

    def reduce(
        self, group: Any, values: Iterator[Any], counters: Counters
    ) -> Iterable[Any]:
        """Process one group of values and yield output records.

        ``values`` is a lazy iterator in the order imposed by
        :meth:`sort_key`; a reducer that stops consuming it implements early
        termination, and the engine records how many values were actually
        consumed (this is what makes the eSPQ algorithms cheaper).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #

    def estimated_record_size(self, key: Any, value: Any) -> int:
        """Approximate serialized size in bytes of one shuffled record.

        Used only by the cost model to estimate shuffle volume.  The default
        uses the length of the ``repr`` which is a reasonable stand-in for a
        text-serialized record.
        """
        return len(repr(key)) + len(repr(value))
