"""A from-scratch, in-process MapReduce engine.

The paper implements its algorithms as single Hadoop MapReduce jobs that rely
on three framework hooks (Section 2.1):

* key-value records with *composite keys*,
* a custom ``Partitioner`` that routes map output to reducers based on part of
  the key (the grid cell id), and
* a custom sort ``Comparator`` that orders the values seen by each reducer
  (data objects before feature objects; feature objects by keyword length or
  by decreasing score).

This package reproduces those hooks faithfully so the three SPQ algorithms can
be expressed exactly as in the paper, and adds a simulated cluster and cost
model so every run reports a *simulated job execution time* with the same
shape as the paper's wall-clock measurements.  (The HDFS storage simulator, which
no query path reads, lives in :mod:`repro.paper.hdfs`.)
"""

from repro.mapreduce.counters import Counters
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.partitioner import (
    FieldPartitioner,
    HashPartitioner,
    Partitioner,
)
from repro.mapreduce.cluster import ClusterNode, SimulatedCluster

#: Names re-exported lazily (PEP 562): the runtime depends on the serial
#: executor in :mod:`repro.execution`, whose task primitives in
#: turn import this package -- importing runtime (and the cost model, which
#: depends on it) on first attribute access keeps the package import acyclic
#: regardless of which module is imported first.
_LAZY_EXPORTS = {
    "LocalJobRunner": ("repro.mapreduce.runtime", "LocalJobRunner"),
    "JobResult": ("repro.mapreduce.runtime", "JobResult"),
    "ReduceTaskReport": ("repro.mapreduce.runtime", "ReduceTaskReport"),
    "CostModel": ("repro.mapreduce.costmodel", "CostModel"),
    "CostParameters": ("repro.mapreduce.costmodel", "CostParameters"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value

__all__ = [
    "MapReduceJob",
    "Counters",
    "Partitioner",
    "HashPartitioner",
    "FieldPartitioner",
    "LocalJobRunner",
    "JobResult",
    "ReduceTaskReport",
    "SimulatedCluster",
    "ClusterNode",
    "CostModel",
    "CostParameters",
]
