"""repro -- reproduction of "Parallel and Distributed Processing of Spatial
Preference Queries using Keywords" (Doulkeridis, Vlachou, Mpestas, Mamoulis,
EDBT 2017).

Quickstart::

    from repro import SPQEngine, SpatialPreferenceQuery
    from repro.datagen import generate_uniform

    data_objects, feature_objects = generate_uniform()
    engine = SPQEngine(data_objects, feature_objects)
    query = SpatialPreferenceQuery.create(k=10, radius=1.0, keywords={"w0001", "w0002"})
    result = engine.execute(query, algorithm="espq-sco", grid_size=50)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured record of every figure.
"""

from repro.core.engine import ALGORITHM_CHOICES, ALGORITHMS, EngineConfig, SPQEngine
from repro.index import BatchQuery, DatasetIndex, IndexCache
from repro.planner import AUTO_ALGORITHM, QueryPlanner
from repro.model import (
    DataObject,
    FeatureObject,
    QueryResult,
    ScoredObject,
    SpatialPreferenceQuery,
    TopKList,
)
__version__ = "1.19.0"

#: Lazily exported names (PEP 562): the query service and shard router pull
#: in the whole HTTP server stack, which `repro generate` and plain engine
#: use should not pay for.
_LAZY_EXPORTS = {
    "QueryService": "repro.server",
    "ServiceConfig": "repro.server",
    "ShardRouter": "repro.sharding",
    "ShardingConfig": "repro.sharding",
}


def __getattr__(name: str):
    """Resolve lazy exports (``repro.QueryService`` / ``repro.ServiceConfig``)."""
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

__all__ = [
    "SPQEngine",
    "EngineConfig",
    "ALGORITHMS",
    "ALGORITHM_CHOICES",
    "AUTO_ALGORITHM",
    "QueryPlanner",
    "BatchQuery",
    "DatasetIndex",
    "IndexCache",
    "DataObject",
    "FeatureObject",
    "QueryService",
    "ServiceConfig",
    "ShardRouter",
    "ShardingConfig",
    "SpatialPreferenceQuery",
    "ScoredObject",
    "TopKList",
    "QueryResult",
    "__version__",
]
