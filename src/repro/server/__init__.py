"""Persistent query service layer (``repro serve``).

The online front-end over the batch-oriented SPQ engine stack: a
:class:`~repro.server.service.QueryService` holds a warm pool of engines
sharing one index cache, micro-batches concurrent requests into
``execute_many`` and memoises responses in an LRU keyed by
``(dataset_version, canonical query)``.  :mod:`repro.server.http` exposes
it over stdlib HTTP.

See ``docs/service.md`` for the quickstart and protocol reference.
"""

from repro.server.admission import AdmissionController, shed_payload
from repro.server.batching import MicroBatcher, PendingRequest
from repro.server.cache import ResultCache, ResultCacheStats
from repro.server.frontdoor import FrontDoor
from repro.server.http import QueryHTTPServer, make_server
from repro.server.metrics import LatencyHistogram
from repro.server.protocol import (
    ParsedRequest,
    RequestDefaults,
    parse_query_spec,
    result_payload,
)
from repro.server.service import QueryService, ServiceConfig

__all__ = [
    "AdmissionController",
    "FrontDoor",
    "LatencyHistogram",
    "MicroBatcher",
    "ParsedRequest",
    "PendingRequest",
    "QueryHTTPServer",
    "QueryService",
    "RequestDefaults",
    "ResultCache",
    "ResultCacheStats",
    "ServiceConfig",
    "make_server",
    "parse_query_spec",
    "result_payload",
    "shed_payload",
]
