"""Exception hierarchy for the SPQ reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause,
while still being able to discriminate between configuration problems,
data-format problems and engine failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class InvalidQueryError(ReproError):
    """A query was constructed with invalid parameters (k <= 0, r < 0, ...)."""


class OverloadError(ReproError):
    """The service shed a request instead of serving it (HTTP 429).

    Raised by the admission controller when the bounded admission queue
    is full, when a request arrives with its deadline already blown, or
    when a queued request's deadline expires before a dispatcher reaches
    it.  Carries the machine-readable fields of the 429 response body
    (``{"shed": true, "retry_after_ms": ...}``) so every transport --
    HTTP front-end, shard router, cluster router -- sheds with the same
    contract."""

    def __init__(
        self,
        message: str,
        reason: str = "overload",
        retry_after_ms: float = 50.0,
    ) -> None:
        super().__init__(message)
        #: Why the request was shed: ``"queue_full"`` or ``"deadline"``.
        self.reason = reason
        #: Client backoff hint in milliseconds (always > 0).
        self.retry_after_ms = retry_after_ms


class InvalidGridError(ReproError):
    """A grid specification is invalid (non-positive cell count, bad extent)."""


class DatasetFormatError(ReproError):
    """A dataset file or record could not be parsed."""


class JobConfigurationError(ReproError):
    """A MapReduce job specification is incomplete or inconsistent."""


class JobExecutionError(ReproError):
    """A MapReduce job failed while executing a map or reduce task."""


class ClusterConfigurationError(ReproError):
    """A simulated cluster was configured with invalid resources."""


class HDFSError(ReproError):
    """An error in the simulated HDFS layer (missing file, bad block size)."""


class AnalysisError(ReproError):
    """A theoretical-analysis helper received parameters outside its domain."""


class DatasetUpdateError(ReproError):
    """An incremental dataset update (append/delete) is invalid.

    Raised for appends that duplicate a live oid, appends outside the
    served extent (the grid is pinned to it; clamped ``locate`` calls
    would silently break the Lemma-1 duplication geometry), and
    structurally empty or malformed update batches."""


class ResultIntegrityError(ReproError):
    """A job produced output referencing an object unknown to the engine.

    This indicates corrupted job output or datasets mutated behind the
    engine's back (without ``SPQEngine.invalidate_indexes`` /
    ``set_datasets``); silently fabricating placeholder objects would mask
    the bug, so the engine raises instead."""
