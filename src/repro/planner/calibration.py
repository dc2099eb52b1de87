"""Calibration loop: refine work-factor estimates from executed queries.

Every planned query that actually runs reports exact counters -- shuffled
feature copies, features examined, score computations.  The calibrator turns
them into corrections of the estimator's priors:

* a **duplication scale** per (grid size, radius bucket): the ratio of
  observed feature copies to the geometric estimate, and
* per-algorithm :class:`~repro.planner.estimator.WorkFactors` per query
  *signature* (grid size, radius bucket, keyword-count bucket, k bucket):
  the observed fraction of copies examined and of candidate pairs scored.

Updates are exponentially weighted moving averages, so the estimates
converge on repeated workloads while still tracking drift.  Memory is
bounded: signature entries live in an LRU of ``memory`` slots (least
recently *used* is evicted), backed by one global per-algorithm average that
serves unseen signatures -- the whole structure is a few hundred floats no
matter how many distinct queries an engine executes.

Calibration is *durable*: :meth:`Calibrator.state_dict` exports the whole
structure as plain JSON-serializable data and :meth:`Calibrator.restore_state`
rebuilds it (LRU order preserved), so a long-lived service can checkpoint
what it learned and start sharp after a restart (see
:mod:`repro.planner.persistence` for the versioned on-disk format).  All
public methods are thread-safe: one calibrator may be shared by every engine
of a service pool.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.exceptions import CalibrationStateError
from repro.planner.estimator import WorkFactors

#: Signature of one query class: (grid size, radius bucket, |q.W| bucket,
#: k bucket).  Queries sharing a signature share calibration state.
Signature = Tuple[int, int, int, int]


def radius_bucket(radius: float, cell_side: float) -> int:
    """Quantize a radius into log2 buckets of its cell-side ratio."""
    if radius <= 0 or cell_side <= 0:
        return -8
    ratio = radius / cell_side
    if ratio <= 0:  # a denormal radius underflows to 0.0
        return -8
    return max(-8, min(8, round(math.log2(ratio))))


def count_bucket(count: int) -> int:
    """Quantize a small cardinality (|q.W|, k) into log2 buckets."""
    return max(0, min(12, int(math.log2(max(count, 1)))))


def signature_of(grid_size: int, cell_side: float, radius: float,
                 num_keywords: int, k: int) -> Signature:
    """Bucketed signature of one query class (see :data:`Signature`)."""
    return (
        grid_size,
        radius_bucket(radius, cell_side),
        count_bucket(num_keywords),
        count_bucket(k),
    )


class Ewma:
    """Exponentially weighted moving average (None until first update)."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[float] = None) -> None:
        self.value: Optional[float] = value

    def update(self, sample: float, alpha: float) -> None:
        """Fold one sample in with weight ``alpha`` (first sample is taken as-is)."""
        if self.value is None:
            self.value = sample
        else:
            self.value += alpha * (sample - self.value)


@dataclass
class _WorkEntry:
    """Calibrated work fractions of one (algorithm, signature) pair.

    ``reduce_scale`` corrects for what the totals cannot: the *distribution*
    of work over cells (estimated copies sit on candidate home cells, real
    ones spread to Lemma-1 neighbours; per-cell termination behaviour also
    varies), observed as actual-over-predicted reduce makespan.
    """

    examined: Ewma = field(default_factory=Ewma)
    pairs: Ewma = field(default_factory=Ewma)
    reduce_scale: Ewma = field(default_factory=Ewma)
    observations: int = 0


class Calibrator:
    """Bounded-memory store of observed work fractions and duplication scales.

    Thread-safe: every public method takes an internal lock, so one
    calibrator may serve many engines concurrently (the query service
    shares one across its whole engine pool).

    Args:
        memory: Maximum number of (algorithm, signature) work entries and of
            (grid size, radius bucket) duplication entries kept (LRU).
        smoothing: EWMA weight of each new observation in ``(0, 1]``.
    """

    def __init__(self, memory: int = 64, smoothing: float = 0.3) -> None:
        if memory < 1:
            raise ValueError(f"calibration memory must be >= 1, got {memory}")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.memory = memory
        self.smoothing = smoothing
        self._lock = threading.RLock()
        self._work: "OrderedDict[Tuple[str, Signature], _WorkEntry]" = OrderedDict()
        self._global_work: Dict[str, _WorkEntry] = {}
        self._duplication: "OrderedDict[Tuple[int, int], Ewma]" = OrderedDict()
        self.observations = 0

    # ------------------------------------------------------------------ #
    # lookup

    def factors_for(
        self, algorithm: str, signature: Signature, defaults: WorkFactors
    ) -> WorkFactors:
        """Best available work factors: signature entry > global > defaults."""
        with self._lock:
            entry = self._work.get((algorithm, signature))
            if entry is not None:
                self._work.move_to_end((algorithm, signature))
            fallback = self._global_work.get(algorithm)
            return WorkFactors(
                examined=self._pick(
                    entry and entry.examined, fallback and fallback.examined,
                    defaults.examined,
                ),
                pairs=self._pick(
                    entry and entry.pairs, fallback and fallback.pairs, defaults.pairs
                ),
            )

    def reduce_scale_for(self, algorithm: str, signature: Signature) -> float:
        """Makespan correction for one algorithm (1.0 when unobserved)."""
        with self._lock:
            entry = self._work.get((algorithm, signature))
            fallback = self._global_work.get(algorithm)
            return self._pick(
                entry and entry.reduce_scale, fallback and fallback.reduce_scale, 1.0
            )

    def duplication_scale(self, grid_size: int, rbucket: int) -> float:
        """Observed-over-estimated duplication correction (1.0 when unseen)."""
        with self._lock:
            entry = self._duplication.get((grid_size, rbucket))
            if entry is None or entry.value is None:
                return 1.0
            self._duplication.move_to_end((grid_size, rbucket))
            return entry.value

    @staticmethod
    def _pick(primary: Optional[Ewma], secondary: Optional[Ewma],
              default: float) -> float:
        for candidate in (primary, secondary):
            if candidate is not None and candidate.value is not None:
                return candidate.value
        return default

    def __len__(self) -> int:
        with self._lock:
            return len(self._work)

    def snapshot(self) -> Dict[str, object]:
        """Introspection summary (used by tests and ``--explain``)."""
        with self._lock:
            return {
                "observations": self.observations,
                "work_entries": len(self._work),
                "duplication_entries": len(self._duplication),
                "memory": self.memory,
            }

    # ------------------------------------------------------------------ #
    # durable state

    def state_dict(self) -> Dict[str, object]:
        """The full calibration state as plain JSON-serializable data.

        Work and duplication entries are listed oldest-first, so
        :meth:`restore_state` rebuilds the exact LRU order and a
        round-tripped calibrator answers every lookup identically to the
        original.
        """
        with self._lock:
            return {
                "memory": self.memory,
                "smoothing": self.smoothing,
                "observations": self.observations,
                "work": [
                    {
                        "algorithm": algorithm,
                        "signature": list(signature),
                        **self._entry_state(entry),
                    }
                    for (algorithm, signature), entry in self._work.items()
                ],
                "global_work": [
                    {"algorithm": algorithm, **self._entry_state(entry)}
                    for algorithm, entry in self._global_work.items()
                ],
                "duplication": [
                    {
                        "grid_size": grid_size,
                        "radius_bucket": rbucket,
                        "value": ewma.value,
                    }
                    for (grid_size, rbucket), ewma in self._duplication.items()
                ],
            }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Replace the calibration state with a :meth:`state_dict` export.

        The calibrator's own ``memory`` / ``smoothing`` configuration wins
        over whatever the snapshot recorded: entries beyond the memory bound
        are dropped from the least recently used end, exactly as if they had
        been evicted.

        Raises:
            CalibrationStateError: if the snapshot fails structural
                validation; the calibrator is left unchanged in that case.
        """
        work, global_work, duplication, observations = self._parse_state(state)
        with self._lock:
            self._work = work
            self._global_work = global_work
            self._duplication = duplication
            self.observations = observations
            while len(self._work) > self.memory:
                self._work.popitem(last=False)
            while len(self._duplication) > self.memory:
                self._duplication.popitem(last=False)

    def _parse_state(
        self, state: Mapping[str, object]
    ) -> Tuple[
        "OrderedDict[Tuple[str, Signature], _WorkEntry]",
        Dict[str, _WorkEntry],
        "OrderedDict[Tuple[int, int], Ewma]",
        int,
    ]:
        """Validate a state export fully before mutating anything."""
        if not isinstance(state, Mapping):
            raise CalibrationStateError(
                f"calibration state must be a mapping, got {type(state).__name__}"
            )
        try:
            observations = int(state.get("observations", 0))
            work: "OrderedDict[Tuple[str, Signature], _WorkEntry]" = OrderedDict()
            for item in self._state_items(state, "work"):
                signature = tuple(int(part) for part in item["signature"])
                if len(signature) != 4:
                    raise CalibrationStateError(
                        f"work signature must have 4 components, got {signature!r}"
                    )
                work[(str(item["algorithm"]), signature)] = self._entry_from(item)
            global_work: Dict[str, _WorkEntry] = {}
            for item in self._state_items(state, "global_work"):
                global_work[str(item["algorithm"])] = self._entry_from(item)
            duplication: "OrderedDict[Tuple[int, int], Ewma]" = OrderedDict()
            for item in self._state_items(state, "duplication"):
                value = item["value"]
                duplication[(int(item["grid_size"]), int(item["radius_bucket"]))] = (
                    Ewma(None if value is None else float(value))
                )
        except CalibrationStateError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationStateError(
                f"malformed calibration state: {exc!r}"
            ) from exc
        return work, global_work, duplication, observations

    @staticmethod
    def _state_items(state: Mapping[str, object], key: str) -> List[Mapping[str, object]]:
        items = state.get(key, [])
        if not isinstance(items, list):
            raise CalibrationStateError(
                f"calibration state field {key!r} must be a list, "
                f"got {type(items).__name__}"
            )
        for item in items:
            if not isinstance(item, Mapping):
                raise CalibrationStateError(
                    f"calibration state field {key!r} must contain objects, "
                    f"found {type(item).__name__}"
                )
        return items

    @staticmethod
    def _entry_state(entry: _WorkEntry) -> Dict[str, object]:
        return {
            "examined": entry.examined.value,
            "pairs": entry.pairs.value,
            "reduce_scale": entry.reduce_scale.value,
            "observations": entry.observations,
        }

    @staticmethod
    def _entry_from(item: Mapping[str, object]) -> _WorkEntry:
        entry = _WorkEntry(observations=int(item.get("observations", 0)))
        for name in ("examined", "pairs", "reduce_scale"):
            value = item.get(name)
            getattr(entry, name).value = None if value is None else float(value)
        return entry

    # ------------------------------------------------------------------ #
    # updates

    def observe_work(
        self,
        algorithm: str,
        signature: Signature,
        raw_copies: float,
        raw_pairs: float,
        actual_copies: int,
        actual_examined: int,
        actual_pairs: int,
    ) -> None:
        """Fold one executed query's counters into the work factors.

        ``raw_copies`` / ``raw_pairs`` are the estimator's factor-free bases
        (duplication estimate included); the pair base is rescaled by the
        observed duplication so the work fraction is decoupled from the
        duplication error, which :meth:`observe_duplication` tracks.
        """
        if actual_copies <= 0 or raw_copies <= 0:
            return  # a query with no shuffled feature carries no information
        examined_fraction = actual_examined / actual_copies
        dup_ratio = actual_copies / raw_copies
        pair_base = raw_pairs * dup_ratio
        with self._lock:
            entry = self._touch_work(algorithm, signature)
            entry.examined.update(examined_fraction, self.smoothing)
            if pair_base > 0:
                entry.pairs.update(actual_pairs / pair_base, self.smoothing)
            entry.observations += 1
            fallback = self._global_work.setdefault(algorithm, _WorkEntry())
            fallback.examined.update(examined_fraction, self.smoothing)
            if pair_base > 0:
                fallback.pairs.update(actual_pairs / pair_base, self.smoothing)
            fallback.observations += 1
            self.observations += 1

    def observe_reduce(
        self, algorithm: str, signature: Signature, predicted_seconds: float,
        actual_seconds: float,
    ) -> None:
        """Fold one executed query's reduce-makespan ratio in.

        ``predicted_seconds`` must be the *unscaled* prediction (fresh work
        factors, no reduce scale applied) so the ratio stays a fixed point
        under repeated observation instead of compounding.
        """
        if predicted_seconds <= 0 or actual_seconds < 0:
            return
        ratio = actual_seconds / predicted_seconds
        with self._lock:
            entry = self._touch_work(algorithm, signature)
            entry.reduce_scale.update(ratio, self.smoothing)
            fallback = self._global_work.setdefault(algorithm, _WorkEntry())
            fallback.reduce_scale.update(ratio, self.smoothing)

    def observe_duplication(
        self, grid_size: int, rbucket: int, estimated_copies: float,
        actual_copies: int,
    ) -> None:
        """Fold one query's observed duplication into the scale correction."""
        if estimated_copies <= 0 or actual_copies <= 0:
            return
        key = (grid_size, rbucket)
        with self._lock:
            entry = self._duplication.get(key)
            if entry is None:
                entry = self._duplication[key] = Ewma()
                while len(self._duplication) > self.memory:
                    self._duplication.popitem(last=False)
            else:
                self._duplication.move_to_end(key)
            entry.update(actual_copies / estimated_copies, self.smoothing)

    def _touch_work(self, algorithm: str, signature: Signature) -> _WorkEntry:
        key = (algorithm, signature)
        entry = self._work.get(key)
        if entry is None:
            entry = self._work[key] = _WorkEntry()
            while len(self._work) > self.memory:
                self._work.popitem(last=False)
        else:
            self._work.move_to_end(key)
        return entry
