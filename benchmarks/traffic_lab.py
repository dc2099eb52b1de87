"""Traffic lab: seeded open-loop workload models and a client fleet.

The benchmark-side client of ``benchmarks/bench_traffic.py`` (CI job
``traffic-gate``); the tests load it by path.  It is not part of the
system under test: it only speaks the service's HTTP wire format.

Workload models
---------------
A :class:`TrafficModel` binds a dataset (its feature vocabulary and
spatial extent) to a :class:`WorkloadConfig` and emits a list of
:class:`ScheduledRequest` -- each one a *send time* plus a ready-to-POST
request spec.  The schedule is a pure function of the seed: the arrival
process, keyword choices, hotspot placement, client assignment and
burst/slow tagging all draw from seeded, purpose-labelled PRNG streams,
so two runs with the same config produce byte-identical schedules and a
benchmark regression is a real regression, not workload noise.

The models:

* **Arrivals** -- ``poisson`` draws exponential inter-arrival gaps at the
  configured mean rate (the classic open-loop arrival process: memoryless,
  bursty at every timescale).  ``diurnal`` modulates that rate
  sinusoidally over ``diurnal_period_seconds`` via thinning: candidates
  are drawn at the peak rate and accepted with probability
  ``rate(t) / rate_max``, giving a rush-hour/quiet-hour profile whose
  long-run mean over whole periods is still ``rate``.
* **Keyword popularity** -- Zipf over the dataset vocabulary: word of
  frequency-rank *r* is drawn with weight ``1 / r**zipf_exponent``, with
  ranks taken from :meth:`Vocabulary.most_frequent` so synthetic
  popularity tracks real dataset skew.  Exponent 0 degrades to uniform.
* **Hotspot regions** -- a seeded sub-box covering
  ``hotspot_extent_fraction`` of each extent side; a
  ``hotspot_fraction`` share of queries draws its keywords Zipf-style
  from only the features inside that box, concentrating load the way a
  city centre concentrates map queries.
* **Burst profile** -- every ``burst_every_seconds`` an extra group of
  ``burst_size`` requests is injected at the *same* instant (profile
  ``"burst"``), stressing the admission queue beyond what Poisson noise
  produces.
* **Slow clients** -- a seeded ``slow_client_fraction`` share of the
  client fleet is tagged ``"slow"``; the load generator trickles those
  requests' bytes onto the socket to exercise the server's fast-shed
  path against half-written requests.

Every emitted spec round-trips through
:func:`repro.server.protocol.parse_query_spec` -- the model cannot emit a
request the service would reject as malformed.

Load generator
--------------
The defining property of this generator is the **open-loop invariant**:
request *i* is sent at ``schedule[i].send_at`` no matter how long earlier
requests are taking.  Each request runs on its own thread, so a slow (or
shedding, or hung) server cannot push later send times back -- offered
load stays an independent variable, which is the whole point of an
overload experiment (a closed-loop client backs off exactly when the
server degrades, and the collapse you wanted to measure disappears from
the data).

The target is :class:`HttpTarget`, which drives ``repro serve`` over
HTTP/1.1 with a per-client keep-alive connection pool (tests pass a stub
with the same ``send(spec, client, profile)``).  Because requests are
fired on per-request threads, one simulated client can legitimately have
several requests in flight; the pool hands out idle connections and opens
fresh ones when none are idle, counting opens vs. requests so benchmarks
can gate on the keep-alive reuse ratio.  A 429 becomes a ``"shed"``
outcome (with the body's ``retry_after_ms``), a socket deadline a
``"timeout"``, anything else non-200 an ``"error"``.

Every fired request lands in a thread-safe :class:`ResultsLedger` as a
:class:`RequestRecord`; :meth:`ResultsLedger.summary` reconciles the
ledger (every scheduled request accounted for, outcome counts summing to
the offered count) so a silent drop anywhere in the stack shows up as a
hard count mismatch rather than a quietly-thinner percentile.

See ``docs/traffic.md`` for the models, the open- vs closed-loop
rationale, and the admission-control semantics this harness exercises.
"""

from __future__ import annotations

import bisect
import http.client
import json
import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.model.objects import FeatureObject
from repro.spatial.geometry import BoundingBox
from repro.text.vocabulary import Vocabulary

#: Supported arrival processes.
ARRIVAL_CHOICES = ("poisson", "diurnal")

#: Request profiles a schedule can tag.
PROFILES = ("steady", "burst", "slow")


@dataclass(frozen=True)
class ScheduledRequest:
    """One planned request: when to send it, what to send, who sends it.

    Attributes:
        index: Position in the schedule (0-based, send order).
        send_at: Offset in seconds from schedule start; the load
            generator fires at this time regardless of response latency
            (the open-loop invariant).
        spec: The JSON-ready request object (keywords, k, optionally
            radius/algorithm/deadline_ms).
        client: Which simulated client sends it (0-based fleet id).
        profile: ``"steady"``, ``"burst"`` or ``"slow"``.
    """

    index: int
    send_at: float
    spec: Mapping[str, object]
    client: int
    profile: str


@dataclass
class WorkloadConfig:
    """Knobs of one synthetic traffic mix (all defaults are mild).

    Attributes:
        seed: Master seed; every PRNG stream below derives from it.
        duration_seconds: Length of the schedule.
        rate: Mean arrival rate in requests/second.
        arrival: ``"poisson"`` or ``"diurnal"``.
        diurnal_amplitude: Relative swing of the diurnal rate in [0, 1):
            peak ``rate*(1+a)``, trough ``rate*(1-a)``.
        diurnal_period_seconds: Full day-cycle length (defaults to the
            schedule duration, i.e. exactly one cycle).
        zipf_exponent: Skew of keyword popularity (0 = uniform).
        keywords_per_query: Distinct keywords per request (capped at the
            vocabulary size).
        k: Top-k of every request.
        radius: Optional query radius forwarded into every spec.
        algorithm: Optional algorithm pin forwarded into every spec.
        deadline_ms: Optional per-request deadline forwarded into every
            spec (the admission-control wire field).
        hotspot_fraction: Share of queries drawn from the hotspot in
            [0, 1]; 0 disables the hotspot entirely.
        hotspot_extent_fraction: Hotspot side length as a fraction of
            each extent side, in (0, 1].
        burst_every_seconds: Burst cadence; 0 disables bursts.
        burst_size: Requests injected per burst instant.
        slow_client_fraction: Share of clients tagged slow in [0, 1].
        clients: Size of the simulated client fleet.
    """

    seed: int = 7
    duration_seconds: float = 5.0
    rate: float = 50.0
    arrival: str = "poisson"
    diurnal_amplitude: float = 0.8
    diurnal_period_seconds: Optional[float] = None
    zipf_exponent: float = 1.1
    keywords_per_query: int = 2
    k: int = 10
    radius: Optional[float] = None
    algorithm: Optional[str] = None
    deadline_ms: Optional[float] = None
    hotspot_fraction: float = 0.0
    hotspot_extent_fraction: float = 0.25
    burst_every_seconds: float = 0.0
    burst_size: int = 0
    slow_client_fraction: float = 0.0
    clients: int = 8

    def validate(self) -> None:
        """Raise :class:`ValueError` on any out-of-range knob."""
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.arrival not in ARRIVAL_CHOICES:
            raise ValueError(
                f"arrival must be one of {ARRIVAL_CHOICES}, got {self.arrival!r}"
            )
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period_seconds is not None and (
            self.diurnal_period_seconds <= 0
        ):
            raise ValueError("diurnal_period_seconds must be positive")
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be non-negative")
        if self.keywords_per_query < 1:
            raise ValueError("keywords_per_query must be at least 1")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0 <= self.hotspot_fraction <= 1:
            raise ValueError("hotspot_fraction must be in [0, 1]")
        if not 0 < self.hotspot_extent_fraction <= 1:
            raise ValueError("hotspot_extent_fraction must be in (0, 1]")
        if self.burst_every_seconds < 0:
            raise ValueError("burst_every_seconds must be non-negative")
        if self.burst_size < 0:
            raise ValueError("burst_size must be non-negative")
        if not 0 <= self.slow_client_fraction <= 1:
            raise ValueError("slow_client_fraction must be in [0, 1]")
        if self.clients < 1:
            raise ValueError("clients must be at least 1")


class TrafficModel:
    """Seeded workload model over one dataset's vocabulary and extent."""

    def __init__(
        self,
        feature_objects: Sequence[FeatureObject],
        extent: BoundingBox,
        config: Optional[WorkloadConfig] = None,
    ) -> None:
        """Rank the vocabulary and place the hotspot (both seeded).

        Args:
            feature_objects: The dataset's feature objects; their
                keywords define the vocabulary queries draw from.
            extent: The dataset's spatial extent (hotspot placement).
            config: Workload knobs (validated here).

        Raises:
            ValueError: for invalid knobs or an empty vocabulary.
        """
        self.config = config or WorkloadConfig()
        self.config.validate()
        self.extent = extent
        vocabulary = Vocabulary.from_features(feature_objects)
        if len(vocabulary.words()) == 0:
            raise ValueError(
                "cannot model traffic over an empty vocabulary "
                "(no feature object has keywords)"
            )
        # Rank 1 = most frequent word in the dataset: Zipf weights over
        # dataset-frequency ranks make synthetic popularity follow real
        # skew instead of an arbitrary alphabetical order.
        self._ranked = vocabulary.most_frequent(len(vocabulary.words()))
        self._weights = _zipf_weights(
            len(self._ranked), self.config.zipf_exponent
        )
        self._cumulative = _cumulative(self._weights)
        self.hotspot_box: Optional[BoundingBox] = None
        self._hot_ranked: List[str] = []
        self._hot_cumulative: List[float] = []
        if self.config.hotspot_fraction > 0:
            self._place_hotspot(feature_objects)

    # ------------------------------------------------------------------ #
    # introspection (property tests hook in here)

    @property
    def ranked_words(self) -> List[str]:
        """Vocabulary in popularity order (rank 1 first)."""
        return list(self._ranked)

    @property
    def keyword_weights(self) -> List[float]:
        """Unnormalised Zipf weight per rank (monotonically non-rising)."""
        return list(self._weights)

    @property
    def hotspot_words(self) -> List[str]:
        """The hotspot's own ranked vocabulary (empty without a hotspot)."""
        return list(self._hot_ranked)

    # ------------------------------------------------------------------ #
    # schedule generation

    def schedule(self) -> List[ScheduledRequest]:
        """The full deterministic request schedule, sorted by send time."""
        cfg = self.config
        arrival_rng = random.Random(f"{cfg.seed}-arrivals")
        entries: List[Tuple[float, str]] = [
            (t, "steady") for t in self._arrival_times(arrival_rng)
        ]
        if cfg.burst_every_seconds > 0 and cfg.burst_size > 0:
            t = cfg.burst_every_seconds
            while t < cfg.duration_seconds:
                entries.extend((t, "burst") for _ in range(cfg.burst_size))
                t += cfg.burst_every_seconds
        # Stable sort: same-instant burst groups keep generation order,
        # so the schedule is deterministic even at timestamp ties.
        entries.sort(key=lambda entry: entry[0])
        slow_clients = self._slow_clients()
        spec_rng = random.Random(f"{cfg.seed}-specs")
        client_rng = random.Random(f"{cfg.seed}-clients")
        requests: List[ScheduledRequest] = []
        for index, (send_at, profile) in enumerate(entries):
            client = client_rng.randrange(cfg.clients)
            if client in slow_clients:
                profile = "slow"
            requests.append(
                ScheduledRequest(
                    index=index,
                    send_at=send_at,
                    spec=self._make_spec(spec_rng),
                    client=client,
                    profile=profile,
                )
            )
        return requests

    def _arrival_times(self, rng: random.Random) -> List[float]:
        cfg = self.config
        times: List[float] = []
        if cfg.arrival == "poisson":
            t = rng.expovariate(cfg.rate)
            while t < cfg.duration_seconds:
                times.append(t)
                t += rng.expovariate(cfg.rate)
            return times
        # Diurnal via thinning: draw candidates at the peak rate, keep a
        # candidate at time t with probability rate(t)/rate_max.  The
        # rate curve rises through the first half-period and dips
        # through the second (sin starts at the mean, not the trough).
        period = cfg.diurnal_period_seconds or cfg.duration_seconds
        rate_max = cfg.rate * (1.0 + cfg.diurnal_amplitude)
        t = rng.expovariate(rate_max)
        while t < cfg.duration_seconds:
            rate_t = cfg.rate * (
                1.0
                + cfg.diurnal_amplitude * math.sin(2.0 * math.pi * t / period)
            )
            if rng.random() * rate_max < rate_t:
                times.append(t)
            t += rng.expovariate(rate_max)
        return times

    def _slow_clients(self) -> frozenset:
        cfg = self.config
        count = int(round(cfg.slow_client_fraction * cfg.clients))
        if cfg.slow_client_fraction > 0:
            count = max(count, 1)
        rng = random.Random(f"{cfg.seed}-slow-clients")
        return frozenset(rng.sample(range(cfg.clients), min(count, cfg.clients)))

    def _make_spec(self, rng: random.Random) -> Dict[str, object]:
        cfg = self.config
        hot = (
            self.hotspot_box is not None
            and rng.random() < cfg.hotspot_fraction
        )
        if hot and self._hot_ranked:
            ranked, cumulative = self._hot_ranked, self._hot_cumulative
        else:
            ranked, cumulative = self._ranked, self._cumulative
        wanted = min(cfg.keywords_per_query, len(ranked))
        chosen: List[str] = []
        seen = set()
        while len(chosen) < wanted:
            word = ranked[_sample_rank(rng, cumulative)]
            if word not in seen:
                seen.add(word)
                chosen.append(word)
        spec: Dict[str, object] = {"keywords": sorted(chosen), "k": cfg.k}
        if cfg.radius is not None:
            spec["radius"] = cfg.radius
        if cfg.algorithm is not None:
            spec["algorithm"] = cfg.algorithm
        if cfg.deadline_ms is not None:
            spec["deadline_ms"] = cfg.deadline_ms
        return spec

    # ------------------------------------------------------------------ #
    # hotspot placement

    def _place_hotspot(self, feature_objects: Sequence[FeatureObject]) -> None:
        cfg = self.config
        rng = random.Random(f"{cfg.seed}-hotspot")
        width = (self.extent.max_x - self.extent.min_x) * (
            cfg.hotspot_extent_fraction
        )
        height = (self.extent.max_y - self.extent.min_y) * (
            cfg.hotspot_extent_fraction
        )
        min_x = self.extent.min_x + rng.random() * (
            (self.extent.max_x - self.extent.min_x) - width
        )
        min_y = self.extent.min_y + rng.random() * (
            (self.extent.max_y - self.extent.min_y) - height
        )
        self.hotspot_box = BoundingBox(min_x, min_y, min_x + width, min_y + height)
        inside = [
            feature
            for feature in feature_objects
            if self.hotspot_box.contains(feature.x, feature.y)
        ]
        hot_vocabulary = Vocabulary.from_features(inside)
        self._hot_ranked = hot_vocabulary.most_frequent(
            len(hot_vocabulary.words())
        )
        # A hotspot landing in an empty corner falls back to the global
        # vocabulary -- the box still shapes nothing, but the schedule
        # stays well-formed instead of failing on an unlucky seed.
        if self._hot_ranked:
            self._hot_cumulative = _cumulative(
                _zipf_weights(len(self._hot_ranked), cfg.zipf_exponent)
            )


# --------------------------------------------------------------------- #
# Zipf helpers


def _zipf_weights(size: int, exponent: float) -> List[float]:
    """Weight ``1 / rank**exponent`` per rank, rank 1 first."""
    return [1.0 / float(rank) ** exponent for rank in range(1, size + 1)]


def _cumulative(weights: Sequence[float]) -> List[float]:
    total = 0.0
    cumulative: List[float] = []
    for weight in weights:
        total += weight
        cumulative.append(total)
    return cumulative


def _sample_rank(rng: random.Random, cumulative: Sequence[float]) -> int:
    """Draw a 0-based rank index proportionally to the weight profile."""
    point = rng.random() * cumulative[-1]
    index = bisect.bisect_right(cumulative, point)
    return min(index, len(cumulative) - 1)


# --------------------------------------------------------------------- #
# load generator

#: Every outcome a fired request can have.
OUTCOMES = ("ok", "shed", "error", "timeout")


@dataclass(frozen=True)
class RequestRecord:
    """What happened to one scheduled request.

    Attributes:
        index: The schedule index this record answers for.
        client: Simulated client id.
        profile: The schedule's profile tag.
        scheduled_at: Planned send offset (seconds from run start).
        sent_at: Actual send offset; ``sent_at - scheduled_at`` is
            scheduler lag, *not* server latency (open loop).
        latency_seconds: Wall time from send to outcome.
        outcome: One of :data:`OUTCOMES`.
        status: HTTP status when the target speaks HTTP (429 for sheds).
        retry_after_ms: The shed body's backoff hint (sheds only).
        cached: True when the service answered from its result cache.
        error: Human-readable failure detail (errors/timeouts only).
    """

    index: int
    client: int
    profile: str
    scheduled_at: float
    sent_at: float
    latency_seconds: float
    outcome: str
    status: Optional[int] = None
    retry_after_ms: Optional[float] = None
    cached: bool = False
    error: Optional[str] = None


@dataclass(frozen=True)
class SendResult:
    """A target's verdict for one request (latency is measured outside)."""

    outcome: str
    status: Optional[int] = None
    retry_after_ms: Optional[float] = None
    cached: bool = False
    error: Optional[str] = None


class ResultsLedger:
    """Thread-safe collection of :class:`RequestRecord`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[RequestRecord] = []

    def add(self, record: RequestRecord) -> None:
        """Append one record (called from per-request threads)."""
        with self._lock:
            self._records.append(record)

    @property
    def records(self) -> List[RequestRecord]:
        """All records, sorted by schedule index."""
        with self._lock:
            return sorted(self._records, key=lambda r: r.index)

    def counts(self) -> Dict[str, int]:
        """Outcome -> count over every recorded request."""
        counts = {outcome: 0 for outcome in OUTCOMES}
        for record in self.records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    def summary(self) -> Dict[str, object]:
        """Counts, goodput and admitted-latency percentiles, reconciled.

        ``reconciled`` is True iff the outcome counts sum to the number
        of records -- the ledger-side half of the no-silent-drops
        invariant (the schedule-side half is checking ``offered`` against
        the schedule length, which only the caller knows).
        """
        records = self.records
        counts = self.counts()
        ok_latencies = sorted(
            r.latency_seconds for r in records if r.outcome == "ok"
        )
        span = 0.0
        if records:
            first = min(r.sent_at for r in records)
            last = max(r.sent_at + r.latency_seconds for r in records)
            span = max(last - first, 1e-9)
        summary: Dict[str, object] = {
            "offered": len(records),
            "counts": counts,
            "reconciled": sum(counts.values()) == len(records),
            "goodput_rps": counts["ok"] / span if records else 0.0,
            "span_seconds": span,
        }
        if ok_latencies:
            summary["ok_latency_ms"] = {
                "p50": _percentile(ok_latencies, 0.50) * 1000.0,
                "p90": _percentile(ok_latencies, 0.90) * 1000.0,
                "p99": _percentile(ok_latencies, 0.99) * 1000.0,
                "max": ok_latencies[-1] * 1000.0,
            }
        sheds = [r.retry_after_ms for r in records if r.outcome == "shed"]
        if sheds:
            summary["shed_retry_after_ms_max"] = max(
                value for value in sheds if value is not None
            )
        return summary

    def write_jsonl(self, path: str) -> None:
        """Dump one JSON object per record (the per-request raw ledger)."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record.__dict__, sort_keys=True))
                handle.write("\n")


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    index = min(int(fraction * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


# --------------------------------------------------------------------- #
# the HTTP target


class HttpTarget:
    """Drive ``repro serve`` over HTTP with per-client keep-alive pools.

    ``connections_opened`` vs. ``requests_sent`` is the keep-alive
    measurement: a healthy server with working persistent connections
    serves many requests per opened connection even under a concurrent
    open-loop fleet.
    """

    def __init__(
        self,
        base_url: str,
        timeout_seconds: float = 30.0,
        slow_stall_seconds: float = 0.05,
    ) -> None:
        """Parse the target address and set up empty per-client pools.

        Args:
            base_url: e.g. ``http://127.0.0.1:8080``.
            timeout_seconds: Socket deadline per request (bounds how long
                a fired thread can live; open loop means nothing else
                waits on it).
            slow_stall_seconds: How long a ``"slow"``-profile request
                pauses between its first byte and the rest of its body.
        """
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.netloc:
            raise ValueError(f"base_url must be http://host:port, got {base_url!r}")
        self._netloc = parts.netloc
        self._timeout = timeout_seconds
        self._slow_stall = slow_stall_seconds
        self._lock = threading.Lock()
        self._pools: Dict[int, List[http.client.HTTPConnection]] = {}
        self.connections_opened = 0
        self.requests_sent = 0

    # connection pool ------------------------------------------------- #

    def _checkout(self, client: int) -> http.client.HTTPConnection:
        with self._lock:
            pool = self._pools.setdefault(client, [])
            if pool:
                return pool.pop()
            self.connections_opened += 1
        connection = http.client.HTTPConnection(
            self._netloc, timeout=self._timeout
        )
        return connection

    def _checkin(self, client: int, connection: http.client.HTTPConnection) -> None:
        with self._lock:
            self._pools.setdefault(client, []).append(connection)

    def close(self) -> None:
        """Close every pooled connection (end of a run)."""
        with self._lock:
            pools, self._pools = self._pools, {}
        for pool in pools.values():
            for connection in pool:
                connection.close()

    def reuse_stats(self) -> Dict[str, float]:
        """Requests per opened connection -- the keep-alive ratio."""
        with self._lock:
            opened = self.connections_opened
            requests = self.requests_sent
        return {
            "requests": requests,
            "opened": opened,
            "reuse_ratio": requests / opened if opened else 0.0,
        }

    # sending ---------------------------------------------------------- #

    def send(
        self, spec: Mapping[str, object], client: int, profile: str
    ) -> SendResult:
        """POST one spec to ``/query``; fold the response into an outcome."""
        body = json.dumps(dict(spec)).encode("utf-8")
        connection = self._checkout(client)
        with self._lock:
            self.requests_sent += 1
        try:
            if profile == "slow" and len(body) > 1:
                # Trickle the body: headers + first byte, stall, rest.
                # Exercises the server against half-written requests
                # (the fast-shed path answers before reading the body).
                connection.putrequest("POST", "/query")
                connection.putheader("Content-Type", "application/json")
                connection.putheader("Content-Length", str(len(body)))
                connection.endheaders()
                connection.send(body[:1])
                time.sleep(self._slow_stall)
                connection.send(body[1:])
            else:
                connection.request(
                    "POST",
                    "/query",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
            response = connection.getresponse()
            raw = response.read()
            status = response.status
            keep = not response.will_close
        except TimeoutError as exc:
            connection.close()
            return SendResult("timeout", error=f"socket deadline: {exc}")
        except (http.client.HTTPException, OSError) as exc:
            connection.close()
            return SendResult(
                "error", error=f"{type(exc).__name__}: {exc}"
            )
        if keep:
            self._checkin(client, connection)
        else:
            connection.close()
        return self._classify(status, raw)

    @staticmethod
    def _classify(status: int, raw: bytes) -> SendResult:
        try:
            decoded = json.loads(raw)
        except ValueError:
            decoded = None
        payload = decoded if isinstance(decoded, dict) else {}
        if status == 200:
            return SendResult(
                "ok", status=200, cached=bool(payload.get("cached", False))
            )
        if status == 429:
            # The shed contract: an explicit JSON body with shed=true and
            # a retry hint.  A malformed 429 still counts as a shed (the
            # client saw an explicit rejection) but carries the defect in
            # its error field so the bench's contract check can fail it.
            retry_after = payload.get("retry_after_ms")
            if not isinstance(retry_after, (int, float)) or isinstance(
                retry_after, bool
            ):
                retry_after = None
            error = None
            if payload.get("shed") is not True or retry_after is None:
                error = f"malformed shed body: {raw[:200]!r}"
            return SendResult(
                "shed",
                status=429,
                retry_after_ms=(
                    float(retry_after) if retry_after is not None else None
                ),
                error=error,
            )
        return SendResult(
            "error",
            status=status,
            error=f"HTTP {status}: {raw[:200]!r}",
        )


# --------------------------------------------------------------------- #
# the generator


class LoadGenerator:
    """Fire a schedule open-loop at a target, one thread per request."""

    def __init__(
        self,
        schedule: Sequence[ScheduledRequest],
        target,
        drain_timeout_seconds: float = 120.0,
    ) -> None:
        """Bind a schedule to a target.

        Args:
            schedule: The requests to fire (any order; sorted here).
            target: :class:`HttpTarget`, or any object with the same
                ``send(spec, client, profile)``.
            drain_timeout_seconds: How long :meth:`run` waits for
                straggler request threads after the last send before
                giving up on them (they are counted, never dropped
                silently -- see ``lost`` in the run result).
        """
        self._schedule = sorted(schedule, key=lambda r: (r.send_at, r.index))
        self._target = target
        self._drain_timeout = drain_timeout_seconds
        self.ledger = ResultsLedger()
        #: Threads the drain timeout abandoned (0 in a healthy run).
        self.lost = 0

    def run(self) -> ResultsLedger:
        """Fire the whole schedule; return the filled ledger.

        The scheduler thread only ever sleeps until the next send time
        and spawns a sender thread -- it never waits on a response, so a
        degraded server cannot slow the offered load down.
        """
        origin = time.monotonic()
        threads: List[threading.Thread] = []
        for request in self._schedule:
            delay = (origin + request.send_at) - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            thread = threading.Thread(
                target=self._fire,
                args=(request, origin),
                daemon=True,
                name=f"loadgen-{request.index}",
            )
            thread.start()
            threads.append(thread)
        deadline = time.monotonic() + self._drain_timeout
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self.lost = sum(1 for thread in threads if thread.is_alive())
        return self.ledger

    def _fire(self, request: ScheduledRequest, origin: float) -> None:
        sent_at = time.monotonic() - origin
        started = time.monotonic()
        try:
            result = self._target.send(
                request.spec, client=request.client, profile=request.profile
            )
        except Exception as exc:  # noqa: BLE001 - a target bug is an error outcome
            result = SendResult(
                "error", error=f"target raised {type(exc).__name__}: {exc}"
            )
        latency = time.monotonic() - started
        self.ledger.add(
            RequestRecord(
                index=request.index,
                client=request.client,
                profile=request.profile,
                scheduled_at=request.send_at,
                sent_at=sent_at,
                latency_seconds=latency,
                outcome=result.outcome,
                status=result.status,
                retry_after_ms=result.retry_after_ms,
                cached=result.cached,
                error=result.error,
            )
        )
