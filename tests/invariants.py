"""Standing invariants: what a front door must keep, and leave behind.

One set of checks for every deployment mode -- a pooled ``QueryService``,
an in-process ``ShardRouter`` and a real ``repro serve --cluster``
subprocess (``tests/test_standing_invariants.py``), and the lifecycle
state machine (``tests/test_lifecycle_machine.py``):

* :class:`ProcessBaseline` -- threads, open fds, child processes and
  ``/dev/shm/repro_dp_*`` names of this process, taken before a front door
  starts; :meth:`ProcessBaseline.assert_restored` after it shut down;
* :func:`child_pids` / :func:`dataset_memfds` -- the children of a process
  and the dataset memory files it still holds open (any pid, via
  ``/proc``);
* :func:`assert_counters_reconcile` -- the request ledger and the
  admission counters add up once the front door is quiet;
* :func:`assert_degraded_not_cached` -- a degraded answer is never stored
  in, or served from, the result cache;
* :class:`RetiredIndexWatch` -- no retired ``DatasetIndex`` stays
  reachable once its successor has served (refcounting alone must free it,
  so the watch runs with the cyclic collector off, as
  ``tests/test_index_fold.py`` does for one compaction).
"""

from __future__ import annotations

import gc
import glob
import os
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Mapping

from repro.cluster.spawn import DATASET_MEMFD

#: Prefix of the named shared-memory segments an earlier hand-off created;
#: nothing may create one now, so any survivor is a tripwire.
SHM_STRAY_GLOB = "/dev/shm/repro_dp_*"


def fd_targets(pid: "int | str" = "self") -> List[str]:
    """What every open descriptor of ``pid`` points at (``readlink``)."""
    targets = []
    directory = f"/proc/{pid}/fd"
    for entry in os.listdir(directory):
        try:
            targets.append(os.readlink(f"{directory}/{entry}"))
        except OSError:  # closed while we looked (the listing's own fd)
            pass
    return sorted(targets)


def dataset_memfds(pid: "int | str" = "self") -> List[str]:
    """The dataset memory files ``pid`` holds an open descriptor to."""
    return [
        target for target in fd_targets(pid)
        if target.startswith(f"/memfd:{DATASET_MEMFD}")
    ]


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, zombies included (an unreaped child leaks)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # ``pid (comm) state ppid ...``; comm may hold spaces or parens.
        if int(stat.rsplit(b")", 1)[1].split()[1]) == pid:
            children.append(int(entry))
    return sorted(children)


def shm_strays() -> List[str]:
    """Named shared-memory segments of this package left in ``/dev/shm``."""
    return sorted(glob.glob(SHM_STRAY_GLOB))


class ProcessBaseline:
    """This process's threads, fds, children and shm names at one moment."""

    def __init__(self) -> None:
        self.state = self._measure()

    @staticmethod
    def _measure() -> Dict[str, object]:
        return {
            "threads": sorted(thread.name for thread in threading.enumerate()),
            "fds": fd_targets(),
            "children": child_pids(os.getpid()),
            "shm": shm_strays(),
        }

    def assert_restored(self, timeout: float = 10.0) -> None:
        """Wait until every count is back at the baseline, else fail.

        Thread and fd *counts* must match (a socket reopened elsewhere has
        a new inode, so targets are shown, not compared); child pids and
        shm names must match exactly.
        """
        deadline = time.monotonic() + timeout
        while True:
            now = self._measure()
            diffs = {
                key: (self.state[key], now[key])
                for key in self.state
                if (len(now[key]) != len(self.state[key])
                    if key in ("threads", "fds") else now[key] != self.state[key])
            }
            if not diffs or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert not diffs, f"not back at baseline (before, after): {diffs}"


@contextmanager
def standing_invariants() -> Iterator[ProcessBaseline]:
    """Baseline this process; on a clean exit, assert it is restored."""
    baseline = ProcessBaseline()
    yield baseline
    baseline.assert_restored()


def assert_counters_reconcile(stats: Mapping[str, object]) -> None:
    """The request ledger and admission counters of a quiet front door.

    Every submitted request was answered, failed, or shed at admission;
    every admitted one completed, failed or missed its deadline, and none
    is still in flight.  (An HTTP fast shed is offered but never submitted,
    so callers check this after traffic without one.)
    """
    requests = stats["requests"]
    admission = stats["admission"]
    assert requests["submitted"] == (
        requests["completed"] + requests["failed"]
        + admission["shed_queue_full"] + admission["shed_deadline"]
    ), (requests, admission)
    assert admission["inflight"] == 0, admission
    assert admission["offered"] == (
        admission["admitted"] + admission["shed_queue_full"]
        + admission["shed_deadline"]
    ), admission
    assert admission["admitted"] == (
        admission["completed"] + admission["failed"] + admission["deadline_miss"]
    ), admission
    assert admission["shed"] == (
        admission["shed_queue_full"] + admission["shed_deadline"]
        + admission["deadline_miss"]
    ), admission


def assert_degraded_not_cached(
    submit: Callable[[Mapping[str, object]], Mapping[str, object]],
    stats: Callable[[], Mapping[str, object]],
    spec: Mapping[str, object],
) -> Mapping[str, object]:
    """``spec`` answers degraded, and the degraded answer is not cached.

    ``spec`` must not have been asked before (a cached healthy answer
    legitimately keeps serving).  Returns the degraded response.
    """
    size_before = stats()["result_cache"]["size"]
    first = submit(spec)
    assert first.get("degraded") is True, first
    again = submit(spec)
    assert again.get("degraded") is True and not again.get("cached"), again
    assert stats()["result_cache"]["size"] == size_before
    return first


def cached_indexes(engines: Iterable, retired: bool = True) -> List[object]:
    """Every ``DatasetIndex`` the engines' caches hold in service (and,
    with ``retired``, held for a successor)."""
    found: Dict[int, object] = {}
    for engine in engines:
        cache = engine._index_cache
        with cache._lock:
            held = list(cache._entries.values())
            if retired:
                held += cache._retired.values()
        for index in held:
            found[id(index)] = index
    return list(found.values())


class RetiredIndexWatch:
    """Weak references to the indexes a state change is about to retire.

    Use as ``with RetiredIndexWatch(engines) as watch:`` around a
    compaction or swap plus one read at every cached grid size; on exit
    every watched index must be gone (or still be the one in service, for
    a change that retired nothing).  The cyclic collector is off inside.
    """

    def __init__(self, engines: Callable[[], Iterable]) -> None:
        self._engines = engines
        self._refs: List[weakref.ref] = []

    def __enter__(self) -> "RetiredIndexWatch":
        self._refs = [weakref.ref(index) for index in cached_indexes(self._engines())]
        assert self._refs, "no cached index to watch: read before the change"
        gc.disable()
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if exc_info[0] is None:
                self.assert_released()
        finally:
            gc.enable()

    def assert_released(self) -> None:
        live = {
            id(index) for index in cached_indexes(self._engines(), retired=False)
        }
        survivors = [
            ref() for ref in self._refs
            if ref() is not None and id(ref()) not in live
        ]
        assert not survivors, (
            f"{len(survivors)} retired DatasetIndex object(s) still reachable "
            "after their successors served"
        )
