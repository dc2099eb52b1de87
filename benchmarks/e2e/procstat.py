"""Per-process CPU time and memory from ``/proc``, plus machine steal time.

The benchmark charges a query with the CPU of *every* process that worked
on it -- the load generator, the server and each shard node -- so a change
that moves work across a process hop cannot hide it.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional

_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


def stat_fields(pid: object) -> Optional[List[bytes]]:
    """``/proc/<pid>/stat`` from field 3 (state) on; None once ``pid`` is gone.

    The command name (field 2) may contain spaces, so fields are counted
    from its closing parenthesis: index 0 is the state, 1 the parent pid,
    11 and 12 are utime and stime.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return None
    return stat[stat.rfind(b")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` (all its threads), 0.0 once it is gone."""
    fields = stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND


def total_cpu_seconds(pids: Iterable[int]) -> float:
    """Summed :func:`cpu_seconds` over ``pids``."""
    return sum(cpu_seconds(pid) for pid in pids)


def peak_rss_mib(pid: int) -> float:
    """High-water resident set size of ``pid`` in MiB (0.0 once gone)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def total_peak_rss_mib(pids: Iterable[int]) -> float:
    """Summed :func:`peak_rss_mib` over ``pids``."""
    return sum(peak_rss_mib(pid) for pid in pids)


def children_of(pid: int) -> List[int]:
    """Direct child pids of ``pid`` (the shard nodes of a cluster front)."""
    children: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = stat_fields(entry)
        if fields is not None and int(fields[1]) == pid:
            children.append(int(entry))
    return sorted(children)


def machine_cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (user, nice, ..., steal)."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        return [int(value) for value in handle.readline().split()[1:]]


def steal_percent(before: List[int], after: List[int]) -> float:
    """Share of machine CPU time stolen by the hypervisor between samples."""
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas[:8])
    steal = deltas[7] if len(deltas) > 7 else 0
    return 100.0 * steal / total if total else 0.0
