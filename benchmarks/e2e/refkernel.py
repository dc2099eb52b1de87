"""Frozen reference kernel: the benchmark's ruler for machine speed.

``ref_kernel()`` is a fixed, stdlib-only, interpreter-bound mix of the
operations the engine's hot loops are made of -- float distance tests, set
intersection, dict updates, tuple allocation and a sort.  The benchmark
times it in the quiet gaps around every measured block and reports each
time-valued metric multiplied by ``REF_NOMINAL_MS / measured kernel ms``,
so a run on a slower (or busier) machine reads the same as a run on the
machine the nominal was taken on.

FROZEN: this file never imports ``repro`` and must not be edited after the
PR that introduced it -- changing the kernel silently rescales every
committed number.  (``test_e2e.py`` pins its source digest.)
"""

from __future__ import annotations

import time
from typing import Tuple

#: Kernel wall time on the box the baseline was taken on; the unit every
#: normalised metric is expressed in ("milliseconds on the nominal box").
REF_NOMINAL_MS = 6.0


def ref_kernel() -> int:
    """Run the fixed instruction mix once; returns a checksum."""
    state = 12345
    points = []
    for _ in range(2000):
        state = (state * 1103515245 + 12345) % 2147483648
        x = (state % 10000) / 100.0
        state = (state * 1103515245 + 12345) % 2147483648
        y = (state % 10000) / 100.0
        points.append((x, y, state % 97))
    radius_sq = 6.25
    inside = 0
    for px, py, _ in points[:100]:
        for qx, qy, _ in points[100:420]:
            dx = px - qx
            dy = py - qy
            if dx * dx + dy * dy <= radius_sq:
                inside += 1
    words = [frozenset((tag, (tag * 7) % 97, (tag * 13) % 97, (tag + i) % 97))
             for i, (_, _, tag) in enumerate(points)]
    probe = frozenset(range(0, 97, 3))
    overlap = 0
    for keywords in words:
        common = keywords & probe
        if common:
            overlap += len(common)
    counts = {}
    for x, y, tag in points:
        key = (int(x) // 8, int(y) // 8)
        counts[key] = counts.get(key, 0) + tag
    ranked = sorted(
        ((-(value % 1000) / 7.0, key) for key, value in counts.items())
    )
    top = ranked[:10]
    return inside + overlap + len(top) + int(top[0][0])


def time_ref_kernel() -> Tuple[float, float]:
    """One timed kernel run: ``(wall ms, thread-CPU ms)``."""
    wall = time.perf_counter()
    cpu = time.thread_time()
    ref_kernel()
    cpu = time.thread_time() - cpu
    wall = time.perf_counter() - wall
    return wall * 1000.0, cpu * 1000.0
