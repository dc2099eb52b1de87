"""Figure 8 — scalability with dataset size (uniform data).

The paper doubles the dataset from 64M to 512M entries and reports that pSPQ
scales linearly while the early-termination algorithms grow much more slowly,
widening the gap at larger sizes.  The benchmark times end-to-end execution at
a x2 / x4 size progression for each algorithm.
"""

from __future__ import annotations

import pytest

from repro.paper.bench.experiments import _uniform_spec
from benchmarks.conftest import execute

ALGORITHMS = ("pspq", "espq-len", "espq-sco")
SIZES = (1_000, 2_000, 4_000, 8_000)


@pytest.fixture(scope="module", params=SIZES)
def sized_spec(request):
    return request.param, _uniform_spec(request.param)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fig8_dataset_size(benchmark, sized_spec, algorithm):
    size, spec = sized_spec
    benchmark.extra_info["dataset_size"] = size
    result = benchmark(execute, spec, algorithm)
    assert len(result) <= spec.k
