"""``python -m pytest benchmarks/e2e``: the self-test, one test per check."""

import pytest

import run

run._bootstrap()

import selftest  # noqa: E402 - needs the checkout's sources on sys.path first


@pytest.mark.parametrize("check", selftest.CHECKS, ids=lambda check: check.__name__)
def test_selftest(check):
    check()
