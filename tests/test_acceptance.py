"""Acceptance gate: every shipped criterion must pass at its stated tolerance.

Each criterion prints one PASS/FAIL line with its measured numbers, so a
full run doubles as a scoreboard.  A raised exception inside a criterion is
reported as a failure, never as a skip.
"""

import pytest

from glsim import run_criterion, run_suite


@pytest.mark.parametrize("cid", [str(k) for k in range(1, 12)])
def test_criterion(cid):
    result = run_criterion(cid)
    print(result.line)
    assert result.passed, result.details


def test_thread_pool_gives_the_serial_results():
    names = ("8", "9", "10")
    serial = run_suite(names, threads=1)
    pooled = run_suite(names, threads=2)
    assert [(r.name, r.passed, r.details) for r in pooled] == \
        [(r.name, r.passed, r.details) for r in serial]
