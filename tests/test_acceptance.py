"""Acceptance gate: every shipped criterion must pass at its stated tolerance.

Each criterion prints one PASS/FAIL line with its measured numbers, so a
full run doubles as a scoreboard.  A raised exception inside a criterion is
reported as a failure, never as a skip.
"""

import math

import pytest

from glsim import acceptance, run_criterion, run_suite


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


def _raise(seed):
    raise RuntimeError("boom")


@pytest.mark.parametrize("criterion,cap,passed,details", [
    (lambda seed: (True, "fine"), math.inf, True, "fine"),
    (lambda seed: (True, "fine"), 0.0, False, "fine"),
    (lambda seed: (False, "off"), math.inf, False, "off"),
    (_raise, math.inf, False, "raised RuntimeError: boom"),
], ids=["passes", "past-its-cap", "fails", "raises"])
def test_run_criterion_times_caps_and_names_every_result(monkeypatch, criterion, cap, passed,
                                                         details):
    monkeypatch.setitem(acceptance.CRITERIA, "1", ("C1 light-cone exactness", criterion, cap))
    result = run_criterion(1)
    assert (result.name, result.passed, result.details) == \
        ("C1 light-cone exactness", passed, details)
    assert result.passed is passed
    assert 0.0 <= result.seconds < 1.0


def test_the_time_caps_are_those_of_the_criteria():
    assert {key: cap for key, (_, _, cap) in acceptance.CRITERIA.items() if cap < math.inf} == \
        {"1": 30.0, "2": 60.0, "4": 300.0, "8": 60.0}
