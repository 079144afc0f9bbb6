"""Host-speed calibration: times in reference seconds.

The host this benchmark runs on shares its cores, and its speed drifts by
tens of percent over minutes while the work stays the same.  So the run
times a fixed reference task, which uses no glsim code, between the spans it
measures, and reports every span as

    measured seconds * reference / (mean of the reference task's times
                                    just before and just after the span)

that is, in seconds of a host on which the reference task takes
``reference``, the sum of its parts' ``REFERENCE_S``.  A change to glsim
moves the spans and not the task, so it moves the calibrated times in
proportion.

The task is made of the kinds of work a workload's ops do: a pure-Python
sparse three-term recurrence over dicts (``python``, the light-cone kernel's
kind) and numpy draws from a 16-point law counted with ``np.unique``
(``numpy``, the estimator's kind).  Each workload names its parts; the
README's *Calibrated times* gives the spreads they were chosen from.
"""

from __future__ import annotations

import time

import numpy as np

# Round figures near each part's time on the reference host (README.md,
# Reference figures).  They only set the scale; changing one would rescale
# every timing, so they stay fixed.
REFERENCE_S = {"python": 0.020, "numpy": 0.015}
STEPS = 150
DRAWS = 300_000
LAW = np.full(16, 1.0 / 16)


def python_part(steps: int = STEPS) -> float:
    """Chebyshev-like recurrence on a chain, in dicts; returns 1.0 up to rounding."""
    prev = {0: 1.0}
    cur = {-1: 0.45, 0: 0.1, 1: 0.45}
    for _ in range(steps):
        nxt = {}
        get = nxt.get
        for i, val in cur.items():
            for j, w in ((i - 1, 0.45), (i, 0.1), (i + 1, 0.45)):
                nxt[j] = get(j, 0.0) + 2.0 * w * val
        for i, val in prev.items():
            nxt[i] = get(i, 0.0) - val
        prev, cur = cur, nxt
    return sum(cur.values())


def numpy_part(draws: int = DRAWS) -> int:
    """Draws from a fixed law, counted per value; returns the number of draws."""
    rng = np.random.default_rng(20261017)
    _, counts = np.unique(rng.choice(LAW.size, size=draws, p=LAW), return_counts=True)
    return int(counts.sum())


PARTS = {"python": python_part, "numpy": numpy_part}


class Calibration:
    """Times of the reference task made of ``parts``, one per call of sample()."""

    def __init__(self, parts):
        self.parts = [PARTS[p] for p in parts]
        self.reference = sum(REFERENCE_S[p] for p in parts)
        self.times: list = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def scale(self, before: float, after: float) -> float:
        """Factor from measured to reference seconds for a span between two samples."""
        return self.reference / (0.5 * (before + after))
