"""Inner-product estimation from sampling-and-query access.

Given query access to w and sampling+query+norm access to v (both promised to
have norm at most 1), the single-draw estimator

    i ~ p^v,   X = conj(v_i) * w_i * ||v||^2 / |v_i|^2

has mean v^dag w and second moment bounded by ||v||^2 sup|w/u...|; a
median of means over ceil(8 ln(2/delta)) batches of ceil(32/eps^2) draws
brings the failure probability under delta.  The constants are this
implementation's, fixed here and recorded in every report.

The composed solver applies a polynomial of a geometrically local matrix to
u (through the light-cone kernel) and estimates v^dag P(A)u the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .access import (OracleInconsistencyError, PreconditionError, VectorOracle,
                     rng_stream)
from .lightcone import poly_apply_query_oracle
from .polyapprox import Polynomial

ZETA_FRACTION = 9  # sampler error allowance: v.zeta <= eps / ZETA_FRACTION
SUP_SLACK = 0.25   # accepted overshoot of sup_bound above 1


@dataclass(frozen=True)
class EstimateReport:
    """Result of one estimation run."""

    value: complex
    eps: float
    delta: float
    samples_used: int
    repetitions: int
    seed: int

    @property
    def batch_size(self) -> int:
        return self.samples_used // self.repetitions


def _plan(eps: float, delta: float) -> tuple[int, int]:
    if not (0 < eps <= 2):
        raise PreconditionError("eps must lie in (0, 2]")
    if not (0 < delta < 1):
        raise PreconditionError("delta must lie in (0, 1)")
    batch = int(math.ceil(32.0 / (eps * eps)))
    reps = int(math.ceil(8.0 * math.log(2.0 / delta)))
    return batch, reps


def inner_product_estimate(w: VectorOracle, v: VectorOracle, eps: float,
                           delta: float, seed: int) -> EstimateReport:
    """Estimate v^dag w within eps with probability >= 1 - delta.

    w needs query access only; v needs sampler, queries, and norm, with
    v.zeta <= eps/9.  Both vectors are promised by the caller to have norm
    at most 1.  All draws for all batches come from one stream keyed by seed,
    and distinct indices are queried exactly once.
    """
    if w.dimension != v.dimension:
        raise PreconditionError("w and v dimensions differ")
    if not v.can_sample:
        raise PreconditionError("v has no sampler")
    if not v.has_norm:
        raise PreconditionError("v carries no norm; sq-access requires it")
    if v.zeta > eps / ZETA_FRACTION + 1e-15:
        raise PreconditionError(
            f"v.zeta = {v.zeta} exceeds eps/{ZETA_FRACTION} = {eps / ZETA_FRACTION}")
    batch, reps = _plan(eps, delta)
    total = batch * reps
    vnorm = v.norm()

    rng = rng_stream(seed, 0)
    draws = v.sample_many(rng, total)
    uniq, inverse = np.unique(draws, return_inverse=True)
    vvals = np.array([v.query(int(i)) for i in uniq], dtype=np.complex128)
    if np.any(vvals == 0):
        bad = int(uniq[int(np.flatnonzero(vvals == 0)[0])])
        raise OracleInconsistencyError(
            f"sampler returned index {bad} but v_{bad} = 0")
    wvals = np.array([w.query(int(i)) for i in uniq], dtype=np.complex128)

    x_uniq = np.conj(vvals) * wvals * (vnorm * vnorm) / (np.abs(vvals) ** 2)
    x = x_uniq[inverse].reshape(reps, batch)
    means = x.mean(axis=1)
    value = complex(float(np.median(means.real)), float(np.median(means.imag)))
    return EstimateReport(value=value, eps=float(eps), delta=float(delta),
                          samples_used=total, repetitions=reps, seed=int(seed))


def evt_gl_estimate(A, p: Polynomial, u: VectorOracle, v: VectorOracle,
                    eps: float, delta: float, seed: int) -> EstimateReport:
    """Estimate v^dag P(A)u for a geometrically local A within eps, w.p. >= 1 - delta.

    Requires p.sup_bound <= 1 (small slack allowed) so that ||P(A)u|| stays
    near 1; each sampled index triggers one light-cone entry evaluation.
    """
    if p.sup_bound is None:
        raise PreconditionError("polynomial carries no certified sup_bound")
    if p.sup_bound > 1.0 + SUP_SLACK:
        raise PreconditionError(
            f"sup_bound {p.sup_bound} too large; the estimator needs ||P(A)u|| <~ 1")
    w = poly_apply_query_oracle(A, p, u)
    return inner_product_estimate(w, v, eps, delta, seed)
