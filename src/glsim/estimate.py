"""Inner-product estimation from sampling-and-query access.

Given query access to w and sampling+query+norm access to v (both promised to
have norm at most 1), the single-draw estimator

    i ~ p^v,   X = conj(v_i) * w_i * ||v||^2 / |v_i|^2

has mean v^dag w and second moment bounded by ||v||^2 sup|w/u...|; a
median of means over ceil(8 ln(2/delta)) batches of ceil(32/eps^2) draws
brings the failure probability under delta.  The constants are this
implementation's, fixed here and recorded in every report.

A batch mean depends only on how often each site was drawn.  When v's
sorted mass table (VectorOracle.support) has at most one batch of sites,
the draws come as counts: VectorOracle.sample_counts gives the table
positions drawn at least once and, for every batch, how often each was
drawn, and each batch mean is those counts times X over the batch size.
Its first stage still draws one binomial per batch for every position of
mass at least 1/(len(support) batch reps), which on a larger table can
outnumber the draws themselves, so there the draws come as positions into
the table (VectorOracle.sample_positions) and each batch mean averages X
over its draws.  Either way v and w are queried once at each site drawn at
least once, in increasing order, each through one query_many call on the
table's int64 sites.

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
    at most 1.  The draws for all batches come from one stream keyed
    by seed, as counts over the drawn positions when v's table has at most
    batch sites and as positions otherwise; every drawn site is queried
    exactly once, in increasing order.
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
    by_counts = v.support.size <= batch
    if by_counts:
        hit, counts = v.sample_counts(rng, batch, reps)
    else:
        drawn = v.sample_positions(rng, total)
        hit = np.flatnonzero(np.bincount(drawn, minlength=v.support.size))
    sites = v.support[hit]
    vvals = v.query_many(sites)
    if np.any(vvals == 0):
        bad = sites[np.flatnonzero(vvals == 0)[0]]
        raise OracleInconsistencyError(
            f"sampler returned index {bad} but v_{bad} = 0")
    wvals = w.query_many(sites)

    x_hit = np.conj(vvals) * wvals * (vnorm * vnorm) / (np.abs(vvals) ** 2)
    if by_counts:
        # two real matmuls on one float copy of the counts: a complex matmul
        # would copy them to complex, twice the bytes
        counts = counts.astype(np.float64)
        re, im = counts @ x_hit.real / batch, counts @ x_hit.imag / batch
    else:
        x_table = np.zeros(v.support.size, dtype=np.complex128)
        x_table[hit] = x_hit
        means = x_table[drawn].reshape(reps, batch).mean(axis=1)
        re, im = means.real, means.imag
    value = complex(float(np.median(re)), float(np.median(im)))
    return EstimateReport(value=value, eps=float(eps), delta=float(delta),
                          samples_used=total, repetitions=reps, seed=int(seed))


def evt_gl_estimate(A, p: Polynomial, u: VectorOracle, v: VectorOracle,
                    eps: float, delta: float, seed: int) -> EstimateReport:
    """Estimate v^dag P(A)u for a geometrically local A within eps, w.p. >= 1 - delta.

    Requires p.sup_bound <= 1 (small slack allowed) so that ||P(A)u|| stays
    near 1; the entries of P(A)u at the sampled indices come from one
    batched light-cone pass.
    """
    if p.sup_bound is None:
        raise PreconditionError("polynomial carries no certified sup_bound")
    if p.sup_bound > 1.0 + SUP_SLACK:
        raise PreconditionError(
            f"sup_bound {p.sup_bound} too large; the estimator needs ||P(A)u|| <~ 1")
    w = poly_apply_query_oracle(A, p, u)
    return inner_product_estimate(w, v, eps, delta, seed)
