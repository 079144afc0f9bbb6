"""Sampling from polynomial-evolved states.

Pipeline: a light-cone oversampler (sample psi, then a uniform site of the
sampled site's ball) dominates the target law |(P(A)psi)_i|^2 up to the
constant phi = ||P||^2 N(d r0); rejection sampling against that dominating
law then yields sites whose distribution is within a certified total
variation of the exact time-evolved law.

Failure to accept within the trial budget is a typed outcome, not an
exception: the guarantee is conditional on acceptance and silent retries
would distort the failure-probability accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .access import (LocalMatrixOracle, Memo, OracleInconsistencyError,
                     PreconditionError, VectorOracle, rng_stream,
                     scale_matrix_oracle)
from .lightcone import poly_apply_query_oracle
from .polyapprox import Polynomial, exp_poly

_DEFAULT_CHUNK = 512


def tv_error_bound(eps: float, sol_norm: float) -> float:
    """TV distance bound 2 eps / sol_norm between the polynomial-evolved law and the exact one."""
    if sol_norm <= 0:
        raise PreconditionError("solution norm must be positive")
    if eps < 0:
        raise PreconditionError("eps must be nonnegative")
    return 2.0 * eps / sol_norm


# =====================================================================
# oversampler
# =====================================================================


class OversamplerHandle:
    """A distribution p over sites with phi-oversampling of a target: |target_i|^2 <= phi p_i."""

    def __init__(self, dimension: int, draw_many_fn, mass_fn, phi: float,
                 degree: int, zeta: float):
        self.dimension = int(dimension)
        self._draw_many_fn = draw_many_fn
        self._mass = Memo(lambda i: float(mass_fn(int(i))))
        self.phi = float(phi)
        self.degree = int(degree)
        self.zeta = float(zeta)

    def draw_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.asarray(self._draw_many_fn(rng, int(count)), dtype=np.int64)
        if out.shape != (count,):
            raise OracleInconsistencyError("oversampler draw returned wrong shape")
        return out

    def mass_query(self, i: int) -> float:
        """p_i, memoized per site."""
        return self._mass(i)


def lightcone_oversampler(A: LocalMatrixOracle, d: int, psi: VectorOracle,
                          norm_bound_P: float, seed: int | None = None) -> OversamplerHandle:
    """The ball-smeared law p_i = sum_{j in ball(i, d r0)} |psi_j|^2 / |ball(j, d r0)|.

    Drawing: sample j ~ psi, then a uniform member of ball(j, d r0).  Because
    ball membership is symmetric, this is exactly the stated mass function.
    phi = norm_bound_P^2 * N(d r0) oversamples P(A)psi whenever
    ||P(A)|| <= norm_bound_P.
    """
    if d < 0:
        raise PreconditionError("degree must be nonnegative")
    if not psi.can_sample:
        raise PreconditionError("psi has no sampler")
    graph = A.graph
    radius = d * A.r0
    nrm2 = psi.norm() ** 2
    psi_mass = Memo(lambda j: abs(psi.query(j)) ** 2 / nrm2)

    def draw_many_fn(rng: np.random.Generator, count: int) -> np.ndarray:
        js = psi.sample_many(rng, count)
        u = rng.random(count)
        out = np.empty(count, dtype=np.int64)
        for j in np.unique(js):
            ball = np.asarray(graph.ball(int(j), radius), dtype=np.int64)
            mask = js == j
            out[mask] = ball[(u[mask] * ball.size).astype(np.int64)]
        return out

    def mass_fn(i: int) -> float:
        total = 0.0
        for j in graph.ball(i, radius):
            total += psi_mass(j) / len(graph.ball(j, radius))
        return total

    phi = float(norm_bound_P) ** 2 * graph.locality_function(radius)
    return OversamplerHandle(dimension=A.dimension, draw_many_fn=draw_many_fn,
                             mass_fn=mass_fn, phi=phi, degree=d, zeta=psi.zeta)


# =====================================================================
# rejection sampling
# =====================================================================


@dataclass(frozen=True)
class RejectionResult:
    """Outcome of one rejection-sampling run; site is None when not accepted."""

    site: int | None
    accepted: bool
    trials: int


def rejection_sample(p: OversamplerHandle, u: VectorOracle, phi: float,
                     alpha_min: float, delta: float, seed: int,
                     chunk: int = _DEFAULT_CHUNK,
                     stream_key: tuple = ()) -> RejectionResult:
    """Draw i ~ p, accept with probability |u_i|^2 / (phi p_i); budget then give up.

    Caller certifies the oversampling inequality |u_i|^2 <= phi p_i and
    ||u|| >= alpha_min; the trial budget ceil((8 phi / alpha_min^2) ln(1/delta))
    then bounds the failure probability by delta.  Site draws and acceptance
    thresholds come from separate substreams of (seed, *stream_key).  Trials
    are processed in vectorized chunks; the result is deterministic for a
    fixed (seed, stream_key, chunk).
    """
    if phi < 1.0 - 1e-12:
        raise PreconditionError("phi must be at least 1")
    if not (0 < alpha_min):
        raise PreconditionError("alpha_min must be positive")
    if not (0 < delta < 1):
        raise PreconditionError("delta must lie in (0, 1)")
    budget = int(math.ceil((8.0 * phi / (alpha_min * alpha_min)) * math.log(1.0 / delta)))
    rng_sites = rng_stream(seed, *stream_key, 0)
    rng_accept = rng_stream(seed, *stream_key, 1)
    u2_memo: dict = {}
    done = 0
    while done < budget:
        k = min(chunk, budget - done)
        sites = p.draw_many(rng_sites, k)
        taus = rng_accept.random(k)
        uniq, inverse = np.unique(sites, return_inverse=True)
        umass = np.array([p.mass_query(int(s)) for s in uniq], dtype=np.float64)
        if np.any(umass <= 0.0):
            bad = int(uniq[int(np.flatnonzero(umass <= 0.0)[0])])
            raise OracleInconsistencyError(
                f"sampler produced site {bad} with zero oversampler mass")
        for s in uniq:
            s = int(s)
            if s not in u2_memo:
                u2_memo[s] = abs(u.query(s)) ** 2
        u2 = np.array([u2_memo[int(s)] for s in uniq], dtype=np.float64)
        ratios = u2[inverse] / (phi * umass[inverse])
        high = np.flatnonzero(ratios > 1.0 + 1e-9)
        if high.size:
            s = int(sites[int(high[0])])
            raise PreconditionError(
                f"oversampling inequality violated at site {s}: "
                f"ratio {float(ratios[int(high[0])])}")
        hits = np.flatnonzero(taus <= ratios)
        if hits.size:
            f = int(hits[0])
            return RejectionResult(site=int(sites[f]), accepted=True,
                                   trials=done + f + 1)
        done += k
    return RejectionResult(site=None, accepted=False, trials=done)


# =====================================================================
# end-to-end evolved-state sampler
# =====================================================================


class EvolvedSampler:
    """Shared state for repeated sampling from the law of e^{At}psi.

    A must be anti-Hermitian (so the evolution is unitary and A = iH with
    H = -iA Hermitian), or the caller supplies both a polynomial for the
    evolution and alpha_exp >= ||e^{At}||.
    """

    def __init__(self, A: LocalMatrixOracle, t: float, psi: VectorOracle,
                 eps: float, alpha_min: float, delta: float, seed: int,
                 alpha_exp: float | None = None, poly: Polynomial | None = None):
        if A.norm_bound is None:
            raise PreconditionError("A needs a declared norm_bound")
        if not psi.can_sample or not psi.has_norm:
            raise PreconditionError("psi needs full sq-access")
        if abs(psi.norm() - 1.0) > 1e-9:
            raise PreconditionError("psi must be a unit vector")
        if alpha_exp is None:
            if not A.anti_hermitian:
                raise PreconditionError(
                    "alpha_exp defaults to 1 only for anti-Hermitian A")
            alpha_exp = 1.0
        if not (0 < eps <= alpha_min / 2.0):
            raise PreconditionError("need 0 < eps <= alpha_min / 2")
        if poly is None:
            if not A.anti_hermitian:
                raise PreconditionError(
                    "for general A, supply the evolution polynomial explicitly")
            poly = exp_poly(A.norm_bound, t, eps)
        if poly.basis == "chebyshev" and A.anti_hermitian:
            generator = scale_matrix_oracle(A, -1j)  # Hermitian H with A = iH
        else:
            generator = A
        self.A = A
        self.generator = generator
        self.poly = poly
        self.psi = psi
        self.t = float(t)
        self.eps = float(eps)
        self.alpha_min = float(alpha_min)
        self.alpha_exp = float(alpha_exp)
        self.delta = float(delta)
        self.seed = int(seed)
        self.oversampler = lightcone_oversampler(
            generator, poly.degree, psi, norm_bound_P=2.0 * self.alpha_exp)
        self.phi = self.oversampler.phi
        zeta_cap = alpha_min * alpha_min / (16.0 * self.phi)
        if psi.zeta > zeta_cap + 1e-15:
            raise PreconditionError(
                f"psi.zeta = {psi.zeta} exceeds alpha_min^2/(16 phi) = {zeta_cap}")
        self.w = poly_apply_query_oracle(generator, poly, psi)

    @property
    def tv_bound(self) -> float:
        """Certified TV distance between accepted-sample law and the exact evolved law."""
        amin2 = self.alpha_min * self.alpha_min
        return 16.0 * self.phi * self.psi.zeta / amin2 + tv_error_bound(
            self.eps, self.alpha_min)

    def draw(self, k: int = 0, chunk: int = _DEFAULT_CHUNK) -> RejectionResult:
        """Draw the k-th sample: independent stream per k, shared memoization.

        Deterministic given (seed, k, chunk); chunk is a throughput knob with
        a fixed default, and changing it reshuffles the random trials.
        """
        return rejection_sample(self.oversampler, self.w, self.phi,
                                self.alpha_min, self.delta, seed=self.seed,
                                chunk=chunk, stream_key=(int(k),))

    def draw_many(self, count: int, chunk: int = _DEFAULT_CHUNK) -> list:
        return [self.draw(k, chunk=chunk) for k in range(count)]


def sample_evolved(A: LocalMatrixOracle, t: float, psi: VectorOracle, eps: float,
                   alpha_min: float, delta: float, seed: int,
                   alpha_exp: float | None = None,
                   poly: Polynomial | None = None) -> RejectionResult:
    """One sample from (approximately) the law of e^{At}psi; see EvolvedSampler."""
    sampler = EvolvedSampler(A, t, psi, eps, alpha_min, delta, seed,
                             alpha_exp=alpha_exp, poly=poly)
    return sampler.draw(0)
