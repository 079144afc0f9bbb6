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
from functools import cache, cached_property

import numpy as np

from .access import (LocalMatrixOracle, OracleInconsistencyError,
                     PreconditionError, VectorOracle, rng_stream,
                     scale_matrix_oracle)
from .lattice import run_sites
from .lightcone import SiteMemo, _chunk_size, poly_apply_query_oracle
from .polyapprox import exp_poly

_DEFAULT_CHUNK = 512
_FEW_GROUPS = 4   # draws from at most this many distinct psi sites are drawn ball by ball


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

    def __init__(self, dimension: int, draw_many_fn, mass_fn, phi: float):
        self.dimension = int(dimension)
        self._draw_many_fn = draw_many_fn
        self._mass = cache(lambda i: float(mass_fn(int(i))))
        self.phi = float(phi)

    def draw_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.asarray(self._draw_many_fn(rng, int(count)), dtype=np.int64)
        if out.shape != (count,):
            raise OracleInconsistencyError("oversampler draw returned wrong shape")
        return out

    def mass_query(self, i: int) -> float:
        """p_i, memoized per site."""
        return self._mass(i)


def lightcone_oversampler(A: LocalMatrixOracle, d: int, psi: VectorOracle,
                          norm_bound_P: float) -> OversamplerHandle:
    """The ball-smeared law p_i = sum_{j in ball(i, d r0)} |psi_j|^2 / |ball(j, d r0)|.

    Drawing: sample j ~ psi, then a uniform member of ball(j, d r0), the
    member floor(u |ball|) of its sorted sites.  A chunk's draws from more
    than _FEW_GROUPS distinct j take every ball no face clips in one gather
    (SiteGraph.unclipped_balls); the rest are drawn per distinct j from
    SiteGraph.ball_sites, which is cheaper for a few j.  Because ball
    membership is symmetric, this is exactly the stated mass function,
    summed over the sites of psi's table: a mass finds those inside
    ball(i, d r0) with one searchsorted per run edge and adds their weights
    |psi_j|^2 / ||psi||^2 / |ball(j, d r0)| from 0.0 in increasing j, with
    no Python loop over the ball.  A weight is computed once, in Python
    float arithmetic, for the table sites a mass meets first, with one query
    of psi at each, so psi is queried only at its table sites near the
    tested trials and set-up reads none of the table.  A site off the table
    is never drawn and adds nothing; with zeta > 0 that includes a donor
    whose mass fell to exactly 0 (see access._sq_oracle).
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
    support = psi.support

    def weights(sites: np.ndarray) -> np.ndarray:
        vals = psi.query_many(sites).tolist()
        return np.array([[abs(q) ** 2 / nrm2 / graph.ball_size(j, radius)]
                         for q, j in zip(vals, sites.tolist())])

    weight = SiteMemo(weights, 1)   # at psi's table sites

    def draw_many_fn(rng: np.random.Generator, count: int) -> np.ndarray:
        js = psi.sample_many(rng, count)
        u = rng.random(count)
        out = np.empty(count, dtype=np.int64)
        order = np.argsort(js)  # one group of draws per distinct j
        sj = js[order]
        cuts = np.flatnonzero(sj[1:] != sj[:-1]) + 1
        if cuts.size >= _FEW_GROUPS and (free := graph.unclipped_balls(
                sj[np.concatenate(([0], cuts))], radius)):
            # one gather for every group whose ball no face clips
            mask, members = free
            mask = np.repeat(mask, np.diff(np.concatenate(([0], cuts, [count]))))
            idx = order[mask]
            out[idx] = sj[mask] + members[(u[idx] * members.size).astype(np.int64)]
            order, sj = order[~mask], sj[~mask]
            cuts = np.flatnonzero(sj[1:] != sj[:-1]) + 1
        for group in np.split(order, cuts):
            if group.size:
                ball = graph.ball_sites(int(js[group[0]]), radius)
                out[group] = ball[(u[group] * ball.size).astype(np.int64)]
        return out

    def mass_fn(i: int) -> float:
        starts, lengths = graph.runs(i, radius)
        lo, hi = np.searchsorted(support, (starts, starts + lengths))
        sites = support[run_sites(lo, hi - lo)]
        if not sites.size:
            return 0.0
        return float(np.cumsum(weight.at(sites)[:, 0].real)[-1])   # in order, from 0.0

    phi = float(norm_bound_P) ** 2 * graph.locality_function(radius)
    return OversamplerHandle(dimension=A.dimension, draw_many_fn=draw_many_fn,
                             mass_fn=mass_fn, phi=phi)


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
    thresholds come in chunks from the one stream (seed, *stream_key); the
    result is deterministic for a fixed (seed, stream_key, chunk).  Trials
    are then tested in order, and p_i and |u_i|^2 are computed only at the
    first tested trial of each site: this call queries u strictly once per
    distinct tested site (EvolvedSampler instead fills |w|^2 for several
    drawn sites at once, and keeps its ratios across draws).  The zero-mass
    and oversampling-inequality checks therefore run at every distinct
    tested site, but not at the drawn trials after the accepted one.
    """
    return _rejection_sample(p, _TrialMemo(u.query_many, 1), phi, alpha_min, delta, seed,
                             chunk, stream_key)


class _TrialMemo:
    """The acceptance ratios r_s = |u_s|^2 / (phi p_s) of one oversampler p, vector
    u and phi, at the sites whose first tested trial passed the zero-mass and
    oversampling checks: sorted int64 sites, float64 ratios, and a sentinel
    site past every site, so one searchsorted looks a chunk up.  Ratios found
    since the last lookup wait in a dict and are merged in one np.insert at
    the next, so at most once per chunk.

    u_mass holds |u_s|^2 at every site fill has answered; fill(rest) adds the
    first `size` distinct sites of rest not in it yet, answered by one
    query_many call on them in increasing order.
    """

    def __init__(self, query_many, size: int):
        self.u_mass: dict = {}
        self._query_many, self._size = query_many, size
        self._sites = np.array([np.iinfo(np.int64).max])
        self._ratios = np.array([np.nan])
        self.pending: dict = {}

    def fill(self, rest: list):
        new: list = []
        for s in rest:
            if s not in self.u_mass and s not in new:
                new.append(s)
                if len(new) == self._size:
                    break
        new.sort()
        self.u_mass.update(zip(new, (abs(complex(x)) ** 2 for x in self._query_many(new))))

    def lookup(self, sites: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(held, r): whether each site has a ratio, and its ratio where it has."""
        if self.pending:
            add = np.fromiter(self.pending, np.int64, len(self.pending))
            order = np.argsort(add)
            at = np.searchsorted(self._sites, add[order])
            self._sites = np.insert(self._sites, at, add[order])
            self._ratios = np.insert(self._ratios, at,
                                     np.fromiter(self.pending.values(), float, len(add))[order])
            self.pending.clear()
        at = np.searchsorted(self._sites, sites)
        return self._sites[at] == sites, self._ratios[at]


def _rejection_sample(p: OversamplerHandle, memo: _TrialMemo, phi: float,
                      alpha_min: float, delta: float, seed: int, chunk: int,
                      stream_key: tuple) -> RejectionResult:
    """rejection_sample with the ratios and |u_s|^2 read from memo, which the
    caller may keep across runs with the same p, u and phi.

    Each chunk is drawn whole and looked up in the memo at once.  In trial
    order, a held site accepts when tau <= r, and a site not held is tested
    by the scalar step: p_s, the zero-mass check, fill(the drawn sites from
    it on) if |u_s|^2 is unknown, the oversampling check, the accept test.
    So the results, the queries of u and p and the sites where a mass is
    computed, in order, and the trial where a failing site raises are those
    of testing every trial by the scalar step; what fill stores, and how
    many sites, changes none of them.
    """
    if phi < 1.0 - 1e-12:
        raise PreconditionError("phi must be at least 1")
    if not (0 < alpha_min):
        raise PreconditionError("alpha_min must be positive")
    if not (0 < delta < 1):
        raise PreconditionError("delta must lie in (0, 1)")
    budget = int(math.ceil((8.0 * phi / (alpha_min * alpha_min)) * math.log(1.0 / delta)))
    rng = rng_stream(seed, *stream_key)
    done = 0
    while done < budget:
        k = min(chunk, budget - done)
        sites = p.draw_many(rng, k)
        taus = rng.random(k)
        held, r = memo.lookup(sites)
        for f in np.flatnonzero(~held | (taus <= r)).tolist():   # accepts and new sites
            s = int(sites[f])
            if held[f]:
                return RejectionResult(site=s, accepted=True, trials=done + f + 1)
            ratio = memo.pending.get(s)
            if ratio is None:
                mass = p.mass_query(s)
                if mass <= 0.0:
                    raise OracleInconsistencyError(
                        f"sampler produced site {s} with zero oversampler mass")
                if s not in memo.u_mass:
                    memo.fill(sites[f:].tolist())
                ratio = memo.u_mass[s] / (phi * mass)
                if ratio > 1.0 + 1e-9:
                    raise PreconditionError(
                        f"oversampling inequality violated at site {s}: ratio {ratio}")
                memo.pending[s] = ratio
            if taus[f] <= ratio:
                return RejectionResult(site=s, accepted=True, trials=done + f + 1)
        done += k
    return RejectionResult(site=None, accepted=False, trials=done)


# =====================================================================
# end-to-end evolved-state sampler
# =====================================================================


class EvolvedSampler:
    """Shared state for repeated sampling from the law of e^{At}psi.

    A must be anti-Hermitian, so the evolution is unitary and A = iH with
    H = -iA Hermitian.  The evolution polynomial is exp_poly(||A||, t, eps)
    applied to H.  self.w = poly_apply_query_oracle(H, P, psi) is the one memo
    of w = P(H) psi, and all draws share one _TrialMemo that fills through
    it: the sorted acceptance ratios of the sites tested so far, and |w_s|^2
    at the sites filled.  A tested trial whose |w_s|^2 is unknown fills the
    first distinct unknown sites among the drawn trials from it on, as many
    as one light-cone window holds (lightcone._chunk_size), through one
    self.w.query_many: one forward recurrence over the union of their cones,
    which is barely larger than one cone when the draws cluster, reading psi
    only at the window sites no earlier fill read.  So w may be computed at
    drawn sites no trial tests.  The draws are those of the public
    rejection_sample, which computes |u|^2 strictly per tested site, since
    every entry is bit-identical to a one-site query.  The oversampler
    (lightcone_oversampler) reads psi only at its table sites near the
    tested trials, so set-up does no work over psi's table.

    Once the memo holds a draw's ball, a chunk of trials is one searchsorted
    and one comparison: on a 1024 x 1024 grid with a point psi (about 236
    trials per sample) a warm draw took a median of 86 us against 118 us
    with every trial tested in Python (in process, one core of a 2-core VM,
    Python 3.11, numpy 2.4), and 6,000 draws were the same.
    """

    def __init__(self, A: LocalMatrixOracle, t: float, psi: VectorOracle,
                 eps: float, alpha_min: float, delta: float, seed: int):
        if A.norm_bound is None:
            raise PreconditionError("A needs a declared norm_bound")
        if not psi.can_sample or not psi.has_norm:
            raise PreconditionError("psi needs full sq-access")
        if abs(psi.norm() - 1.0) > 1e-9:
            raise PreconditionError("psi must be a unit vector")
        if not A.anti_hermitian:
            raise PreconditionError("EvolvedSampler needs an anti-Hermitian A")
        if not (0 < eps <= alpha_min / 2.0):
            raise PreconditionError("need 0 < eps <= alpha_min / 2")
        poly = exp_poly(A.norm_bound, t, eps)
        generator = scale_matrix_oracle(A, -1j)  # Hermitian H with A = iH
        self.A = A
        self.generator = generator
        self.poly = poly
        self.psi = psi
        self.t = float(t)
        self.eps = float(eps)
        self.alpha_min = float(alpha_min)
        self.delta = float(delta)
        self.seed = int(seed)
        # ||P(H)|| <= sup_bound, proven by exp_poly on an interval holding spec(H)
        self.oversampler = lightcone_oversampler(
            generator, poly.degree, psi, norm_bound_P=poly.sup_bound)
        self.phi = self.oversampler.phi
        zeta_cap = alpha_min * alpha_min / (16.0 * self.phi)
        if psi.zeta > zeta_cap + 1e-15:
            raise PreconditionError(
                f"psi.zeta = {psi.zeta} exceeds alpha_min^2/(16 phi) = {zeta_cap}")
        self.w = poly_apply_query_oracle(generator, poly, psi)

    @cached_property
    def _memo(self) -> _TrialMemo:
        """The trial memo all draws share, its fill one light-cone window of drawn
        sites per miss through self.w, sized at the first draw, so set-up does
        not pay for it."""
        return _TrialMemo(self.w.query_many, _chunk_size(self.generator, self.poly.degree, 1))

    @property
    def tv_bound(self) -> float:
        """Certified TV distance between accepted-sample law and the exact evolved law."""
        amin2 = self.alpha_min * self.alpha_min
        return 16.0 * self.phi * self.psi.zeta / amin2 + tv_error_bound(
            self.eps, self.alpha_min)

    def draw(self, k: int = 0) -> RejectionResult:
        """Draw the k-th sample: independent stream per k, shared memoization.

        Deterministic given (seed, k).
        """
        return _rejection_sample(self.oversampler, self._memo, self.phi, self.alpha_min,
                                 self.delta, self.seed, _DEFAULT_CHUNK, (int(k),))

    def draw_many(self, count: int) -> list:
        return [self.draw(k) for k in range(count)]
