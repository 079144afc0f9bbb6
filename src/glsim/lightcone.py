"""Light-cone-restricted computation of rows of A^k and entries of P(A)u.

For an (r0, N)-geometrically local A, the row functional e_i^T A^k is
supported inside ball(i, k*r0), so a single entry of P(A)u for a degree-d
polynomial touches only ball(i, d*r0): the whole computation is independent
of the total site count.

One kernel serves every pipeline.  A LightCone grows from site i through
the supports of the rows it fetches, d-1 hops deep, and fetches each of
those rows exactly once per entry through the metered A.row.  The cone's
sites are indexed in sorted global site order, and its matrix entries are
stored as (row, col, value) arrays sorted by (col, row), so one step
vec^T A is a gather, a multiply and an np.add.reduceat over that order.
The monomial and the Chebyshev recurrences then run as numpy arithmetic on
length-n_cone complex vectors.  The only truncation anywhere is a hard-zero
drop at 1e-300 after each step, to stop denormal buildup.

Every order the kernel uses -- which rows it fetches when, how it sums a
column, which u entries it queries and in what order it adds them -- is the
sorted order of the cone's sites.  It depends only on the sites' relative
positions, so results are bit-deterministic, and a local pattern embedded
into a larger lattice gives the same value and the same query counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .access import LocalMatrixOracle, PreconditionError, VectorOracle
from .polyapprox import Polynomial

HARD_ZERO = 1e-300


@dataclass
class SparseAccumulator:
    """Sparse row functional {site: value}."""

    entries: dict

    def support(self) -> tuple:
        return tuple(sorted(self.entries.keys()))


def _hard_zero(vec: np.ndarray) -> np.ndarray:
    vec[np.abs(vec) < HARD_ZERO] = 0.0
    return vec


class LightCone:
    """The rows of A within `hops` row-hops of site i, each fetched once.

    sites: the cone's global site numbers, sorted; local index n is sites[n],
    and origin is the local index of i.  A row functional on the cone is a
    length-len(sites) complex vector.
    """

    def __init__(self, A: LocalMatrixOracle, i: int, hops: int):
        fetched: dict = {}
        frontier = [int(i)]
        for _ in range(hops + 1):
            reached = set()
            for s in frontier:
                fetched[s] = A.row(s)
                reached.update(j for j, _ in fetched[s])
            frontier = sorted(reached.difference(fetched))
        self.sites = sorted(fetched.keys() | set(frontier))
        local = {s: n for n, s in enumerate(self.sites)}
        self.origin = local[int(i)]
        # (col, row, value), sorted: each column's rows in increasing site order
        triples = sorted((local[j], local[s], v) for s, row in fetched.items() for j, v in row)
        cols, starts = [], []
        for n, (c, _, _) in enumerate(triples):
            if not cols or cols[-1] != c:
                cols.append(c)
                starts.append(n)
        self._cols = np.array(cols, dtype=np.intp)
        self._starts = np.array(starts, dtype=np.intp)
        self._rows = np.array([r for _, r, _ in triples], dtype=np.intp)
        self._vals = np.array([v for _, _, v in triples], dtype=np.complex128)

    def unit(self) -> np.ndarray:
        """The functional e_i of the cone's origin."""
        vec = np.zeros(len(self.sites), dtype=np.complex128)
        vec[self.origin] = 1.0
        return vec

    def times_a(self, vec: np.ndarray) -> np.ndarray:
        """vec^T A, summing each column's terms in increasing row-site order."""
        out = np.zeros_like(vec)
        out[self._cols] = np.add.reduceat(vec[self._rows] * self._vals, self._starts)
        return _hard_zero(out)

    def entries(self, vec: np.ndarray) -> dict:
        """The nonzero entries of vec as {site: value}, in sorted site order."""
        return {s: v for s, v in zip(self.sites, vec.tolist()) if v}


def row_power(A: LocalMatrixOracle, i: int, k: int) -> SparseAccumulator:
    """The sparse row e_i^T A^k, supported inside ball(i, k*r0)."""
    if k < 0:
        raise PreconditionError("power must be nonnegative")
    cone = LightCone(A, i, int(k) - 1)
    vec = cone.unit()
    for _ in range(int(k)):
        vec = cone.times_a(vec)
    return SparseAccumulator(entries=cone.entries(vec))


def _check_interval(A: LocalMatrixOracle, p: Polynomial):
    if p.basis != "chebyshev":
        return
    if A.norm_bound is None:
        raise PreconditionError("Chebyshev application needs a declared norm_bound")
    lo, hi = p.interval
    slack = 1e-9 * max(1.0, abs(hi))
    if p.is_symmetric_interval:
        if p.alpha + slack < A.norm_bound:
            raise PreconditionError(
                f"basis scale {p.alpha} smaller than norm bound {A.norm_bound}")
        return
    if abs(lo) <= slack:
        if not A.psd:
            raise PreconditionError(
                "interval [0, hi] certified only for matrices declared psd")
        if hi + slack < A.norm_bound:
            raise PreconditionError(
                f"interval top {hi} smaller than norm bound {A.norm_bound}")
        return
    raise PreconditionError(
        f"cannot certify spectrum inside interval [{lo}, {hi}]")


def entry_of_poly_apply(A: LocalMatrixOracle, p: Polynomial, u: VectorOracle,
                        i: int) -> complex:
    """The single entry (P(A)u)_i, touching only the light cone of site i.

    Monomial basis accumulates sum_k a_k e_i^T A^k with running row powers;
    Chebyshev maintains the three-term recurrence on the rescaled matrix
    Abar = (2A - (hi+lo)I) / (hi-lo).  Both run on one LightCone, so each
    row within d-1 hops of i is fetched once.  The accumulated functional
    meets u in one sparse inner product at the end, querying u only where
    the functional is nonzero.  Degree 0 never queries A.
    """
    if A.dimension != u.dimension:
        raise PreconditionError("matrix and vector dimensions differ")
    if not (0 <= i < A.dimension):
        raise ValueError(f"site {i} out of range")
    _check_interval(A, p)
    c = [complex(a) for a in p.coefficients]
    deg = p.degree
    if deg == 0:
        return complex(c[0] * u.query(int(i)))
    cone = LightCone(A, i, deg - 1)
    cur = cone.unit()
    acc = c[0] * cur
    if p.basis == "monomial":
        for k in range(1, deg + 1):
            cur = cone.times_a(cur)
            if c[k] != 0:
                acc = _hard_zero(acc + c[k] * cur)
    else:
        lo, hi = p.interval
        delta, s = hi - lo, hi + lo
        prev = cur
        for k in range(1, deg + 1):
            nxt = _hard_zero((2.0 * cone.times_a(cur) - s * cur) / delta)
            if k > 1:
                nxt = _hard_zero(2.0 * nxt - prev)
            prev, cur = cur, nxt
            if c[k] != 0:
                acc = _hard_zero(acc + c[k] * cur)

    total = 0.0 + 0.0j
    for j, val in cone.entries(acc).items():
        total += val * u.query(j)
    return complex(total)


def poly_apply_query_oracle(A: LocalMatrixOracle, p: Polynomial,
                            u: VectorOracle) -> VectorOracle:
    """Query access to w = P(A)u with per-index memoization; no sampler, no norm.

    Repeated queries of the same index issue the underlying A/u queries once.
    """
    _check_interval(A, p)
    fn = cache(lambda i: entry_of_poly_apply(A, p, u, i))
    # fresh counter: reads of w are not reads of u; A/u meter themselves inside
    return VectorOracle(dimension=A.dimension, query_fn=fn, norm=None, zeta=0.0)
