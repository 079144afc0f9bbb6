"""Light-cone-restricted computation of rows of P(A) and entries of P(A)u.

For an (r0, N)-geometrically local A, the row functional e_i^T A^k is
supported inside ball(i, k*r0), so a single entry of P(A)u for a degree-d
polynomial touches only ball(i, d*r0): the whole computation is independent
of the total site count.

One kernel, poly_rows, serves every pipeline: it returns the rows e_i^T P(A)
of several polynomials from one LightCone, which fetches each row within d-1
hops of i once through the metered A.row.  The cone's sites are indexed in
sorted global site order and its entries are stored as arrays sorted by
(col, row), so one step vec^T A is a gather, a multiply and an
np.add.reduceat.  The only truncation anywhere is a hard-zero drop at 1e-300
after each step, to stop denormal buildup.

Every order the kernel uses -- which rows it fetches when, how it sums a
column, which u entries it queries and in what order it adds them -- is the
sorted order of the cone's sites.  It depends only on the sites' relative
positions, so results are bit-deterministic, and a local pattern embedded
into a larger lattice gives the same value and the same query counts.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .access import LocalMatrixOracle, PreconditionError, VectorOracle
from .polyapprox import Polynomial

HARD_ZERO = 1e-300


def _hard_zero(vec: np.ndarray) -> np.ndarray:
    vec[np.abs(vec) < HARD_ZERO] = 0.0
    return vec


class LightCone:
    """The rows of A within `hops` row-hops of site i, each fetched once.

    sites: the cone's global site numbers, sorted; local index n is sites[n],
    and origin is the local index of i.  A row functional on the cone is a
    length-len(sites) complex vector.  Each row keeps the hop it was fetched
    at, so the cone also serves every smaller depth.
    """

    def __init__(self, A: LocalMatrixOracle, i: int, hops: int):
        fetched: dict = {}   # site -> (hop, row)
        frontier = [int(i)]
        for hop in range(hops + 1):
            reached = set()
            for s in frontier:
                fetched[s] = (hop, A.row(s))
                reached.update(j for j, _ in fetched[s][1])
            frontier = sorted(reached.difference(fetched))
        self.sites = sorted(fetched.keys() | set(frontier))
        local = {s: n for n, s in enumerate(self.sites)}
        self.origin = local[int(i)]
        # (col, row, hop, value), sorted: each column's rows in increasing site order
        quads = sorted((local[j], local[s], hop, v)
                       for s, (hop, row) in fetched.items() for j, v in row)
        self._cols = np.array([c for c, _, _, _ in quads], dtype=np.intp)
        self._rows = np.array([r for _, r, _, _ in quads], dtype=np.intp)
        self._hops = np.array([h for _, _, h, _ in quads], dtype=np.intp)
        self._vals = np.array([v for _, _, _, v in quads], dtype=np.complex128)
        self._steps: dict = {}

    def times_a(self, vec: np.ndarray, hops: int) -> np.ndarray:
        """vec^T A over the rows of a cone `hops` deep, each column summed in row-site order.

        reduceat's rounding depends on how many terms a column holds, so a
        step sums exactly the rows a cone of that depth would hold.
        """
        if hops not in self._steps:
            keep = self._hops <= hops
            cols = self._cols[keep]
            starts = np.flatnonzero(np.diff(cols, prepend=-1))
            self._steps[hops] = (cols[starts], starts, self._rows[keep], self._vals[keep])
        cols, starts, rows, vals = self._steps[hops]
        out = np.zeros_like(vec)
        out[cols] = np.add.reduceat(vec[rows] * vals, starts)
        return _hard_zero(out)


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


def poly_rows(A: LocalMatrixOracle, polys, i: int) -> list[dict]:
    """The row functionals e_i^T P(A), one {site: value} dict per polynomial.

    All rows come from one LightCone grown to the largest degree.  Monomial
    basis accumulates sum_k a_k e_i^T A^k with running row powers; Chebyshev
    runs the three-term recurrence on Abar = (2A - (hi+lo)I) / (hi-lo).  The
    polynomials of one degree d share one recurrence over the rows a
    degree-d cone holds, so each row is bit-identical to a one-polynomial
    call.  The polynomials must share one basis and, for Chebyshev, one
    interval.  Degree 0 never queries A.
    """
    polys = tuple(polys)
    if len({p.basis for p in polys}) > 1:
        raise PreconditionError("polynomials of one pass must share a basis")
    if polys[0].basis == "chebyshev" and len({p.interval for p in polys}) > 1:
        raise PreconditionError("Chebyshev polynomials of one pass must share an interval")
    if not (0 <= i < A.dimension):
        raise ValueError(f"site {i} out of range")
    _check_interval(A, polys[0])
    lo, hi = polys[0].interval
    delta, s = hi - lo, hi + lo
    cone = LightCone(A, i, max(p.degree for p in polys) - 1)
    rows: list = [None] * len(polys)
    for deg in sorted({p.degree for p in polys}):
        group = [n for n, p in enumerate(polys) if p.degree == deg]
        coef = np.array([polys[n].coefficients for n in group], dtype=np.complex128)
        cols = coef.T[:, :, None]          # cols[k]: the group's c_k as a column
        live = coef != 0                   # live[:, k]: the rows c_k updates
        full, some = live.all(axis=0).tolist(), live.any(axis=0).tolist()
        cur = prev = np.zeros(len(cone.sites), dtype=np.complex128)
        cur[cone.origin] = 1.0
        acc = cols[0] * cur
        for k in range(1, deg + 1):
            if polys[0].basis == "monomial":
                cur = cone.times_a(cur, deg - 1)
            else:
                nxt = _hard_zero((2.0 * cone.times_a(cur, deg - 1) - s * cur) / delta)
                if k > 1:
                    nxt = _hard_zero(2.0 * nxt - prev)
                prev, cur = cur, nxt
            if full[k]:
                acc = _hard_zero(acc + cols[k] * cur)
            elif some[k]:
                rows_k = live[:, k]
                acc[rows_k] = _hard_zero(acc[rows_k] + cols[k][rows_k] * cur)
        for n, row in zip(group, acc):   # nonzero entries in sorted site order
            rows[n] = {site: v for site, v in zip(cone.sites, row.tolist()) if v}
    return rows


def row_dot(row: dict, query) -> complex:
    """sum_j row[j] * query(j) in the row's order, querying only the row's sites."""
    total = 0.0 + 0.0j
    for j, val in row.items():
        total += val * query(j)
    return complex(total)


def row_power(A: LocalMatrixOracle, i: int, k: int) -> dict:
    """The sparse row e_i^T A^k as {site: value}, supported inside ball(i, k*r0)."""
    if k < 0:
        raise PreconditionError("power must be nonnegative")
    return poly_rows(A, (Polynomial((0.0,) * int(k) + (1.0,)),), i)[0]


def entry_of_poly_apply(A: LocalMatrixOracle, p: Polynomial, u: VectorOracle,
                        i: int) -> complex:
    """The single entry (P(A)u)_i, touching only the light cone of site i.

    The row e_i^T P(A) meets u in row_dot, which queries u only on the row.
    """
    if A.dimension != u.dimension:
        raise PreconditionError("matrix and vector dimensions differ")
    return row_dot(poly_rows(A, (p,), i)[0], u.query)


def poly_apply_query_oracle(A: LocalMatrixOracle, p: Polynomial,
                            u: VectorOracle) -> VectorOracle:
    """Query access to w = P(A)u with per-index memoization; no sampler, no norm.

    Repeated queries of the same index issue the underlying A/u queries once.
    """
    _check_interval(A, p)
    fn = cache(lambda i: entry_of_poly_apply(A, p, u, i))
    # fresh counter: reads of w are not reads of u; A/u meter themselves inside
    return VectorOracle(dimension=A.dimension, query_fn=fn, norm=None, zeta=0.0)
