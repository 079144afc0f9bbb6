"""Light-cone-restricted computation of rows of A^k and entries of P(A)u.

For an (r0, N)-geometrically local A, the row functional e_i^T A^k is
supported inside ball(i, k*r0), so a single entry of P(A)u for a degree-d
polynomial touches only ball(i, d*r0): the whole computation is independent
of the total site count.  Rows are combined through exact sparse functionals;
the only truncation anywhere is a hard-zero drop at 1e-300 to stop denormal
buildup.

All accumulator iteration is in sorted site order, so results are
bit-deterministic and unchanged under embedding the same local pattern into
a larger lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .access import LocalMatrixOracle, Memo, PreconditionError, VectorOracle
from .polyapprox import Polynomial

HARD_ZERO = 1e-300


@dataclass
class SparseAccumulator:
    """Sparse row functional {site: value}."""

    entries: dict

    def support(self) -> tuple:
        return tuple(sorted(self.entries.keys()))


def _drop_tiny(vec: dict) -> dict:
    return {j: v for j, v in vec.items() if abs(v) >= HARD_ZERO}


def _row_mul(A: LocalMatrixOracle, vec: dict) -> dict:
    """The row functional vec^T A, iterating support in sorted order."""
    out: dict = {}
    for j in sorted(vec):
        val = vec[j]
        for j2, v in A.row(j):
            out[j2] = out.get(j2, 0.0 + 0.0j) + val * v
    return _drop_tiny(out)


def _abar_mul(A: LocalMatrixOracle, vec: dict, lo: float, hi: float) -> dict:
    """vec^T Abar for the rescaled Abar = (2A - (hi+lo)I) / (hi-lo)."""
    av = _row_mul(A, vec)
    delta, s = hi - lo, hi + lo
    out: dict = {}
    for j in sorted(set(av) | set(vec)):
        out[j] = (2.0 * av.get(j, 0.0) - s * vec.get(j, 0.0)) / delta
    return _drop_tiny(out)


def _merge(scale_a: complex, a: dict, scale_b: complex, b: dict) -> dict:
    out: dict = {}
    for j in sorted(set(a) | set(b)):
        out[j] = scale_a * a.get(j, 0.0) + scale_b * b.get(j, 0.0)
    return _drop_tiny(out)


def row_power(A: LocalMatrixOracle, i: int, k: int) -> SparseAccumulator:
    """The sparse row e_i^T A^k, supported inside ball(i, k*r0)."""
    if k < 0:
        raise PreconditionError("power must be nonnegative")
    vec: dict = {int(i): 1.0 + 0.0j}
    for _ in range(int(k)):
        vec = _row_mul(A, vec)
    return SparseAccumulator(entries=vec)


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
    Chebyshev maintains the three-term recurrence on the rescaled matrix.
    The accumulated functional meets u in one sparse inner product at the end.
    Degree 0 never queries A.
    """
    if A.dimension != u.dimension:
        raise PreconditionError("matrix and vector dimensions differ")
    if not (0 <= i < A.dimension):
        raise ValueError(f"site {i} out of range")
    _check_interval(A, p)
    c = [complex(a) for a in p.coefficients]
    deg = p.degree
    acc: dict = {int(i): c[0]}
    cur: dict = {int(i): 1.0 + 0.0j}
    if deg >= 1:
        if p.basis == "monomial":
            for k in range(1, deg + 1):
                cur = _row_mul(A, cur)
                if c[k] != 0:
                    acc = _merge(1.0, acc, c[k], cur)
        else:
            lo, hi = p.interval
            prev = cur
            cur = _abar_mul(A, prev, lo, hi)
            acc = _merge(1.0, acc, c[1], cur)
            for k in range(2, deg + 1):
                nxt = _merge(2.0, _abar_mul(A, cur, lo, hi), -1.0, prev)
                prev, cur = cur, nxt
                if c[k] != 0:
                    acc = _merge(1.0, acc, c[k], cur)

    total = 0.0 + 0.0j
    for j in sorted(acc):
        total += acc[j] * u.query(j)
    return complex(total)


def poly_apply_query_oracle(A: LocalMatrixOracle, p: Polynomial,
                            u: VectorOracle) -> VectorOracle:
    """Query access to w = P(A)u with per-index memoization; no sampler, no norm.

    Repeated queries of the same index issue the underlying A/u queries once.
    """
    _check_interval(A, p)
    fn = Memo(lambda i: entry_of_poly_apply(A, p, u, i))
    # fresh counter: reads of w are not reads of u; A/u meter themselves inside
    return VectorOracle(dimension=A.dimension, query_fn=fn, norm=None, zeta=0.0)
