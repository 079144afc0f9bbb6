"""Polynomials the engine applies to matrices.

Two bases are supported.  "monomial" means p(x) = sum a_k x^k (hand-written
low-degree tests only; powers overflow fast).  "chebyshev" means
p(x) = sum c_k T_k(w(x)) with w the affine map of the certified interval
[lo, hi] onto [-1, 1]; the common case is the symmetric interval
[-alpha, alpha], where w = x/alpha.

exp_poly builds the degree-O(alpha t + log 1/eps) Chebyshev approximation of
e^{ixt} on [-alpha, alpha] from Bessel-function coefficients.  The algebra the
oscillators need is on Chebyshev series only, each step an exact O(d)
identity checked by recombination at 64 nodes: parity_split writes
p(x) = Pcos(x^2) + i x Psin(x^2) in the variable y = x^2 (the even
coefficients termwise, the odd part by one alternating suffix sum),
mul_by_x forms x p(x), and divide_out_zero writes p(y) = a0 + y ptilde(y) by
a backward recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.polynomial as nppoly

from .access import NumericalCheckError, PreconditionError


# =====================================================================
# the Polynomial value type
# =====================================================================


@dataclass(frozen=True)
class Polynomial:
    """Immutable polynomial with a certified interval.

    coefficients: complex tuple in the stated basis (trailing zeros trimmed).
    basis: "monomial" or "chebyshev".
    interval: (lo, hi) the representation is tied to; for monomials it only
        records where sup_bound was certified.
    sup_bound: optional certified max of |p| on the interval.
    """

    coefficients: tuple
    basis: str = "monomial"
    interval: tuple = (-1.0, 1.0)
    sup_bound: float | None = None

    def __post_init__(self):
        if self.basis not in ("monomial", "chebyshev"):
            raise ValueError(f"unknown basis {self.basis!r}")
        lo, hi = float(self.interval[0]), float(self.interval[1])
        if not (lo < hi):
            raise ValueError(f"empty interval [{lo}, {hi}]")
        coeffs = tuple(complex(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0.0 + 0.0j,)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "interval", (lo, hi))
        if self.sup_bound is not None:
            object.__setattr__(self, "sup_bound", float(self.sup_bound))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_symmetric_interval(self) -> bool:
        lo, hi = self.interval
        return math.isclose(lo, -hi, rel_tol=0.0, abs_tol=1e-15 * max(1.0, abs(hi)))

    @property
    def alpha(self) -> float:
        """Scale of a symmetric interval [-alpha, alpha]."""
        if not self.is_symmetric_interval:
            raise ValueError(f"interval {self.interval} is not symmetric")
        return self.interval[1]

    # ---- evaluation ------------------------------------------------------

    def _to_w(self, x):
        lo, hi = self.interval
        return (2.0 * np.asarray(x, dtype=np.float64) - (hi + lo)) / (hi - lo)

    def eval_many(self, x) -> np.ndarray:
        """Vectorized evaluation at real points (no interval warning)."""
        x = np.asarray(x, dtype=np.float64)
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if self.basis == "monomial":
            return nppoly.polyval(x, c)
        return npcheb.chebval(self._to_w(x), c)


ROUNDING_MULTIPLE = 16
UNIT_ROUNDOFF = 2.0 ** -53


def rounding_bound(p: Polynomial) -> float:
    """ROUNDING_MULTIPLE * d * u * S: the tolerance of a check that computes p twice.

    Evaluating p on its interval (Clenshaw or Horner) sums d + 1 terms whose
    basis functions are bounded by 1 (Chebyshev) or by r^k (monomial,
    r = max(|lo|, |hi|)), so to first order its rounding error is a small
    multiple of d * u * S, with S = sum |c_k| (Chebyshev) or sum |a_k| r^k
    (monomial) and u = 2^-53 the unit round-off; d is taken as at least 1.
    The bound grows with the degree, where a fixed tolerance fails correct
    results.
    """
    size = np.abs(np.asarray(p.coefficients, dtype=np.complex128))
    if p.basis == "monomial":
        size = size * max(abs(p.interval[0]), abs(p.interval[1])) ** np.arange(size.size)
    return ROUNDING_MULTIPLE * max(p.degree, 1) * UNIT_ROUNDOFF * float(size.sum())


# =====================================================================
# Bessel coefficients and exp_poly
# =====================================================================


def bessel_j_sequence(z: float, K: int) -> np.ndarray:
    """J_0(z)..J_K(z) by backward (Miller) recurrence with sum normalization.

    Each step multiplies by 2m/|z| a value kept below 1e250, so it cannot
    overflow while 2M/|z| <= 1e58.  Below that |z| (< 1e-55 or so) the
    series' leading terms (|z|/2)^k / k! are used instead: the next terms
    are smaller by a factor below |z|^2 / 4 < 1e-110, far under rounding.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    z = float(z)
    if z == 0.0:
        out = np.zeros(K + 1)
        out[0] = 1.0
        return out
    az = abs(z)
    M = K + 20 + int(math.ceil(az))
    if 2.0 * M / az > 1e58:
        out = np.ones(K + 1)
        for k in range(1, K + 1):
            out[k] = out[k - 1] * (az / 2.0) / k
    else:
        vals = np.zeros(M + 2)
        vals[M + 1] = 0.0
        vals[M] = 1e-300
        for m in range(M, 0, -1):
            nxt = (2.0 * m / az) * vals[m] - vals[m + 1]
            vals[m - 1] = nxt
            if abs(nxt) > 1e250:
                vals *= 1e-250
        norm = vals[0] + 2.0 * vals[2:M + 1:2].sum()
        vals = vals / norm
        out = vals[:K + 1].copy()
    if z < 0.0:
        out[1::2] *= -1.0
    return out


def exp_poly(alpha: float, t: float, eps: float) -> Polynomial:
    """Chebyshev approximation of e^{ixt} on [-alpha, alpha] within eps.

    Coefficients are c_0 = J_0(alpha t), c_k = 2 i^k J_k(alpha t), truncated at
    the first degree d whose Bessel tail bound tail(d) drops below eps; d never
    exceeds ceil(e*alpha*|t|/2) + ceil(log2(1/eps)) + 4.  sup_bound = 1 + tail(d)
    holds on the whole interval, since |p(x)| <= |e^{ixt}| + |p(x) - e^{ixt}|.
    A 2001-point grid cross-checks the error and sup_bound, each up to
    rounding_bound(p) (NumericalCheckError).
    """
    alpha = float(alpha)
    t = float(t)
    eps = float(eps)
    if alpha <= 0:
        raise PreconditionError("alpha must be positive")
    if not (0 < eps <= 1):
        raise PreconditionError("eps must lie in (0, 1]")
    z = alpha * t
    if not abs(z) < math.inf:
        raise PreconditionError(f"alpha * t = {alpha!r} * {t!r} is not finite")
    cap = int(math.ceil(math.e * abs(z) / 2.0)) + int(math.ceil(math.log2(1.0 / eps))) + 4
    K = cap + 30
    J = bessel_j_sequence(z, K)

    # remainder of the full Jacobi-Anger series past index K: 2 sum_{k>K} |J_k|
    # <= 4 (|z|/2)^{K+1} / (K+1)!
    if z == 0.0:
        remainder = 0.0
    else:
        remainder = 4.0 * math.exp((K + 1) * math.log(abs(z) / 2.0) - math.lgamma(K + 2))

    absJ = np.abs(J)
    # tail(d) = 2 sum_{k=d+1..K} |J_k| + remainder
    suffix = np.concatenate([np.cumsum(absJ[::-1])[::-1][1:], [0.0]])
    for degree in range(0, cap + 1):
        tail = 2.0 * suffix[degree] + remainder
        if tail <= eps:
            break
    else:
        raise NumericalCheckError(
            f"Bessel tail bound did not reach eps={eps} within the degree cap {cap}")

    ik = np.array([1.0, 1j, -1.0, -1j])[np.arange(degree + 1) % 4]   # i^k, exactly
    coeffs = 2.0 * ik * J[:degree + 1]
    coeffs[0] = J[0]
    p = Polynomial(tuple(coeffs), basis="chebyshev", interval=(-alpha, alpha))

    xs = np.linspace(-alpha, alpha, 2001)
    vals = p.eval_many(xs)
    grid_err = float(np.abs(vals - np.exp(1j * t * xs)).max())
    slack = rounding_bound(p)
    if grid_err > eps + slack:
        raise NumericalCheckError(f"exp_poly grid error {grid_err:.3e} exceeds eps {eps:.3e}")
    grid_sup = float(np.abs(vals).max())
    if grid_sup > 1.0 + tail + slack:
        raise NumericalCheckError(f"exp_poly grid maximum {grid_sup:.9f} exceeds 1 + tail {tail:.3e}")
    return replace(p, sup_bound=1.0 + tail)


# =====================================================================
# exact Chebyshev algebra: parity split, x * p(x), division by y
# =====================================================================


def _chebyshev_input(p: Polynomial, name: str) -> np.ndarray:
    if p.basis != "chebyshev":
        raise PreconditionError(f"{name} needs Chebyshev input")
    return np.asarray(p.coefficients, dtype=np.complex128)


def parity_split(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Split p(x) = Pcos(x^2) + i x Psin(x^2); both returned in y = x^2 on [0, alpha^2].

    p is a Chebyshev series on [-alpha, alpha]; with w = 2y/alpha^2 - 1, two
    identities give both parts exactly (Mason & Handscomb, Chebyshev
    Polynomials, 2003):
      - T_{2m}(x/alpha) = T_m(w), so Pcos has the even coefficients c_{2m};
      - T_{2m+1}(x/alpha) = (x/alpha) V_m(w), with V_m = U_m - U_{m-1} the
        third-kind polynomials, and sum_m g_m V_m = sum_j b_j T_j with
        b_0 = sum_m (-1)^m g_m and b_j = 2 (-1)^j sum_{m>=j} (-1)^m g_m,
        so with g_m = c_{2m+1} / (i alpha) Psin's coefficients are one
        alternating suffix sum.
    Both cost O(d).  The recombination is re-verified at 64 Chebyshev nodes
    (see _recombination_check).
    """
    c = _chebyshev_input(p, "parity_split")
    if not p.is_symmetric_interval:
        raise PreconditionError("parity_split needs a symmetric interval")
    alpha = p.alpha
    ysq = alpha * alpha
    pcos = Polynomial(tuple(c[0::2]), basis="chebyshev", interval=(0.0, ysq))
    signs = (-1.0) ** np.arange(c.size // 2)
    alternating = signs * (c[1::2] / (1j * alpha))     # (-1)^m g_m
    b = 2.0 * signs * np.cumsum(alternating[::-1])[::-1]
    b[:1] /= 2.0
    psin = Polynomial(tuple(b), basis="chebyshev", interval=(0.0, ysq))
    _recombination_check(p, "parity split",
                         lambda x: pcos.eval_many(x * x) + 1j * x * psin.eval_many(x * x))
    return pcos, psin


def _recombination_check(p: Polynomial, what: str, recombined) -> None:
    """recombined(x) must equal p(x) at 64 Chebyshev nodes of p's interval
    to within rounding_bound(p) (NumericalCheckError).

    The parity split and the division by y are exact in exact arithmetic,
    so the recombination error is rounding alone: the identity's own and
    that of the evaluations, each of degree at most d + 1.
    """
    lo, hi = p.interval
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(
        np.pi * (2.0 * np.arange(64) + 1.0) / 128.0)
    err = float(np.abs(recombined(nodes) - p.eval_many(nodes)).max())
    bound = rounding_bound(p)
    if err > bound:
        raise NumericalCheckError(
            f"{what} recombination error {err:.3e} exceeds its rounding bound {bound:.3e}")


def mul_by_x(p: Polynomial) -> Polynomial:
    """The Chebyshev series of x -> x * p(x) on p's interval."""
    c = _chebyshev_input(p, "mul_by_x")
    lo, hi = p.interval
    delta, s = hi - lo, hi + lo
    out = np.zeros(len(c) + 1, dtype=np.complex128)
    for m, cm in enumerate(c):
        out[m] += (s / 2.0) * cm
        out[m + 1] += (delta / 4.0) * cm
        if m >= 1:
            out[m - 1] += (delta / 4.0) * cm
        else:
            out[1] += (delta / 4.0) * cm  # x*T_0 uses T_{-1} = T_1
    return Polynomial(tuple(out), basis="chebyshev", interval=p.interval)


def divide_out_zero(p: Polynomial) -> tuple[complex, Polynomial]:
    """Write p(y) = a0 + y * ptilde(y) on p's interval [lo, hi], which holds 0.

    With w the interval's variable and w0 = -(hi + lo)/(hi - lo) its value at
    y = 0, y = (hi - lo)/2 * (w - w0), so ptilde is the quotient of the
    Chebyshev series p(w) by (w - w0), times 2/(hi - lo).  The quotient's
    coefficients come from the backward recurrence
    b_{n-1} = 2 (c_n + w0 b_n) - b_{n+1} for n = d..2, then
    b_0 = c_1 + w0 b_1 - b_2 / 2 (Clenshaw's recurrence at w0, whose last
    step gives a0 = p(w0) = c_0 + w0 b_0 - b_1 / 2).  It costs O(d), and
    a0 + y ptilde(y) = p(y) is re-verified at 64 Chebyshev nodes (see
    _recombination_check).
    """
    c = _chebyshev_input(p, "divide_out_zero").tolist() + [0j]
    lo, hi = p.interval
    if not (lo <= 0.0 <= hi):
        raise PreconditionError("divide_out_zero needs 0 in the interval")
    w0 = -(hi + lo) / (hi - lo)
    d = p.degree
    b = [0j] * (d + 3)
    for n in range(d, 1, -1):
        b[n - 1] = 2.0 * (c[n] + w0 * b[n]) - b[n + 1]
    b[0] = c[1] + w0 * b[1] - b[2] / 2.0
    a0 = c[0] + w0 * b[0] - b[1] / 2.0
    ptil = Polynomial(tuple(np.asarray(b[:max(d, 1)]) * (2.0 / (hi - lo))),
                      basis="chebyshev", interval=p.interval)
    _recombination_check(p, "division by y", lambda y: a0 + y * ptil.eval_many(y))
    return complex(a0), ptil
