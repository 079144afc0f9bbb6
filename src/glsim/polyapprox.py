"""Polynomials the engine applies to matrices.

Two bases are supported.  "monomial" means p(x) = sum a_k x^k (hand-written
low-degree tests only; powers overflow fast).  "chebyshev" means
p(x) = sum c_k T_k(w(x)) with w the affine map of the certified interval
[lo, hi] onto [-1, 1]; the common case is the symmetric interval
[-alpha, alpha], where w = x/alpha.

exp_poly builds the degree-O(alpha t + log 1/eps) Chebyshev approximation of
e^{ixt} on [-alpha, alpha] from Bessel-function coefficients, and
parity_split decomposes any such p into even/odd parts re-expressed in the
variable y = x^2:  p(x) = Pcos(x^2) + i x Psin(x^2).
"""

from __future__ import annotations

import math
import warnings
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


def eval_scalar(p: Polynomial, x: float) -> complex:
    """p(x) by Clenshaw (chebyshev) or Horner (monomial); warns outside the interval."""
    x = float(x)
    lo, hi = p.interval
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if not (lo - slack <= x <= hi + slack):
        warnings.warn(f"evaluating at x={x} outside certified interval [{lo}, {hi}]",
                      stacklevel=2)
    c = p.coefficients
    if p.basis == "monomial":
        acc = 0.0 + 0.0j
        for a in reversed(c):
            acc = acc * x + a
        return acc
    w = (2.0 * x - (hi + lo)) / (hi - lo)
    b1 = 0.0 + 0.0j
    b2 = 0.0 + 0.0j
    for a in reversed(c[1:]):
        b1, b2 = a + 2.0 * w * b1 - b2, b1
    return c[0] + w * b1 - b2


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
    """J_0(z)..J_K(z) by backward (Miller) recurrence with sum normalization."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    z = float(z)
    if z == 0.0:
        out = np.zeros(K + 1)
        out[0] = 1.0
        return out
    az = abs(z)
    M = K + 20 + int(math.ceil(az))
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

    ik = 1j ** np.arange(degree + 1)
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
# parity decomposition: p(x) = Pcos(x^2) + i x Psin(x^2)
# =====================================================================


def _thirdkind_eval(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_m g_m V_m(w) for third-kind Chebyshev V_0=1, V_1=2w-1, V_{m+1}=2wV_m - V_{m-1}."""
    acc = np.zeros_like(w, dtype=np.complex128)
    if len(g) == 0:
        return acc
    vm_prev = np.ones_like(w)
    acc += g[0] * vm_prev
    if len(g) == 1:
        return acc
    vm = 2.0 * w - 1.0
    acc += g[1] * vm
    for m in range(2, len(g)):
        vm, vm_prev = 2.0 * w * vm - vm_prev, vm
        acc += g[m] * vm
    return acc


def _chebfit_exact(f, deg: int) -> np.ndarray:
    """First-kind Chebyshev coefficients of a degree-deg polynomial f on [-1,1],
    by interpolation at deg+1 Chebyshev nodes (exact up to conditioning)."""
    n = deg + 1
    w = np.cos(np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n))
    y = f(w)
    if np.iscomplexobj(y):
        cr = npcheb.chebfit(w, y.real, deg)
        ci = npcheb.chebfit(w, y.imag, deg)
        return cr + 1j * ci
    return npcheb.chebfit(w, y, deg)


def _real_cast(coeffs: np.ndarray) -> tuple:
    scale = max(1.0, float(np.abs(coeffs).max()))
    if float(np.abs(coeffs.imag).max()) <= 1e-10 * scale:
        return tuple(complex(c, 0.0) for c in coeffs.real)
    return tuple(complex(c) for c in coeffs)


def parity_split(p: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Split p(x) = Pcos(x^2) + i x Psin(x^2); both returned in y = x^2 on [0, alpha^2].

    For Chebyshev input on [-alpha, alpha] the even part maps termwise through
    T_{2m}(x/alpha) = T_m(2y/alpha^2 - 1); the odd part is re-fit from the
    third-kind identity T_{2m+1}(x/alpha) = (x/alpha) V_m(2y/alpha^2 - 1).
    The identity is re-verified at 64 Chebyshev nodes (see _parity_check).
    """
    if p.basis == "monomial":
        a = np.asarray(p.coefficients, dtype=np.complex128)
        even = a[0::2]
        odd = a[1::2] / 1j
        lo, hi = p.interval
        ymax = max(abs(lo), abs(hi)) ** 2
        pcos = Polynomial(_real_cast(even) if even.size else (0.0,),
                          basis="monomial", interval=(0.0, ymax if ymax > 0 else 1.0))
        psin = Polynomial(_real_cast(odd) if odd.size else (0.0,),
                          basis="monomial", interval=pcos.interval)
        return _parity_check(p, pcos, psin)

    if not p.is_symmetric_interval:
        raise PreconditionError(
            "parity_split needs a symmetric interval for Chebyshev input")
    alpha = p.alpha
    c = np.asarray(p.coefficients, dtype=np.complex128)
    ysq = alpha * alpha
    even = c[0::2]
    pcos = Polynomial(_real_cast(even), basis="chebyshev", interval=(0.0, ysq))

    codd = c[1::2] / (1j * alpha)
    if codd.size == 0 or not np.any(codd):
        psin = Polynomial((0.0,), basis="chebyshev", interval=(0.0, ysq))
    else:
        deg = codd.size - 1
        fitted = _chebfit_exact(lambda w: _thirdkind_eval(codd, w), deg)
        psin = Polynomial(_real_cast(fitted), basis="chebyshev", interval=(0.0, ysq))
    return _parity_check(p, pcos, psin)


def _parity_check(p: Polynomial, pcos: Polynomial, psin: Polynomial):
    """Pcos(x^2) + i x Psin(x^2) must equal p(x) at 64 Chebyshev nodes of p's
    interval to within rounding_bound(p) (NumericalCheckError).

    The split is exact in exact arithmetic, so the recombination error is
    rounding alone: the split's own and that of three evaluations of degree
    at most d.
    """
    lo, hi = p.interval
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(
        np.pi * (2.0 * np.arange(64) + 1.0) / 128.0)
    lhs = pcos.eval_many(nodes ** 2) + 1j * nodes * psin.eval_many(nodes ** 2)
    err = float(np.abs(lhs - p.eval_many(nodes)).max())
    bound = rounding_bound(p)
    if err > bound:
        raise NumericalCheckError(
            f"parity split recombination error {err:.3e} exceeds its rounding bound {bound:.3e}")
    return pcos, psin


# =====================================================================
# algebra on represented polynomials
# =====================================================================


def mul_by_x(p: Polynomial) -> Polynomial:
    """The polynomial x -> x * p(x) in the same basis and interval."""
    c = np.asarray(p.coefficients, dtype=np.complex128)
    if p.basis == "monomial":
        return Polynomial((0.0,) + tuple(c), basis="monomial", interval=p.interval)
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
    """Write p(y) = a0 + y * ptilde(y): returns (a0, ptilde). a0 = p(0).

    For Chebyshev input the quotient is re-fit by interpolation at first-kind
    nodes (strictly interior, so y=0 is never a node even when lo = 0).
    """
    c = np.asarray(p.coefficients, dtype=np.complex128)
    if p.basis == "monomial":
        a0 = complex(c[0])
        rest = tuple(c[1:]) if len(c) > 1 else (0.0,)
        return a0, Polynomial(rest, basis="monomial", interval=p.interval)
    lo, hi = p.interval
    if not (lo <= 0.0 <= hi):
        raise PreconditionError("divide_out_zero needs 0 in the interval")
    a0 = eval_scalar(p, 0.0)
    deg = max(p.degree - 1, 0)
    n = deg + 1
    wn = np.cos(np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n))
    yn = 0.5 * (hi + lo) + 0.5 * (hi - lo) * wn
    if np.any(yn == 0.0):
        raise RuntimeError("interpolation node hit y=0")
    qv = (p.eval_many(yn) - a0) / yn
    if n == 1:
        coeffs = np.array([qv[0]], dtype=np.complex128)
    else:
        cr = npcheb.chebfit(wn, qv.real, deg)
        ci = npcheb.chebfit(wn, qv.imag, deg)
        coeffs = cr + 1j * ci
    return complex(a0), Polynomial(tuple(coeffs), basis="chebyshev", interval=p.interval)
