"""Polynomials: evaluation, exponential approximant, parity split, algebra."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsim import (NumericalCheckError, Polynomial, PreconditionError, bessel_j_sequence,
                   divide_out_zero, exp_poly, mul_by_x, parity_split, polyapprox)


def _bessel_reference(z: float, k: int) -> float:
    """J_k(z) from the integral form, as an oracle independent of the recurrence."""
    theta = np.linspace(0.0, np.pi, 200_001)
    # np.trapezoid is numpy >= 2.0; np.trapz is the fallback for numpy 1.24-1.26.
    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    return float(trapezoid(np.cos(k * theta - z * np.sin(theta)), theta) / np.pi)


def _thirdkind_reference(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_m g_m V_m(w) by the third-kind recurrence V_{m+1} = 2w V_m - V_{m-1}
    from V_{-1} = V_0 = 1 (so V_1 = 2w - 1), as an oracle independent of the
    suffix sum."""
    acc = np.zeros_like(w, dtype=np.complex128)
    v_prev, v = np.ones_like(w), np.ones_like(w)
    for gm in g:
        acc += gm * v
        v, v_prev = 2.0 * w * v - v_prev, v
    return acc


def _random_chebyshev(rng, degree: int, interval) -> Polynomial:
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    return Polynomial(tuple(coeffs), basis="chebyshev", interval=interval)


# =====================================================================
# polynomial container
# =====================================================================


def test_degree_ignores_trailing_zeros():
    p = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert p.degree == 1
    assert len(p.coefficients) == 2


def test_eval_many_pinned_values():
    assert Polynomial((1.0,)).eval_many(-0.8) == 1.0
    assert Polynomial((0.0, 1.0)).eval_many(0.5) == 0.5


def test_unknown_basis_rejected():
    with pytest.raises(ValueError):
        Polynomial((1.0,), basis="legendre")


# =====================================================================
# Bessel coefficients
# =====================================================================


@pytest.mark.parametrize("z", [0.5, 1.0, 5.0, 12.0])
def test_bessel_sequence_matches_integral_form(z):
    seq = bessel_j_sequence(z, 8)
    for k in range(8):
        assert abs(seq[k] - _bessel_reference(z, k)) <= 1e-10


@pytest.mark.parametrize("z", [1e-55, -1e-60, 1e-100, 1e-200, 1e-320])
def test_bessel_sequence_at_tiny_argument_is_the_leading_series_term(z):
    """Where a Miller step could overflow, J_k(z) = (z/2)^k / k! to rounding, finite."""
    seq = bessel_j_sequence(z, 6)
    expected = [(z / 2.0) ** k / math.factorial(k) for k in range(7)]
    assert np.all(np.isfinite(seq))
    assert seq[0] == 1.0
    assert np.allclose(seq, expected, rtol=1e-14, atol=0.0)


# =====================================================================
# the exponential approximant
# =====================================================================


def test_exp_poly_at_tiny_alpha_t_is_degree_zero():
    """alpha t = 1e-200 once overflowed the Bessel recurrence (NumericalCheckError)."""
    for t in (1e-60, 1e-100, 1e-200):
        p = exp_poly(1.0, t, 0.05)
        assert p.degree == 0
        assert p.coefficients == (1.0,)
        assert p.sup_bound == 1.0


def test_exp_poly_at_t_zero_is_one():
    p = exp_poly(2.0, 0.0, 1e-8)
    assert p.degree == 0
    xs = np.linspace(-2.0, 2.0, 7)
    assert np.allclose(p.eval_many(xs), 1.0, atol=1e-14)


def test_exp_poly_grid_error():
    eps = 1e-6
    p = exp_poly(1.0, 5.0, eps)
    xs = np.linspace(-1.0, 1.0, 4001)
    err = np.abs(p.eval_many(xs) - np.exp(1j * xs * 5.0)).max()
    assert err <= eps


def test_exp_poly_degree_cap():
    p = exp_poly(1.0, 5.0, 1e-6)
    assert p.degree <= math.ceil(math.e * 2.5) + 20 + 4


def test_exp_poly_refuses_a_degree_bound_above_the_cap_before_any_table():
    """alpha t = 1e6 once ran for 15 s to degree 1,000,666; alpha t near 1e308
    once escaped as an OverflowError."""
    for alpha, t in [(1.0, 1e6), (1.0, -1e6), (1e154, 1e154), (2.0, 8.9e307)]:
        tic = time.perf_counter()
        with pytest.raises(ValueError, match="degree cap") as info:
            exp_poly(alpha, t, 1e-8)
        assert time.perf_counter() - tic < 0.5
        assert not isinstance(info.value, PreconditionError)


@pytest.mark.parametrize("eps", [5e-324, 1e-310])
def test_exp_poly_refuses_an_eps_whose_inverse_overflows(eps):
    """1/eps = inf once escaped as an OverflowError."""
    with pytest.raises(PreconditionError, match="1/eps finite"):
        exp_poly(1.0, 0.5, eps)


def test_exp_poly_degree_cap_holds_at_its_edge(monkeypatch):
    """A bound of exactly MAX_EXP_DEGREE builds; one more is refused."""
    monkeypatch.setattr(polyapprox, "MAX_EXP_DEGREE", 20)
    for t in np.linspace(0.0, 12.0, 97):
        bound = math.ceil(math.e * t / 2.0) + 1 + 4   # eps 0.5: ceil(log2(1/eps)) = 1
        if bound > 20:
            with pytest.raises(ValueError, match="degree cap"):
                exp_poly(1.0, float(t), 0.5)
        else:
            assert exp_poly(1.0, float(t), 0.5).degree <= bound


def test_exp_poly_scalar_value():
    p = exp_poly(1.0, 3.0, 1e-8)
    assert abs(p.eval_many(0.7) - np.exp(2.1j)) <= 1e-8


def test_exp_poly_sup_bound_is_certified():
    for alpha, t in [(1.0, 5.0), (3.0, 2.0), (0.5, 16.0)]:
        p = exp_poly(alpha, t, 1e-8)
        xs = np.linspace(-alpha, alpha, 2001)
        assert np.abs(p.eval_many(xs)).max() <= p.sup_bound + 1e-12
        assert p.sup_bound <= 1.0 + 1e-8


def test_exp_poly_forms_i_to_the_k_exactly():
    """Even coefficients 2 i^k J_k are exactly real and odd ones exactly
    imaginary; 1j ** k drifts off i^k by up to 6.3e-13 from k = 100 on."""
    c = np.asarray(exp_poly(math.sqrt(6.0), 400.0, 0.025).coefficients)
    assert c.size > 100
    assert np.all(c[0::2].imag == 0.0)
    assert np.all(c[1::2].real == 0.0)


@pytest.mark.parametrize("alpha,t,eps", [(4.5, 200.0, 0.05), (1.0, 200.0, 0.2)])
def test_exp_poly_sup_bound_holds_between_grid_points(alpha, t, eps):
    # |p| peaks between the points of a 2001-point grid at these parameters
    p = exp_poly(alpha, t, eps)
    xs = np.linspace(-alpha, alpha, 400001)
    assert np.abs(p.eval_many(xs)).max() <= p.sup_bound
    assert p.sup_bound <= 1.0 + eps


# =====================================================================
# parity split
# =====================================================================


def test_parity_split_constant():
    pcos, psin = parity_split(Polynomial((1.0,), basis="chebyshev"))
    assert np.allclose(pcos.eval_many(np.linspace(0, 1, 5)), 1.0, atol=1e-12)
    assert np.allclose(psin.eval_many(np.linspace(0, 1, 5)), 0.0, atol=1e-12)


def test_parity_split_pure_odd():
    p = Polynomial((0.0, 1.0j), basis="chebyshev")
    pcos, psin = parity_split(p)
    ys = np.linspace(0.0, 1.0, 5)
    assert np.allclose(pcos.eval_many(ys), 0.0, atol=1e-12)
    assert np.allclose(psin.eval_many(ys), 1.0, atol=1e-12)


def test_parity_split_recombines_exponential():
    p = exp_poly(1.0, 2.0, 1e-8)
    pcos, psin = parity_split(p)
    nodes = np.cos(np.pi * (2 * np.arange(64) + 1) / 128.0)
    recombined = pcos.eval_many(nodes**2) + 1j * nodes * psin.eval_many(nodes**2)
    assert np.abs(recombined - p.eval_many(nodes)).max() <= 1e-12


def test_parity_check_bound_grows_with_the_degree():
    """At alpha = sqrt(6), t = 400 (degree 998, the oscillator pipeline's eps 0.05)
    a correct split recombines to about 1.2e-12, over the old fixed 1e-12 and
    under 16 d u sum|c_k|."""
    p = exp_poly(math.sqrt(6.0), 400.0, 0.025)
    assert p.degree == 998
    bound = polyapprox.rounding_bound(p)
    assert bound == pytest.approx(16 * 998 * 2.0 ** -53 * np.abs(p.coefficients).sum())
    assert 4e-12 < bound / 16 < 5e-12
    parity_split(p)


def _nudged(p: Polynomial) -> Polynomial:
    return Polynomial((p.coefficients[0] + 1e-9,) + p.coefficients[1:],
                      basis="chebyshev", interval=p.interval)


def test_a_wrong_split_fails_its_check_with_a_typed_error():
    p = exp_poly(1.0, 2.0, 1e-8)
    pcos, psin = parity_split(p)
    nudged = _nudged(pcos)
    with pytest.raises(NumericalCheckError, match="parity split recombination error"):
        polyapprox._recombination_check(
            p, "parity split", lambda x: nudged.eval_many(x * x) + 1j * x * psin.eval_many(x * x))


def test_a_wrong_quotient_fails_its_check_with_a_typed_error():
    pcos, _ = parity_split(exp_poly(1.0, 2.0, 1e-8))
    a0, ptil = divide_out_zero(pcos)
    nudged = _nudged(ptil)
    with pytest.raises(NumericalCheckError, match="division by y recombination error"):
        polyapprox._recombination_check(
            pcos, "division by y", lambda y: a0 + y * nudged.eval_many(y))


def test_split_and_division_each_run_their_check(monkeypatch):
    p = exp_poly(1.0, 2.0, 1e-8)
    pcos, _ = parity_split(p)
    monkeypatch.setattr(polyapprox, "rounding_bound", lambda p: -1.0)
    with pytest.raises(NumericalCheckError, match="parity split"):
        parity_split(p)
    with pytest.raises(NumericalCheckError, match="division by y"):
        divide_out_zero(pcos)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 8, 101, 998, 2500])
def test_odd_part_matches_the_thirdkind_recurrence(degree):
    """Psin(y) = sum_m g_m V_m(2y/alpha^2 - 1) with g_m = c_{2m+1} / (i alpha),
    to within 16 d u sum_m |g_m| (2m + 1), since |V_m| <= 2m + 1 on [-1, 1]."""
    rng = np.random.default_rng(degree)
    alpha = 2.5
    p = _random_chebyshev(rng, degree, (-alpha, alpha))
    _, psin = parity_split(p)
    g = np.asarray(p.coefficients[1::2]) / (1j * alpha)
    ys = np.linspace(0.0, alpha * alpha, 201)
    reference = _thirdkind_reference(g, 2.0 * ys / alpha ** 2 - 1.0)
    size = float((np.abs(g) * (2.0 * np.arange(g.size) + 1.0)).sum())
    bound = polyapprox.ROUNDING_MULTIPLE * max(degree, 1) * polyapprox.UNIT_ROUNDOFF * size
    assert np.abs(psin.eval_many(ys) - reference).max() <= bound


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), degree=st.integers(0, 300),
       lo=st.sampled_from([0.0, -1e-3, -0.7, -4.0, -50.0]),
       hi=st.sampled_from([0.0, 1e-3, 0.7, 4.0, 50.0]))
def test_exact_algebra_recombines_within_the_rounding_bound(seed, degree, lo, hi):
    """The division on any interval holding 0, the split on a symmetric one;
    checked at random points, not at the 64 nodes of the built-in check."""
    rng = np.random.default_rng(seed)
    if lo < hi:
        p = _random_chebyshev(rng, degree, (lo, hi))
        a0, ptil = divide_out_zero(p)
        ys = rng.uniform(lo, hi, 50)
        err = np.abs(a0 + ys * ptil.eval_many(ys) - p.eval_many(ys)).max()
        assert err <= polyapprox.rounding_bound(p)
    alpha = max(-lo, hi) or 1.0
    p = _random_chebyshev(rng, degree, (-alpha, alpha))
    pcos, psin = parity_split(p)
    xs = rng.uniform(-alpha, alpha, 50)
    err = np.abs(pcos.eval_many(xs ** 2) + 1j * xs * psin.eval_many(xs ** 2) - p.eval_many(xs)).max()
    assert err <= polyapprox.rounding_bound(p)


def test_split_and_division_at_degree_19645_are_fast_and_checked():
    """Both identities are O(d): at alpha = sqrt(6), t = 8000 each (with its
    recombination check) takes a fraction of a second, where the refits
    would solve a 10,000-column least-squares problem."""
    p = exp_poly(math.sqrt(6.0), 8000.0, 0.025)
    assert p.degree == 19645
    t0 = time.perf_counter()
    pcos, _ = parity_split(p)
    t1 = time.perf_counter()
    divide_out_zero(pcos)
    t2 = time.perf_counter()
    assert t1 - t0 < 1.0
    assert t2 - t1 < 1.0


@pytest.mark.parametrize("t", [0.0394, 1439.3])
def test_exp_poly_grid_checks_allow_for_rounding(t):
    """At eps = 1e-13 the tail (1.2e-16 at t = 0.0394) and eps itself (at
    t = 1439.3) lie below the rounding of the grid's evaluations."""
    p = exp_poly(0.3, t, 1e-13)
    assert p.sup_bound - 1.0 <= 1e-13


# =====================================================================
# algebraic helpers
# =====================================================================


@pytest.mark.parametrize("basis", ["monomial", "chebyshev"])
def test_mul_by_x(basis):
    rng = np.random.default_rng(21)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    p = Polynomial(tuple(coeffs), basis=basis, interval=(-2.0, 2.0))
    if basis == "monomial":
        with pytest.raises(PreconditionError):
            mul_by_x(p)
        return
    q = mul_by_x(p)
    xs = np.linspace(-2.0, 2.0, 31)
    assert np.abs(q.eval_many(xs) - xs * p.eval_many(xs)).max() <= 1e-12


@pytest.mark.parametrize("basis,interval", [
    ("monomial", (-1.0, 1.0)),
    ("chebyshev", (-1.5, 1.5)),
    ("chebyshev", (0.0, 4.0)),
])
def test_divide_out_zero(basis, interval):
    rng = np.random.default_rng(22)
    coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
    p = Polynomial(tuple(coeffs), basis=basis, interval=interval)
    if basis == "monomial":
        with pytest.raises(PreconditionError):
            divide_out_zero(p)
        with pytest.raises(PreconditionError):
            parity_split(p)
        return
    a0, q = divide_out_zero(p)
    xs = np.linspace(interval[0], interval[1], 41)
    assert np.abs(a0 + xs * q.eval_many(xs) - p.eval_many(xs)).max() <= 1e-10
