"""Polynomials: evaluation, exponential approximant, parity split, algebra."""

import math

import numpy as np
import pytest

from glsim import (Polynomial, bessel_j_sequence, divide_out_zero, eval_scalar,
                   exp_poly, mul_by_x, parity_split)


def _bessel_reference(z: float, k: int) -> float:
    """J_k(z) from the integral form, as an oracle independent of the recurrence."""
    theta = np.linspace(0.0, np.pi, 200_001)
    # np.trapezoid is numpy >= 2.0; np.trapz is the fallback for numpy 1.24-1.26.
    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    return float(trapezoid(np.cos(k * theta - z * np.sin(theta)), theta) / np.pi)


# =====================================================================
# polynomial container
# =====================================================================


def test_degree_ignores_trailing_zeros():
    p = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert p.degree == 1
    assert len(p.coefficients) == 2


def test_eval_scalar_pinned_values():
    assert eval_scalar(Polynomial((1.0,)), -0.8) == 1.0
    assert eval_scalar(Polynomial((0.0, 1.0)), 0.5) == 0.5


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


# =====================================================================
# the exponential approximant
# =====================================================================


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


def test_exp_poly_scalar_value():
    p = exp_poly(1.0, 3.0, 1e-8)
    assert abs(eval_scalar(p, 0.7) - np.exp(2.1j)) <= 1e-8


def test_exp_poly_sup_bound_is_certified():
    for alpha, t in [(1.0, 5.0), (3.0, 2.0), (0.5, 16.0)]:
        p = exp_poly(alpha, t, 1e-8)
        xs = np.linspace(-alpha, alpha, 2001)
        assert np.abs(p.eval_many(xs)).max() <= p.sup_bound + 1e-12
        assert p.sup_bound <= 1.0 + 1e-8


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
    p = Polynomial((0.0, 1.0j))
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


# =====================================================================
# algebraic helpers
# =====================================================================


@pytest.mark.parametrize("basis", ["monomial", "chebyshev"])
def test_mul_by_x(basis):
    rng = np.random.default_rng(21)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    p = Polynomial(tuple(coeffs), basis=basis, interval=(-2.0, 2.0))
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
    a0, q = divide_out_zero(p)
    xs = np.linspace(interval[0], interval[1], 41)
    assert np.abs(a0 + xs * q.eval_many(xs) - p.eval_many(xs)).max() <= 1e-10
