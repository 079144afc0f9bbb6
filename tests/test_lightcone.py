"""Light-cone evaluation: sparse row powers, single entries of P(A)u, query budgets."""

import numpy as np
import pytest

from glsim import (CostCounter, Polynomial, PreconditionError, chain,
                   dense_from_oracle, dense_poly_apply, entry_of_poly_apply,
                   exp_poly, local_matrix_from_dense, local_matrix_from_rows,
                   poly_apply_query_oracle, row_power, sq_access_from_dense)


def _random_local_hermitian(rng, graph, r0: int):
    """A random Hermitian matrix supported on balls of radius r0, as (oracle, dense)."""
    n = graph.n_sites
    dense = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in graph.ball(i, r0):
            if j < i:
                continue
            if j == i:
                dense[i, i] = rng.normal()
            else:
                v = (rng.normal() + 1j * rng.normal()) / np.sqrt(2.0)
                dense[i, j] = v
                dense[j, i] = np.conj(v)
    bound = float(np.abs(dense).sum(axis=1).max())
    oracle = local_matrix_from_dense(dense, graph, r0, hermitian=True,
                                     norm_bound=max(bound, 1.0))
    return oracle, dense


# =====================================================================
# row powers
# =====================================================================


def test_row_power_zero_is_point_mass():
    a, _ = _random_local_hermitian(np.random.default_rng(41), chain(10), 1)
    acc = row_power(a, 4, 0)
    assert acc.entries == {4: 1.0 + 0.0j}


def test_shift_row_power_at_boundary():
    def row_fn(i):
        out = []
        if i > 0:
            out.append((i - 1, 1.0))
        if i < 7:
            out.append((i + 1, 1.0))
        return out

    a = local_matrix_from_rows(chain(8), 1, row_fn, hermitian=True, norm_bound=2.0)
    acc = row_power(a, 0, 1)
    assert acc.entries == {1: 1.0 + 0.0j}


@pytest.mark.parametrize("r0", [1, 3])
def test_row_power_matches_dense_powers(r0):
    rng = np.random.default_rng(42 + r0)
    a, dense = _random_local_hermitian(rng, chain(64), r0)
    k = 5
    dense_k = np.linalg.matrix_power(dense, k)
    for i in (0, 20, 63):
        acc = row_power(a, i, k)
        assert len(acc.entries) <= a.graph.locality_function(k * r0)
        row = np.zeros(64, dtype=np.complex128)
        for j, v in acc.entries.items():
            row[j] = v
        scale = max(np.abs(dense_k[i]).max(), 1e-30)
        assert np.abs(row - dense_k[i]).max() / scale <= 1e-11


def test_row_power_support_certificate_is_tight_enough():
    a, _ = _random_local_hermitian(np.random.default_rng(44), chain(32), 1)
    for k in (1, 3, 7):
        acc = row_power(a, 16, k)
        ball = set(a.graph.ball(16, k))
        assert set(acc.entries) <= ball


# =====================================================================
# single entries of P(A)u
# =====================================================================


def test_identity_oracle_square_returns_entry():
    a = local_matrix_from_rows(chain(5), 0, lambda i: [(i, 1.0)],
                               hermitian=True, norm_bound=1.0)
    u = sq_access_from_dense(np.array([0.3, -0.7j, 1.1, 0.0, 2.0]))
    p = Polynomial((0.0, 0.0, 1.0))  # x^2
    for i in range(5):
        assert abs(entry_of_poly_apply(a, p, u, i) - u.query(i)) <= 1e-14


def test_constant_polynomial_needs_no_matrix_queries():
    cost = CostCounter()
    a = local_matrix_from_rows(chain(6), 1,
                               lambda i: [(i, 1.0)], hermitian=True,
                               norm_bound=1.0, cost=cost)
    u = sq_access_from_dense(np.arange(1.0, 7.0))
    out = entry_of_poly_apply(a, Polynomial((2.5,)), u, 3)
    assert out == pytest.approx(2.5 * 4.0)
    assert cost.snapshot()["queries"] == 0


def test_entry_matches_dense_for_exponential_polynomial():
    rng = np.random.default_rng(45)
    a, dense = _random_local_hermitian(rng, chain(128), 1)
    u = rng.normal(size=128) + 1j * rng.normal(size=128)
    u /= np.linalg.norm(u)
    p = exp_poly(a.norm_bound, 1.0, 1e-8)
    expected = dense_poly_apply(dense_from_oracle(a), p, u)
    u_or = sq_access_from_dense(u)
    for i in (0, 17, 64, 127):
        assert abs(entry_of_poly_apply(a, p, u_or, i) - expected[i]) <= 1e-8


def test_chebyshev_requires_interval_covering_norm_bound():
    a, _ = _random_local_hermitian(np.random.default_rng(46), chain(12), 1)
    u = sq_access_from_dense(np.ones(12))
    p_small = exp_poly(a.norm_bound / 4.0, 1.0, 1e-6)
    with pytest.raises(PreconditionError):
        entry_of_poly_apply(a, p_small, u, 3)


def test_chebyshev_requires_declared_norm_bound():
    a = local_matrix_from_rows(chain(8), 1, lambda i: [(i, 0.5)], hermitian=True)
    u = sq_access_from_dense(np.ones(8))
    with pytest.raises(PreconditionError):
        entry_of_poly_apply(a, exp_poly(1.0, 1.0, 1e-6), u, 2)


# =====================================================================
# memoized query oracle
# =====================================================================


def test_memoization_charges_queries_once():
    rng = np.random.default_rng(47)
    a, _ = _random_local_hermitian(rng, chain(32), 1)
    u_cost = CostCounter()
    u = sq_access_from_dense(rng.normal(size=32), cost=u_cost)
    w = poly_apply_query_oracle(a, exp_poly(a.norm_bound, 0.7, 1e-8), u)
    first = w.query(9)
    a_after_first = a.cost.snapshot()["queries"]
    u_after_first = u_cost.snapshot()["queries"]
    assert a_after_first > 0
    second = w.query(9)
    assert second == first
    assert a.cost.snapshot()["queries"] == a_after_first
    assert u_cost.snapshot()["queries"] == u_after_first


def test_identity_polynomial_composition_reproduces_u():
    rng = np.random.default_rng(48)
    a, _ = _random_local_hermitian(rng, chain(16), 1)
    vec = rng.normal(size=16) + 1j * rng.normal(size=16)
    u = sq_access_from_dense(vec)
    w = poly_apply_query_oracle(a, Polynomial((1.0,)), u)
    for i in range(16):
        assert w.query(i) == complex(vec[i])


def test_query_oracle_matches_dense_at_sixteen_indices():
    rng = np.random.default_rng(49)
    a, dense = _random_local_hermitian(rng, chain(96), 1)
    vec = rng.normal(size=96) + 1j * rng.normal(size=96)
    vec /= np.linalg.norm(vec)
    p = exp_poly(a.norm_bound, 1.2, 1e-8)
    expected = dense_poly_apply(dense_from_oracle(a), p, vec)
    w = poly_apply_query_oracle(a, p, sq_access_from_dense(vec))
    idx = rng.choice(96, size=16, replace=False)
    errs = [abs(w.query(int(i)) - expected[int(i)]) for i in idx]
    assert max(errs) <= 1e-8


# =====================================================================
# query budgets
# =====================================================================


def test_single_entry_query_budget():
    """One entry of P(A)u costs at most 4 d^2 N(d r0) N(r0) A-queries and 4 d N(d r0) u-queries."""
    rng = np.random.default_rng(50)
    graph = chain(256)
    a_cost, u_cost = CostCounter(), CostCounter()
    a, _ = _random_local_hermitian(rng, graph, 1)
    a = local_matrix_from_rows(graph, 1, a._row_fn, norm_bound=a.norm_bound,
                               hermitian=True, cost=a_cost)
    u = sq_access_from_dense(rng.normal(size=256), cost=u_cost)
    p = exp_poly(a.norm_bound, 0.5, 1e-6)
    d = p.degree
    entry_of_poly_apply(a, p, u, 128)
    n_d = graph.locality_function(d * 1)
    n_1 = graph.locality_function(1)
    assert a_cost.snapshot()["queries"] <= 4 * d * d * n_d * n_1
    assert u_cost.snapshot()["queries"] <= 4 * d * n_d
