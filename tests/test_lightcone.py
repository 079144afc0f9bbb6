"""Light-cone evaluation: rows of P(A), single entries of P(A)u, query budgets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsim import (CostCounter, Polynomial, PreconditionError, VectorOracle,
                   chain, dense_from_oracle, dense_poly_apply, dense_poly_matrix,
                   entry_of_poly_apply, exp_poly, grid, local_matrix_from_dense,
                   local_matrix_from_rows, poly_apply_query_oracle, poly_rows,
                   row_power, sq_access_from_dense)


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
    assert row_power(a, 4, 0) == {4: 1.0 + 0.0j}


def test_shift_row_power_at_boundary():
    def row_fn(i):
        out = []
        if i > 0:
            out.append((i - 1, 1.0))
        if i < 7:
            out.append((i + 1, 1.0))
        return out

    a = local_matrix_from_rows(chain(8), 1, row_fn, hermitian=True, norm_bound=2.0)
    assert row_power(a, 0, 1) == {1: 1.0 + 0.0j}


@pytest.mark.parametrize("r0", [1, 3])
def test_row_power_matches_dense_powers(r0):
    rng = np.random.default_rng(42 + r0)
    a, dense = _random_local_hermitian(rng, chain(64), r0)
    k = 5
    dense_k = np.linalg.matrix_power(dense, k)
    for i in (0, 20, 63):
        acc = row_power(a, i, k)
        assert len(acc) <= a.graph.locality_function(k * r0)
        row = np.zeros(64, dtype=np.complex128)
        for j, v in acc.items():
            row[j] = v
        scale = max(np.abs(dense_k[i]).max(), 1e-30)
        assert np.abs(row - dense_k[i]).max() / scale <= 1e-11


def test_row_power_support_certificate_is_tight_enough():
    a, _ = _random_local_hermitian(np.random.default_rng(44), chain(32), 1)
    for k in (1, 3, 7):
        ball = set(a.graph.ball(16, k))
        assert set(row_power(a, 16, k)) <= ball


# =====================================================================
# several polynomials on one cone
# =====================================================================


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), layout=st.sampled_from(["chain", "grid"]),
       r0=st.sampled_from([1, 2]), basis=st.sampled_from(["monomial", "chebyshev"]),
       degrees=st.lists(st.integers(0, 6), min_size=1, max_size=3))
def test_poly_rows_match_dense_rows_and_single_calls(seed, layout, r0, basis, degrees):
    rng = np.random.default_rng(seed)
    graph = chain(int(rng.integers(3, 21))) if layout == "chain" else \
        grid([int(rng.integers(2, 6)), int(rng.integers(2, 6))])
    a, _ = _random_local_hermitian(rng, graph, r0)
    alpha = a.norm_bound
    polys = []
    for d in degrees:
        coeffs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        if basis == "monomial":
            polys.append(Polynomial(tuple(coeffs / alpha ** np.arange(d + 1))))
        else:
            polys.append(Polynomial(tuple(coeffs), basis="chebyshev",
                                    interval=(-alpha, alpha)))
    dense = dense_from_oracle(a)
    i = int(rng.integers(0, graph.n_sites))
    rows = poly_rows(a, polys, i)
    assert len(rows) == len(polys)
    for p, row in zip(polys, rows):
        assert row == poly_rows(a, (p,), i)[0]
        assert list(row) == sorted(row)
        vec = np.zeros(graph.n_sites, dtype=np.complex128)
        for j, v in row.items():
            vec[j] = v
        assert np.abs(vec - dense_poly_matrix(dense, p)[i]).max() <= 1e-10

    other = (Polynomial(polys[0].coefficients, basis="chebyshev", interval=(-alpha, alpha))
             if basis == "monomial" else Polynomial(polys[0].coefficients))
    with pytest.raises(PreconditionError):
        poly_rows(a, polys + [other], i)
    wider = Polynomial((1.0, 0.5), basis="chebyshev", interval=(-2.0 * alpha, 2.0 * alpha))
    narrow = Polynomial((1.0, 0.5), basis="chebyshev", interval=(-alpha, alpha))
    with pytest.raises(PreconditionError):
        poly_rows(a, (narrow, wider), i)


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
    a = local_matrix_from_rows(graph, 1, a.row, norm_bound=a.norm_bound,
                               hermitian=True, cost=a_cost)
    u = sq_access_from_dense(rng.normal(size=256), cost=u_cost)
    p = exp_poly(a.norm_bound, 0.5, 1e-6)
    d = p.degree
    entry_of_poly_apply(a, p, u, 128)
    n_d = graph.locality_function(d * 1)
    n_1 = graph.locality_function(1)
    assert a_cost.snapshot()["queries"] <= 4 * d * d * n_d * n_1
    assert u_cost.snapshot()["queries"] <= 4 * d * n_d


def _polynomial(basis: str, a, degree: int, rng) -> Polynomial:
    """exp_poly(t=1) for chebyshev; random decaying coefficients for monomial."""
    if basis == "chebyshev":
        return exp_poly(a.norm_bound, 1.0, 1e-10)
    scale = a.norm_bound + 1.0
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    return Polynomial(tuple(coeffs / scale ** np.arange(degree + 1)))


@pytest.mark.parametrize("basis", ["monomial", "chebyshev"])
@pytest.mark.parametrize("graph, r0", [
    pytest.param(chain(200), 1, id="open-chain"),
    pytest.param(grid([20, 20], boundary="periodic"), 1, id="periodic-grid"),
    pytest.param(chain(200), 2, id="chain-r0-2"),
])
def test_each_row_fetched_at_most_once(graph, r0, basis):
    rng = np.random.default_rng(51)
    base, _ = _random_local_hermitian(rng, graph, r0)
    calls = []

    def row_fn(j):
        calls.append(j)
        return base.row(j)

    cost = CostCounter()
    a = local_matrix_from_rows(graph, r0, row_fn, norm_bound=base.norm_bound,
                               hermitian=True, cost=cost)
    u = sq_access_from_dense(rng.normal(size=graph.n_sites))
    p = _polynomial(basis, a, 7, rng)
    d = p.degree
    entry_of_poly_apply(a, p, u, graph.n_sites // 2 + 3)
    assert len(calls) == len(set(calls))
    assert set(calls) <= set(graph.ball(graph.n_sites // 2 + 3, (d - 1) * r0))
    n_cone = graph.locality_function((d - 1) * r0)
    assert cost.snapshot()["queries"] <= n_cone * (graph.locality_function(r0) + 1)


def _patch_oracles(L: int, ox: int, oy: int):
    """Hopping plus an on-site term on an LxL grid, as functions of (x - ox, y - oy).

    Two grids hold the same patch when their cones stay clear of the boundary.
    """
    def row_fn(s):
        x, y = divmod(s, L)
        out = [(s, 0.5 * np.cos(0.7 * (x - ox) + 1.3 * (y - oy)))]
        for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if 0 <= nx < L and 0 <= ny < L:
                out.append((nx * L + ny, 1.0))
        return out

    def u_fn(s):
        x, y = divmod(s, L)
        dx, dy = x - ox - 16, y - oy - 16
        return np.exp(-(dx * dx + dy * dy) / 8.0 + 0.4j * dx)

    a = local_matrix_from_rows(grid([L, L]), 1, row_fn, norm_bound=4.5, hermitian=True)
    return a, VectorOracle(dimension=L * L, query_fn=u_fn, norm=None)


def test_grid_entry_is_independent_of_lattice_size():
    p = exp_poly(4.5, 0.45, 1e-8)
    assert p.degree >= 10
    small = _patch_oracles(32, 0, 0)
    big = _patch_oracles(1024, 500, 500)
    for x, y in ((16, 16), (17, 14)):
        vs = entry_of_poly_apply(small[0], p, small[1], x * 32 + y)
        vb = entry_of_poly_apply(big[0], p, big[1], (x + 500) * 1024 + y + 500)
        assert vs == vb
        assert small[0].cost.snapshot() == big[0].cost.snapshot()
        assert small[1].cost.snapshot() == big[1].cost.snapshot()


@pytest.mark.parametrize("basis", ["monomial", "chebyshev"])
def test_cone_wrapping_a_periodic_grid_matches_dense(basis):
    rng = np.random.default_rng(52)
    graph = grid([6, 6], boundary="periodic")
    a, dense = _random_local_hermitian(rng, graph, 1)
    p = _polynomial(basis, a, 9, rng)
    assert p.degree > 7  # (d-1) hops cover the 6x6 torus, whose diameter is 6
    u = rng.normal(size=36) + 1j * rng.normal(size=36)
    expected = dense_poly_apply(dense_from_oracle(a), p, u)
    for i in (0, 14, 35):
        assert abs(entry_of_poly_apply(a, p, sq_access_from_dense(u), i) - expected[i]) <= 1e-10
