"""Light-cone evaluation: the forward window, rows of P(A), batched entries of P(A)u, query budgets."""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsim import (CostCounter, Polynomial, PreconditionError, VectorOracle,
                   build_system, chain, dense_from_oracle, dense_poly_apply,
                   dense_poly_matrix, entry_of_poly_apply,
                   exp_poly, general, graph_laplacian_oracle, grid, lightcone,
                   local_matrix_from_rows, mul_by_x, parity_split,
                   poly_apply_query_oracle, sq_access_from_dense,
                   window_entries)

from dense_rows import dense_rows


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
    oracle = local_matrix_from_rows(graph, r0, dense_rows(dense), hermitian=True,
                                    norm_bound=max(bound, 1.0))
    return oracle, dense


def _rows(a, polys, i: int) -> np.ndarray:
    """The dense rows e_i^T P(A), one per polynomial: the batch of origin i with
    the identity over its window as the vectors."""
    held = []

    def identity(window):
        held.append(window.sites)
        return np.eye(window.sites.size, dtype=np.complex128)

    _, values = window_entries(a, polys, [i], identity)
    rows = np.zeros((len(polys), a.dimension), dtype=np.complex128)
    rows[:, held[0]] = values[:, 0]
    return rows


def row_power(a, i: int, k: int) -> dict:
    """The row e_i^T A^k as {site: value} over its nonzero entries, sites increasing."""
    row = _rows(a, (Polynomial((0.0,) * k + (1.0,)),), i)[0]
    return {int(j): complex(row[j]) for j in np.flatnonzero(row)}


def _entries(a, p, u, sites) -> np.ndarray:
    """(P(A)u) at sites, in order, from one fresh query oracle."""
    return poly_apply_query_oracle(a, p, u).query_many(sites)


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


def _graph(layout: str, rng):
    """A small graph of the given layout, its size drawn from rng."""
    if layout in ("chain", "periodic-chain"):
        return chain(int(rng.integers(3, 21)), "periodic" if layout == "periodic-chain" else "open")
    if layout in ("grid", "periodic-grid"):
        return grid([int(rng.integers(2, 6)), int(rng.integers(2, 6))],
                    "periodic" if layout == "periodic-grid" else "open")
    n = int(rng.integers(4, 16))
    return general(n, [tuple(int(k) for k in bond) for bond in rng.integers(0, n, size=(n, 2))])


def _origin_set(kind: str, n: int, rng) -> list:
    """Batch origins: one site, unsorted, repeated, the two ends, or far apart."""
    if kind == "one":
        return [int(rng.integers(0, n))]
    if kind == "unsorted":
        return rng.permutation(n)[:min(n, 6)].tolist()
    if kind == "repeated":
        return rng.choice(min(n, 3), size=7).tolist() + [n - 1, n - 1]
    if kind == "boundary":
        return [n - 1, 0]
    return [0, n // 2, n - 1]   # far apart


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       layout=st.sampled_from(["chain", "periodic-chain", "grid", "periodic-grid", "general"]),
       r0=st.sampled_from([1, 2]), basis=st.sampled_from(["monomial", "chebyshev"]),
       degrees=st.lists(st.integers(0, 6), min_size=1, max_size=3),
       kind=st.sampled_from(["one", "unsorted", "repeated", "boundary", "far"]),
       chunk=st.sampled_from([None, 1, 2]))
def test_poly_rows_match_dense_rows_and_single_calls(seed, layout, r0, basis, degrees, kind,
                                                     chunk):
    rng = np.random.default_rng(seed)
    graph = _graph(layout, rng)
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
    origins = _origin_set(kind, graph.n_sites, rng)
    x = rng.normal(size=(graph.n_sites, 2)) + 1j * rng.normal(size=(graph.n_sites, 2))
    x[rng.random(graph.n_sites) < 0.3] = 0.0
    u_vec = x[:, 0]
    chunks = []

    class CountingWindow(lightcone.Window):
        def __init__(self, A, sites, depth):
            chunks.append(len(sites))
            super().__init__(A, sites, depth)

    with patch.object(lightcone, "_chunk_size", lambda *args: chunk or len(origins)), \
            patch.object(lightcone, "Window", CountingWindow):
        sites, batch = window_entries(a, polys, origins, lambda window: x[window.sites])
        entries = [_entries(a, p, VectorOracle(graph.n_sites, u_vec.__getitem__, None), origins)
                   for p in polys]
    assert sites.tolist() == sorted(set(origins))
    assert chunks and all(0 < size <= (chunk or size) for size in chunks)
    for i in set(origins):
        singles = _rows(a, polys, i)
        for n, p in enumerate(polys):
            # a row of a several-polynomial pass is that of its polynomial alone, bit for
            # bit on its nonzero entries (a zero may come out signed)
            alone = _rows(a, (p,), i)[0]
            nz = np.flatnonzero(alone)
            assert np.array_equal(np.flatnonzero(singles[n]), nz)
            assert np.array_equal(singles[n][nz].view(np.uint64), alone[nz].view(np.uint64))
            assert np.abs(alone - dense_poly_matrix(dense, p)[i]).max() <= 1e-10
            # the batch's entry is the one-polynomial, one-vector, one-origin entry, bit for bit
            for v in range(2):
                _, one = window_entries(a, (p,), [i], lambda window: x[window.sites, v:v + 1])
                o = sites.tolist().index(i)
                assert np.array_equal(batch[n, o, v:v + 1].view(np.uint64), one[0, 0].view(np.uint64))
    for p, got in zip(polys, entries):
        want = [entry_of_poly_apply(a, p, VectorOracle(graph.n_sites, u_vec.__getitem__, None), i)
                for i in origins]
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))

    i = origins[0]
    other = (Polynomial(polys[0].coefficients, basis="chebyshev", interval=(-alpha, alpha))
             if basis == "monomial" else Polynomial(polys[0].coefficients))
    with pytest.raises(PreconditionError):
        _rows(a, polys + [other], i)
    wider = Polynomial((1.0, 0.5), basis="chebyshev", interval=(-2.0 * alpha, 2.0 * alpha))
    narrow = Polynomial((1.0, 0.5), basis="chebyshev", interval=(-alpha, alpha))
    with pytest.raises(PreconditionError):
        _rows(a, (narrow, wider), i)


def _monomials_on_an_r0_2_grid(rng):
    a, _ = _random_local_hermitian(rng, grid([14, 14]), 2)
    return a, [Polynomial(tuple(rng.normal(size=d + 1) / a.norm_bound ** np.arange(d + 1)))
               for d in (2, 3, 6)]


def _oscillator_triple_on_an_r0_2_grid(rng):
    """(A, (Pcos, Psin, y Psin)) of a random r0 = 2 spring grid: Chebyshev on [0, ||A||]."""
    graph = grid([14, 14])
    springs = {(i, j): float(rng.uniform(0.5, 2.0)) for i in range(graph.n_sites)
               for j in graph.ball(i, 2) if j >= i}
    system = build_system(graph, rng.uniform(0.5, 2.0, graph.n_sites), springs, 2)
    pcos, psin = parity_split(exp_poly(system.h_norm_bound, 0.7, 1e-9))
    return system.a_oracle(), [pcos, psin, mul_by_x(psin)]


@pytest.mark.parametrize("make", [_monomials_on_an_r0_2_grid,
                                  _oscillator_triple_on_an_r0_2_grid])
def test_batch_sums_the_rows_of_each_origins_own_depth(make):
    """A batch of mixed-degree polynomials over two vectors gives each entry of each
    polynomial and vector bit for bit as the one-polynomial, one-vector, one-origin
    pass: on an r0 = 2 grid a row holds up to 13 entries, where a pairwise sum
    would round otherwise.  Origins near the boundary and far apart."""
    rng = np.random.default_rng(55)
    a, polys = make(rng)
    assert len({p.degree for p in polys}) > 1
    x = rng.normal(size=(a.dimension, 2)) + 1j * rng.normal(size=(a.dimension, 2))
    origins = [0, 1, 13, 50, 97, 98, 113, 182, 195]
    sites, batch = window_entries(a, polys, origins, lambda window: x[window.sites])
    assert sites.tolist() == origins and batch.shape == (len(polys), len(origins), 2)
    for o, i in enumerate(origins):
        for n, p in enumerate(polys):
            for v in range(2):
                _, one = window_entries(a, (p,), [i], lambda window: x[window.sites, v:v + 1])
                assert np.array_equal(batch[n, o, v:v + 1].view(np.uint64),
                                      one[0, 0].view(np.uint64))


@pytest.mark.parametrize("graph, ball_size, origins", [
    (chain(64), lambda k: 2 * k + 1, [30]),
    (chain(64), lambda k: 2 * k + 1, [10, 30, 50]),
    (grid([21, 21]), lambda k: 2 * k * k + 2 * k + 1, [220]),
    (grid([31, 31]), lambda k: 2 * k * k + 2 * k + 1, [224, 240, 728]),
    (grid([21, 21]), None, [132, 220, 308])])   # balls that overlap
def test_cone_is_laid_out_hop_major(graph, ball_size, origins):
    """The window sites within h hops are the prefix [:sizes[h]], each hop's sites
    increasing: for interior origins of a nearest-neighbour matrix those are the
    union of the balls ball(o, h), each site once, and a ball holds 2h+1 sites on
    a chain and 2h^2+2h+1 on a grid."""
    a = graph_laplacian_oracle(graph)
    hops = 6
    window = lightcone.Window(a, origins, hops)
    assert window.sites[:len(origins)].tolist() == origins
    for h in range(hops + 1):
        union = set().union(*(graph.ball(o, h) for o in origins))
        assert window.sizes[h] == len(union)
        if ball_size is not None:
            assert window.sizes[h] == len(origins) * ball_size(h)
        assert sorted(window.sites[:window.sizes[h]].tolist()) == sorted(union)
        if h:
            assert np.all(np.diff(window.sites[window.sizes[h - 1]:window.sizes[h]]) > 0)
    # the fetched rows are those within hops - 1 hops, their entries in column order
    assert window.cols.shape[1] == window.sizes[hops - 1]
    cols = np.where(window.cols < window.sites.size,
                    np.append(window.sites, -1)[window.cols], graph.n_sites)
    assert np.all(np.diff(cols, axis=0) > 0)


def test_step_k_sums_only_the_terms_within_k_hops():
    """A degree-40 entry on a chain sums about half the terms that stepping over
    the whole window at every step would: step k sums the rows within 40 - k hops."""
    a = graph_laplacian_oracle(chain(200))
    p = Polynomial((0.0,) * 40 + (1.0,))
    summed, whole = [], []

    class CountingWindow(lightcone.Window):
        def times_a(self, y, k):
            rows = self.sizes[self.depth - k]
            summed.append(int(np.count_nonzero(self.cols[:, :rows] < self.sites.size)))
            whole.append(int(np.count_nonzero(self.cols < self.sites.size)))
            return super().times_a(y, k)

    u = VectorOracle(200, lambda j: complex(np.cos(j), 0.5), None)
    with patch.object(lightcone, "Window", CountingWindow):
        got = entry_of_poly_apply(a, p, u, 100)
    assert got == entry_of_poly_apply(a, p, u, 100)   # the counting window changes nothing
    assert len(summed) == 40 and whole == [whole[0]] * 40
    assert sum(summed) <= 0.55 * sum(whole)
    assert summed[0] == whole[0] == 79 * 3 and summed[-1] == 3   # every row; the origin's


def test_window_rows_round_like_a_python_loop():
    """Each row of a step is the Python loop `total = 0j; total += val * value` over
    its entries in column order, bit for bit, whatever the number of vectors: on
    an r0 = 2 grid, whose rows hold 13 entries."""
    rng = np.random.default_rng(53)
    a, _ = _random_local_hermitian(rng, grid([12, 12]), 2)
    window = lightcone.Window(a, [60, 65], 3)
    m = window.sites.size
    y = np.zeros((m + 1, 3), dtype=np.complex128)
    y[:m] = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
    y[5, 1], y[7, 2] = complex(-0.0, 0.0), complex(1e300, -1e-300)
    got = window.times_a(y, 1)
    assert got.shape == (window.sizes[2], 3) and window.cols.shape[0] == 13
    want = np.zeros_like(got)
    for r in range(got.shape[0]):
        held = np.flatnonzero(window.cols[:, r] < m)
        assert np.all(np.diff(window.sites[window.cols[held, r]]) > 0)   # column order
        for v in range(3):
            total = 0j
            for val, value in zip(window.vals[held, r].tolist(),
                                  y[window.cols[held, r], v].tolist()):
                total += val * value
            want[r, v] = total if abs(total) >= lightcone.HARD_ZERO else 0.0
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for v in range(3):
        one = window.times_a(np.ascontiguousarray(y[:, v:v + 1]), 1)
        assert np.array_equal(one.view(np.uint64), got[:, v:v + 1].copy().view(np.uint64))


def test_query_many_answers_a_batch_from_one_pass_and_memoizes():
    rng = np.random.default_rng(54)
    a, _ = _random_local_hermitian(rng, chain(40), 1)
    vec = rng.normal(size=40) + 1j * rng.normal(size=40)
    u = sq_access_from_dense(vec)
    p = exp_poly(a.norm_bound, 0.6, 1e-8)
    w = poly_apply_query_oracle(a, p, u)
    cones = []

    class CountingWindow(lightcone.Window):
        def __init__(self, A, origins, depth):
            cones.append(list(origins))
            super().__init__(A, origins, depth)

    with patch.object(lightcone, "Window", CountingWindow):
        first = w.query(20)
        batch = w.query_many([30, 20, 5, 30])
        again = w.query_many([5, 20])
    assert cones == [[20], [5, 30]]
    assert batch[1] == first and batch[0] == batch[3] and again.tolist() == [batch[2], first]
    assert w.cost.queries == 7
    for i, value in zip((30, 20, 5), batch[:3].tolist()):
        assert value == entry_of_poly_apply(a, p, sq_access_from_dense(vec), i)


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
    a = local_matrix_from_rows(chain(6), 1,
                               lambda i: [(i, 1.0)], hermitian=True,
                               norm_bound=1.0)
    u = sq_access_from_dense(np.arange(1.0, 7.0))
    out = entry_of_poly_apply(a, Polynomial((2.5,)), u, 3)
    assert out == pytest.approx(2.5 * 4.0)
    assert a.cost.snapshot()["queries"] == 0


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


def test_matrix_and_vector_dimensions_must_agree():
    a = local_matrix_from_rows(chain(8), 1, lambda i: [(i, 0.5)], hermitian=True,
                               norm_bound=0.5)
    u = sq_access_from_dense(np.ones(9))
    p = Polynomial((1.0, 0.5))
    with pytest.raises(PreconditionError, match="dimensions differ"):
        entry_of_poly_apply(a, p, u, 2)
    with pytest.raises(PreconditionError, match="dimensions differ"):
        poly_apply_query_oracle(a, p, u)
    assert a.cost.queries == u.cost.queries == 0


def test_chebyshev_requires_declared_norm_bound():
    a = local_matrix_from_rows(chain(8), 1, lambda i: [(i, 0.5)], hermitian=True)
    u = sq_access_from_dense(np.ones(8))
    with pytest.raises(PreconditionError):
        entry_of_poly_apply(a, exp_poly(1.0, 1.0, 1e-6), u, 2)


# =====================================================================
# memoized query oracle
# =====================================================================


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(st.lists(st.integers(0, 40), max_size=12), max_size=8))
def test_site_memo_fills_each_unheld_site_once_against_a_dict(requests):
    """One fill per at, of the distinct unheld sites in increasing order; none when
    every site is held or nothing is asked; rows in the order asked, repeats kept."""
    calls, model = [], {}

    def fill(new):
        calls.append(new.tolist())
        return np.stack((new * (1.0 + 0.5j), -new.astype(np.complex128)), axis=1)

    memo = lightcone.SiteMemo(fill, 2)
    for sites in requests:
        new = sorted(set(sites).difference(model))
        before = len(calls)
        got = memo.at(sites)
        assert calls[before:] == ([new] if new else [])
        model.update((i, (i * (1.0 + 0.5j), -complex(i))) for i in new)
        assert got.shape == (len(sites), 2)
        assert [tuple(row) for row in got.tolist()] == [model[i] for i in sites]
    assert memo.sites.tolist() == sorted(model)


def test_memoization_charges_queries_once():
    rng = np.random.default_rng(47)
    a, _ = _random_local_hermitian(rng, chain(32), 1)
    u = sq_access_from_dense(rng.normal(size=32))
    w = poly_apply_query_oracle(a, exp_poly(a.norm_bound, 0.7, 1e-8), u)
    first = w.query(9)
    a_after_first = a.cost.snapshot()["queries"]
    u_after_first = u.cost.snapshot()["queries"]
    assert a_after_first > 0
    second = w.query(9)
    assert second == first
    assert a.cost.snapshot()["queries"] == a_after_first
    assert u.cost.snapshot()["queries"] == u_after_first


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
    """One entry of P(A)u costs at most N((d-1) r0)(N(r0)+1) A-queries and N(d r0) u-queries."""
    rng = np.random.default_rng(50)
    graph = chain(256)
    a, _ = _random_local_hermitian(rng, graph, 1)
    a = local_matrix_from_rows(graph, 1, a.row, norm_bound=a.norm_bound,
                               hermitian=True)
    u = sq_access_from_dense(rng.normal(size=256))
    p = exp_poly(a.norm_bound, 0.5, 1e-6)
    d = p.degree
    entry_of_poly_apply(a, p, u, 128)
    assert a.cost.snapshot()["queries"] <= (graph.locality_function((d - 1) * 1)
                                            * (graph.locality_function(1) + 1))
    assert u.cost.snapshot()["queries"] <= graph.locality_function(d * 1)


def _polynomial(basis: str, a, degree: int, rng) -> Polynomial:
    """exp_poly(t=1) for chebyshev; random decaying coefficients for monomial."""
    if basis == "chebyshev":
        return exp_poly(a.norm_bound, 1.0, 1e-10)
    scale = a.norm_bound + 1.0
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    return Polynomial(tuple(coeffs / scale ** np.arange(degree + 1)))


@pytest.mark.parametrize("origins", ["one", "spread", "overlapping", "chunked"])
@pytest.mark.parametrize("basis", ["monomial", "chebyshev"])
@pytest.mark.parametrize("graph, r0", [
    pytest.param(chain(200), 1, id="open-chain"),
    pytest.param(grid([20, 20], boundary="periodic"), 1, id="periodic-grid"),
    pytest.param(chain(200), 2, id="chain-r0-2"),
])
def test_each_row_fetched_at_most_once(graph, r0, basis, origins):
    """A batch fetches each row of its cones' union once per chunk, and queries u once per
    distinct site of its rows; it never costs more than its origins one at a time."""
    rng = np.random.default_rng(51)
    base, _ = _random_local_hermitian(rng, graph, r0)
    n, mid = graph.n_sites, graph.n_sites // 2 + 3
    sites = {"one": [mid], "spread": [n - 1, mid, 0, n // 4],
             "overlapping": [mid + 3, mid, mid + 1, mid, mid - 2],
             "chunked": [mid + 3, mid, mid + 1, mid, mid - 2, 0, n - 1]}[origins]
    calls, u_calls = [], []

    def row_fn(j):
        calls.append(j)
        return base.row(j)

    a = local_matrix_from_rows(graph, r0, row_fn, norm_bound=base.norm_bound,
                               hermitian=True)
    u_vec = rng.normal(size=n)
    u = VectorOracle(n, lambda j: u_calls.append(j) or u_vec[j], None)
    p = _polynomial(basis, a, 7, rng)
    d = p.degree
    size = 2 if origins == "chunked" else len(sites)
    with patch.object(lightcone, "_chunk_size", lambda *args: size):
        batch = _entries(a, p, u, sites)
    chunks = [sorted(set(sites))[k:k + size] for k in range(0, len(set(sites)), size)]
    # each chunk fetches the union of its origins' cones (a random local matrix
    # fills its balls, so a cone's rows are the ball of radius (d-1) r0)
    assert sorted(calls) == sorted(j for chunk in chunks
                                   for j in set().union(*(graph.ball(i, (d - 1) * r0)
                                                          for i in chunk)))
    assert a.cost.queries == sum(len(base.row(j)) + 1 for j in calls)
    batch_a, batch_u = a.cost.queries, len(u_calls)
    rows = {i: set(np.flatnonzero(_rows(a, (p,), i)[0]).tolist()) for i in set(sites)}
    assert sorted(u_calls) == sorted(set().union(*rows.values()))
    single_a = single_u = 0
    for i in set(sites):
        a.cost, u.cost = CostCounter(), CostCounter()
        value = entry_of_poly_apply(a, p, u, i)
        assert np.array_equal(np.array([value]).view(np.uint64),
                              batch[sites.index(i):][:1].view(np.uint64))
        single_a, single_u = single_a + a.cost.queries, single_u + u.cost.queries
        assert a.cost.queries <= (graph.locality_function((d - 1) * r0)
                                  * (graph.locality_function(r0) + 1))
    assert batch_a <= single_a and batch_u <= single_u


def test_spread_batch_stays_under_the_chunk_budget():
    """20,000 far-apart origins split into chunks, each under CONE_BYTES of working memory."""
    graph = chain(2 ** 20)
    a = graph_laplacian_oracle(graph)
    u = VectorOracle(graph.n_sites, lambda j: complex(np.cos(0.001 * j), 0.5), None)
    p = Polynomial(tuple(0.3 ** k for k in range(6)))
    sites = (np.arange(20_000) * 50 + 7).tolist()
    cones = []

    class CountingWindow(lightcone.Window):
        def __init__(self, A, origins, depth):
            cones.append((len(origins), A.cost.queries))
            super().__init__(A, origins, depth)

    with patch.object(lightcone, "Window", CountingWindow):
        tracemalloc.start()
        try:
            values = _entries(a, p, u, sites)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(cones) >= 3 and sum(k for k, _ in cones) == len(sites)
    assert peak < lightcone.CONE_BYTES
    # the cones never meet: per origin, 9 rows of 3 entries and 11 sites of u
    assert a.cost.queries == len(sites) * 9 * 4 and u.cost.queries == len(sites) * 11
    for k in (0, 9_999, 19_999):
        assert values[k] == entry_of_poly_apply(a, p, u, sites[k])


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
