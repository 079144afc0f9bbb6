"""Discretized PDE generators: wave, advection, Schrodinger."""

import numpy as np
import pytest

from glsim import (DenseMatrix, PreconditionError, advection_hamiltonian, chain,
                   dense_evolve, dense_from_oracle, graph_laplacian_oracle, grid,
                   local_matrix_from_rows, schrodinger_hamiltonian, spectral_norm,
                   wave_to_oscillators)


def _dense(oracle) -> np.ndarray:
    return dense_from_oracle(oracle).entries


# =====================================================================
# graph Laplacians
# =====================================================================


def test_laplacian_row_sums_vanish_and_offdiagonals_are_minus_one():
    for g in (chain(6), grid([3, 4]), chain(5, "periodic")):
        lap = _dense(graph_laplacian_oracle(g))
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-14)
        assert np.allclose(lap, lap.T, atol=1e-14)
        for i in range(g.n_sites):
            for j in range(g.n_sites):
                if i != j and g.distance(i, j) == 1:
                    assert lap[i, j] == -1.0
        evals = np.linalg.eigvalsh(lap)
        assert evals.min() >= -1e-12


# =====================================================================
# wave equation -> oscillator system
# =====================================================================


def test_unit_chain_wave_springs():
    lap = graph_laplacian_oracle(chain(4))
    sys = wave_to_oscillators(lap, c=1.0, a=1.0)
    i, j, kap, _ = sys.pairs
    assert list(zip(i.tolist(), j.tolist())) == [(0, 1), (1, 2), (2, 3)]   # no wall springs
    assert kap == pytest.approx(1.0)


def test_wave_system_matrix_is_scaled_laplacian():
    g = grid([4, 3])
    lap = graph_laplacian_oracle(g)
    c, a = 1.3, 0.4
    sys = wave_to_oscillators(lap, c=c, a=a)
    lhs = _dense(sys.a_oracle())
    rhs = (c / a) ** 2 * _dense(graph_laplacian_oracle(g))
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_wave_springs_symmetric_nonnegative_local():
    g = grid([3, 3])
    sys = wave_to_oscillators(graph_laplacian_oracle(g), c=0.7, a=0.5)
    for i, j, kap, _ in zip(*sys.pairs):
        assert i <= j
        assert kap > 0.0
        assert g.distance(i, j) <= 1


def test_wave_system_from_one_block_matches_one_built_row_by_row():
    """On a 64 x 64 grid the block read gives the arrays the per-row read gives,
    and the Laplacian's counter reads the sum of (len + 1) over all rows."""
    g = grid([64, 64])
    n, c, a = g.n_sites, 1.3, 0.4
    rows = [graph_laplacian_oracle(g).row(i) for i in range(n)]
    by_rows = wave_to_oscillators(local_matrix_from_rows(g, 1, rows.__getitem__), c, a)
    lap = graph_laplacian_oracle(g)
    by_block = wave_to_oscillators(lap, c, a)
    for name in ("masses", "sites", "others", "kappas"):
        new, old = getattr(by_block, name), getattr(by_rows, name)
        assert new.dtype == old.dtype and np.array_equal(new, old)
    assert lap.cost.queries == sum(len(row) + 1 for row in rows)


def _chain_rows(rows: dict):
    """A 3-site chain operator whose row i is rows[i]."""
    return local_matrix_from_rows(chain(3), 1, lambda i: rows[i], norm_bound=4.0)


@pytest.mark.parametrize("rows", [
    {0: [(0, 1.0), (1, -1.0j)], 1: [(0, 1.0j), (1, 1.0)], 2: [(2, 0.0)]},
    {0: [(0, -1.0), (1, 1.0)], 1: [(0, 1.0), (1, -1.0)], 2: [(2, 0.0)]},
    {0: [(0, 0.5), (1, -1.0)], 1: [(0, -1.0), (1, 1.0)], 2: [(2, 0.0)]},
], ids=["complex", "positive-off-diagonal", "negative-row-sum"])
def test_wave_rejects_a_laplacian_that_is_no_spring_network(rows):
    with pytest.raises(PreconditionError):
        wave_to_oscillators(_chain_rows(rows), c=1.0, a=1.0)


@pytest.mark.parametrize("c,a", [(1.0, 0.0), (1.0, -0.5), (0.0, 1.0), (-2.0, 1.0)])
def test_wave_rejects_nonpositive_speed_or_spacing(c, a):
    with pytest.raises(PreconditionError):
        wave_to_oscillators(graph_laplacian_oracle(chain(3)), c=c, a=a)


@pytest.mark.parametrize("c,a", [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0)])
def test_wave_rejects_non_finite_speed_or_spacing(c, a):
    with pytest.raises(PreconditionError):
        wave_to_oscillators(graph_laplacian_oracle(chain(3)), c=c, a=a)


# =====================================================================
# advection
# =====================================================================


def test_small_periodic_advection_matrix():
    h = _dense(advection_hamiltonian([1.0], 1.0, 4, 1))
    assert np.allclose(h, h.conj().T, atol=1e-14)
    assert np.allclose(np.diag(h), 0.0, atol=1e-14)
    for i in range(4):
        j = (i + 1) % 4
        assert h[i, j].real == pytest.approx(0.0, abs=1e-14)
        assert abs(h[i, j].imag) == pytest.approx(0.5)
        assert h[j, i] == pytest.approx(-h[i, j])
    assert h[0, 3] != 0.0  # periodic wraparound present


@pytest.mark.parametrize("velocity,a,n,D", [
    ([0.7], 0.5, 16, 1),
    ([0.4, -0.9], 0.7, 5, 2),
])
def test_advection_norm_bound_and_unitarity(velocity, a, n, D):
    oracle = advection_hamiltonian(velocity, a, n, D)
    dense = _dense(oracle)  # materialization itself validates norm_bound
    assert spectral_norm(dense) <= D * max(abs(v) for v in velocity) / a + 1e-9
    rng = np.random.default_rng(121)
    u = rng.normal(size=n**D) + 1j * rng.normal(size=n**D)
    out = dense_evolve(DenseMatrix(-1j * dense), 1.7, u)
    assert abs(np.linalg.norm(out) - np.linalg.norm(u)) <= 1e-10


# =====================================================================
# Schrodinger
# =====================================================================


def test_free_schrodinger_is_scaled_laplacian_with_bounded_spectrum():
    g = chain(12)
    a = 0.5
    h = schrodinger_hamiltonian(graph_laplacian_oracle(g), np.zeros(12), a)
    dense = _dense(h)
    assert np.abs(dense - _dense(graph_laplacian_oracle(g)) / a**2).max() <= 1e-12
    evals = np.linalg.eigvalsh(dense)
    assert evals.min() >= -1e-12
    assert evals.max() <= 4.0 / a**2 + 1e-12


def test_constant_potential_shifts_spectrum_exactly():
    g = chain(10)
    base = _dense(schrodinger_hamiltonian(graph_laplacian_oracle(g),
                                          np.zeros(10), 1.0))
    shifted = _dense(schrodinger_hamiltonian(graph_laplacian_oracle(g),
                                             np.full(10, 2.5), 1.0))
    assert np.allclose(np.linalg.eigvalsh(shifted),
                       np.linalg.eigvalsh(base) + 2.5, atol=1e-12)


def test_potential_on_the_diagonal_and_norm_preservation():
    g = grid([4, 4])
    rng = np.random.default_rng(122)
    values = rng.uniform(0.0, 2.0, size=16)
    h = schrodinger_hamiltonian(graph_laplacian_oracle(g), values, 0.6)
    dense = _dense(h)  # validates the declared norm_bound densely
    assert np.allclose(np.diag(dense).real - values,
                       np.diag(_dense(graph_laplacian_oracle(g))) / 0.36,
                       atol=1e-12)
    u = rng.normal(size=16) + 1j * rng.normal(size=16)
    out = dense_evolve(DenseMatrix(-1j * dense), 0.9, u)
    assert abs(np.linalg.norm(out) - np.linalg.norm(u)) <= 1e-10


def test_schrodinger_norm_bound_is_laplacian_bound_over_a2_plus_vmax():
    """2(N(1) - 1)/a^2 + V_max from graph_laplacian_oracle, and it dominates the dense norm."""
    rng = np.random.default_rng(123)
    for g in (chain(12), grid([4, 5]), chain(9, "periodic")):
        values = rng.uniform(-1.0, 2.0, size=g.n_sites)
        h = schrodinger_hamiltonian(graph_laplacian_oracle(g), values, 0.6)
        expected = 2.0 * (g.locality_function(1) - 1) / 0.36 + np.abs(values).max()
        assert h.norm_bound == pytest.approx(expected, rel=1e-15)
        assert spectral_norm(_dense(h)) <= h.norm_bound + 1e-9


def test_schrodinger_refuses_a_laplacian_without_norm_bound():
    g = chain(6)
    lap = local_matrix_from_rows(g, 1, lambda i: [(i, 0.0)], hermitian=True)
    with pytest.raises(PreconditionError):
        schrodinger_hamiltonian(lap, np.zeros(6), 0.5)
