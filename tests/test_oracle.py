"""Dense reference oracle: materialization, evolution, polynomial application."""

import numpy as np
import pytest

from glsim import (DenseMatrix, LocalityError, OracleInconsistencyError, Polynomial, chain,
                   dense_cap, dense_cos_sqrt_apply, dense_evolve,
                   dense_from_oracle, dense_poly_apply, dense_poly_matrix,
                   exp_poly, general, grid, local_matrix_from_dense,
                   local_matrix_from_rows, spectral_norm)


def _random_hermitian(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


# =====================================================================
# materialization
# =====================================================================


def test_identity_oracle_materializes_to_identity():
    a = local_matrix_from_rows(chain(6), 0, lambda i: [(i, 1.0)],
                               hermitian=True, norm_bound=1.0)
    assert np.array_equal(dense_from_oracle(a).entries, np.eye(6))


def test_round_trip_from_dense_is_exact():
    rng = np.random.default_rng(31)
    g = grid([3, 4])
    dense = np.zeros((12, 12), dtype=np.complex128)
    for i in range(12):
        for j in g.ball(i, 1):
            dense[i, j] = rng.normal() + 1j * rng.normal()
    dense = (dense + dense.conj().T) / 2.0
    a = local_matrix_from_dense(dense, g, 1, hermitian=True)
    assert np.array_equal(dense_from_oracle(a).entries, dense)


def test_materialization_rejects_a_nonzero_entry_outside_r0():
    """The oracle does not check locality itself; the dense reader does, on nonzero entries."""
    a = local_matrix_from_rows(chain(6), 1,
                               lambda i: [(i, 1.0), ((i + 3) % 6, 0.5 if i == 4 else 0.0)])
    with pytest.raises(LocalityError, match=r"\(4,1\)"):
        dense_from_oracle(a)


def test_materialization_validates_declared_norm_bound():
    a = local_matrix_from_rows(chain(4), 0, lambda i: [(i, 1.0)],
                               hermitian=True, norm_bound=0.1)
    with pytest.raises(OracleInconsistencyError):
        dense_from_oracle(a)


def test_materialization_validates_hermitian_flag():
    a = local_matrix_from_rows(chain(3), 1,
                               lambda i: [(j, 1.0j) for j in (i - 1, i, i + 1)
                                          if 0 <= j < 3],
                               hermitian=True)
    with pytest.raises(OracleInconsistencyError):
        dense_from_oracle(a)


def test_dense_cap_guard(monkeypatch):
    monkeypatch.setenv("GLSIM_DENSE_CAP", "8")
    assert dense_cap() == 8
    a = local_matrix_from_rows(chain(9), 0, lambda i: [(i, 1.0)], hermitian=True)
    with pytest.raises(ValueError):
        dense_from_oracle(a)


def test_spectral_norm_of_known_matrix():
    assert spectral_norm(np.diag([3.0, -7.0, 2.0])) == pytest.approx(7.0)


# =====================================================================
# evolution
# =====================================================================


def test_evolve_at_t_zero_is_identity():
    rng = np.random.default_rng(32)
    m = DenseMatrix(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    u = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert np.allclose(dense_evolve(m, 0.0, u), u, atol=1e-12)


def test_anti_hermitian_evolution_is_unitary():
    rng = np.random.default_rng(33)
    h = _random_hermitian(rng, 12)
    m = DenseMatrix(1j * h)
    u = rng.normal(size=12) + 1j * rng.normal(size=12)
    for t in (0.3, 1.7, 6.0):
        assert abs(np.linalg.norm(dense_evolve(m, t, u)) - np.linalg.norm(u)) <= 1e-10


def test_rotation_quarter_turn():
    m = DenseMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    out = dense_evolve(m, np.pi / 2.0, np.array([1.0, 0.0]))
    assert np.abs(out - np.array([0.0, -1.0])).max() <= 1e-10


def test_eig_and_series_methods_agree():
    rng = np.random.default_rng(34)
    h = _random_hermitian(rng, 48)
    m = DenseMatrix(1j * h)
    u = rng.normal(size=48) + 1j * rng.normal(size=48)
    a = dense_evolve(m, 2.3, u, method="eig")
    b = dense_evolve(m, 2.3, u, method="series")
    assert np.abs(a - b).max() <= 1e-9


# =====================================================================
# polynomial application
# =====================================================================


def test_constant_one_polynomial_returns_u():
    rng = np.random.default_rng(35)
    m = DenseMatrix(_random_hermitian(rng, 7))
    u = rng.normal(size=7)
    assert np.allclose(dense_poly_apply(m, Polynomial((1.0,)), u), u, atol=1e-14)


def test_linear_polynomial_returns_matrix_times_u():
    rng = np.random.default_rng(36)
    m = DenseMatrix(_random_hermitian(rng, 7))
    u = rng.normal(size=7) + 1j * rng.normal(size=7)
    out = dense_poly_apply(m, Polynomial((0.0, 1.0)), u)
    assert np.abs(out - m.entries @ u).max() <= 1e-12


def test_exp_poly_apply_matches_dense_evolve():
    rng = np.random.default_rng(37)
    h = _random_hermitian(rng, 24)
    nrm = spectral_norm(h)
    u = rng.normal(size=24) + 1j * rng.normal(size=24)
    u /= np.linalg.norm(u)
    t = 1.0
    p = exp_poly(nrm, t, 1e-10)
    via_poly = dense_poly_apply(DenseMatrix(h), p, u)
    via_exp = dense_evolve(DenseMatrix(1j * h), t, u)
    assert np.abs(via_poly - via_exp).max() <= 2e-10


def test_poly_matrix_matches_columnwise_apply():
    rng = np.random.default_rng(38)
    h = _random_hermitian(rng, 6)
    p = Polynomial((0.5, -1.0, 0.25))
    pm = dense_poly_matrix(DenseMatrix(h), p)
    expected = 0.5 * np.eye(6) - h + 0.25 * (h @ h)
    assert np.abs(pm - expected).max() <= 1e-12


# =====================================================================
# wave kernels
# =====================================================================


def test_cos_and_sinc_sqrt_on_diagonal_matrix():
    w = np.array([0.0, 1.0, 2.5])
    m = DenseMatrix(np.diag(w**2))
    u = np.array([1.0, 1.0, 1.0], dtype=np.complex128)
    t = 0.9
    assert np.allclose(dense_cos_sqrt_apply(m, t, u), np.cos(w * t), atol=1e-12)


def test_cos_sqrt_solves_second_order_dynamics():
    """y(t) = cos(sqrt(A)t) y0 satisfies y'' = -A y (checked by central difference)."""
    rng = np.random.default_rng(39)
    g = rng.normal(size=(10, 10))
    a = DenseMatrix(g @ g.T)  # PSD
    y0 = rng.normal(size=10)
    t, h = 1.3, 1e-4
    ys = [dense_cos_sqrt_apply(a, t + s, y0) for s in (-h, 0.0, h)]
    ydd = (ys[0] - 2.0 * ys[1] + ys[2]) / h**2
    assert np.abs(ydd + a.entries @ ys[1]).max() <= 1e-4


def test_two_mass_system_materializes_to_pinned_matrix():
    from glsim import build_system

    sys = build_system(chain(2), [1.0, 1.0], {(0, 1): 1.0}, 1)
    dense = dense_from_oracle(sys.a_oracle())
    assert np.allclose(dense.entries, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)


def test_general_graph_oracle_materializes():
    g = general(3, [(0, 1), (1, 2), (0, 2)])
    a = local_matrix_from_rows(
        g, 1, lambda i: [(j, 1.0) for j in sorted(g.ball(i, 1))],
        hermitian=True, norm_bound=3.0)
    assert np.array_equal(dense_from_oracle(a).entries, np.ones((3, 3)))
