"""Vector sq-access, perturbed samplers, local matrix oracles, cost metering."""

import numpy as np
import pytest

from glsim import (CostCounter, LocalityError, OracleInconsistencyError,
                   PreconditionError, chain, induced_distribution,
                   local_matrix_from_dense, local_matrix_from_rows,
                   perturbed_sq_access, read_vector_csv, rng_stream,
                   scale_matrix_oracle, sparse_vector_oracle,
                   sq_access_from_dense, tv_distance, write_vector_csv)

N_DRAWS = 100_000


# =====================================================================
# induced distributions and TV distance
# =====================================================================


def test_induced_distribution_basis_vector():
    p = induced_distribution([1.0, 0.0, 0.0])
    assert np.allclose(p.probs, [1.0, 0.0, 0.0])


def test_induced_distribution_symmetric():
    s = 1.0 / np.sqrt(2.0)
    p = induced_distribution([s, s])
    assert np.allclose(p.probs, [0.5, 0.5])


def test_induced_distribution_three_four():
    p = induced_distribution([3.0, 4.0])
    assert np.allclose(p.probs, [0.36, 0.64])


def test_tv_distance_identical_is_zero():
    p = induced_distribution([0.6, 0.8])
    assert tv_distance(p, p) == 0.0


def test_tv_distance_disjoint_is_one():
    p = induced_distribution([1.0, 0.0])
    q = induced_distribution([0.0, 1.0])
    assert tv_distance(p, q) == pytest.approx(1.0)


def test_tv_distance_direct_sum():
    p = induced_distribution([np.sqrt(0.5), np.sqrt(0.5)])
    q = induced_distribution([np.sqrt(0.75), np.sqrt(0.25)])
    assert tv_distance(p, q) == pytest.approx(0.25)


# =====================================================================
# exact sq-access
# =====================================================================


def test_point_mass_sampler_always_hits_support():
    u = sq_access_from_dense([0.0, 1.0, 0.0])
    draws = u.sample_many(rng_stream(3, 0), 1000)
    assert np.all(draws == 1)


def test_uniform_sampler_frequencies():
    u = sq_access_from_dense([0.5, 0.5, 0.5, 0.5])
    draws = u.sample_many(rng_stream(4, 0), N_DRAWS)
    freqs = np.bincount(draws, minlength=4) / N_DRAWS
    assert np.all(np.abs(freqs - 0.25) <= 0.01)


def test_random_vector_empirical_tv():
    rng = np.random.default_rng(11)
    vec = rng.normal(size=64) + 1j * rng.normal(size=64)
    u = sq_access_from_dense(vec)
    draws = u.sample_many(rng_stream(11, 0), N_DRAWS)
    emp = np.bincount(draws, minlength=64) / N_DRAWS
    tv = 0.5 * np.abs(emp - induced_distribution(vec).probs).sum()
    assert tv <= 0.02


def test_norm_matches_euclidean():
    rng = np.random.default_rng(12)
    vec = rng.normal(size=17) + 1j * rng.normal(size=17)
    u = sq_access_from_dense(vec)
    assert abs(u.norm() - np.linalg.norm(vec)) <= 1e-12


def test_queries_return_entries_and_count_cost():
    cost = CostCounter()
    u = sq_access_from_dense([1.0, 2.0j, -3.0], cost=cost)
    assert u.query(1) == 2.0j
    assert u.query(2) == -3.0
    assert cost.snapshot()["queries"] == 2


def test_zero_vector_rejected():
    with pytest.raises(PreconditionError):
        sq_access_from_dense(np.zeros(4))


def test_sample_without_sampler_or_rng_raises():
    u = sq_access_from_dense([1.0, 1.0])
    with pytest.raises(PreconditionError):
        u.sample()  # no seed was supplied at build time
    bare = sq_access_from_dense([1.0, 1.0], seed=5)
    assert bare.sample() in (0, 1)


# =====================================================================
# perturbed sq-access
# =====================================================================


def test_zeta_zero_matches_exact_sampler_bitwise():
    rng = np.random.default_rng(13)
    vec = rng.normal(size=20)
    exact = sq_access_from_dense(vec)
    pert = perturbed_sq_access(vec, zeta=0.0)
    a = exact.sample_many(rng_stream(9, 0), 5000)
    b = pert.sample_many(rng_stream(9, 0), 5000)
    assert np.array_equal(a, b)
    assert pert.zeta == 0.0


def test_perturbed_two_point_law():
    """(1,1)/sqrt2 with zeta=0.1 shifts mass 0.1 from index 0 to index 1."""
    s = 1.0 / np.sqrt(2.0)
    pert = perturbed_sq_access([s, s], zeta=0.1)
    assert pert.zeta == 0.1
    assert pert.query(0) == pytest.approx(s)
    assert pert.norm() == pytest.approx(1.0)
    draws = pert.sample_many(rng_stream(14, 0), N_DRAWS)
    freq1 = np.mean(draws == 1)
    assert abs(freq1 - 0.6) <= 0.01


def test_perturbed_tv_is_zeta():
    rng = np.random.default_rng(15)
    vec = rng.normal(size=32) + 1j * rng.normal(size=32)
    zeta = 0.05
    pert = perturbed_sq_access(vec, zeta=zeta)
    draws = pert.sample_many(rng_stream(15, 0), 2 * N_DRAWS)
    emp = np.bincount(draws, minlength=32) / (2 * N_DRAWS)
    tv = 0.5 * np.abs(emp - induced_distribution(vec).probs).sum()
    assert abs(tv - zeta) <= 0.02


def test_perturbation_needs_mass_to_move():
    with pytest.raises(PreconditionError):
        perturbed_sq_access([1.0, 0.0], zeta=0.1)


# =====================================================================
# sparse sq-access
# =====================================================================


def test_sparse_oracle_is_lazy_in_dimension():
    u = sparse_vector_oracle(10**9, {5: 3.0, 7: 4.0})
    assert u.query(5) == 3.0
    assert u.query(123456) == 0.0
    assert u.norm() == pytest.approx(5.0)
    draws = u.sample_many(rng_stream(16, 0), 2000)
    assert set(np.unique(draws)) <= {5, 7}
    assert abs(np.mean(draws == 7) - 0.64) <= 0.05


def test_sparse_zero_vector_rejected():
    with pytest.raises(PreconditionError):
        sparse_vector_oracle(8, {})


# =====================================================================
# local matrix oracles
# =====================================================================


def _tridiag_dense(n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        m[i, i] = 0.5
        if i + 1 < n:
            m[i, i + 1] = 1.0 - 0.25j
            m[i + 1, i] = 1.0 + 0.25j
    return m


def test_rows_sorted_local_and_hermitian_consistent():
    n = 12
    dense = _tridiag_dense(n)
    a = local_matrix_from_dense(dense, chain(n), 1, hermitian=True)
    for i in range(n):
        row = a.row(i)
        cols = [j for j, _ in row]
        assert cols == sorted(cols)
        assert len(row) <= a.graph.locality_function(1)
        for j, v in row:
            assert a.graph.distance(i, j) <= 1
            assert v == dense[i, j]


def test_row_cost_is_length_plus_one():
    cost = CostCounter()
    a = local_matrix_from_dense(_tridiag_dense(6), chain(6), 1,
                                hermitian=True, cost=cost)
    row = a.row(2)
    assert cost.snapshot()["queries"] == len(row) + 1


def test_locality_violation_detected():
    def row_fn(i):
        return [(j, 1.0) for j in range(8)]  # dense row: way outside r0 = 1

    a = local_matrix_from_rows(chain(8), 1, row_fn, hermitian=True,
                               check_locality=True)
    with pytest.raises(LocalityError):
        a.row(0)


def test_duplicate_column_detected():
    a = local_matrix_from_rows(chain(4), 1, lambda i: [(i, 1.0), (i, 2.0)],
                               hermitian=True)
    with pytest.raises(OracleInconsistencyError):
        a.row(1)


def test_scale_oracle_tracks_structure_and_bound():
    a = local_matrix_from_dense(_tridiag_dense(5), chain(5), 1,
                                hermitian=True, norm_bound=3.0)
    b = scale_matrix_oracle(a, -1j)
    assert b.anti_hermitian and not b.hermitian
    assert b.norm_bound == pytest.approx(3.0)
    assert b.row(2) == tuple((j, -1j * v) for j, v in a.row(2))
    c = scale_matrix_oracle(b, 1j)  # back to hermitian
    assert c.hermitian and not c.anti_hermitian


def test_scaled_oracle_shares_cost_counter():
    cost = CostCounter()
    a = local_matrix_from_dense(_tridiag_dense(5), chain(5), 1,
                                hermitian=True, cost=cost)
    b = scale_matrix_oracle(a, 2.0)
    b.row(1)
    assert cost.snapshot()["queries"] > 0


# =====================================================================
# vector CSV round trip
# =====================================================================


def test_vector_csv_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    vec = rng.normal(size=9) + 1j * rng.normal(size=9)
    path = tmp_path / "v.csv"
    write_vector_csv(path, vec)
    back = read_vector_csv(path)
    assert np.allclose(back, vec, atol=1e-12)
