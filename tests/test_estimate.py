"""Median-of-means inner-product estimation, plain and through P(A)."""

import numpy as np
import pytest

from glsim import (Polynomial, PreconditionError, VectorOracle, chain,
                   dense_from_oracle, dense_poly_apply, entry_of_poly_apply,
                   evt_gl_estimate, inner_product_estimate, local_matrix_from_rows,
                   rng_stream, sparse_vector_oracle, sq_access_from_dense)

from dense_rows import dense_rows


def _unit(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _random_local_hermitian(rng, n: int):
    graph = chain(n)
    dense = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        dense[i, i] = rng.normal()
        if i + 1 < n:
            v = (rng.normal() + 1j * rng.normal()) / np.sqrt(2.0)
            dense[i, i + 1] = v
            dense[i + 1, i] = np.conj(v)
    bound = max(float(np.abs(dense).sum(axis=1).max()), 1.0)
    return local_matrix_from_rows(graph, 1, dense_rows(dense), hermitian=True,
                                  norm_bound=bound), dense


# =====================================================================
# plain inner products
# =====================================================================


def test_point_mass_overlap_is_estimated_tightly():
    e1 = sq_access_from_dense([0.0, 1.0, 0.0])
    rep = inner_product_estimate(e1, e1, eps=0.1, delta=0.05, seed=51)
    assert abs(rep.value - 1.0) <= 0.1


def test_orthogonal_point_masses_estimate_near_zero():
    w = sq_access_from_dense([0.0, 0.0, 1.0])
    v = sq_access_from_dense([0.0, 1.0, 0.0])
    rep = inner_product_estimate(w, v, eps=0.1, delta=0.05, seed=52)
    assert abs(rep.value) <= 0.1


def test_failure_rate_over_two_hundred_reruns():
    rng = np.random.default_rng(53)
    eps, delta = 0.05, 0.05
    failures = 0
    for run in range(200):
        w_vec, v_vec = _unit(rng, 64), _unit(rng, 64)
        truth = np.vdot(v_vec, w_vec)
        rep = inner_product_estimate(sq_access_from_dense(w_vec),
                                     sq_access_from_dense(v_vec),
                                     eps, delta, seed=5300 + run)
        if abs(rep.value - truth) > eps:
            failures += 1
    assert failures <= 20


def test_report_carries_plan_and_inputs():
    e1 = sq_access_from_dense([1.0, 0.0])
    rep = inner_product_estimate(e1, e1, eps=0.2, delta=0.1, seed=54)
    assert rep.eps == 0.2 and rep.delta == 0.1 and rep.seed == 54
    # ceil(32 / eps^2) draws per batch, ceil(8 ln(2 / delta)) batches
    assert rep.repetitions == 24 and rep.samples_used == 800 * 24


def test_zeta_beyond_budget_rejected():
    rng = np.random.default_rng(55)
    vec = _unit(rng, 16)
    v = sq_access_from_dense(vec, zeta=0.05)  # eps/9 with eps=0.1 allows 0.0111
    w = sq_access_from_dense(vec)
    with pytest.raises(PreconditionError):
        inner_product_estimate(w, v, eps=0.1, delta=0.05, seed=56)


def test_dimension_mismatch_rejected():
    w = sq_access_from_dense([1.0, 0.0])
    v = sq_access_from_dense([1.0, 0.0, 0.0])
    with pytest.raises(PreconditionError):
        inner_product_estimate(w, v, eps=0.1, delta=0.1, seed=57)


def _pinned_v(kind: str, rng):
    """(v oracle, dense v) for the estimator pin: dense with a zero entry, perturbed, sparse."""
    if kind == "sparse":
        entries = {int(i): complex(rng.normal(), rng.normal())
                   for i in rng.choice(40, size=6, replace=False)}
        dense = np.zeros(40, dtype=np.complex128)
        dense[list(entries)] = list(entries.values())
        return sparse_vector_oracle(40, entries), dense
    dense = _unit(rng, 24)
    dense[5] = 0.0
    return sq_access_from_dense(dense, 0.02 if kind == "perturbed" else 0.0), dense


@pytest.mark.parametrize("kind", ["dense", "perturbed", "sparse"])
def test_estimate_is_a_median_of_means_over_the_sampler_draws(kind):
    """With no more table sites than draws per batch, the value is, bit for bit,
    a median of means over v.sample_counts' counts, and w is queried once per
    distinct counted site, in increasing order."""
    rng = np.random.default_rng(67)
    v, v_vec = _pinned_v(kind, rng)
    w_vec = rng.normal(size=v_vec.size) + 1j * rng.normal(size=v_vec.size)
    w_vec /= 2.0 * np.linalg.norm(w_vec)
    queried = []

    def w_fn(i):
        queried.append(i)
        return w_vec[i]

    w = VectorOracle(v_vec.size, w_fn, norm=None)
    rep = inner_product_estimate(w, v, eps=0.2, delta=0.1, seed=68)
    cost = v.cost.snapshot()
    batch = rep.samples_used // rep.repetitions

    assert v.support.size <= batch
    hit, counts = v.sample_counts(rng_stream(68, 0), batch, rep.repetitions)
    x = _x_table(v, v_vec, w_vec, hit)[hit]
    counts = counts.astype(np.float64)
    expected = complex(float(np.median(counts @ x.real / batch)),
                       float(np.median(counts @ x.imag / batch)))
    assert rep.value == expected
    assert queried == v.support[hit].tolist()
    assert cost["queries"] == hit.size
    assert cost["samples"] == rep.samples_used


@pytest.mark.parametrize("kind", ["dense", "perturbed"])
def test_estimate_over_a_table_larger_than_a_batch_averages_positions(kind):
    """With more table sites than draws per batch, the value is, bit for bit, a
    median of means over v.sample_positions' draws, and w is queried once per
    distinct drawn site, in increasing order."""
    rng = np.random.default_rng(69)
    v, v_vec = _pinned_v(kind, rng)
    w_vec = rng.normal(size=v_vec.size) + 1j * rng.normal(size=v_vec.size)
    w_vec /= 2.0 * np.linalg.norm(w_vec)
    queried = []

    def w_fn(i):
        queried.append(i)
        return w_vec[i]

    w = VectorOracle(v_vec.size, w_fn, norm=None)
    rep = inner_product_estimate(w, v, eps=1.5, delta=0.1, seed=70)
    cost = v.cost.snapshot()
    batch = rep.samples_used // rep.repetitions

    assert v.support.size > batch
    pos = v.sample_positions(rng_stream(70, 0), rep.samples_used)
    hit = np.unique(pos)
    x = _x_table(v, v_vec, w_vec, hit)
    means = x[pos].reshape(rep.repetitions, batch).mean(axis=1)
    assert rep.value == complex(float(np.median(means.real)), float(np.median(means.imag)))
    assert queried == v.support[hit].tolist()
    assert cost["queries"] == hit.size
    assert cost["samples"] == rep.samples_used


def _x_table(v, v_vec, w_vec, hit):
    """X = conj(v_i) w_i ||v||^2 / |v_i|^2 at the table positions hit, zero elsewhere."""
    sites = v.support[hit]
    vq, wq = v_vec[sites], w_vec[sites]
    vnorm = v.norm()
    x = np.zeros(v.support.size, dtype=np.complex128)
    x[hit] = np.conj(vq) * wq * (vnorm * vnorm) / np.abs(vq) ** 2
    return x


# =====================================================================
# estimation through P(A)
# =====================================================================


def test_identity_polynomial_reduces_to_plain_estimate():
    rng = np.random.default_rng(58)
    a, _ = _random_local_hermitian(rng, 24)
    u_vec, v_vec = _unit(rng, 24), _unit(rng, 24)
    p = Polynomial((1.0,), sup_bound=1.0)
    u = sq_access_from_dense(u_vec)
    v = sq_access_from_dense(v_vec)
    through_a = evt_gl_estimate(a, p, u, v, eps=0.1, delta=0.05, seed=59)
    plain = inner_product_estimate(sq_access_from_dense(u_vec),
                                   sq_access_from_dense(v_vec),
                                   eps=0.1, delta=0.05, seed=59)
    assert through_a.value == plain.value


def test_point_mass_v_recovers_single_entry():
    rng = np.random.default_rng(60)
    a, dense = _random_local_hermitian(rng, 32)
    u_vec = _unit(rng, 32)
    i = 11
    c = 0.6 + 0.3j
    v = sparse_vector_oracle(32, {i: c})
    p_coeffs = np.zeros(9)
    p_coeffs[8] = 1.0
    p = Polynomial(tuple(p_coeffs), basis="chebyshev",
                   interval=(-a.norm_bound, a.norm_bound), sup_bound=1.0)
    rep = evt_gl_estimate(a, p, sq_access_from_dense(u_vec), v,
                          eps=0.1, delta=0.05, seed=61)
    entry = entry_of_poly_apply(a, p, sq_access_from_dense(u_vec), i)
    # every draw hits i, so the estimate is conj(v_i) w_i ||v||^2 / |v_i|^2 exactly
    expected = np.conj(c) * entry * abs(c) ** 2 / abs(c) ** 2
    assert abs(rep.value - expected) <= 1e-12


def test_chebyshev_t8_over_one_hundred_reruns():
    rng = np.random.default_rng(62)
    a, dense = _random_local_hermitian(rng, 64)
    u_vec, v_vec = _unit(rng, 64), _unit(rng, 64)
    p_coeffs = np.zeros(9)
    p_coeffs[8] = 1.0
    p = Polynomial(tuple(p_coeffs), basis="chebyshev",
                   interval=(-a.norm_bound, a.norm_bound), sup_bound=1.0)
    truth = np.vdot(v_vec, dense_poly_apply(dense_from_oracle(a), p, u_vec))
    eps, delta = 0.1, 0.05
    hits = 0
    for run in range(100):
        rep = evt_gl_estimate(a, p, sq_access_from_dense(u_vec),
                              sq_access_from_dense(v_vec), eps, delta,
                              seed=6200 + run)
        if abs(rep.value - truth) <= eps:
            hits += 1
    assert hits >= 90


def test_sup_bound_is_required_and_capped():
    rng = np.random.default_rng(63)
    a, _ = _random_local_hermitian(rng, 8)
    u = sq_access_from_dense(_unit(rng, 8))
    v = sq_access_from_dense(_unit(rng, 8))
    no_bound = Polynomial((0.0, 1.0), basis="chebyshev",
                          interval=(-a.norm_bound, a.norm_bound))
    with pytest.raises(PreconditionError):
        evt_gl_estimate(a, no_bound, u, v, eps=0.1, delta=0.05, seed=64)
    too_big = Polynomial((0.0, 3.0), basis="chebyshev",
                         interval=(-a.norm_bound, a.norm_bound), sup_bound=3.0)
    with pytest.raises(PreconditionError):
        evt_gl_estimate(a, too_big, u, v, eps=0.1, delta=0.05, seed=64)


def test_same_seed_reproduces_estimate_exactly():
    rng = np.random.default_rng(65)
    vec_w, vec_v = _unit(rng, 48), _unit(rng, 48)
    reps = [inner_product_estimate(sq_access_from_dense(vec_w),
                                   sq_access_from_dense(vec_v),
                                   eps=0.05, delta=0.05, seed=66).value
            for _ in range(2)]
    assert reps[0] == reps[1]
