"""Oversampling, rejection sampling, and sampling from time-evolved states."""

import numpy as np
import pytest

from glsim import (DenseMatrix, EvolvedSampler, OversamplerHandle,
                   PreconditionError, SiteGraph, chain, dense_evolve,
                   dense_from_oracle, dense_poly_apply, exp_poly, grid,
                   lightcone_oversampler, local_matrix_from_rows,
                   rejection_sample, rng_stream, sparse_vector_oracle,
                   sq_access_from_dense, tv_error_bound)
from glsim.access import random_local_pair

from dense_rows import dense_rows


def _unit(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _antihermitian_shift(n: int, boundary: str = "open"):
    """i(S + S^dag): anti-Hermitian hopping with norm bound 2."""
    def row_fn(i):
        out = []
        left, right = i - 1, i + 1
        if boundary == "periodic":
            left, right = (i - 1) % n, (i + 1) % n
        if 0 <= left < n:
            out.append((left, 1j))
        if 0 <= right < n and right != left:
            out.append((right, 1j))
        return out

    return local_matrix_from_rows(chain(n, boundary), 1, row_fn,
                                  norm_bound=2.0, anti_hermitian=True)


def _uniform_handle(n: int) -> OversamplerHandle:
    return OversamplerHandle(
        dimension=n,
        draw_many_fn=lambda rng, count: rng.integers(0, n, size=count),
        mass_fn=lambda i: 1.0 / n,
        phi=float(n),
    )


# =====================================================================
# the TV error bound
# =====================================================================


def test_tv_bound_zero_eps():
    assert tv_error_bound(0.0, 0.7) == 0.0


def test_tv_bound_pinned_value():
    assert tv_error_bound(0.01, 1.0) == pytest.approx(0.02)


def test_tv_bound_holds_densely_for_random_antihermitian():
    rng = np.random.default_rng(71)
    n, t, eps = 32, 1.5, 1e-3
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (g - g.conj().T) / 2.0
    psi = _unit(rng, n)
    nrm = float(np.linalg.norm(a, 2))
    p = exp_poly(nrm, t, eps)
    via_poly = dense_poly_apply(DenseMatrix(-1j * a), p, psi)
    via_exp = dense_evolve(DenseMatrix(a), t, psi)
    p_poly, p_exp = np.abs(via_poly) ** 2, np.abs(via_exp) ** 2
    tv = 0.5 * np.abs(p_poly / p_poly.sum() - p_exp / p_exp.sum()).sum()
    assert tv <= tv_error_bound(eps, float(np.linalg.norm(via_exp)))


# =====================================================================
# rejection sampling against an explicit handle
# =====================================================================


def test_single_support_target_always_returns_its_site():
    u = sq_access_from_dense([0.0, 0.0, 0.0, 1.0])
    handle = _uniform_handle(4)
    for k in range(20):
        r = rejection_sample(handle, u, phi=4.0, alpha_min=1.0, delta=1e-9,
                             seed=72, stream_key=(k,))
        assert r.accepted and r.site == 3


def test_perfect_oversampler_accepts_first_trial():
    rng = np.random.default_rng(73)
    vec = _unit(rng, 8)
    u = sq_access_from_dense(vec)
    probs = np.abs(vec) ** 2

    handle = OversamplerHandle(
        dimension=8,
        draw_many_fn=sq_access_from_dense(vec).sample_many,
        mass_fn=lambda i: float(probs[i]),
        phi=1.0,
    )
    for k in range(20):
        r = rejection_sample(handle, u, phi=1.0, alpha_min=1.0, delta=1e-9,
                             seed=74, stream_key=(k,))
        assert r.accepted and r.trials == 1


def test_trials_are_tested_lazily():
    """An acceptance at trial 1 computes one oversampler mass, not one per site of the chunk."""
    n = 64
    masses_computed = []

    def mass_fn(i):
        masses_computed.append(i)
        return 1.0 / n

    handle = OversamplerHandle(
        dimension=n,
        draw_many_fn=lambda rng, count: rng.integers(0, n, size=count),
        mass_fn=mass_fn,
        phi=1.0,
    )
    u = sq_access_from_dense(np.full(n, 1.0 / 8.0))  # |u_i|^2 = p_i: every trial accepts
    r = rejection_sample(handle, u, phi=1.0, alpha_min=1.0, delta=1e-6, seed=93)
    assert r.accepted and r.trials == 1
    assert masses_computed == [r.site]
    assert u.cost.snapshot()["queries"] == 1


def test_observed_oversampling_violation_is_an_error():
    u = sq_access_from_dense([1.0, 0.0, 0.0, 0.0])
    handle = _uniform_handle(4)
    with pytest.raises(PreconditionError):
        rejection_sample(handle, u, phi=2.0, alpha_min=1.0, delta=1e-9, seed=75)


def test_budget_exhaustion_reports_failure():
    u = sq_access_from_dense([0.05, 0.0, 0.0, 0.0])  # norm far below alpha_min
    handle = _uniform_handle(4)
    r = rejection_sample(handle, u, phi=4.0, alpha_min=1.0, delta=0.5, seed=76)
    assert not r.accepted and r.site is None and r.trials > 0


def test_accepted_law_matches_target(subtests=None):
    rng = np.random.default_rng(77)
    n = 64
    vec = _unit(rng, n)
    a = _antihermitian_shift(n)
    psi = sq_access_from_dense(vec)
    handle = lightcone_oversampler(a, 2, psi, norm_bound_P=1.0)
    u = sq_access_from_dense(vec)
    draws = []
    for k in range(100_000):
        r = rejection_sample(handle, u, handle.phi, alpha_min=1.0, delta=1e-6,
                             seed=78, chunk=32, stream_key=(k,))
        assert r.accepted
        draws.append(r.site)
    emp = np.bincount(np.array(draws), minlength=n) / len(draws)
    tv = 0.5 * np.abs(emp - np.abs(vec) ** 2).sum()
    assert tv <= 0.02


# =====================================================================
# the light-cone oversampler
# =====================================================================


def test_zero_radius_oversampler_is_psi_law():
    rng = np.random.default_rng(79)
    vec = _unit(rng, 16)
    a = _antihermitian_shift(16)
    handle = lightcone_oversampler(a, 0, sq_access_from_dense(vec),
                                   norm_bound_P=1.0)
    for i in range(16):
        assert handle.mass_query(i) == pytest.approx(abs(vec[i]) ** 2, abs=1e-14)


def test_point_state_smears_uniformly_over_ball():
    a = _antihermitian_shift(64)
    psi = sparse_vector_oracle(64, {5: 1.0})
    handle = lightcone_oversampler(a, 2, psi, norm_bound_P=1.0)
    for i in range(64):
        expected = 0.2 if 3 <= i <= 7 else 0.0
        assert handle.mass_query(i) == pytest.approx(expected, abs=1e-14)
    draws = handle.draw_many(rng_stream(792, 0), 20_000)
    freqs = np.bincount(draws, minlength=64) / 20_000
    assert np.all(np.abs(freqs[3:8] - 0.2) <= 0.02)
    assert freqs[np.r_[0:3, 8:64]].max() == 0.0


def test_oversampler_mass_builds_balls_only_around_psi(monkeypatch):
    """A point psi on a 64x64 grid at d = 5: a mass query builds ball(i) and the one
    ball around psi's site, not a ball around each of the 61 sites of ball(i)."""
    side, d = 64, 5
    centre = (side // 2) * side + side // 2
    a = local_matrix_from_rows(grid([side, side]), 1, lambda i: [(i, 1j)],
                               norm_bound=1.0, anti_hermitian=True)
    psi = sparse_vector_oracle(side * side, {centre: 1.0})
    handle = lightcone_oversampler(a, d, psi, norm_bound_P=1.0)
    ball_calls = []
    real_ball = SiteGraph.ball
    monkeypatch.setattr(SiteGraph, "ball",
                        lambda self, i, r: ball_calls.append(i) or real_ball(self, i, r))
    mass = handle.mass_query(centre + 2)
    assert ball_calls == [centre + 2, centre]
    assert psi.cost.snapshot()["queries"] == 61
    assert mass == 1.0 / 61


def test_grouped_draws_match_the_per_draw_definition():
    """draw_many groups draws by psi site; each output is ball(js[i])[floor(u[i] |ball|)]."""
    rng = np.random.default_rng(801)
    n, d = 300, 3
    psi = sq_access_from_dense(_unit(rng, n))
    a = _antihermitian_shift(n)
    handle = lightcone_oversampler(a, d, psi, norm_bound_P=1.0)
    draws = handle.draw_many(rng_stream(802, 0), 5_000)
    ref = rng_stream(802, 0)
    js = psi.sample_many(ref, 5_000)
    u = ref.random(5_000)
    expected = []
    for j, x in zip(js.tolist(), u.tolist()):
        ball = a.graph.ball(j, d)
        expected.append(ball[int(x * len(ball))])
    assert np.unique(js).size > 250
    assert draws.tolist() == expected


def test_oversampler_masses_sum_to_one_and_dominate_target():
    rng = np.random.default_rng(80)
    n = 48
    vec = _unit(rng, n)
    dense = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        dense[i, i] = rng.normal()
        if i + 1 < n:
            v = (rng.normal() + 1j * rng.normal()) / np.sqrt(2.0)
            dense[i, i + 1] = v
            dense[i + 1, i] = np.conj(v)
    bound = max(float(np.abs(dense).sum(axis=1).max()), 1.0)
    a = local_matrix_from_rows(chain(n), 1, dense_rows(dense), hermitian=True,
                               norm_bound=bound)
    eps = 1e-6
    p = exp_poly(bound, 1.0, eps)
    handle = lightcone_oversampler(a, p.degree, sq_access_from_dense(vec),
                                   norm_bound_P=1.0 + eps)
    masses = np.array([handle.mass_query(i) for i in range(n)])
    assert abs(masses.sum() - 1.0) <= 1e-10
    target = dense_poly_apply(dense_from_oracle(a), p, vec)
    assert np.all(np.abs(target) ** 2 <= handle.phi * masses + 1e-15)


# =====================================================================
# the evolved-state sampler
# =====================================================================


def test_t_zero_sampler_reproduces_initial_law():
    rng = np.random.default_rng(81)
    n = 16
    vec = _unit(rng, n)
    a = _antihermitian_shift(n)
    sampler = EvolvedSampler(a, 0.0, sq_access_from_dense(vec),
                             eps=0.05, alpha_min=1.0, delta=1e-6, seed=82)
    assert sampler.poly.degree == 0
    results = sampler.draw_many(30_000)
    sites = np.array([r.site for r in results if r.accepted])
    assert sites.size == 30_000
    emp = np.bincount(sites, minlength=n) / sites.size
    tv = 0.5 * np.abs(emp - np.abs(vec) ** 2).sum()
    assert tv <= 0.02


def test_evolved_sampler_tv_against_dense_law():
    rng = np.random.default_rng(83)
    n, t, eps = 16, 1.0, 0.05
    vec = _unit(rng, n)
    a = _antihermitian_shift(n)
    sampler = EvolvedSampler(a, t, sq_access_from_dense(vec),
                             eps=eps, alpha_min=1.0, delta=1e-6, seed=84)
    results = sampler.draw_many(20_000)
    sites = np.array([r.site for r in results if r.accepted])
    assert sites.size == 20_000
    dense = dense_from_oracle(a)
    evolved = dense_evolve(dense, t, vec)
    truth = np.abs(evolved) ** 2 / np.linalg.norm(evolved) ** 2
    emp = np.bincount(sites, minlength=n) / sites.size
    tv = 0.5 * np.abs(emp - truth).sum()
    assert tv <= tv_error_bound(eps, 1.0) + 3.0 * np.sqrt(n / 20_000)
    assert sampler.tv_bound == pytest.approx(2.0 * eps)


def test_phi_is_sup_bound_squared_times_ball_size():
    a = _antihermitian_shift(64)
    psi = sparse_vector_oracle(64, {32: 1.0})
    sampler = EvolvedSampler(a, 2.0, psi, eps=0.01, alpha_min=1.0, delta=1e-3, seed=91)
    d = sampler.poly.degree
    assert 1.0 < sampler.poly.sup_bound <= 1.01
    assert sampler.phi == sampler.poly.sup_bound ** 2 * a.graph.locality_function(d)


@pytest.mark.parametrize("graph", [chain(24), chain(20, "periodic"), grid([5, 6])],
                         ids=["chain", "periodic-chain", "grid"])
@pytest.mark.parametrize("eps", [1e-3, 0.1, 0.5])
def test_certified_phi_oversamples_the_evolved_state_densely(graph, eps):
    """|(P psi)_i|^2 <= phi p_i at phi = sup_bound^2 N(d r0), for eps up to alpha_min / 2."""
    rng = np.random.default_rng([94, graph.n_sites, int(eps * 1000)])
    for t in (0.4, 1.3):
        a, _ = random_local_pair(graph, 1, rng, anti=True)
        vec = _unit(rng, graph.n_sites)
        sampler = EvolvedSampler(a, t, sq_access_from_dense(vec), eps=eps,
                                 alpha_min=1.0, delta=1e-3, seed=95)
        w = dense_poly_apply(dense_from_oracle(sampler.generator), sampler.poly, vec)
        masses = np.array([sampler.oversampler.mass_query(i)
                           for i in range(graph.n_sites)])
        assert np.all(np.abs(w) ** 2 <= sampler.phi * masses * (1.0 + 1e-9) + 1e-15)


def test_draws_do_not_depend_on_their_order_and_redraws_query_nothing():
    n = 256
    a = _antihermitian_shift(n)

    def sampler():
        return EvolvedSampler(a, 1.5, sparse_vector_oracle(n, {n // 2: 1.0}),
                              eps=0.02, alpha_min=1.0, delta=1e-6, seed=96)

    forward, backward = sampler(), sampler()
    in_order = [forward.draw(k) for k in range(12)]
    reversed_order = [backward.draw(k) for k in reversed(range(12))][::-1]
    assert in_order == reversed_order
    psi_queries = forward.psi.cost.snapshot()["queries"]
    a_queries = a.cost.snapshot()["queries"]
    assert [forward.draw(k) for k in range(12)] == in_order
    assert forward.psi.cost.snapshot()["queries"] == psi_queries
    assert a.cost.snapshot()["queries"] == a_queries


def _grid_antihermitian(side: int):
    """i(hopping + cos on-site) on a side x side grid, norm bound 4.5."""
    graph = grid([side, side])

    def row_fn(i):
        return [(j, 0.5j * np.cos(i) if j == i else 1j) for j in graph.ball(i, 1)]

    return local_matrix_from_rows(graph, 1, row_fn, norm_bound=4.5, anti_hermitian=True)


@pytest.mark.parametrize("case", ["grid", "chain"])
def test_batched_fill_draws_equal_the_lazy_public_path(case):
    """EvolvedSampler's |w|^2 fills change no draw and cost fewer A queries than
    the public rejection_sample, which queries w once per tested site."""
    def sampler():
        if case == "grid":
            a, n = _grid_antihermitian(64), 64 * 64
            psi = sparse_vector_oracle(n, {32 * 64 + 32: 0.8, 30 * 64 + 35: 0.6})
            return a, EvolvedSampler(a, 1.0, psi, eps=0.05, alpha_min=0.9,
                                     delta=0.01, seed=97)
        a, n = _antihermitian_shift(256), 256
        return a, EvolvedSampler(a, 1.5, sparse_vector_oracle(n, {n // 2: 1.0}),
                                 eps=0.02, alpha_min=1.0, delta=1e-6, seed=97)

    a_lazy, s = sampler()
    lazy = [rejection_sample(s.oversampler, s.w, s.phi, s.alpha_min, s.delta, s.seed,
                             512, (k,)) for k in range(200)]
    a_fill, fresh = sampler()
    assert [fresh.draw(k) for k in range(200)] == lazy
    assert all(r.accepted for r in lazy)
    assert a_fill.cost.snapshot()["queries"] < a_lazy.cost.snapshot()["queries"]


def test_per_sample_cost_independent_of_lattice_size():
    outcomes = {}
    for log_n in (10, 16):
        n = 2 ** log_n
        a = _antihermitian_shift(n, boundary="periodic")
        psi = sparse_vector_oracle(n, {n // 2: 1.0})
        sampler = EvolvedSampler(a, 1.5, psi, eps=0.02, alpha_min=1.0,
                                 delta=1e-6, seed=86)
        results = [sampler.draw(k) for k in range(20)]
        assert all(r.accepted for r in results)
        offsets = tuple(r.site - n // 2 for r in results)
        trials = tuple(r.trials for r in results)
        outcomes[log_n] = (offsets, trials, a.cost.snapshot()["queries"])
    assert outcomes[10] == outcomes[16]


def test_sampler_preconditions():
    rng = np.random.default_rng(87)
    n = 8
    vec = _unit(rng, n)
    a = _antihermitian_shift(n)
    with pytest.raises(PreconditionError):
        EvolvedSampler(a, 1.0, sq_access_from_dense(2.0 * vec),
                       eps=0.05, alpha_min=1.0, delta=1e-6, seed=88)
    with pytest.raises(PreconditionError):
        EvolvedSampler(a, 1.0, sq_access_from_dense(vec),
                       eps=0.8, alpha_min=1.0, delta=1e-6, seed=88)
    hermitian = local_matrix_from_rows(chain(n), 1, lambda i: [(i, 0.5)],
                                       norm_bound=0.5, hermitian=True)
    with pytest.raises(PreconditionError):
        EvolvedSampler(hermitian, 1.0, sq_access_from_dense(vec),
                       eps=0.05, alpha_min=1.0, delta=1e-6, seed=88)


def test_sampler_rejects_excessive_sampler_noise():
    rng = np.random.default_rng(89)
    n = 8
    vec = _unit(rng, n)
    a = _antihermitian_shift(n)
    noisy = sq_access_from_dense(vec, zeta=0.3)
    with pytest.raises(PreconditionError):
        EvolvedSampler(a, 1.0, noisy, eps=0.05, alpha_min=1.0, delta=1e-6,
                       seed=90)
