"""Vector sq-access, perturbed samplers, local matrix oracles, cost metering."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glsim import (LocalityError, OracleInconsistencyError, PreconditionError,
                   VectorOracle, build_system, chain, general, graph_laplacian_oracle,
                   grid, local_matrix_from_rows, rng_stream, scale_matrix_oracle,
                   sparse_vector_oracle, sq_access_from_dense)
from glsim.access import _count_stages

from dense_rows import dense_rows

N_DRAWS = 100_000


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
    law = np.abs(vec) ** 2
    tv = 0.5 * np.abs(emp - law / law.sum()).sum()
    assert tv <= 0.02


def test_norm_matches_euclidean():
    rng = np.random.default_rng(12)
    vec = rng.normal(size=17) + 1j * rng.normal(size=17)
    u = sq_access_from_dense(vec)
    assert abs(u.norm() - np.linalg.norm(vec)) <= 1e-12


def test_queries_return_entries_and_count_cost():
    u = sq_access_from_dense([1.0, 2.0j, -3.0])
    assert u.query(1) == 2.0j
    assert u.query(2) == -3.0
    assert u.cost.snapshot()["queries"] == 2


def test_query_many_meters_each_site_and_calls_query_fn_in_order():
    calls = []
    u = VectorOracle(5, lambda i: calls.append(i) or complex(i, -i), None)
    values = u.query_many([3, 1, 3, 0])
    assert values.dtype == np.complex128
    assert values.tolist() == [3 - 3j, 1 - 1j, 3 - 3j, 0j]
    assert calls == [3, 1, 3, 0] and u.cost.queries == 4
    assert u.query_many([]).size == 0 and u.cost.queries == 4
    with pytest.raises(ValueError, match="index 5 out of range"):
        u.query_many([0, 5, -1])
    with pytest.raises(ValueError, match="index -1 out of range"):
        u.query_many([-1])
    assert calls == [3, 1, 3, 0] and u.cost.queries == 4
    batched = VectorOracle(5, lambda i: 1 / 0, None, many_fn=lambda sites: [2 * i for i in sites])
    assert batched.query_many([4, 2]).tolist() == [8, 4] and batched.cost.queries == 2


def test_zero_vector_rejected():
    with pytest.raises(PreconditionError):
        sq_access_from_dense(np.zeros(4))


class _TopRng:
    """A stand-in generator whose every uniform draw is the largest double below 1."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


def test_top_draw_never_lands_on_a_zero_mass_site():
    """(1, 1, 0): the table's cumulative mass reaches 1 at site 1, not at the empty site 2."""
    u = sq_access_from_dense([1.0, 1.0, 0.0])
    assert u.sample_many(_TopRng(), 4).tolist() == [1, 1, 1, 1]
    assert u.support.tolist() == [0, 1]
    assert u.sample_positions(_TopRng(), 2).tolist() == [1, 1]
    assert u.cost.snapshot()["samples"] == 6


def _pooled_counts(u, rng, batch, reps, calls=1):
    """Counts per table position summed over calls of u.sample_counts, each
    checked: rows sum to batch, positions increase strictly, no column is all
    zero.  Also returns how many calls drew a light position."""
    pooled = np.zeros(u.support.size, dtype=np.int64)
    light_calls = 0
    for _ in range(calls):
        positions, counts = u.sample_counts(rng, batch, reps)
        assert counts.shape == (reps, positions.size)
        assert np.all(counts.sum(axis=1) == batch)
        assert np.all(np.diff(positions) > 0)
        assert np.all(counts.any(axis=0))
        pooled[positions] += counts.sum(axis=0)
        light_calls += bool(np.any(u.masses[positions] * (u.support.size * batch * reps) < 1.0))
    return pooled, light_calls


def _assert_pearson_bound(observed, expected):
    """Pearson's statistic stays within six standard deviations of its chi-square mean."""
    pearson = float(np.sum((observed - expected) ** 2 / expected))
    dof = observed.size - 1
    assert pearson <= dof + 6.0 * np.sqrt(2.0 * dof)


def test_count_means_follow_the_table_law():
    """Pearson's statistic of the pooled counts against the masses stays within a chi-square bound."""
    rng = np.random.default_rng(18)
    u = sq_access_from_dense(rng.normal(size=12) + 1j * rng.normal(size=12), zeta=0.02)
    batch, reps = 50, 4000
    pooled, _ = _pooled_counts(u, rng_stream(18, 0), batch, reps)
    _assert_pearson_bound(pooled, batch * reps * u.masses)
    assert u.cost.snapshot()["samples"] == batch * reps


def test_counts_over_a_core_and_a_vanishing_tail_follow_the_table_law():
    """A Gaussian core of 200 sites amid 4,800 sites of mass near 1e-300 (the
    shape of psi0's table): the core's pooled counts pass Pearson's test with
    the tail as one more cell, and no tail site is ever drawn."""
    rng = np.random.default_rng(20)
    k = np.arange(200)
    masses = np.concatenate((rng.uniform(0.5, 2.0, 2400) * 1e-300,
                             np.exp(-((k - 100) / 25.0) ** 2 / 2.0),
                             rng.uniform(0.5, 2.0, 2400) * 1e-300))
    masses /= masses.sum()
    u = VectorOracle(masses.size, lambda i: 1.0, norm=1.0, table=(np.arange(masses.size), masses))
    core = np.arange(2400, 2600)
    batch, reps = 200, 500
    pooled, light_calls = _pooled_counts(u, rng_stream(20, 0), batch, reps)
    tail = np.ones(masses.size, dtype=bool)
    tail[core] = False
    assert np.all(pooled[tail] == 0) and light_calls == 0
    cells = np.append(masses[core], masses[tail].sum())
    _assert_pearson_bound(np.append(pooled[core], 0), batch * reps * cells)


def test_counts_follow_the_table_law_when_the_light_tail_is_drawn():
    """900 of 1,000 masses just under the light threshold 1/(K batch reps): the
    lumped tail draws in most calls, and both all the pooled counts and the
    tail's alone (given its total) pass Pearson's test."""
    rng = np.random.default_rng(21)
    size, batch, reps, calls = 1000, 50, 4, 10_000
    light = rng.permutation(size)[:900]
    masses = rng.uniform(0.5, 1.0, size)
    masses[light] = (1.0 - rng.uniform(1e-6, 1e-3, light.size)) / (size * batch * reps)
    heavy = np.setdiff1d(np.arange(size), light)
    masses[heavy] *= (1.0 - masses[light].sum()) / masses[heavy].sum()
    u = VectorOracle(size, lambda i: 1.0, norm=1.0, table=(np.arange(size), masses))
    _, _, light_stage, _ = _count_stages(u.masses, batch * reps)
    assert sorted(light_stage.tolist()) == sorted(light.tolist())
    pooled, light_calls = _pooled_counts(u, rng_stream(21, 0), batch, reps, calls)
    assert light_calls > calls // 2
    _assert_pearson_bound(pooled, calls * batch * reps * u.masses)
    tail = u.masses[light] / u.masses[light].sum()
    _assert_pearson_bound(pooled[light], pooled[light].sum() * tail)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(raw=st.lists(st.one_of(st.floats(1e-3, 1.0), st.floats(1e-300, 1e-250),
                              st.floats(1e-12, 1e-6)), min_size=1, max_size=60),
       draws=st.integers(1, 10 ** 9))
def test_every_count_stage_binomial_has_a_probability(raw, draws):
    """numpy's multinomial draws category j from binomial(n, p_j / remaining),
    remaining = 1 - sum(p[:j]) in floating point; in both stages of
    sample_counts that remainder never falls below the mass it divides, and
    the stages cover the table once, the lump below one expected draw."""
    masses = np.array(raw) / np.sum(raw)
    assume(np.all(masses > 0))
    heavy, pvals, light, light_pvals = _count_stages(masses, draws)
    assert sorted(np.concatenate((heavy, light)).tolist()) == list(range(masses.size))
    assert pvals[0] * draws < 1.0 and pvals[-1] == masses.max()
    assert np.array_equal(pvals[1:], masses[heavy])
    assert np.allclose(light_pvals * pvals[0], masses[light], rtol=1e-12, atol=0.0)
    for stage in (pvals, light_pvals):
        assert np.all((stage >= 0) & (stage <= 1))
        remaining = 1.0
        for p in stage[:-1].tolist():
            assert remaining >= p
            remaining -= p


def test_sampler_rejects_negative_draw_counts():
    u = sq_access_from_dense([0.6, 0.8])
    with pytest.raises(ValueError):
        u.sample_many(rng_stream(19, 0), -1)
    with pytest.raises(ValueError):
        u.sample_counts(rng_stream(19, 0), 5, -1)
    with pytest.raises(PreconditionError):
        VectorOracle(2, lambda i: 1.0, norm=1.0).sample_counts(rng_stream(19, 0), 5, 2)


@pytest.mark.parametrize("table", [
    ([[0, 1]], [[0.5, 0.5]]),        # not 1-d
    ([0, 1], [1.0]),                 # lengths differ
    ([], []),                        # empty
    ([0, 4], [0.5, 0.5]),            # site outside [0, dimension)
    ([-1, 2], [0.5, 0.5]),
    ([2, 1], [0.5, 0.5]),            # not increasing
    ([1, 1], [0.5, 0.5]),
    ([0, 1], [1.5, -0.5]),           # negative mass
    ([0, 1], [0.0, 0.0]),            # no mass at all
    # a zero mass could take draws through rounding: here the running sums
    # reach only 1 - 2**-53 before the last site, which the draws above take
    ([0, 1, 3], [0.5, 0.5 - 2.0 ** -53, 0.0]),
    ([0, 1, 3], [0.5, 0.0, 0.5]),
    ([0, 1], [np.nan, 1.0]),
])
def test_bad_table_is_rejected(table):
    with pytest.raises(ValueError):
        VectorOracle(4, lambda i: 1.0, norm=1.0, table=table)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(entries=st.lists(st.sampled_from([0.0, 0.0, 1.0, -0.5, 2.0j, 0.3 - 0.4j, 1e-3]),
                        min_size=1, max_size=12),
       fraction=st.floats(0.0, 0.9))
def test_table_is_the_perturbed_law(entries, fraction):
    """No zero-mass site in the table, unit total mass, TV distance zeta from |u_i|^2."""
    u = np.array(entries, dtype=np.complex128)
    assume(np.count_nonzero(u) >= 2)
    exact = np.abs(u) ** 2 / np.sum(np.abs(u) ** 2)
    zeta = fraction * float(exact.max())
    oracle = sq_access_from_dense(u, zeta)
    assert np.all(oracle.masses > 0)
    assert np.all(u[oracle.support] != 0)
    assert abs(float(oracle.masses.sum()) - 1.0) <= 1e-12
    law = np.zeros(u.size)
    law[oracle.support] = oracle.masses
    assert abs(0.5 * np.abs(law - exact).sum() - zeta) <= 1e-12


# =====================================================================
# perturbed sq-access
# =====================================================================


def test_perturbed_two_point_law():
    """(1,1)/sqrt2 with zeta=0.1 shifts mass 0.1 from index 0 to index 1."""
    s = 1.0 / np.sqrt(2.0)
    pert = sq_access_from_dense([s, s], zeta=0.1)
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
    pert = sq_access_from_dense(vec, zeta=zeta)
    draws = pert.sample_many(rng_stream(15, 0), 2 * N_DRAWS)
    emp = np.bincount(draws, minlength=32) / (2 * N_DRAWS)
    law = np.abs(vec) ** 2
    tv = 0.5 * np.abs(emp - law / law.sum()).sum()
    assert abs(tv - zeta) <= 0.02


def test_perturbation_needs_mass_to_move():
    with pytest.raises(PreconditionError):
        sq_access_from_dense([1.0, 0.0], zeta=0.1)


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


@pytest.mark.parametrize("entries", [{2: 0.8j, 7: 0.6}, {7: 0.6, 2: 0.8j}])
def test_sparse_table_is_sorted_whatever_the_key_order(entries):
    u = sparse_vector_oracle(10, entries)
    assert u.support.tolist() == [2, 7]
    assert u.masses == pytest.approx([0.64, 0.36])
    assert (u.query(2), u.query(7), u.query(3)) == (0.8j, 0.6, 0.0)


def test_sparse_zero_vector_rejected():
    with pytest.raises(PreconditionError):
        sparse_vector_oracle(8, {})


@pytest.mark.parametrize("x", [1e300, 1e308, 1e160, 1e-170, 1e-300, 5e-324])
def test_entries_near_the_ends_of_the_float_range_keep_their_table(x):
    """A squared norm past the float range, or below the normal floats, is taken
    over the entries scaled by the largest; the zero entry stays out."""
    for u in (sparse_vector_oracle(4, {0: x, 1: x}), sq_access_from_dense([x, x, 0.0])):
        assert u.support.tolist() == [0, 1]
        assert u.masses.tolist() == [0.5, 0.5]
        assert u.norm() == pytest.approx(x * np.sqrt(2.0), rel=1e-15, abs=5e-324)
    u = sq_access_from_dense([3e299, 0.0, 4e299j, 1e-300])
    assert u.support.tolist() == [0, 2]
    assert u.masses == pytest.approx([0.36, 0.64], rel=1e-15)
    assert u.norm() == pytest.approx(5e299, rel=1e-15)


def test_tables_in_the_normal_range_are_the_plain_quotients():
    """|u_i|^2 / ||u||^2 with ||u|| from np.linalg.norm, bit for bit."""
    rng = np.random.default_rng(17)
    for scale in (1e-150, 1e-3, 1.0, 1e150):
        u = scale * (rng.normal(size=40) + 1j * rng.normal(size=40))
        nrm = float(np.linalg.norm(u))
        assert sq_access_from_dense(u).masses.tobytes() == (np.abs(u) ** 2 / (nrm * nrm)).tobytes()


@pytest.mark.parametrize("entries, error", [
    ({0: 1.7e308, 1: 1.7e308}, PreconditionError),   # the norm itself overflows
    ({0: np.inf, 1: 1.0}, ValueError),
    ({0: np.nan, 1: 1.0}, ValueError),
    ({0: 0.0, 3: 0.0}, PreconditionError),
])
def test_unrepresentable_or_zero_vectors_are_rejected(entries, error):
    with pytest.raises(error):
        sparse_vector_oracle(4, entries)


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


def _tridiag_oracle(n: int, **flags):
    return local_matrix_from_rows(chain(n), 1, dense_rows(_tridiag_dense(n)),
                                  hermitian=True, **flags)


def test_rows_sorted_local_and_hermitian_consistent():
    n = 12
    dense = _tridiag_dense(n)
    a = _tridiag_oracle(n)
    for i in range(n):
        row = a.row(i)
        cols = [j for j, _ in row]
        assert cols == sorted(cols)
        assert len(row) <= a.graph.locality_function(1)
        for j, v in row:
            assert a.graph.distance(i, j) <= 1
            assert v == dense[i, j]


def test_row_cost_is_length_plus_one():
    a = _tridiag_oracle(6)
    row = a.row(2)
    assert a.cost.snapshot()["queries"] == len(row) + 1


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
    a = _tridiag_oracle(5, norm_bound=3.0)
    b = scale_matrix_oracle(a, -1j)
    assert b.anti_hermitian and not b.hermitian
    assert b.norm_bound == pytest.approx(3.0)
    assert b.row(2) == tuple((j, -1j * v) for j, v in a.row(2))
    c = scale_matrix_oracle(b, 1j)  # back to hermitian
    assert c.hermitian and not c.anti_hermitian


def test_scaled_oracle_shares_cost_counter():
    a = _tridiag_oracle(5)
    b = scale_matrix_oracle(a, 2.0)
    b.row(1)
    assert b.cost is a.cost and a.cost.snapshot()["queries"] == 4


# =====================================================================
# row blocks
# =====================================================================


LAPLACIAN_GRAPHS = {
    "open-chain": lambda: chain(7),
    "periodic-chain": lambda: chain(7, "periodic"),
    "periodic-chain-2": lambda: chain(2, "periodic"),
    "chain-1": lambda: chain(1, "periodic"),
    "open-grid-1-2-3": lambda: grid([1, 2, 3]),
    "periodic-grid-1-2-3": lambda: grid([1, 2, 3], "periodic"),
    "open-grid-4-3": lambda: grid([4, 3]),
    "periodic-grid-4-3": lambda: grid([4, 3], "periodic"),
    "periodic-grid-2-1-5": lambda: grid([2, 1, 5], "periodic"),
    "general": lambda: general(6, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 4), (1, 2)]),
}


def _wall_system_oracle():
    """A on a 3 x 3 grid with unequal masses, unequal springs and two wall springs."""
    g = grid([3, 3])
    rng = np.random.default_rng(7)
    springs = [(i, j, float(rng.uniform(0.5, 2.0))) for i in range(9) for j in range(i + 1, 9)
               if g.distance(i, j) == 1]
    springs += [(0, 0, 0.75), (4, 4, 1.25)]
    return build_system(g, rng.uniform(0.5, 3.0, size=9), springs, 1).a_oracle()


def _user_rows_oracle():
    """A user row callable on a 9-site chain, columns in no particular order."""
    return local_matrix_from_rows(
        chain(9), 1, lambda i: [(j, 0.5 * i - 1j * j) for j in (i + 1, i - 1, i) if 0 <= j < 9],
        check_locality=True)


BLOCK_SOURCES = {
    **{f"laplacian-{name}": (lambda make=make: graph_laplacian_oracle(make()))
       for name, make in LAPLACIAN_GRAPHS.items()},
    "a-oracle-walls": _wall_system_oracle,
    "scaled-by-i": lambda: scale_matrix_oracle(_wall_system_oracle(), 1j),
    "scaled-by-minus-2": lambda: scale_matrix_oracle(graph_laplacian_oracle(grid([3, 4])), -2.0),
    "user-row-fn": _user_rows_oracle,
}


def _block_as_rows(block):
    indptr, cols, vals = block
    return [tuple(zip(cols[lo:hi].tolist(), vals[lo:hi].tolist()))
            for lo, hi in zip(indptr[:-1], indptr[1:])]


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(BLOCK_SOURCES)), data=st.data())
def test_block_equals_its_rows_value_for_value_and_cost_for_cost(name, data):
    a = BLOCK_SOURCES[name]()
    sites = data.draw(st.lists(st.integers(0, a.dimension - 1), max_size=12))
    block = a.rows(sites)
    block_cost = a.cost.queries
    rows = [a.row(i) for i in sites]
    assert _block_as_rows(block) == rows
    assert a.cost.queries - block_cost == block_cost == sum(len(r) + 1 for r in rows)
    for row in rows:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols))


@pytest.mark.parametrize("name", sorted(LAPLACIAN_GRAPHS))
def test_laplacian_rows_are_minus_one_on_the_unit_ball_and_the_degree_on_the_diagonal(name):
    g = LAPLACIAN_GRAPHS[name]()
    lap = graph_laplacian_oracle(g)
    for i in range(g.n_sites):
        nbrs = [j for j in g.ball(i, 1) if j != i]
        expected = sorted([(j, -1.0 + 0j) for j in nbrs] + [(i, float(len(nbrs)) + 0j)])
        assert list(lap.row(i)) == expected


def test_wall_system_rows_sum_springs_left_to_right():
    """The diagonal of A is the running sum of the site's kappas over m_i, bit for bit."""
    a = _wall_system_oracle()
    g, rng = grid([3, 3]), np.random.default_rng(7)
    springs = [(i, j, float(rng.uniform(0.5, 2.0))) for i in range(9) for j in range(i + 1, 9)
               if g.distance(i, j) == 1]
    masses = rng.uniform(0.5, 3.0, size=9)
    kap = {(i, j): k for i, j, k in springs}
    kap.update({(j, i): k for i, j, k in springs})
    kap.update({(0, 0): 0.75, (4, 4): 1.25})
    for i in range(9):
        diag, expected = 0.0, []
        for j in range(9):
            if (i, j) in kap:
                diag += kap[(i, j)]
                if j != i:
                    expected.append((j, complex(-kap[(i, j)] / np.sqrt(masses[i] * masses[j]))))
        expected.append((i, complex(diag / masses[i])))
        assert a.row(i) == tuple(sorted(expected))


BAD_ROWS = {
    "repeated": ({2: [(1, 1.0), (2, 1.0), (1, 2.0)]}, OracleInconsistencyError),
    "out-of-range": ({2: [(2, 1.0), (9, 1.0)]}, OracleInconsistencyError),
    "negative": ({2: [(-3, 1.0), (2, 1.0)]}, OracleInconsistencyError),
    "non-local": ({2: [(2, 1.0), (5, 1.0)]}, LocalityError),
    "non-local-then-repeated": ({1: [(4, 1.0)], 2: [(2, 1.0), (2, 1.0)]}, LocalityError),
    "repeated-then-non-local": ({1: [(1, 1.0), (1, 1.0)], 2: [(5, 1.0)]},
                                OracleInconsistencyError),
    "non-local-and-repeated-in-one-row": ({2: [(6, 1.0), (2, 1.0), (2, 1.0)]},
                                          OracleInconsistencyError),
}


@pytest.mark.parametrize("name", sorted(BAD_ROWS))
def test_bad_block_raises_the_per_row_error(name):
    bad, error = BAD_ROWS[name]
    a = local_matrix_from_rows(chain(6), 1, lambda i: bad.get(i, [(i, 1.0)]),
                               check_locality=True)
    with pytest.raises(error):
        a.rows(range(6))
    with pytest.raises(error):
        [a.row(i) for i in range(6)]
    assert a.cost.queries == 2 * min(bad)  # the rows before the bad one; the block none


def test_zero_entry_outside_r0_is_not_a_locality_error():
    a = local_matrix_from_rows(chain(6), 1, lambda i: [(i, 1.0), ((i + 3) % 6, 0.0)],
                               check_locality=True)
    assert a.rows(range(6))[0].tolist() == [0, 2, 4, 6, 8, 10, 12]


def test_row_out_of_range_is_a_value_error():
    a = graph_laplacian_oracle(chain(4))
    for sites in ([4], [0, -1]):
        with pytest.raises(ValueError):
            a.rows(sites)
    assert a.cost.queries == 0


def test_user_row_fn_is_called_once_per_site_in_block_order():
    calls = []
    a = local_matrix_from_rows(chain(8), 1, lambda i: calls.append(i) or [(i, 1.0)])
    a.rows([5, 2, 7, 2])
    assert calls == [5, 2, 7, 2]
