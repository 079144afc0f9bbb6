"""Discretized PDE generators: wave, advection, Schrodinger."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsim import (DenseMatrix, OscillatorState, OscillatorSystem, PreconditionError,
                   advection_hamiltonian, build_system, chain, dense_evolve,
                   dense_from_oracle, estimate_energy, estimate_observable, general,
                   graph_laplacian_oracle, grid, local_matrix_from_rows, psi0,
                   schrodinger_hamiltonian, sparse_vector_oracle, spectral_norm,
                   stencil_oracle, total_energy, wave_to_oscillators)
from glsim.cli import build_matrix
from dense_rows import dense_rows
from small_graphs import small_graphs
from spring_tables import spring_pairs, spring_table
from stencil_rows import advection_rows, laplacian_rows, schrodinger_rows, tridiagonal_rows


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
    i, j, kap, _ = spring_pairs(sys)
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


def test_wave_norm_bound_is_the_scaled_laplacian_bound():
    """(c/a)^2 ||L|| bound: 8 (c/a)^2 on a 2D grid, where the Schur bound gave 10 (c/a)^2."""
    g = grid([5, 4])
    sys = wave_to_oscillators(graph_laplacian_oracle(g), c=1.3, a=0.4)
    assert sys.a_norm_bound == (1.3 * 1.3) / (0.4 * 0.4) * 8.0
    assert spectral_norm(_dense(sys.a_oracle())) <= sys.a_norm_bound


def test_wave_springs_symmetric_nonnegative_local():
    g = grid([3, 3])
    sys = wave_to_oscillators(graph_laplacian_oracle(g), c=0.7, a=0.5)
    for i, j, kap, _ in zip(*spring_pairs(sys)):
        assert i <= j
        assert kap > 0.0
        assert g.distance(i, j) <= 1


def _table_system(lap, c: float, a: float) -> OscillatorSystem:
    """The wave system as a table: L's rows read all at once, kappa_ij = -(c/a)^2 L_ij
    at each j > i where that is positive and a wall of (c/a)^2 times the row sum
    where that exceeds 1e-12, handed to build_system."""
    scale = (c * c) / (a * a)
    springs = []
    for i in range(lap.dimension):
        total = 0.0
        for j, v in lap.row(i):
            total += v.real
            if j > i and -scale * v.real > 0:
                springs.append((i, j, -scale * v.real))
        if scale * total > 1e-12:
            springs.append((i, i, scale * total))
    return build_system(lap.graph, np.ones(lap.dimension), springs, lap.r0)


def test_wave_system_from_one_block_matches_one_built_row_by_row():
    """On a 64 x 64 grid the lazy system's springs, read at every site in one block,
    equal the table build_system makes of the springs read row by row, bit for
    bit, and building the lazy system reads no row of L."""
    g = grid([64, 64])
    c, a = 1.3, 0.4
    lap = graph_laplacian_oracle(g)
    lazy = wave_to_oscillators(lap, c, a)
    assert lap.cost.queries == 0
    table = _table_system(graph_laplacian_oracle(g), c, a)
    for new, old in zip(spring_table(lazy), spring_table(table)):
        assert new.dtype == old.dtype and np.array_equal(new, old)
    assert np.array_equal(lazy.masses, table.masses)


@st.composite
def _spring_networks(draw):
    """(lap, c, a): L of random positive springs on some bonds of a chain or grid,
    with a random confining diagonal or none, declared Hermitian with its
    Gershgorin bound."""
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
    boundary = draw(st.sampled_from(["open", "periodic"]))
    g = chain(dims[0], boundary) if len(dims) == 1 else grid(dims, boundary)
    n = g.n_sites
    dense = np.zeros((n, n))
    for i in range(n):
        for j in g.ball(i, 1):
            if j > i and draw(st.booleans()):
                dense[i, j] = dense[j, i] = -draw(st.floats(0.1, 10.0))
    confine = draw(st.booleans())
    for i in range(n):
        dense[i, i] = -dense[i].sum() + (draw(st.floats(0.0, 3.0)) if confine else 0.0)
    rows = [tuple((int(j), float(dense[i, j])) for j in np.flatnonzero(dense[i]))
            for i in range(n)]
    lap = local_matrix_from_rows(g, 1, rows.__getitem__, hermitian=True,
                                 norm_bound=float(np.abs(dense).sum(axis=1).max()))
    return lap, draw(st.floats(0.5, 2.0)), draw(st.floats(0.25, 2.0))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(network=_spring_networks(), seed=st.integers(0, 2 ** 16))
def test_lazy_wave_system_equals_the_table_system(network, seed):
    """springs, B, B^T and psi(0)'s sites of the lazy system equal build_system's
    for the same springs bit for bit; dense A matches to 1e-12."""
    lap, c, a = network
    lazy, table = wave_to_oscillators(lap, c, a), _table_system(lap, c, a)
    n = lazy.n_sites
    for new, old in zip(spring_table(lazy), spring_table(table)):
        assert np.array_equal(new, old) and new.dtype == old.dtype
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = rng.normal(size=lazy.extended_dim) + 1j * rng.normal(size=lazy.extended_dim)
    sites = rng.permutation(np.arange(n).repeat(2))
    slots = rng.permutation(np.arange(lazy.extended_dim))
    assert lazy.b(sites, w.__getitem__).tobytes() == table.b(sites, w.__getitem__).tobytes()
    assert (lazy.at_slots(slots).bdag(z.__getitem__).tobytes()
            == table.at_slots(slots).bdag(z.__getitem__).tobytes())
    x = np.where(rng.random(n) < 0.5, 0.0, rng.normal(size=n))
    xdot = np.where(rng.random(n) < 0.5, 0.0, rng.normal(size=n))
    state = OscillatorState(x, xdot)
    energy = total_energy(table, state)
    assert total_energy(lazy, state) == energy
    if energy > 0.0:
        assert np.array_equal(psi0(lazy, state).support, psi0(table, state).support)
    assert np.abs(_dense(lazy.a_oracle()) - _dense(table.a_oracle())).max() <= 1e-12


def test_a_wall_with_no_diagonal_entry_is_kept():
    """A row with no diagonal entry whose tiny positive off-diagonals (each within
    the 1e-12 tolerance) scale to a row sum past 1e-12 still has its wall spring."""
    rows = {0: [(0, 1.0), (1, 6e-15)], 1: [(0, 6e-15), (2, 6e-15)],
            2: [(1, 6e-15), (2, 1.0)]}
    lap = local_matrix_from_rows(chain(3), 1, rows.__getitem__, hermitian=True,
                                 norm_bound=2.0)
    lazy = wave_to_oscillators(lap, c=10.0, a=1.0)
    indptr, others, kappas = lazy.springs(np.arange(3))
    assert indptr.tolist() == [0, 1, 2, 3] and others.tolist() == [0, 1, 2]
    assert kappas[1] == pytest.approx(1.2e-12)
    for new, old in zip(spring_table(lazy), spring_table(_table_system(lap, 10.0, 1.0))):
        assert np.array_equal(new, old)


def _chain_rows(rows: dict, **flags):
    """A 3-site chain operator whose row i is rows[i]."""
    flags = {"hermitian": True, "norm_bound": 4.0, **flags}
    return local_matrix_from_rows(chain(3), 1, lambda i: rows[i], **flags)


@pytest.mark.parametrize("rows", [
    {0: [(0, 1.0), (1, -1.0j)], 1: [(0, 1.0j), (1, 1.0)], 2: [(2, 0.0)]},
    {0: [(0, -1.0), (1, 1.0)], 1: [(0, 1.0), (1, -1.0)], 2: [(2, 0.0)]},
    {0: [(0, 0.5), (1, -1.0)], 1: [(0, -1.0), (1, 1.0)], 2: [(2, 0.0)]},
], ids=["complex", "positive-off-diagonal", "negative-row-sum"])
def test_wave_rejects_a_laplacian_that_is_no_spring_network(rows):
    """Building reads no row; the first read of the springs or of A that meets
    row 0 raises, and reads of row 2 alone do not."""
    sys = wave_to_oscillators(_chain_rows(rows), c=1.0, a=1.0)
    sys.springs(np.array([2]))
    sys.a_oracle().rows([2])
    with pytest.raises(PreconditionError):
        sys.springs(np.array([2, 0]))
    with pytest.raises(PreconditionError):
        sys.a_oracle().rows([0])
    with pytest.raises(PreconditionError):
        psi0(sys, OscillatorState([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]))


@pytest.mark.parametrize("flags, message", [
    ({"norm_bound": None}, "norm_bound"),
    ({"hermitian": False}, "Hermitian"),
])
def test_wave_needs_a_declared_hermitian_laplacian_with_a_norm_bound(flags, message):
    rows = {i: [(i, 0.0)] for i in range(3)}
    with pytest.raises(PreconditionError, match=message):
        wave_to_oscillators(_chain_rows(rows, **flags), c=1.0, a=1.0)


def _local_wave_run(L: int):
    """Both estimates on the lazy wave system of an L x L grid from a Gaussian
    bump cut to exact zeros beyond radius 12 of the centre: (observable, energy
    fraction, A queries, L queries at set-up)."""
    lap = graph_laplacian_oracle(grid((L, L)))
    sys = wave_to_oscillators(lap, 1.0, 1.0)
    setup_queries = lap.cost.queries
    cx = cy = L // 2
    a, b = np.divmod(np.arange(L * L), L)
    r2 = (a - cx) ** 2 + (b - cy) ** 2
    x = np.where(r2 <= 144, np.exp(-r2 / 8.0), 0.0)
    state = OscillatorState(x, np.zeros(L * L))
    v = sparse_vector_oracle(sys.extended_dim, {(cx + k) * L + cy + 3: w
                                                for k, w in enumerate((0.5, -0.5, 0.5, 0.5))})
    masses = [(cx + dx) * L + cy + dy for dx in range(3) for dy in range(-2, 3)]
    springs = [(s, s + 1) for s in masses] + [(s, s + L) for s in masses]
    a_oracles = []
    a_oracle = OscillatorSystem.a_oracle

    def capture(self):
        a_oracles.append(a_oracle(self))
        return a_oracles[-1]

    OscillatorSystem.a_oracle = capture
    try:
        obs = estimate_observable(sys, state, v, 0.8, 0.2, 0.05, seed=7)
        en = estimate_energy(sys, state, masses, springs, 0.8, 0.2, 0.05, seed=8)
    finally:
        OscillatorSystem.a_oracle = a_oracle
    return obs.value, en.value, [o.cost.queries for o in a_oracles], setup_queries


def test_lazy_wave_estimates_do_not_depend_on_the_grid_size():
    """A local state on a 256^2 and a 1024^2 grid: equal estimates bit for bit,
    equal A query counts, and no row of L read at set-up."""
    small, large = _local_wave_run(256), _local_wave_run(1024)
    assert small == large
    assert small[3] == 0 and len(small[2]) == 2 and min(small[2]) > 0


@pytest.mark.parametrize("c,a", [(1.0, 0.0), (1.0, -0.5), (0.0, 1.0), (-2.0, 1.0)])
def test_wave_rejects_nonpositive_speed_or_spacing(c, a):
    with pytest.raises(PreconditionError):
        wave_to_oscillators(graph_laplacian_oracle(chain(3)), c=c, a=a)


@pytest.mark.parametrize("c,a", [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0)])
def test_wave_rejects_non_finite_speed_or_spacing(c, a):
    with pytest.raises(PreconditionError):
        wave_to_oscillators(graph_laplacian_oracle(chain(3)), c=c, a=a)


@pytest.mark.parametrize("c,a", [(1.0, 1e-200), (1e200, 1.0), (1e-200, 1.0), (1e150, 1e-150),
                                 (1.0, 1e-154)])
def test_wave_refuses_a_spring_scale_or_bound_out_of_the_float_range(c, a):
    """a = 1e-200 once escaped the CLI as a ZeroDivisionError; c = 1e200 gave an
    infinite bound, which the pde report held as a bare Infinity.  The last case
    has a finite (c/a)^2 whose bound, times ||L|| <= 8 on a grid, is not."""
    with pytest.raises(PreconditionError):
        wave_to_oscillators(graph_laplacian_oracle(grid([4, 4])), c=c, a=a)


def test_wave_at_the_float_range_ends_keeps_its_scale():
    sys_ = wave_to_oscillators(graph_laplacian_oracle(grid([4, 4])), c=1e150, a=1e-3)
    assert sys_.a_norm_bound == (1e150 * 1e150) / (1e-3 * 1e-3) * 8.0


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


@pytest.mark.parametrize("a", [1e-160, 1e-300, float("nan")])
def test_schrodinger_refuses_a_spacing_whose_inverse_square_overflows(a):
    """a = 1e-300 once escaped the CLI as a ZeroDivisionError."""
    with pytest.raises(PreconditionError):
        schrodinger_hamiltonian(graph_laplacian_oracle(chain(3)), np.zeros(3), a)


def test_schrodinger_refuses_a_laplacian_without_norm_bound():
    g = chain(6)
    lap = local_matrix_from_rows(g, 1, lambda i: [(i, 0.0)], hermitian=True)
    with pytest.raises(PreconditionError):
        schrodinger_hamiltonian(lap, np.zeros(6), 0.5)


# =====================================================================
# stencils against their row-by-row references
# =====================================================================


def _reference(graph, row_fn, oracle):
    """The operator of row_fn on graph, with oracle's radius, bound and flags."""
    return local_matrix_from_rows(graph, oracle.r0, row_fn, norm_bound=oracle.norm_bound,
                                  hermitian=oracle.hermitian,
                                  anti_hermitian=oracle.anti_hermitian, psd=oracle.psd)


@st.composite
def _stencil_cases(draw):
    """[(oracle, reference), ...]: an advection or CLI tridiagonal oracle, or a
    Laplacian and the Schrodinger operator over it or over a row-built operator
    with missing diagonals, on a chain or grid (axes of length 1-5, open or
    periodic) or, for the last two, a general graph; each with the same operator
    built row by row.  Some potentials cancel a diagonal and some velocity
    components are 0."""
    kind = draw(st.sampled_from(["laplacian", "schrodinger", "schrodinger-rows",
                                 "advection", "tridiagonal"]))
    if kind == "tridiagonal":
        n, diag = draw(st.integers(1, 5)), draw(st.sampled_from([0.0, 0.3, -2.5]))
        off, i_times = draw(st.sampled_from([1.0, -0.5, 3.0])), draw(st.booleans())
        oracle = build_matrix({"kind": "tridiagonal", "n": n, "diag": diag, "offdiag": off,
                               "i_times": i_times}, 0)
        row_fn = tridiagonal_rows(n, diag, off, 1j if i_times else 1.0)
        return [(oracle, _reference(chain(n), row_fn, oracle))]
    a = draw(st.sampled_from([1.0, 0.5, 0.3, 2.0]))
    if kind == "advection":
        boundary = draw(st.sampled_from(["open", "periodic"]))
        D = draw(st.integers(1, 3))
        n = draw(st.integers(3 if boundary == "periodic" else 1, 5))
        velocity = draw(st.lists(st.sampled_from([0.0, 1.0, -0.7, 2.5, 1e-3]),
                                 min_size=D, max_size=D))
        oracle = advection_hamiltonian(velocity, a, n, D, boundary)
        return [(oracle, _reference(oracle.graph, advection_rows(oracle.graph, velocity, a),
                                    oracle))]
    graph = draw(small_graphs())
    lap = graph_laplacian_oracle(graph)
    ref_lap = _reference(graph, laplacian_rows(graph), lap)
    pairs = [(lap, ref_lap)]
    if kind == "laplacian":
        return pairs
    if kind == "schrodinger-rows":
        pairs = []
        n = graph.n_sites
        dense = np.zeros((n, n))
        for i in range(n):
            for j in graph.ball(i, 1):
                if j >= i and draw(st.booleans()):
                    dense[i, j] = dense[j, i] = draw(st.sampled_from([-1.0, 0.5, 2.0]))
        lap = ref_lap = local_matrix_from_rows(
            graph, 1, dense_rows(dense), hermitian=True,
            norm_bound=float(np.abs(dense).sum(axis=1).max()))
    inv_a2 = 1.0 / (a * a)
    potential = []
    for i in range(graph.n_sites):
        own = dict(ref_lap.row(i)).get(i, 0.0).real
        potential.append(draw(st.sampled_from([0.0, -own * inv_a2, 1.5, -0.25])))
    oracle = schrodinger_hamiltonian(lap, np.array(potential), a)
    return pairs + [(oracle, _reference(graph, schrodinger_rows(ref_lap, potential, a), oracle))]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(cases=_stencil_cases(), seed=st.integers(0, 2 ** 16))
def test_stencil_blocks_equal_their_row_references_byte_for_byte(cases, seed):
    """rows(sites) at shuffled, repeated sites: the same indptr, columns and values,
    bit for bit (a signed zero counts), and the same query count, as the operator
    built row by row."""
    for oracle, reference in cases:
        sites = np.random.default_rng(seed).permutation(np.arange(oracle.dimension).repeat(2))
        counts = oracle.cost.queries, reference.cost.queries
        block = oracle.rows(sites)
        queries = oracle.cost.queries - counts[0]
        for new, old in zip(block, reference.rows(sites)):
            assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
        assert queries == reference.cost.queries - counts[1]


def test_tridiagonal_stores_no_zero_entries():
    """offdiag 0 leaves the diagonal alone: one entry a row, not three, so a row
    costs 2 queries; diag 0 with offdiag 0 leaves empty rows."""
    a = build_matrix({"kind": "tridiagonal", "n": 5, "diag": 0.5, "offdiag": 0.0}, 0)
    indptr, cols, vals = a.rows(np.arange(5))
    assert indptr.tolist() == [0, 1, 2, 3, 4, 5] and cols.tolist() == [0, 1, 2, 3, 4]
    assert a.cost.queries == 10
    empty = build_matrix({"kind": "tridiagonal", "n": 5, "offdiag": 0.0}, 0)
    assert empty.rows(np.arange(5))[1].size == 0


def test_a_stencil_needs_a_chain_or_grid():
    with pytest.raises(PreconditionError):
        stencil_oracle(general(3, [(0, 1)]), -1.0, -1.0, None, norm_bound=4.0)
