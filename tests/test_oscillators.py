"""Coupled oscillators: system assembly, energies, state embedding, estimation."""

import inspect
import json
import math
import time

import numpy as np
import pytest

from glsim import (DenseMatrix, LocalityError, OscillatorState, PreconditionError,
                   SiteGraph, build_system, chain, dense_from_oracle, dense_poly_apply,
                   dense_poly_matrix, estimate_energy, estimate_observable, exp_poly,
                   extended_dimension, general, grid, inner_product_estimate,
                   load_system, pair_index, psi0, read_state_csv,
                   sparse_vector_oracle, spectral_norm, sq_access_from_dense,
                   total_energy)
from glsim import lightcone, oscillators
from glsim.cli import main
from spring_tables import spring_pairs, spring_table


def _random_chain_system(rng, n: int):
    masses = rng.uniform(0.5, 2.0, size=n)
    springs = {(i, i + 1): float(rng.uniform(0.5, 2.0)) for i in range(n - 1)}
    springs[(0, 0)] = float(rng.uniform(0.5, 2.0))
    return build_system(chain(n), masses, springs, 1)


def _grid_wall_system(rng):
    """A 3 x 4 grid with random neighbour springs and three wall springs."""
    g = grid([3, 4])
    springs = {(i, j): float(rng.uniform(0.5, 2.0))
               for i in range(12) for j in g.ball(i, 1) if j > i}
    springs.update({(i, i): float(rng.uniform(0.5, 2.0)) for i in (0, 5, 11)})
    return build_system(g, rng.uniform(0.5, 2.0, size=12), springs, 1)


def _general_system():
    """A six-site ring with one chord and one wall spring."""
    graph = general(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
    springs = {(0, 1): 1.0, (1, 2): 0.5, (2, 3): 1.2, (3, 4): 0.9, (4, 5): 1.1,
               (0, 5): 0.6, (1, 4): 0.8, (2, 2): 0.4}
    return build_system(graph, [1.0, 2.0, 1.5, 1.0, 0.8, 1.2], springs, 1)


SYSTEMS = {
    "chain": lambda rng: _random_chain_system(rng, 9),
    "grid-walls": _grid_wall_system,
    "general": lambda rng: _general_system(),
}


def _bdag_entry(sys, slot: int, z_fn) -> complex:
    """(B^T z)_slot for a site-space functional z_fn, one spring at a time; 0 at a
    slot with no spring."""
    i, j, kappas, slots = spring_pairs(sys)
    k = int(np.searchsorted(slots, slot))
    if k == slots.size or slots[k] != slot:
        return 0.0 + 0.0j
    a, b, kap = int(i[k]), int(j[k]), kappas[k]
    if a == b:
        return math.sqrt(kap / sys.masses[a]) * z_fn(a)
    return (math.sqrt(kap / sys.masses[a]) * z_fn(a)
            - math.sqrt(kap / sys.masses[b]) * z_fn(b))


def _b_entry(sys, i: int, slot_fn) -> complex:
    """(B w)_i for a pair-space functional slot_fn(slot): site i's springs summed
    from 0, one at a time in table order."""
    _, others, kappas = sys.springs(np.array([i]))
    total = 0.0 + 0.0j
    for j, kap in zip(others.tolist(), kappas.tolist()):
        slot = pair_index(min(i, j), max(i, j), sys.n_sites)
        root = math.sqrt(kap / sys.masses[i])
        if j >= i:
            total += root * slot_fn(slot)
        else:
            total -= root * slot_fn(slot)
    return total


def _dense_b(sys) -> np.ndarray:
    """B as an n x (extended_dim - n) dense block, one _b_entry call per entry of a column."""
    n = sys.n_sites
    b = np.zeros((n, sys.extended_dim - n), dtype=np.complex128)
    for a, c in zip(*spring_pairs(sys)[:2]):
        col = pair_index(a, c, n)
        for i in range(n):
            b[i, col - n] = _b_entry(sys, i, lambda slot: 1.0 if slot == col else 0.0)
    return b


# =====================================================================
# index bookkeeping
# =====================================================================


def test_pair_index_fills_the_pair_slots_in_order():
    n = 7
    slots = [pair_index(i, j, n) for i in range(n) for j in range(i, n)]
    assert slots == list(range(n, extended_dimension(n)))


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 2 ** 20, 2 ** 31])
def test_pair_slots_decode_to_their_ends(n):
    """_pair_ends inverts pair_slots at random pairs and at the first and last slot
    of random rows, where at 2^31 sites the float square root alone is one off."""
    rng = np.random.default_rng(n)
    i, j, rows = rng.integers(0, n, size=(3, 400))
    i = np.concatenate((i, rows, rows, [0, n - 1]))
    j = np.concatenate((j, rows, np.full_like(rows, n - 1), [0, n - 1]))
    slots = oscillators.pair_slots(i, j, n)
    assert slots.min() >= n and slots.max() < extended_dimension(n)
    lower, upper = oscillators._pair_ends(slots, n)
    assert np.array_equal(lower, np.minimum(i, j)) and np.array_equal(upper, np.maximum(i, j))
    if n <= 1000:
        assert [pair_index(a, b, n) for a, b in zip(lower.tolist(), upper.tolist())] == slots.tolist()


def test_extended_dimension_formula():
    for n in (1, 2, 5, 12):
        assert extended_dimension(n) == n + n * (n + 1) // 2


# =====================================================================
# system assembly
# =====================================================================


def test_single_mass_wall_spring_system():
    sys = build_system(chain(1), [1.0], {(0, 0): 1.0}, 1)
    assert np.allclose(dense_from_oracle(sys.a_oracle()).entries, [[1.0]])
    assert sys.bdag([pair_index(0, 0, 1)], lambda sites: np.ones(sites.size)) == pytest.approx(1.0)


def test_two_mass_pair_matrix():
    sys = build_system(chain(2), [1.0, 1.0], {(0, 1): 1.0}, 1)
    dense = dense_from_oracle(sys.a_oracle()).entries
    assert np.allclose(dense, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)


def test_b_times_b_dagger_reconstructs_a():
    rng = np.random.default_rng(101)
    sys = _random_chain_system(rng, 32)
    b = _dense_b(sys)
    dense_a = dense_from_oracle(sys.a_oracle()).entries
    assert np.abs(b @ b.conj().T - dense_a).max() <= 1e-10


@pytest.mark.parametrize("kind", SYSTEMS)
def test_bdag_is_dense_b_transpose_at_every_slot(kind):
    """Every slot of the extended space, a spring's or not, against the _b_entry-built B."""
    sys = SYSTEMS[kind](np.random.default_rng(120))
    n = sys.n_sites
    bt = _dense_b(sys).T
    assert np.count_nonzero(np.abs(bt).sum(axis=1) == 0) > 0   # slots with no spring are checked
    slots = np.arange(n, sys.extended_dim)
    for k in range(n):
        assert np.array_equal(sys.bdag(slots, lambda sites: (sites == k) * 1.0), bt[:, k])


@pytest.mark.parametrize("kind", SYSTEMS)
def test_b_and_bdag_arrays_equal_the_entry_loops_bitwise(kind):
    """The array forms of B and B^T give _b_entry and _bdag_entry bit for bit: at every
    slot, a spring's or not, and at every site, in any order and repeated."""
    rng = np.random.default_rng(121)
    sys = SYSTEMS[kind](rng)
    n = sys.n_sites
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = rng.normal(size=sys.extended_dim) + 1j * rng.normal(size=sys.extended_dim)
    z[0], w[-1] = complex(-0.0, 0.7), complex(1e-310, -0.0)
    slots = rng.permutation(np.arange(n, sys.extended_dim).repeat(2))
    got = sys.bdag(slots, lambda sites: z[sites])
    want = np.array([_bdag_entry(sys, int(s), lambda i: complex(z[i])) for s in slots])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    sites = rng.permutation(np.arange(n).repeat(2))
    got = sys.b(sites, lambda slot: w[slot])
    want = np.array([_b_entry(sys, int(i), lambda slot: complex(w[slot])) for i in sites])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _a_row(springs: dict, masses, i: int) -> tuple[list, list]:
    """Row i of A as (cols, vals), one entry at a time: F_ii sums site i's kappas
    from 0 in increasing order of the other site, as _b_entry sums B's terms."""
    at_i = sorted((b if a == i else a, kap) for (a, b), kap in springs.items() if i in (a, b))
    cols, vals, f_ii = [], [], 0.0
    for j, kap in at_i:
        f_ii += kap
        if j != i:
            cols.append(j)
            vals.append(complex(-kap / math.sqrt(masses[i] * masses[j])))
    if at_i:
        k = sum(j < i for j in cols)
        cols.insert(k, i)
        vals.insert(k, complex(f_ii / masses[i]))
    return cols, vals


@pytest.mark.parametrize("seed", range(8))
def test_a_rows_equal_the_one_row_loop_bitwise(seed):
    """a_oracle's blocks equal _a_row byte for byte, with wall springs, isolated
    sites and unequal masses, each block asked in an unsorted order with repeats."""
    rng = np.random.default_rng(seed)
    graph = [chain(30), grid([6, 7]), grid([3, 4, 3])][seed % 3]
    r0 = 1 + seed % 2
    n = graph.n_sites
    isolated = set(rng.choice(n, size=3, replace=False).tolist())
    springs = {(i, j): float(rng.uniform(1e-3, 1e3)) for i in range(n)
               for j in graph.ball(i, r0)
               if j >= i and not {i, j} & isolated and rng.random() < (0.5 if i == j else 0.7)}
    masses = rng.uniform(0.1, 10.0, n)
    sys = build_system(graph, masses, springs, r0)
    a = sys.a_oracle()
    sites = rng.permutation(np.arange(n).repeat(2))
    for block in np.array_split(sites, 5):
        indptr, cols, vals = a.rows(block)
        for k, i in enumerate(block.tolist()):
            want_cols, want_vals = _a_row(springs, masses, i)
            got = slice(indptr[k], indptr[k + 1])
            assert cols[got].tolist() == want_cols
            assert vals[got].tobytes() == np.array(want_vals, dtype=np.complex128).tobytes()
    assert all(not _a_row(springs, masses, i)[0] for i in isolated)


def test_nonlocal_spring_rejected():
    with pytest.raises(LocalityError):
        build_system(chain(5), np.ones(5), {(0, 4): 1.0}, 1)


def test_bonded_grid_system_builds_without_whole_graph_searches():
    """A 100 x 100 grid given as a general graph, one unit spring per bond
    (19,800): the locality check searches from each spring end only until it
    reaches the other, so the set-up takes well under a second where a search
    over the whole graph from every end took tens of seconds.  A spring across
    the grid still reaches its far end and is refused."""
    n = 100
    bonds = [(a, a + 1) for a in range(n * n) if (a + 1) % n] + \
        [(a, a + n) for a in range(n * n - n)]
    graph = general(n * n, bonds)
    t0 = time.perf_counter()
    sys = build_system(graph, np.ones(n * n), [(a, b, 1.0) for a, b in bonds], 1)
    assert time.perf_counter() - t0 < 5.0
    assert sys.a_norm_bound == 10.0
    with pytest.raises(LocalityError, match="spans distance 198"):
        build_system(graph, np.ones(n * n), {(0, n * n - 1): 1.0}, 1)


def test_nonpositive_mass_rejected():
    with pytest.raises(PreconditionError):
        build_system(chain(2), [1.0, 0.0], {(0, 1): 1.0}, 1)


def test_negative_spring_rejected():
    with pytest.raises(PreconditionError):
        build_system(chain(2), [1.0, 1.0], {(0, 1): -2.0}, 1)


def test_nan_mass_rejected():
    with pytest.raises(PreconditionError):
        build_system(chain(3), [1.0, np.nan, 1.0], {(0, 1): 1.0, (1, 2): 1.0}, 1)


def test_infinite_spring_rejected():
    with pytest.raises(PreconditionError):
        build_system(chain(3), np.ones(3), {(0, 1): 1.0, (1, 2): np.inf}, 1)


def test_nan_state_coordinate_rejected():
    with pytest.raises(ValueError):
        OscillatorState([0.0, np.nan], [0.0, 0.0])


def test_conflicting_duplicate_spring_rejected():
    with pytest.raises(PreconditionError):
        build_system(chain(3), np.ones(3), [(0, 1, 1.0), (1, 0, 2.0)], 1)


def test_equal_duplicates_around_a_conflicting_spring_still_clash():
    with pytest.raises(PreconditionError, match=r"\(0, 1\)"):
        build_system(chain(3), np.ones(3), [(0, 1, 1.0), (1, 0, 2.0), (0, 1, 1.0)], 1)


def test_spring_list_is_normalized():
    """An equal duplicate is kept once, (j, i) becomes (i, j), a zero spring is dropped."""
    sys = build_system(chain(4), np.ones(4),
                       [(1, 0, 1.5), (0, 1, 1.5), (2, 1, 0.0), (3, 2, 0.5), (3, 3, 2.0)], 1)
    a = sys.a_oracle()
    assert [a.row(i) for i in range(4)] == [
        ((0, 1.5), (1, -1.5)), ((0, -1.5), (1, 1.5)),
        ((2, 0.5), (3, -0.5)), ((2, -0.5), (3, 2.5))]
    i, j, kap, slots = spring_pairs(sys)
    assert list(zip(i.tolist(), j.tolist(), kap.tolist())) == [
        (0, 1, 1.5), (2, 3, 0.5), (3, 3, 2.0)]
    assert slots.tolist() == [pair_index(0, 1, 4), pair_index(2, 3, 4), pair_index(3, 3, 4)]


@pytest.mark.parametrize("seed", range(6))
def test_spring_table_is_sorted_by_site_and_other(seed):
    """The table merged from its two halves equals a lexsort of the both-ends
    list, for spring lists with equal duplicates, reversed pairs and walls."""
    rng = np.random.default_rng(seed)
    graph = [chain(40), grid([7, 9]), grid([4, 5, 3])][seed % 3]
    r0 = 1 + seed % 2
    springs = {(i, j): float(rng.uniform(1e-3, 1e3)) for i in range(graph.n_sites)
               for j in graph.ball(i, r0) if j >= i and rng.random() < 0.6}
    rows = [(i, j, k) for (i, j), k in springs.items()]
    rows += [rows[k] for k in rng.integers(0, len(rows), 20)]
    rows += [(j, i, k) for i, j, k in (rows[k] for k in rng.integers(0, len(rows), 20))]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    sys = build_system(graph, rng.uniform(0.5, 2.0, graph.n_sites), rows, r0)
    i, j = np.array(list(springs), dtype=np.int64).T
    kap = np.array(list(springs.values()))
    pair = i != j
    sites, others = np.concatenate((i, j[pair])), np.concatenate((j, i[pair]))
    order = np.lexsort((others, sites))
    table = spring_table(sys)
    assert np.array_equal(table[0], sites[order])
    assert np.array_equal(table[1], others[order])
    assert np.array_equal(table[2].view(np.uint64),
                          np.concatenate((kap, kap[pair]))[order].view(np.uint64))


@pytest.mark.parametrize("springs", [{}, [], [(0, 1, 0.0)]], ids=["dict", "list", "zero"])
def test_springless_system_moves_freely(springs):
    sys = build_system(chain(2), [1.0, 4.0], springs, 1)
    assert sys.a_norm_bound == 0.0
    assert [sys.a_oracle().row(i) for i in range(2)] == [(), ()]
    state = OscillatorState([0.3, -0.2], [0.6, 0.4])
    assert total_energy(sys, state) == pytest.approx(0.5 * (0.36 + 4.0 * 0.16))
    assert psi0(sys, state).support.tolist() == [0, 1]


# =====================================================================
# norm bounds
# =====================================================================


def test_norm_bound_dominates_dense_norm_on_chains():
    rng = np.random.default_rng(102)
    for _ in range(5):
        sys = _random_chain_system(rng, 12)
        dense = dense_from_oracle(sys.a_oracle()).entries
        assert spectral_norm(dense) <= sys.a_norm_bound + 1e-12
        assert sys.h_norm_bound == pytest.approx(np.sqrt(sys.a_norm_bound))


def test_norm_bound_dominates_dense_norm_on_uniform_grid():
    """Uniform springs on a 2D grid drive ||A|| past N(r0) kappa/m; the bound must cover it."""
    g = grid([5, 4])
    springs = {}
    for i in range(20):
        for j in g.ball(i, 1):
            if j > i:
                springs[(i, j)] = 1.0
    sys = build_system(g, np.ones(20), springs, 1)
    dense = dense_from_oracle(sys.a_oracle()).entries
    nrm = spectral_norm(dense)
    assert nrm > g.locality_function(1) * 1.0  # the naive bound is genuinely exceeded
    assert nrm <= sys.a_norm_bound + 1e-12


# =====================================================================
# energy and the embedded state
# =====================================================================


def test_two_mass_stretch_energy():
    sys = build_system(chain(2), [1.0, 1.0], {(0, 1): 1.0}, 1)
    assert total_energy(sys, OscillatorState([1.0, -1.0], [0.0, 0.0])) == 2.0


def test_wall_spring_energy():
    sys = build_system(chain(1), [1.0], {(0, 0): 1.0}, 1)
    assert total_energy(sys, OscillatorState([1.0], [0.0])) == 0.5


@pytest.mark.parametrize("kind", SYSTEMS)
def test_energy_matches_dense_quadratic_forms(kind):
    rng = np.random.default_rng(103)
    sys = SYSTEMS[kind](rng)
    n = sys.n_sites
    state = OscillatorState(rng.normal(size=n), rng.normal(size=n))
    b = _dense_b(sys)
    sqm = np.sqrt(sys.masses)
    kinetic = 0.5 * np.linalg.norm(sqm * state.xdot) ** 2
    potential = 0.5 * np.linalg.norm(b.conj().T @ (sqm * state.x)) ** 2
    assert total_energy(sys, state) == pytest.approx(kinetic + potential, abs=1e-12)


def test_single_oscillator_initial_state_is_pinned():
    sys = build_system(chain(1), [1.0], {(0, 0): 1.0}, 1)
    psi = psi0(sys, OscillatorState([1.0], [0.0]))
    assert psi.dimension == 2
    assert psi.query(0) == 0.0
    assert psi.query(1) == pytest.approx(1j)


@pytest.mark.parametrize("kind", SYSTEMS)
def test_initial_state_is_unit_and_matches_dense_assembly(kind):
    rng = np.random.default_rng(104)
    sys = SYSTEMS[kind](rng)
    n = sys.n_sites
    state = OscillatorState(rng.normal(size=n), rng.normal(size=n))
    psi = psi0(sys, state)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    e = total_energy(sys, state)
    sqm = np.sqrt(sys.masses)
    dense = np.zeros(sys.extended_dim, dtype=np.complex128)
    dense[:n] = sqm * state.xdot / np.sqrt(2.0 * e)
    dense[n:] = 1j * (_dense_b(sys).conj().T @ (sqm * state.x)) / np.sqrt(2.0 * e)
    for idx in range(sys.extended_dim):
        assert abs(psi.query(idx) - dense[idx]) <= 1e-12


def test_rest_state_has_no_unit_embedding():
    sys = build_system(chain(2), [1.0, 1.0], {(0, 1): 1.0}, 1)
    with pytest.raises(PreconditionError):
        psi0(sys, OscillatorState([0.0, 0.0], [0.0, 0.0]))


# =====================================================================
# the state's kept embedding
# =====================================================================


def _count_energy_passes(monkeypatch) -> list:
    """Wrap oscillators._energy, the pass of an embedding over the state; returns its call log."""
    calls, energy = [], oscillators._energy

    def counted(sys, state):
        calls.append(sys)
        return energy(sys, state)

    monkeypatch.setattr(oscillators, "_energy", counted)
    return calls


def _embedding_outputs(sys, state_of, v):
    """Everything read from the embedding, as bytes and counts, each call on state_of()."""
    psi = psi0(sys, state_of())
    obs = estimate_observable(sys, state_of(), v, 0.7, 0.2, 0.1, seed=130)
    en = estimate_energy(sys, state_of(), [0, 2], [(1, 2)], 0.7, 0.2, 0.1, seed=131)
    sites = np.arange(sys.extended_dim)
    return (total_energy(sys, state_of()), psi.support.tobytes(), psi.masses.tobytes(),
            psi.query_many(sites).tobytes(), obs.value, obs.samples_used,
            en.value, en.samples_used)


def test_state_is_embedded_once_and_reads_as_fresh_states(monkeypatch):
    rng = np.random.default_rng(132)
    sys = _random_chain_system(rng, 6)
    x, xdot = rng.normal(size=6), rng.normal(size=6)
    v = sparse_vector_oracle(sys.extended_dim, {1: 0.6, 9: 0.8j})
    fresh = _embedding_outputs(sys, lambda: OscillatorState(x, xdot), v)
    calls = _count_energy_passes(monkeypatch)
    state = OscillatorState(x, xdot)
    first = _embedding_outputs(sys, lambda: state, v)
    assert len(calls) == 1
    assert _embedding_outputs(sys, lambda: state, v) == first
    assert len(calls) == 1
    assert first == fresh


def test_cli_time_series_embeds_its_state_once(tmp_path, monkeypatch):
    cfg = {"system": {"graph": {"kind": "chain", "n_sites": 4}, "r0": 1,
                      "masses": [1.0] * 4, "springs": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 1.0]]},
           "state": {"x": [1.0, -0.5, 0.0, 0.2], "xdot": [0.0, 0.3, 0.0, 0.0]},
           "v": {"kind": "point", "site": 0}, "t_grid": [0.0, 0.5, 1.0],
           "eps": 0.2, "delta": 0.2}
    path = tmp_path / "osc.json"
    path.write_text(json.dumps(cfg))
    calls = _count_energy_passes(monkeypatch)
    assert main(["oscillator", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_a_second_system_reembeds_and_sizes_are_still_checked(monkeypatch):
    rng = np.random.default_rng(133)
    one, two = _random_chain_system(rng, 6), _random_chain_system(rng, 6)
    x, xdot = rng.normal(size=6), rng.normal(size=6)
    calls = _count_energy_passes(monkeypatch)
    state = OscillatorState(x, xdot)
    assert total_energy(one, state) == total_energy(one, OscillatorState(x, xdot))
    assert total_energy(two, state) == total_energy(two, OscillatorState(x, xdot))
    assert calls == [one, one, two, two]
    assert state._embedded[0] is two    # one entry: the last system asked
    with pytest.raises(ValueError, match="dimension"):
        total_energy(_random_chain_system(rng, 7), state)
    with pytest.raises(ValueError, match="dimension"):
        psi0(_random_chain_system(rng, 5), state)
    psi0(two, state)
    assert calls == [one, one, two, two]


def test_zero_energy_state_raises_on_every_call(monkeypatch):
    sys = build_system(chain(3), [1.0] * 3, {(0, 1): 1.0, (1, 2): 1.0}, 1)
    v = sparse_vector_oracle(sys.extended_dim, {0: 1.0})
    calls = _count_energy_passes(monkeypatch)
    state = OscillatorState([0.5, 0.5, 0.5], [0.0, 0.0, 0.0])   # no wall: no stretch
    for _ in range(2):
        assert total_energy(sys, state) == 0.0
        with pytest.raises(PreconditionError, match="zero-energy"):
            psi0(sys, state)
        with pytest.raises(PreconditionError, match="zero-energy"):
            estimate_observable(sys, state, v, 0.5, 0.2, 0.1, seed=134)
        with pytest.raises(PreconditionError, match="zero-energy"):
            estimate_energy(sys, state, [0], [], 0.5, 0.2, 0.1, seed=135)
    assert len(calls) == 8 and state._embedded is None


@pytest.mark.filterwarnings("error")
def test_a_state_whose_energy_overflows_embeds_as_the_state_scaled_to_one():
    """E of xdot 1e300 overflows; psi(0) and both estimates are those of the state
    scaled to largest |entry| 1, bit for bit, with no warning."""
    rng = np.random.default_rng(136)
    sys = _random_chain_system(rng, 6)
    x, xdot = np.array([0.0, 0.5, 0.0, -0.25, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0, 0.75, 0.0])
    v = sparse_vector_oracle(sys.extended_dim, {1: 0.6, 9: 0.8j})
    huge = OscillatorState(1e300 * x, 1e300 * xdot)
    assert total_energy(sys, huge) == math.inf
    assert (_embedding_outputs(sys, lambda: huge, v)[1:]
            == _embedding_outputs(sys, lambda: OscillatorState(x, xdot), v)[1:])


@pytest.mark.filterwarnings("error")
def test_a_state_whose_energy_underflows_embeds_as_the_state_scaled_to_one():
    """E of xdot 1e-200 underflows to 0.0, which total_energy reports; psi(0) and
    both estimates are those of the state scaled to largest |entry| 1, bit for bit,
    with no warning."""
    rng = np.random.default_rng(137)
    sys = _random_chain_system(rng, 4)
    v = sparse_vector_oracle(sys.extended_dim, {1: 0.6, 5: 0.8j})
    tiny = OscillatorState([0.0, 5e-201, 0.0, 0.0], [1e-200, 0.0, 0.0, 0.0])
    assert total_energy(sys, tiny) == 0.0
    scaled = OscillatorState(tiny.x / 1e-200, tiny.xdot / 1e-200)
    assert (_embedding_outputs(sys, lambda: tiny, v)[1:]
            == _embedding_outputs(sys, lambda: scaled, v)[1:])


def test_state_holds_read_only_copies():
    x, xdot = np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(4)
    state = OscillatorState(x, xdot)
    x[0, 0] = 9.0
    assert state.x.tolist() == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ValueError, match="read-only"):
        state.x[0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        state.xdot[1] = 5.0
    with pytest.raises(AttributeError):
        state.x = np.ones(4)


def test_psi0_batch_queries_equal_scalar_queries_with_their_own_counters():
    rng = np.random.default_rng(136)
    sys = _grid_wall_system(rng)
    state = OscillatorState(rng.normal(size=12), np.where(rng.random(12) < 0.5, 0.0, 1.0))
    one, two = psi0(sys, state), psi0(sys, state)
    assert one is not two and one.cost is not two.cost
    sites = np.concatenate((rng.integers(0, sys.extended_dim, size=60), one.support[::3],
                            [0, sys.extended_dim - 1, 0]))
    loop = np.array([one.query(i) for i in sites], dtype=np.complex128)
    assert two.query_many(sites).tobytes() == loop.tobytes()
    assert one.cost.snapshot() == two.cost.snapshot()
    assert one.cost.queries == sites.size
    assert psi0(sys, state).cost.snapshot() == {"queries": 0, "samples": 0, "norm_reads": 1}


def test_psi0_builds_one_table_per_embedding(monkeypatch):
    """Three psi0 calls on one state build psi(0)'s sq-oracle once; each call gets
    a copy with its own counter that reads as a fresh state's oracle."""
    rng = np.random.default_rng(137)
    sys = _grid_wall_system(rng)
    x, xdot = rng.normal(size=12), rng.normal(size=12)
    fresh = psi0(sys, OscillatorState(x, xdot))
    built = []
    sq_oracle = oscillators._sq_oracle
    monkeypatch.setattr(oscillators, "_sq_oracle",
                        lambda *args, **kwargs: built.append(args) or sq_oracle(*args, **kwargs))
    state = OscillatorState(x, xdot)
    copies = [psi0(sys, state) for _ in range(3)]
    assert len(built) == 1
    assert len({id(psi.cost) for psi in copies}) == 3
    for psi in copies:
        assert psi.cost.snapshot() == {"queries": 0, "samples": 0, "norm_reads": 1}
        assert psi.support.tobytes() == fresh.support.tobytes()
        assert psi.masses.tobytes() == fresh.masses.tobytes()
    copies[0].sample_many(np.random.default_rng(0), 5)
    assert copies[0].cost.samples == 5 and copies[1].cost.samples == 0


# =====================================================================
# estimation
# =====================================================================


def test_observable_at_t_zero_matches_plain_inner_product():
    rng = np.random.default_rng(105)
    sys = _random_chain_system(rng, 6)
    state = OscillatorState(rng.normal(size=6), rng.normal(size=6))
    v = sparse_vector_oracle(sys.extended_dim, {2: 0.8, 7: 0.6j})
    eps = 0.05
    est = estimate_observable(sys, state, v, 0.0, eps, 0.05, seed=106)
    plain = inner_product_estimate(psi0(sys, state), v, eps, 0.05, seed=106)
    assert abs(est.value - plain.value) <= eps


def test_energy_estimate_full_subsets_is_one():
    rng = np.random.default_rng(107)
    sys = _random_chain_system(rng, 8)
    state = OscillatorState(rng.normal(size=8), rng.normal(size=8))
    est = estimate_energy(sys, state, range(8), list(zip(*spring_pairs(sys)[:2])), 1.3,
                          eps=0.1, delta=0.05, seed=108)
    assert abs(est.value - 1.0) <= 0.1


def test_energy_estimate_empty_subsets_is_zero():
    rng = np.random.default_rng(109)
    sys = _random_chain_system(rng, 8)
    state = OscillatorState(rng.normal(size=8), rng.normal(size=8))
    est = estimate_energy(sys, state, [], [], 0.9, eps=0.1, delta=0.05, seed=110)
    assert est.value == 0.0


def _dense_h(sys) -> np.ndarray:
    """The dilation H = [[0, B], [B^T, 0]] on the extended space."""
    n = sys.n_sites
    b = _dense_b(sys)
    h = np.zeros((sys.extended_dim, sys.extended_dim), dtype=np.complex128)
    h[:n, n:] = b
    h[n:, :n] = b.conj().T
    return h


def _dense_psi0(sys, state) -> np.ndarray:
    psi = psi0(sys, state)
    return np.array([psi.query(k) for k in range(sys.extended_dim)])


def test_point_observable_is_an_entry_of_the_evolved_state():
    rng = np.random.default_rng(112)
    sys = _random_chain_system(rng, 6)
    state = OscillatorState(rng.normal(size=6), rng.normal(size=6))
    t, eps = 0.8, 0.2
    p = exp_poly(sys.h_norm_bound, t, eps / 2.0)
    expected = dense_poly_apply(DenseMatrix(_dense_h(sys)), p, _dense_psi0(sys, state))
    for k in range(sys.extended_dim):
        v = sparse_vector_oracle(sys.extended_dim, {k: 1.0})
        est = estimate_observable(sys, state, v, t, eps, 0.1, seed=113)
        assert abs(est.value - expected[k]) <= 1e-10


def test_energy_query_vector_is_dense_p_dagger_v_p_psi0(monkeypatch):
    rng = np.random.default_rng(114)
    sys = _random_chain_system(rng, 6)
    state = OscillatorState(rng.normal(size=6), rng.normal(size=6))
    mass_subset, spring_subset = [0, 3, 4], [(0, 0), (1, 2), (4, 5)]
    captured = []

    def capture(w, v, eps, delta, seed):
        captured.append(w)
        return inner_product_estimate(w, v, eps, delta, seed)

    monkeypatch.setattr(oscillators, "inner_product_estimate", capture)
    t, eps = 0.9, 0.2
    estimate_energy(sys, state, mass_subset, spring_subset, t, eps, 0.1, seed=115)
    pm = dense_poly_matrix(DenseMatrix(_dense_h(sys)), exp_poly(sys.h_norm_bound, t, eps / 4.0))
    proj = np.zeros(sys.extended_dim)
    proj[mass_subset] = 1.0
    for a, b in spring_subset:
        proj[pair_index(a, b, sys.n_sites)] = 1.0
    expected = pm.conj().T @ (proj * (pm @ _dense_psi0(sys, state)))
    (w,) = captured
    for k in range(sys.extended_dim):
        assert abs(w.query(k) - expected[k]) <= 1e-10


def test_observable_builds_one_light_cone_for_all_sites(monkeypatch):
    origins = []

    class CountingWindow(lightcone.Window):
        def __init__(self, A, sites, depth):
            origins.append(list(sites))
            super().__init__(A, sites, depth)

    monkeypatch.setattr(lightcone, "Window", CountingWindow)
    rng = np.random.default_rng(116)
    sys = _random_chain_system(rng, 6)
    state = OscillatorState(rng.normal(size=6), rng.normal(size=6))
    # uniform v: every velocity slot is drawn, so (top, z) is evaluated at every site
    v = sq_access_from_dense(np.ones(sys.extended_dim))
    estimate_observable(sys, state, v, 0.8, 0.2, 0.1, seed=117)
    assert origins == [list(range(6))]


def test_norm_bound_is_computed_once_per_system(monkeypatch):
    calls = []
    real = SiteGraph.locality_function

    def counting(self, r):
        # the light-cone kernel sizes its chunks from N(r) too; count the norm bound's calls
        if inspect.currentframe().f_back.f_code.co_name == "_schur_bound":
            calls.append(r)
        return real(self, r)

    monkeypatch.setattr(SiteGraph, "locality_function", counting)
    sys = _general_system()
    state = OscillatorState([0.3, -0.2, 0.5, 0.0, 0.1, -0.4], [0.1, 0.0, -0.3, 0.2, 0.0, 0.0])
    v = sparse_vector_oracle(sys.extended_dim, {1: 0.6, 8: 0.8})
    estimate_observable(sys, state, v, 0.5, 0.2, 0.1, seed=118)
    estimate_energy(sys, state, [0, 1], [(1, 2)], 0.5, 0.2, 0.1, seed=119)
    assert len(calls) == 1


def test_energy_estimate_validates_index_ranges():
    sys = build_system(chain(3), np.ones(3), {(0, 1): 1.0, (1, 2): 1.0}, 1)
    state = OscillatorState([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        estimate_energy(sys, state, [5], [], 1.0, 0.1, 0.05, seed=111)
    with pytest.raises(ValueError):
        estimate_energy(sys, state, [], [(0, 7)], 1.0, 0.1, 0.05, seed=111)
    # a pair that is no spring of the system is legal and contributes nothing
    est = estimate_energy(sys, state, [], [(0, 2)], 1.0, 0.1, 0.05, seed=111)
    assert abs(est.value) <= 0.1


def test_energy_spring_subset_is_read_in_its_canonical_form():
    """A reversed, a repeated or a springless pair changes nothing; a wall pair is its own slot."""
    rng = np.random.default_rng(123)
    sys = _grid_wall_system(rng)   # walls at sites 0, 5 and 11, none at 3
    state = OscillatorState(rng.normal(size=12), rng.normal(size=12))

    def value(springs, masses=(1, 4)):
        return estimate_energy(sys, state, masses, springs, 0.7, 0.2, 0.1, seed=124).value

    canonical = value([(0, 1), (4, 8), (5, 5)])
    assert canonical != 0.0
    assert value([(1, 0), (8, 4), (5, 5)]) == canonical
    assert value([(0, 1), (4, 8), (0, 1), (5, 5), (1, 0), (5, 5)]) == canonical
    assert value([(0, 1), (4, 8), (5, 5), (0, 2), (3, 3), (11, 0)]) == canonical
    assert value([(5, 5)], ()) != 0.0
    assert value([(0, 2), (3, 3), (11, 0)], ()) == 0.0


@pytest.mark.parametrize("masses, springs, message", [
    ([12], [], r"mass index 12 out of range"),
    ([-1], [(0, 1)], r"mass index -1 out of range"),
    ([12], [(0, 99)], r"mass index 12 out of range"),
    ([], [(0, 12)], r"spring pair \(0,12\) out of range"),
    ([], [(12, 0)], r"spring pair \(0,12\) out of range"),
    ([0], [(3, -1)], r"spring pair \(-1,3\) out of range"),
])
def test_energy_subset_out_of_range_messages(masses, springs, message):
    sys = _grid_wall_system(np.random.default_rng(125))
    state = OscillatorState(np.ones(12), np.zeros(12))
    with pytest.raises(ValueError, match=message):
        estimate_energy(sys, state, masses, springs, 1.0, 0.2, 0.1, seed=126)


# =====================================================================
# persistence
# =====================================================================


def test_system_json_round_trip(tmp_path):
    path = tmp_path / "system.json"
    path.write_text('{"graph": {"kind": "chain", "n_sites": 4, "boundary": "open"},\n'
                    ' "r0": 1, "masses": [1.0, 2.0, 0.5, 1.5],\n'
                    ' "springs": [[0, 1, 1.0], [2, 1, 0.25], [2, 3, 2.0], [3, 3, 0.5]]}\n')
    back = load_system(path)
    springs = {(0, 1): 1.0, (1, 2): 0.25, (2, 3): 2.0, (3, 3): 0.5}
    sys = build_system(chain(4), [1.0, 2.0, 0.5, 1.5], springs, 1)
    assert back.n_sites == 4
    assert np.array_equal(back.masses, sys.masses)
    i, j, kap, _ = spring_pairs(back)
    assert list(zip(i.tolist(), j.tolist(), kap.tolist())) == [
        (a, b, k) for (a, b), k in springs.items()]
    assert back.r0 == 1
    assert np.array_equal(dense_from_oracle(back.a_oracle()).entries,
                          dense_from_oracle(sys.a_oracle()).entries)


def test_state_csv_round_trip(tmp_path):
    path = tmp_path / "state.csv"
    path.write_text("site,x,xdot\n0,0.5,-1.0\n1,1.25,0.0\n3,-2.0,0.75\n")
    back = read_state_csv(path)
    # site 2 has no row, so it is at rest
    assert np.array_equal(back.x, [0.5, 1.25, 0.0, -2.0])
    assert np.array_equal(back.xdot, [-1.0, 0.0, 0.0, 0.75])
