"""Circuit-to-Hamiltonian embeddings: clock constructions, readout, dilation."""

import numpy as np
import pytest

from glsim import (Gate, PreconditionError, ReversibleCircuit,
                   adjacent_transposition_decomposition, classical_output,
                   dense_cos_sqrt_apply, dense_from_oracle, find_readout_time,
                   fk_classical, fk_long_local, fk_long_undilated,
                   gate_permutation, gate_unitary, j_matrix,
                   overlap_coefficients, parse_circuit,
                   simulate_embedded_circuit, step_operator, w_matrix)

MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def _random_reversible(rng, n: int, length: int) -> ReversibleCircuit:
    gates = []
    for _ in range(length):
        kind = rng.choice(["X", "CNOT", "TOFFOLI"][: n if n < 3 else 3])
        arity = {"X": 1, "CNOT": 2, "TOFFOLI": 3}[kind]
        qubits = tuple(int(q) for q in rng.permutation(n)[:arity])
        gates.append(Gate(kind, qubits))
    return ReversibleCircuit(n=n, gates=tuple(gates))


# =====================================================================
# circuits and gates
# =====================================================================


def test_parse_circuit_text():
    circ = parse_circuit("# header\nCNOT 0 1\nX 2\n\nTOFFOLI 0 1 2  # inline\n")
    assert circ.n == 3 and circ.length == 3
    assert circ.gates[0] == Gate("CNOT", (0, 1))
    assert not circ.has_hadamard


def test_long_rules_enforced():
    ok = ReversibleCircuit(2, (Gate("CNOT", (0, 1)), Gate("H", (1,))))
    ok.validate_long_rules()
    off_target = ReversibleCircuit(2, (Gate("H", (0,)),))
    with pytest.raises(PreconditionError):
        off_target.validate_long_rules()
    doubled = ReversibleCircuit(2, (Gate("H", (1,)), Gate("H", (1,))))
    with pytest.raises(PreconditionError):
        doubled.validate_long_rules()


def test_gate_permutation_pinned_cases():
    assert list(gate_permutation(Gate("CNOT", (0, 1)), 2)) == [0, 1, 3, 2]
    assert list(gate_permutation(Gate("TOFFOLI", (0, 1, 2)), 3)) == [
        0, 1, 2, 3, 4, 5, 7, 6]
    assert list(gate_permutation(Gate("X", (0,)), 2)) == [2, 3, 0, 1]


def test_classical_output_runs_the_permutations():
    circ = parse_circuit("X 0\nCNOT 0 1\n")
    # qubit 0 is the high bit of the 2-bit index
    assert classical_output(circ, 0) == 0b11


def test_gate_unitary_hadamard():
    u = gate_unitary(Gate("H", (0,)), 1)
    assert np.allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2.0))


# =====================================================================
# the short-time clock construction
# =====================================================================


def test_empty_circuit_gives_twice_identity():
    h = fk_classical(ReversibleCircuit(2, ()))
    assert np.array_equal(dense_from_oracle(h.generator).entries, 2.0 * np.eye(4))


def test_single_x_gate_links_two_disjoint_chains():
    h = fk_classical(ReversibleCircuit(1, (Gate("X", (0,)),)))
    dense = dense_from_oracle(h.generator).entries
    expected = 2.0 * np.eye(4)
    expected[h.index(0, 0), h.index(1, 1)] = -1.0
    expected[h.index(1, 1), h.index(0, 0)] = -1.0
    expected[h.index(0, 1), h.index(1, 0)] = -1.0
    expected[h.index(1, 0), h.index(0, 1)] = -1.0
    assert np.array_equal(dense, expected)


def test_random_circuit_clock_matrix_shape():
    rng = np.random.default_rng(131)
    circ = _random_reversible(rng, 3, 6)
    h = fk_classical(circ)
    dense = dense_from_oracle(h.generator).entries
    assert np.allclose(dense, dense.T)
    off = dense - np.diag(np.diag(dense))
    assert off.sum(axis=1).min() >= -2.0 - 1e-12
    assert h.clock_length == 6 and h.basis_dim == 8


def test_hadamard_rejected_by_short_construction():
    with pytest.raises(PreconditionError):
        fk_classical(ReversibleCircuit(2, (Gate("H", (1,)),)))


def test_conjugation_identity_small_circuit():
    rng = np.random.default_rng(132)
    circ = _random_reversible(rng, 2, 3)
    h = fk_classical(circ)
    w = w_matrix(circ)
    lhs = w @ j_matrix(3, 4) @ w.conj().T
    assert np.abs(lhs - dense_from_oracle(h.generator).entries).max() <= 1e-12


# =====================================================================
# overlap coefficients and readout
# =====================================================================


def test_overlap_at_t_zero_is_point_mass():
    alpha = overlap_coefficients(5, 0.0)
    assert np.allclose(alpha, np.eye(6)[0], atol=1e-14)


def test_overlap_total_weight_matches_cosine_norm():
    for length, t in [(4, 1.7), (7, 12.3)]:
        alpha = overlap_coefficients(length, t)
        total = float(np.sum(np.abs(alpha) ** 2))
        assert total <= 1.0 + 1e-12
        j = j_matrix(length, 1)
        from glsim import DenseMatrix
        ref = dense_cos_sqrt_apply(DenseMatrix(j.astype(np.complex128)), t,
                                   np.eye(length + 1)[0])
        assert total == pytest.approx(float(np.linalg.norm(ref) ** 2), abs=1e-12)


def test_overlaps_match_dense_block_amplitudes():
    rng = np.random.default_rng(133)
    circ = _random_reversible(rng, 2, 4)
    h = fk_classical(circ)
    psi_in = np.eye(4)[2]
    run = simulate_embedded_circuit(h, psi_in, 2.9)
    alpha = overlap_coefficients(4, 2.9)
    assert np.abs(run.slice_norms - np.abs(alpha)).max() <= 1e-10


def test_readout_time_for_empty_clock():
    scan = find_readout_time(0)
    assert scan.t_star == 0.0 and scan.overlap == 1.0 and scan.met


def test_readout_scan_meets_threshold_for_l_six():
    scan = find_readout_time(6)
    assert scan.met and scan.overlap >= 1.0 / 32.0
    recomputed = abs(overlap_coefficients(6, scan.t_star)[-1]) ** 2
    assert scan.overlap == pytest.approx(recomputed, abs=1e-12)


# =====================================================================
# permutation decompositions
# =====================================================================


def test_cnot_decomposes_to_single_transposition():
    assert adjacent_transposition_decomposition(Gate("CNOT", (0, 1)), 2) == [(2, 3)]


def test_toffoli_decomposes_to_single_transposition():
    assert adjacent_transposition_decomposition(
        Gate("TOFFOLI", (0, 1, 2)), 3) == [(6, 7)]


@pytest.mark.parametrize("gate,n", [
    (Gate("X", (1,)), 2),
    (Gate("X", (0,)), 3),
    (Gate("CNOT", (0, 1)), 3),
    (Gate("TOFFOLI", (0, 2, 1)), 3),
])
def test_transposition_composition_reproduces_permutation(gate, n):
    swaps = adjacent_transposition_decomposition(gate, n)
    assert len(swaps) <= 4**n
    perm = np.arange(2**n)
    for k, _ in swaps:  # first listed acts first
        tau = np.arange(2**n)
        tau[k], tau[k + 1] = k + 1, k
        perm = tau[perm]
    assert np.array_equal(perm, gate_permutation(gate, n))


# =====================================================================
# the dilated long-time construction
# =====================================================================


def test_dilated_hadamard_defining_identity():
    m = step_operator(("hdil",), 4)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
    assert np.allclose(m, m.T)
    assert set(np.round(np.unique(m), 12)) <= {0.0, np.round(1 / np.sqrt(2), 12)}
    for psi in (np.eye(2)[0], np.eye(2)[1], np.array([0.6, 0.8])):
        got = m @ np.kron(psi, MINUS)
        assert np.abs(got - np.kron(h @ psi, MINUS)).max() <= 1e-12


def test_dilated_permutation_is_gate_tensor_identity():
    swap_data = step_operator(("swap1", 2), 4)
    swap_ext = step_operator(("swap2", 2), 8)
    assert np.array_equal(swap_ext, np.kron(swap_data, np.eye(2)))


def test_single_cnot_long_clock():
    """One CNOT expands to one hopping V_1 = (2,3)-transposition (x) ancilla identity."""
    h = fk_long_local(ReversibleCircuit(2, (Gate("CNOT", (0, 1)),)))
    assert h.gate_sequence == (("swap2", 2),)
    assert h.clock_length == 1 and h.basis_dim == 8
    assert h.generator.dimension == 2 * 8  # two clock slices
    dense = dense_from_oracle(h.generator).entries
    hop = -dense[:8, 8:]
    assert np.array_equal(hop, step_operator(("swap2", 2), 8))


def test_long_clock_matrix_signs_and_row_sums():
    circ = ReversibleCircuit(2, (Gate("CNOT", (0, 1)), Gate("H", (1,)),
                                 Gate("X", (0,))))
    h = fk_long_local(circ)
    dense = dense_from_oracle(h.generator).entries  # also validates r0 = 3 locality
    assert np.allclose(dense, dense.T)
    off = dense - np.diag(np.diag(dense))
    assert off.max() <= 0.0
    row_off = np.abs(off).sum(axis=1)
    cap = 1.0 + 2.0 / np.sqrt(2.0)
    assert row_off.max() <= cap + 1e-12
    assert np.allclose(np.diag(dense), 3.0)


def test_minus_sector_dynamics_match_undilated():
    circ = ReversibleCircuit(2, (Gate("CNOT", (0, 1)), Gate("H", (1,))))
    hd = fk_long_local(circ)
    hu = fk_long_undilated(circ)
    rng = np.random.default_rng(134)
    psi = rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    for t in (0.8, 3.1):
        run_d = simulate_embedded_circuit(hd, psi, t)
        run_u = simulate_embedded_circuit(hu, psi, t)
        slices = hd.clock_length + 1
        blocks = run_d.state.reshape(slices, 4, 2)
        minus_part = blocks @ MINUS
        plus_part = blocks @ PLUS
        assert np.abs(minus_part - run_u.state.reshape(slices, 4)).max() <= 1e-9
        assert np.abs(plus_part).max() <= 1e-9  # |-> ancilla never leaks


# =====================================================================
# embedded simulation
# =====================================================================


def test_simulation_at_t_zero_keeps_first_slice():
    rng = np.random.default_rng(135)
    circ = _random_reversible(rng, 2, 3)
    h = fk_classical(circ)
    psi = rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    run = simulate_embedded_circuit(h, psi, 0.0)
    assert run.slice_norms[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(run.slice_norms[1:]).max() <= 1e-12
    assert np.abs(run.state.reshape(4, 4)[0] - psi).max() <= 1e-12


def test_last_slice_distribution_is_circuit_output():
    rng = np.random.default_rng(136)
    circ = _random_reversible(rng, 3, 6)
    h = fk_classical(circ)
    z0 = 5
    scan = find_readout_time(6)
    run = simulate_embedded_circuit(h, np.eye(8)[z0], scan.t_star)
    out = classical_output(circ, z0)
    assert run.last_distribution[out] == pytest.approx(1.0, abs=1e-12)
