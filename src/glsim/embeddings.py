"""Circuit-to-Hamiltonian embeddings with clock registers.

Short-time construction: for a Hadamard-free reversible circuit U_L...U_1 on
n qubits, the PSD matrix

    A_FK = 2I - sum_l (|l+1><l| x U_l + |l><l+1| x U_l^T)

generates wave-style dynamics cos(sqrt(A_FK) t) whose clock-slice amplitudes
follow the circuit: slice l carries alpha_l(t) U_{l-1}...U_1 psi_0, with
alpha the overlap coefficients of the plain (L+1)-site chain.  The induced
interaction graph is 2^n disjoint chains, so A_FK is (1, 3)-geometrically
local in the per-chain layout.

Long-time construction: every reversible gate is expanded into adjacent
basis transpositions (bubble sort), Hadamards (restricted to the last qubit,
never consecutive) become the symmetric dilation
H_dil = (1/sqrt 2)[[I,I],[I,X]] on (target, ancilla), and

    A_L = 3I - sum_m (|m+1><m| x V_m + h.c.)

has nonpositive off-diagonals with row sums <= 1 + 2/sqrt(2) < 3 (diagonal
dominance) and is (3, N(3))-geometrically local on the 2D grid indexed by
(clock, extended basis).

Index conventions: clock slices are 0-based internally (slice l holds the
state after l gates); qubit q corresponds to bit (n-1-q) of the basis index
(qubit 0 is the most significant bit); the dilation ancilla is appended as
the least significant bit, z_ext = 2 z_data + ancilla.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .access import (LocalMatrixOracle, PreconditionError,
                     local_matrix_from_rows)
from .lattice import general, grid
from .oracle import dense_cos_sqrt_apply, dense_from_oracle

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_GATE_ARITY = {"X": 1, "CNOT": 2, "TOFFOLI": 3, "H": 1}


# =====================================================================
# circuits
# =====================================================================


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple

    def __post_init__(self):
        if self.kind not in _GATE_ARITY:
            raise ValueError(f"unknown gate {self.kind!r}")
        q = tuple(int(x) for x in self.qubits)
        if len(q) != _GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_GATE_ARITY[self.kind]} qubits, got {q}")
        if len(set(q)) != len(q):
            raise ValueError(f"{self.kind} qubits must be distinct: {q}")
        object.__setattr__(self, "qubits", q)


@dataclass(frozen=True)
class ReversibleCircuit:
    n: int
    gates: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        for g in self.gates:
            if max(g.qubits) >= self.n:
                raise ValueError(f"gate {g} exceeds {self.n} qubits")
        object.__setattr__(self, "gates", tuple(self.gates))

    @property
    def length(self) -> int:
        return len(self.gates)

    @property
    def has_hadamard(self) -> bool:
        return any(g.kind == "H" for g in self.gates)

    def validate_long_rules(self):
        """Hadamards only on the last qubit, never two in a row."""
        prev_h = False
        for g in self.gates:
            if g.kind == "H":
                if g.qubits[0] != self.n - 1:
                    raise PreconditionError(
                        f"Hadamard must target the last qubit ({self.n - 1}), "
                        f"got {g.qubits[0]}")
                if prev_h:
                    raise PreconditionError("two consecutive Hadamard gates")
                prev_h = True
            else:
                prev_h = False


def parse_circuit(text: str, n: int | None = None) -> ReversibleCircuit:
    """One gate per line: `X 0`, `CNOT 0 1`, `TOFFOLI 0 1 2`, `H 2`. # comments."""
    gates = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].upper()
        if kind == "HADAMARD":
            kind = "H"
        gates.append(Gate(kind, tuple(int(x) for x in parts[1:])))
    if n is None:
        if not gates:
            raise ValueError("empty circuit needs an explicit qubit count")
        n = max(max(g.qubits) for g in gates) + 1
    return ReversibleCircuit(n=int(n), gates=tuple(gates))


def gate_permutation(g: Gate, n: int) -> np.ndarray:
    """The basis permutation of a classical gate; perm[z] is the image of z."""
    if g.kind == "H":
        raise PreconditionError("Hadamard is not a basis permutation")
    z = np.arange(2 ** n, dtype=np.int64)
    if g.kind == "X":
        bit = 1 << (n - 1 - g.qubits[0])
        return z ^ bit
    if g.kind == "CNOT":
        c = 1 << (n - 1 - g.qubits[0])
        t = 1 << (n - 1 - g.qubits[1])
        return np.where(z & c != 0, z ^ t, z)
    c1 = 1 << (n - 1 - g.qubits[0])
    c2 = 1 << (n - 1 - g.qubits[1])
    t = 1 << (n - 1 - g.qubits[2])
    return np.where((z & c1 != 0) & (z & c2 != 0), z ^ t, z)


def gate_unitary(g: Gate, n: int) -> np.ndarray:
    """Dense 2^n x 2^n unitary of any supported gate."""
    dim = 2 ** n
    if g.kind != "H":
        perm = gate_permutation(g, n)
        U = np.zeros((dim, dim))
        U[perm, np.arange(dim)] = 1.0
        return U
    bit = 1 << (n - 1 - g.qubits[0])
    U = np.zeros((dim, dim))
    for z in range(dim):
        b = 1 if z & bit else 0
        U[z & ~bit, z] = _INV_SQRT2
        U[z | bit, z] = _INV_SQRT2 * (-1.0 if b else 1.0)
    return U


def classical_output(circuit: ReversibleCircuit, z0: int) -> int:
    """Basis index after a Hadamard-free circuit."""
    z = int(z0)
    for g in circuit.gates:
        z = int(gate_permutation(g, circuit.n)[z])
    return z


# =====================================================================
# short-time embedding
# =====================================================================


@dataclass
class ClockHamiltonian:
    """A clock-register generator with its resolved step sequence."""

    generator: LocalMatrixOracle
    gate_sequence: tuple
    n_qubits: int
    clock_length: int
    basis_dim: int          # per-slice basis size (2^n, or 2^(n+1) with ancilla)
    extended: bool = False  # True when a dilation ancilla is appended

    @property
    def dimension(self) -> int:
        return self.generator.dimension

    def index(self, clock: int, z: int) -> int:
        return clock * self.basis_dim + z


def fk_classical(circuit: ReversibleCircuit) -> ClockHamiltonian:
    """A_FK = 2I - hopping for a Hadamard-free circuit; 2^n disjoint chains, r0 = 1."""
    if circuit.has_hadamard:
        raise PreconditionError("the short-time embedding takes Hadamard-free circuits")
    n = circuit.n
    dim_b = 2 ** n
    L = circuit.length
    perms = [gate_permutation(g, n) for g in circuit.gates]
    invs = [np.argsort(p) for p in perms]

    bonds = []
    for l in range(L):
        for z in range(dim_b):
            bonds.append((l * dim_b + z, (l + 1) * dim_b + int(perms[l][z])))
    graph = general((L + 1) * dim_b, bonds)

    def row_fn(idx: int):
        l, z = divmod(idx, dim_b)
        out = [(idx, 2.0)]
        if l > 0:
            out.append(((l - 1) * dim_b + int(invs[l - 1][z]), -1.0))
        if l < L:
            out.append(((l + 1) * dim_b + int(perms[l][z]), -1.0))
        return out

    oracle = local_matrix_from_rows(graph, 1, row_fn, norm_bound=4.0,
                                    hermitian=True, psd=True)
    return ClockHamiltonian(generator=oracle,
                            gate_sequence=tuple(("perm", p, iv) for p, iv in
                                                zip(perms, invs)),
                            n_qubits=n, clock_length=L, basis_dim=dim_b)


def j_matrix(L: int, dim_b: int = 1) -> np.ndarray:
    """(2I - S - S^T) on L+1 clock sites, tensored with an identity block."""
    m = L + 1
    J = 2.0 * np.eye(m)
    for k in range(m - 1):
        J[k, k + 1] = -1.0
        J[k + 1, k] = -1.0
    return np.kron(J, np.eye(dim_b))


def overlap_coefficients(L: int, t: float) -> np.ndarray:
    """alpha[l] for clock slices l = 0..L with cos(sqrt(J) t) e_0 = sum alpha[l] e_l.

    J is the (L+1)-site chain 2I - S - S^T; computed by exact eigendecomposition.
    """
    if L < 0:
        raise PreconditionError("L must be nonnegative")
    lam, V = np.linalg.eigh(j_matrix(L))
    lam = np.clip(lam, 0.0, None)
    e0 = V.conj().T[:, 0]
    return V @ (np.cos(np.sqrt(lam) * float(t)) * e0)


@dataclass(frozen=True)
class ReadoutScan:
    """Grid-scan result for the final-slice overlap |alpha_{L+1}(t)|^2."""

    t_star: float
    overlap: float
    threshold: float
    met: bool


def default_scan_horizon(L: int) -> float:
    return 8.0 * L * L * math.log(L + 2)


def readout_overlap_curve(L: int, ts) -> np.ndarray:
    """|alpha_{L+1}(t)|^2 for each t: last-slice weight of cos(sqrt(J) t) e_0."""
    lam, V = np.linalg.eigh(j_matrix(L))
    roots = np.sqrt(np.clip(lam, 0.0, None))
    weights = V[0, :] * V[L, :]  # <e_L| f(J) |e_0> = sum_k V[L,k] f(lam_k) V[0,k]
    ts = np.asarray(ts, dtype=np.float64).ravel()
    return (np.cos(np.outer(ts, roots)) @ weights) ** 2


def find_readout_time(L: int, t_max: float | None = None,
                      grid_points: int = 10_000) -> ReadoutScan:
    """Maximize |alpha_{L+1}(t)|^2 over a uniform grid on [0, t_max].

    Default horizon 8 L^2 ln(L+2); the scan succeeds when the best overlap
    reaches 1/(4(L+2)).  Failure to meet the threshold is reported in the
    result, not raised.
    """
    if t_max is None:
        t_max = default_scan_horizon(L)
    if grid_points < 1:
        raise PreconditionError("need at least one grid point")
    ts = np.linspace(0.0, max(t_max, 0.0), grid_points) if t_max > 0 else np.zeros(1)
    overlaps = readout_overlap_curve(L, ts)
    best = int(np.argmax(overlaps))
    threshold = 1.0 / (4.0 * (L + 2))
    return ReadoutScan(t_star=float(ts[best]), overlap=float(overlaps[best]),
                       threshold=threshold, met=bool(overlaps[best] >= threshold))


# =====================================================================
# long-time embedding: transpositions + dilated Hadamard
# =====================================================================


def adjacent_transposition_decomposition(g: Gate, n: int) -> list:
    """Adjacent transpositions (k, k+1) composing to g's permutation.

    Bubble sort of the permutation array with left-to-right passes; applying
    the returned transpositions to a basis index in list order reproduces the
    gate (first listed acts first), i.e. perm = T_m o ... o T_1.
    """
    perm = gate_permutation(g, n)
    arr = list(perm)
    swaps = []
    changed = True
    while changed:
        changed = False
        for k in range(len(arr) - 1):
            if arr[k] > arr[k + 1]:
                arr[k], arr[k + 1] = arr[k + 1], arr[k]
                swaps.append((k, k + 1))
                changed = True
    return swaps


def _step_row(step: tuple, z: int) -> list:
    """Nonzeros of row z of the symmetric real step operator V."""
    kind = step[0]
    if kind == "swap1":
        k = step[1]
        if z == k:
            return [(k + 1, 1.0)]
        if z == k + 1:
            return [(k, 1.0)]
        return [(z, 1.0)]
    if kind == "swap2":
        k = step[1]
        zd = z >> 1
        if zd == k:
            return [(z + 2, 1.0)]
        if zd == k + 1:
            return [(z - 2, 1.0)]
        return [(z, 1.0)]
    if kind == "hdil":
        low, rest = z & 3, z & ~3
        partners = {0: (0, 2), 1: (1, 3), 2: (0, 3), 3: (1, 2)}[low]
        return [(rest | p, _INV_SQRT2) for p in partners]
    if kind == "had":
        b = z & 1
        return [(z & ~1, _INV_SQRT2), (z | 1, _INV_SQRT2 * (-1.0 if b else 1.0))]
    raise ValueError(f"unknown step {step!r}")


def _expand_steps(circuit: ReversibleCircuit, dilated: bool) -> list:
    circuit.validate_long_rules()
    steps = []
    for g in circuit.gates:
        if g.kind == "H":
            steps.append(("hdil",) if dilated else ("had",))
            continue
        swaps = adjacent_transposition_decomposition(g, circuit.n)
        kind = "swap2" if dilated else "swap1"
        steps.extend((kind, k) for k, _ in swaps)
    return steps


def _assemble_long(circuit: ReversibleCircuit, dilated: bool) -> ClockHamiltonian:
    steps = _expand_steps(circuit, dilated)
    lp = len(steps)
    dim_b = 2 ** (circuit.n + 1) if dilated else 2 ** circuit.n
    g = grid([lp + 1, dim_b], boundary="open")

    def row_fn(idx: int):
        m, z = divmod(idx, dim_b)
        entries = {idx: 3.0}
        if m > 0:
            for z2, v in _step_row(steps[m - 1], z):
                key = (m - 1) * dim_b + z2
                entries[key] = entries.get(key, 0.0) - v
        if m < lp:
            for z2, v in _step_row(steps[m], z):
                key = (m + 1) * dim_b + z2
                entries[key] = entries.get(key, 0.0) - v
        return list(entries.items())

    oracle = local_matrix_from_rows(g, 3, row_fn, norm_bound=3.0 + 1.0 + 2.0 * _INV_SQRT2,
                                    hermitian=True, psd=True)
    return ClockHamiltonian(generator=oracle, gate_sequence=tuple(steps),
                            n_qubits=circuit.n, clock_length=lp, basis_dim=dim_b,
                            extended=dilated)


def fk_long_local(circuit: ReversibleCircuit) -> ClockHamiltonian:
    """A_L = 3I - adjacent-transposition/dilated-Hadamard hopping; r0 = 3 on the 2D grid.

    Off-diagonals are -1 (transpositions) or -1/sqrt2 (dilated Hadamard);
    row off-diagonal sums are at most 1 + 2/sqrt2, so the matrix is
    diagonally dominant, hence PSD.
    """
    return _assemble_long(circuit, dilated=True)


def fk_long_undilated(circuit: ReversibleCircuit) -> ClockHamiltonian:
    """Same clock expansion with true Hadamard steps (no ancilla).

    Test reference for the dilated construction: the dilated dynamics
    restricted to the ancilla-|-> subspace must reproduce this generator's
    dynamics.  Its off-diagonals are not sign-definite.
    """
    return _assemble_long(circuit, dilated=False)


# =====================================================================
# dense simulation of the embedded dynamics
# =====================================================================


def step_operator(step: tuple, dim: int) -> np.ndarray:
    """Dense symmetric matrix of one clock-step descriptor on a dim-sized basis."""
    V = np.zeros((dim, dim))
    for z in range(dim):
        for z2, val in _step_row(step, z):
            V[z, z2] = val
    return V


@dataclass(frozen=True)
class EmbeddedRun:
    """cos(sqrt(A) t) applied to slice 0: per-slice norms and the final slice."""

    t: float
    state: np.ndarray
    slice_norms: np.ndarray
    last_distribution: np.ndarray | None


def simulate_embedded_circuit(h: ClockHamiltonian, psi0, t: float) -> EmbeddedRun:
    """Dense evolution under cos(sqrt(A) t) from (slice 0) x psi0 [x |->]."""
    psi0 = np.asarray(psi0, dtype=np.complex128).ravel()
    if psi0.size != 2 ** h.n_qubits:
        raise ValueError("psi0 dimension does not match the data register")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise PreconditionError("psi0 must be a unit vector")
    if h.extended:
        minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        block = np.kron(psi0, minus)
    else:
        block = psi0
    y0 = np.zeros(h.dimension, dtype=np.complex128)
    y0[:h.basis_dim] = block
    dense = dense_from_oracle(h.generator)
    yt = dense_cos_sqrt_apply(dense, t, y0)
    slices = yt.reshape(h.clock_length + 1, h.basis_dim)
    norms = np.linalg.norm(slices, axis=1)
    last = slices[-1].copy()
    last_norm = float(np.linalg.norm(last))
    dist = np.abs(last) ** 2 / (last_norm ** 2) if last_norm > 0 else None
    return EmbeddedRun(t=float(t), state=yt, slice_norms=norms,
                       last_distribution=dist)


# =====================================================================
# dense test helpers
# =====================================================================


def w_matrix(circuit: ReversibleCircuit) -> np.ndarray:
    """Block-diagonal W = sum_l |l><l| x (U_l ... U_1); conjugates J x I to A_FK."""
    dim_b = 2 ** circuit.n
    L = circuit.length
    W = np.zeros(((L + 1) * dim_b, (L + 1) * dim_b))
    cum = np.eye(dim_b)
    W[:dim_b, :dim_b] = cum
    for l, g in enumerate(circuit.gates, start=1):
        cum = gate_unitary(g, circuit.n) @ cum
        W[l * dim_b:(l + 1) * dim_b, l * dim_b:(l + 1) * dim_b] = cum
    return W
