"""glsim: classical simulation of linear dynamics with geometrically local generators.

The package estimates single entries and inner products of P(A)u for
polynomials P of geometrically local matrices A, using only local matrix
rows and sampling access to the vectors.  On top of that core it simulates
coupled oscillator networks and discretized PDEs, samples sites from
time-evolved states, and builds clock-register matrices whose dynamics
replay reversible (and one-Hadamard) circuits.  Everything is checked
against a dense brute-force oracle in the test suite and the acceptance
criteria in glsim.acceptance.
"""

from .access import (CostCounter, LocalityError, LocalMatrixOracle,
                     NumericalCheckError, OracleInconsistencyError,
                     PreconditionError, VectorOracle,
                     local_matrix_from_rows, rng_stream, scale_matrix_oracle,
                     sparse_vector_oracle, sq_access_from_dense)
from .acceptance import CriterionResult, DEFAULT_SEED, SUITES, run_criterion, run_suite
from .embeddings import (ClockHamiltonian, EmbeddedRun, Gate, ReadoutScan,
                         ReversibleCircuit, adjacent_transposition_decomposition,
                         classical_output, default_scan_horizon,
                         find_readout_time, fk_classical, fk_long_local,
                         fk_long_undilated, gate_permutation, gate_unitary,
                         j_matrix, overlap_coefficients, parse_circuit,
                         readout_overlap_curve, simulate_embedded_circuit,
                         step_operator, w_matrix)
from .estimate import EstimateReport, evt_gl_estimate, inner_product_estimate
from .lattice import SiteGraph, chain, general, grid
from .lightcone import entry_of_poly_apply, poly_apply_query_oracle, window_entries
from .oracle import (DenseMatrix, dense_cap, dense_cos_sqrt_apply,
                     dense_evolve, dense_from_oracle, dense_poly_apply,
                     dense_poly_matrix, spectral_norm)
from .oscillators import (OscillatorState, OscillatorSystem, build_system,
                          estimate_energy, estimate_observable,
                          extended_dimension, load_system, pair_index, psi0,
                          read_state_csv, system_from_json_dict, total_energy)
from .pde import (advection_hamiltonian, graph_laplacian_oracle,
                  schrodinger_hamiltonian, stencil_oracle, wave_to_oscillators)
from .polyapprox import (Polynomial, bessel_j_sequence, divide_out_zero, exp_poly,
                         mul_by_x, parity_split)
from .sampling import (EvolvedSampler, OversamplerHandle, RejectionResult,
                       lightcone_oversampler, rejection_sample, tv_error_bound)

__version__ = "0.1.0"

__all__ = [
    "ClockHamiltonian", "CostCounter", "CriterionResult", "DEFAULT_SEED",
    "DenseMatrix", "EmbeddedRun", "EstimateReport",
    "EvolvedSampler", "Gate", "LocalMatrixOracle", "LocalityError",
    "NumericalCheckError", "OracleInconsistencyError", "OscillatorState", "OscillatorSystem",
    "OversamplerHandle", "Polynomial", "PreconditionError", "ReadoutScan",
    "RejectionResult", "ReversibleCircuit", "SUITES", "SiteGraph", "VectorOracle",
    "adjacent_transposition_decomposition", "advection_hamiltonian",
    "bessel_j_sequence", "build_system", "chain", "classical_output",
    "default_scan_horizon", "dense_cap", "dense_cos_sqrt_apply",
    "dense_evolve", "dense_from_oracle", "dense_poly_apply",
    "dense_poly_matrix", "divide_out_zero",
    "entry_of_poly_apply", "estimate_energy", "estimate_observable",
    "evt_gl_estimate", "exp_poly", "extended_dimension", "find_readout_time",
    "fk_classical", "fk_long_local", "fk_long_undilated", "gate_permutation",
    "gate_unitary", "general", "graph_laplacian_oracle", "grid",
    "inner_product_estimate", "j_matrix",
    "lightcone_oversampler", "load_system",
    "local_matrix_from_rows", "mul_by_x", "overlap_coefficients",
    "pair_index", "parity_split", "parse_circuit",
    "poly_apply_query_oracle", "psi0",
    "read_state_csv", "readout_overlap_curve", "rejection_sample",
    "rng_stream", "run_criterion", "run_suite",
    "scale_matrix_oracle", "schrodinger_hamiltonian",
    "simulate_embedded_circuit", "sparse_vector_oracle", "spectral_norm",
    "sq_access_from_dense", "stencil_oracle", "step_operator", "system_from_json_dict",
    "total_energy", "tv_error_bound", "w_matrix",
    "wave_to_oscillators", "window_entries",
]
