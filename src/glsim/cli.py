"""Command-line interface: scenario configs, one subcommand per pipeline.

Every run resolves a config (JSON file plus flag overrides), validates it
against a closed schema (unknown keys are rejected), dispatches to the
matching pipeline, and writes a JSON report that echoes the full resolved
config, the outputs, oracle cost counters, and wall time.  Reports are
byte-identical for identical config + seed, except for the wall_time_s
field.  Series data (scan curves, sample streams, time grids) goes to CSV.

Exit codes: 0 success, 1 config/schema violation (or sizes that do not fit
in memory), 2 precondition failure, 3 sampler failure (a rejection run
exhausted its trial budget), 4 a failed internal numerical check.  `verify`
also exits 2 when any acceptance criterion fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import jsonschema
import numpy as np

from . import __version__
from .acceptance import DEFAULT_SEED, SUITES, run_suite
from .access import (LocalityError, NumericalCheckError, OracleInconsistencyError,
                     PreconditionError, VectorOracle, local_matrix_from_rows,
                     random_local_pair, rng_stream, sparse_vector_oracle,
                     sq_access_from_dense)
from .embeddings import (Gate, ReversibleCircuit, classical_output,
                         default_scan_horizon, find_readout_time, fk_classical,
                         fk_long_local, parse_circuit, readout_overlap_curve,
                         simulate_embedded_circuit)
from .estimate import evt_gl_estimate
from .lattice import SiteGraph, chain
from .oracle import dense_cap, dense_from_oracle, spectral_norm
from .oscillators import (OscillatorState, estimate_energy, estimate_observable,
                          read_state_csv, system_from_json_dict, load_system)
from .pde import (advection_hamiltonian, graph_laplacian_oracle,
                  schrodinger_hamiltonian, wave_to_oscillators)
from .polyapprox import Polynomial, exp_poly
from .sampling import EvolvedSampler


EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PRECONDITION = 2
EXIT_SAMPLER = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    """Bad config content beyond what the JSON schema can express."""


# =====================================================================
# config schemas (closed: unknown keys are rejected)
# =====================================================================

_COMPLEX = {"oneOf": [
    {"type": "number"},
    {"type": "array", "items": {"type": "number"},
     "minItems": 2, "maxItems": 2},
]}

_GRAPH = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["chain", "grid", "general"]},
        "n_sites": {"type": "integer", "minimum": 1},
        "boundary": {"enum": ["open", "periodic"]},
        "dims": {"type": "array", "items": {"type": "integer", "minimum": 1},
                 "minItems": 1},
        "bonds": {"type": "array", "items": {
            "type": "array", "items": {"type": "integer", "minimum": 0},
            "minItems": 2, "maxItems": 2}},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_MATRIX = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["tridiagonal", "laplacian", "random_local"]},
        "n": {"type": "integer", "minimum": 1},
        "diag": {"type": "number"},
        "offdiag": {"type": "number"},
        "i_times": {"type": "boolean"},
        "graph": _GRAPH,
        "r0": {"type": "integer", "minimum": 1},
        "seed_key": {"type": "integer", "minimum": 0},
        "anti": {"type": "boolean"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_VECTOR = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["point", "uniform", "inline", "sparse", "random"]},
        "site": {"type": "integer", "minimum": 0},
        "values": {"type": "array", "items": _COMPLEX},
        "entries": {"type": "object", "patternProperties":
                    {"^[0-9]+$": _COMPLEX}, "additionalProperties": False},
        "seed_key": {"type": "integer", "minimum": 0},
        "floor": {"type": "number", "minimum": 0},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_POLY = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["exp", "chebyshev", "monomial"]},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "t": {"type": "number"},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "coefficients": {"type": "array", "items": _COMPLEX, "minItems": 1},
        "interval": {"type": "array", "items": {"type": "number"},
                     "minItems": 2, "maxItems": 2},
        "sup_bound": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_OUTPUT = {
    "type": "object",
    "properties": {
        "report": {"type": "string"},
        "series": {"type": "string"},
    },
    "additionalProperties": False,
}

_SYSTEM = {
    "type": "object",
    "properties": {
        "graph": _GRAPH,
        "r0": {"type": "integer", "minimum": 1},
        "masses": {"type": "array", "items": {"type": "number"}},
        "springs": {"type": "array", "items": {
            "type": "array", "minItems": 3, "maxItems": 3,
            "items": {"type": "number"}}},
    },
    "required": ["graph", "r0", "masses", "springs"],
    "additionalProperties": False,
}

_STATE = {
    "type": "object",
    "properties": {
        "x": {"type": "array", "items": {"type": "number"}},
        "xdot": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["x", "xdot"],
    "additionalProperties": False,
}

_CIRCUIT = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "gates": {"type": "array", "items": {
            "type": "array", "minItems": 2, "maxItems": 2,
            "prefixItems": [{"type": "string"},
                            {"type": "array", "items": {"type": "integer", "minimum": 0}}]}},
    },
    "required": ["n", "gates"],
    "additionalProperties": False,
}

_COMMON = {
    "seed": {"type": "integer", "minimum": 0},
    "output": _OUTPUT,
}

# keys shared by the oscillator and energy scenarios
_OSCILLATOR_COMMON = {
    "system": _SYSTEM,
    "system_file": {"type": "string"},
    "state": _STATE,
    "state_file": {"type": "string"},
    "t": {"type": "number"},
    "t_grid": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    "eps": {"type": "number", "exclusiveMinimum": 0},
    "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    **_COMMON,
}

SCHEMAS = {
    "estimate": {
        "type": "object",
        "properties": {
            "scenario": {"const": "estimate"},
            "matrix": _MATRIX,
            "poly": _POLY,
            "u": _VECTOR,
            "v": _VECTOR,
            "eps": {"type": "number", "exclusiveMinimum": 0},
            "delta": {"type": "number", "exclusiveMinimum": 0,
                      "exclusiveMaximum": 1},
            "zeta": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            **_COMMON,
        },
        "required": ["matrix", "poly", "u", "v", "eps", "delta"],
        "additionalProperties": False,
    },
    "sample": {
        "type": "object",
        "properties": {
            "scenario": {"const": "sample"},
            "matrix": _MATRIX,
            "t": {"type": "number"},
            "psi": _VECTOR,
            "eps": {"type": "number", "exclusiveMinimum": 0},
            "alpha_min": {"type": "number", "exclusiveMinimum": 0},
            "delta": {"type": "number", "exclusiveMinimum": 0,
                      "exclusiveMaximum": 1},
            "count": {"type": "integer", "minimum": 1},
            **_COMMON,
        },
        "required": ["matrix", "t", "psi", "eps", "alpha_min", "delta"],
        "additionalProperties": False,
    },
    "oscillator": {
        "type": "object",
        "properties": {
            "scenario": {"const": "oscillator"},
            "v": _VECTOR,
            **_OSCILLATOR_COMMON,
        },
        "required": ["v", "eps", "delta"],
        "additionalProperties": False,
    },
    "energy": {
        "type": "object",
        "properties": {
            "scenario": {"const": "energy"},
            "mass_subset": {"type": "array",
                            "items": {"type": "integer", "minimum": 0}},
            "spring_subset": {"type": "array", "items": {
                "type": "array", "minItems": 2, "maxItems": 2,
                "items": {"type": "integer", "minimum": 0}}},
            **_OSCILLATOR_COMMON,
        },
        "required": ["mass_subset", "spring_subset", "eps", "delta"],
        "additionalProperties": False,
    },
    "pde": {
        "type": "object",
        "properties": {
            "scenario": {"const": "pde"},
            "kind": {"enum": ["advection", "schrodinger", "wave"]},
            "velocity": {"type": "array", "items": {"type": "number"},
                         "minItems": 1},
            "a": {"type": "number", "exclusiveMinimum": 0},
            "n_per_axis": {"type": "integer", "minimum": 2},
            "boundary": {"enum": ["open", "periodic"]},
            "graph": _GRAPH,
            "potential": {"type": "array", "items": {"type": "number"}},
            "potential_const": {"type": "number"},
            "c": {"type": "number", "exclusiveMinimum": 0},
            "dense_check": {"type": "boolean"},
            **_COMMON,
        },
        "required": ["kind"],
        "additionalProperties": False,
    },
    "embed": {
        "type": "object",
        "properties": {
            "scenario": {"const": "embed"},
            "mode": {"enum": ["short", "long"]},
            "circuit": _CIRCUIT,
            "circuit_file": {"type": "string"},
            "scan_readout": {"type": "boolean"},
            "t_max": {"type": "number", "exclusiveMinimum": 0},
            "grid_points": {"type": "integer", "minimum": 2},
            "simulate_at": {"type": "number"},
            "input_z": {"type": "integer", "minimum": 0},
            "psi": _VECTOR,
            **_COMMON,
        },
        "required": ["mode"],
        "additionalProperties": False,
    },
    "verify": {
        "type": "object",
        "properties": {
            "scenario": {"const": "verify"},
            "suite": {"type": "string"},
            "threads": {"type": "integer", "minimum": 1},
            **_COMMON,
        },
        "required": [],
        "additionalProperties": False,
    },
}


# =====================================================================
# spec builders
# =====================================================================


def _as_complex(raw) -> complex:
    if isinstance(raw, (int, float)):
        return complex(raw)
    return complex(float(raw[0]), float(raw[1]))


def build_matrix(spec: dict, seed: int):
    kind = spec["kind"]
    if kind == "tridiagonal":
        if "n" not in spec:
            raise ConfigError("tridiagonal matrix needs n")
        n = spec["n"]
        diag = float(spec.get("diag", 0.0))
        off = float(spec.get("offdiag", 1.0))
        factor = 1j if spec.get("i_times", False) else 1.0

        def row_fn(i: int):
            out = []
            if i > 0:
                out.append((i - 1, factor * off))
            if diag != 0.0:
                out.append((i, factor * diag))
            if i < n - 1:
                out.append((i + 1, factor * off))
            return out

        return local_matrix_from_rows(
            chain(n), 1, row_fn, norm_bound=abs(diag) + 2.0 * abs(off),
            hermitian=factor == 1.0, anti_hermitian=factor == 1j)
    if kind == "laplacian":
        if "graph" not in spec:
            raise ConfigError("laplacian matrix needs a graph")
        return graph_laplacian_oracle(SiteGraph.from_config(spec["graph"]))
    # random_local: reproducible dense-backed instance for demos and tests
    if "graph" not in spec:
        raise ConfigError("random_local matrix needs a graph")
    graph = SiteGraph.from_config(spec["graph"])
    if graph.n_sites > dense_cap():
        raise ConfigError(f"random_local matrix is dense-backed: {graph.n_sites} sites "
                          f"exceed the dense cap {dense_cap()}")
    rng = rng_stream(seed, 6000, int(spec.get("seed_key", 0)))
    oracle, _ = random_local_pair(graph, int(spec.get("r0", 1)), rng,
                                  anti=bool(spec.get("anti", False)))
    return oracle


def build_vector(spec: dict, dim: int, seed: int, role_key: int,
                 zeta: float = 0.0) -> VectorOracle:
    kind = spec["kind"]
    if kind in ("point", "sparse"):
        if kind == "point":
            site = int(spec.get("site", 0))
            if site >= dim:
                raise ConfigError(f"point site {site} out of range for dimension {dim}")
            entries = {site: 1.0 + 0.0j}
        else:
            if "entries" not in spec:
                raise ConfigError("sparse vector needs entries")
            entries = {int(k): _as_complex(v) for k, v in spec["entries"].items()}
            bad = [k for k in entries if k >= dim]
            if bad:
                raise ConfigError(f"sparse entries out of range: {bad}")
        return sparse_vector_oracle(dim, entries, zeta=zeta)
    if kind == "uniform":
        dense = np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    elif kind == "inline":
        vals = [_as_complex(v) for v in spec.get("values", [])]
        if len(vals) != dim:
            raise ConfigError(f"inline vector has {len(vals)} values, need {dim}")
        dense = np.asarray(vals, dtype=np.complex128)
    else:  # random
        rng = rng_stream(seed, 7000, int(spec.get("seed_key", 0)), role_key)
        g = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        floor = float(spec.get("floor", 0.0))
        if floor > 0.0:
            mags = np.abs(g)
            mags[mags == 0] = 1.0
            g = (floor + np.abs(g)) * g / mags
        dense = g / np.linalg.norm(g)
    return sq_access_from_dense(dense, zeta)


def build_poly(spec: dict, default_alpha: float | None) -> Polynomial:
    kind = spec["kind"]
    if kind == "exp":
        alpha = spec.get("alpha", default_alpha)
        if alpha is None:
            raise ConfigError("exp poly needs alpha (no matrix bound available)")
        if "t" not in spec:
            raise ConfigError("exp poly needs t")
        return exp_poly(float(alpha), float(spec["t"]),
                        float(spec.get("tol", 1e-8)))
    if "coefficients" not in spec:
        raise ConfigError(f"{kind} poly needs coefficients")
    coeffs = tuple(_as_complex(c) for c in spec["coefficients"])
    if kind == "chebyshev":
        if "interval" not in spec:
            raise ConfigError("chebyshev poly needs an interval")
        lo, hi = (float(x) for x in spec["interval"])
        return Polynomial(coefficients=coeffs, basis="chebyshev",
                          interval=(lo, hi), sup_bound=spec.get("sup_bound"))
    return Polynomial(coefficients=coeffs, basis="monomial",
                      sup_bound=spec.get("sup_bound"))


def build_circuit(cfg: dict) -> ReversibleCircuit:
    if "circuit_file" in cfg:
        with open(cfg["circuit_file"]) as fh:
            return parse_circuit(fh.read())
    if "circuit" not in cfg:
        raise ConfigError("embed needs circuit or circuit_file")
    spec = cfg["circuit"]
    gates = []
    for kind, qubits in spec["gates"]:   # rows are [name, [qubits]] by the schema
        gates.append(Gate(kind.upper(), tuple(int(q) for q in qubits)))
    return ReversibleCircuit(n=int(spec["n"]), gates=tuple(gates))


def _build_oscillator_inputs(cfg: dict):
    if "system_file" not in cfg and "system" not in cfg:
        raise ConfigError("needs system or system_file")
    if "system_file" in cfg:
        sys_ = load_system(cfg["system_file"])
    else:
        sys_ = system_from_json_dict(cfg["system"])
    if "state_file" in cfg:
        state = read_state_csv(cfg["state_file"])
        rest = (0, max(sys_.n_sites - state.x.size, 0))  # sites after the last row are at rest
        state = OscillatorState(x=np.pad(state.x, rest), xdot=np.pad(state.xdot, rest))
    elif "state" in cfg:
        state = OscillatorState(x=cfg["state"]["x"], xdot=cfg["state"]["xdot"])
    else:
        raise ConfigError("needs state or state_file")
    if state.x.size != sys_.n_sites:
        raise ConfigError(f"state has {state.x.size} sites, system has "
                          f"{sys_.n_sites}")
    return sys_, state


def _time_grid(cfg: dict) -> list:
    if ("t" in cfg) == ("t_grid" in cfg):
        raise ConfigError("give exactly one of t or t_grid")
    return [float(cfg["t"])] if "t" in cfg else [float(t) for t in cfg["t_grid"]]


# =====================================================================
# scenario pipelines (each returns (outputs, cost, series_rows, exit_code))
# =====================================================================


def _run_estimate(cfg: dict):
    seed = cfg["seed"]
    a = build_matrix(cfg["matrix"], seed)
    p = build_poly(cfg["poly"], a.norm_bound)
    u = build_vector(cfg["u"], a.dimension, seed, role_key=0)
    v = build_vector(cfg["v"], a.dimension, seed, role_key=1,
                     zeta=float(cfg.get("zeta", 0.0)))
    rep = evt_gl_estimate(a, p, u, v, float(cfg["eps"]), float(cfg["delta"]),
                          seed)
    outputs = {
        "value_re": rep.value.real,
        "value_im": rep.value.imag,
        "samples_used": rep.samples_used,
        "repetitions": rep.repetitions,
        "poly_degree": p.degree,
    }
    cost = {"A": a.cost.snapshot(), "u": u.cost.snapshot(),
            "v": v.cost.snapshot()}
    return outputs, cost, None, EXIT_OK


def _run_sample(cfg: dict):
    seed = cfg["seed"]
    a = build_matrix(cfg["matrix"], seed)
    psi = build_vector(cfg["psi"], a.dimension, seed, role_key=0)
    sampler = EvolvedSampler(a, float(cfg["t"]), psi, float(cfg["eps"]),
                             alpha_min=float(cfg["alpha_min"]),
                             delta=float(cfg["delta"]), seed=seed)
    count = int(cfg.get("count", 1000))
    results = sampler.draw_many(count)
    accepted = sum(1 for r in results if r.accepted)
    trials = sum(r.trials for r in results)
    rows = [("k", "site", "accepted", "trials")]
    rows += [(k, r.site if r.site is not None else "", int(r.accepted),
              r.trials) for k, r in enumerate(results)]
    rows.append((f"# accepted={accepted} trials={trials} "
                 f"tv_bound={sampler.tv_bound!r}",))
    outputs = {
        "count": count,
        "accepted": accepted,
        "trials": trials,
        "acceptance_rate": accepted / max(trials, 1),
        "phi": sampler.phi,
        "poly_degree": sampler.poly.degree,
        "tv_bound": sampler.tv_bound,
    }
    cost = {"A": a.cost.snapshot(), "psi": psi.cost.snapshot()}
    code = EXIT_OK if accepted == count else EXIT_SAMPLER
    return outputs, cost, rows, code


def _run_oscillator_series(cfg: dict):
    """oscillator (v^dag psi(t)) and energy (subset energy fraction), one estimate per t."""
    seed = cfg["seed"]
    eps, delta = float(cfg["eps"]), float(cfg["delta"])
    sys_, state = _build_oscillator_inputs(cfg)
    if cfg["scenario"] == "oscillator":
        v = build_vector(cfg["v"], sys_.extended_dim, seed, role_key=0)
        label, costs = "value", {"v": v.cost}

        def estimate(t, s):
            return estimate_observable(sys_, state, v, t, eps, delta, s)
    else:
        mass_subset = [int(i) for i in cfg["mass_subset"]]
        spring_subset = [(int(i), int(j)) for i, j in cfg["spring_subset"]]
        label, costs = "energy_fraction", {}

        def estimate(t, s):
            return estimate_energy(sys_, state, mass_subset, spring_subset, t,
                                   eps, delta, s)
    times = _time_grid(cfg)
    rows = [("t", f"{label}_re", f"{label}_im", "samples_used")]
    points = []
    for k, t in enumerate(times):
        rep = estimate(t, seed + k)
        points.append({"t": t, "value_re": rep.value.real,
                       "value_im": rep.value.imag,
                       "samples_used": rep.samples_used})
        rows.append((repr(t), repr(rep.value.real), repr(rep.value.imag),
                     rep.samples_used))
    outputs = {"points": points, "n_sites": sys_.n_sites,
               "extended_dim": sys_.extended_dim}
    cost = {role: c.snapshot() for role, c in costs.items()}
    return outputs, cost, rows if len(times) > 1 else None, EXIT_OK


def _run_pde(cfg: dict):
    kind = cfg["kind"]
    outputs: dict = {"kind": kind}
    if kind == "wave":
        if "graph" not in cfg or "c" not in cfg or "a" not in cfg:
            raise ConfigError("wave needs graph, c, and a")
        lap = graph_laplacian_oracle(SiteGraph.from_config(cfg["graph"]))
        sys_ = wave_to_oscillators(lap, c=float(cfg["c"]), a=float(cfg["a"]))
        outputs.update(n_sites=sys_.n_sites, extended_dim=sys_.extended_dim,
                       a_norm_bound=sys_.a_norm_bound,
                       h_norm_bound=sys_.h_norm_bound)
        if cfg.get("dense_check", False):
            scale = (float(cfg["c"]) / float(cfg["a"])) ** 2
            a_dense = dense_from_oracle(sys_.a_oracle()).entries
            l_dense = dense_from_oracle(lap).entries
            outputs["max_deviation"] = float(
                np.abs(a_dense - scale * l_dense).max())
        return outputs, {}, None, EXIT_OK
    if kind == "advection":
        for key in ("velocity", "a", "n_per_axis"):
            if key not in cfg:
                raise ConfigError(f"advection needs {key}")
        velocity = cfg["velocity"]
        h = advection_hamiltonian(velocity, float(cfg["a"]),
                                  int(cfg["n_per_axis"]), len(velocity),
                                  boundary=cfg.get("boundary", "periodic"))
    else:  # schrodinger
        if "graph" not in cfg or "a" not in cfg:
            raise ConfigError("schrodinger needs graph and a")
        lap = graph_laplacian_oracle(SiteGraph.from_config(cfg["graph"]))
        if "potential" in cfg:
            pot = np.asarray(cfg["potential"], dtype=np.float64)
        else:
            pot = np.full(lap.dimension, float(cfg.get("potential_const", 0.0)))
        h = schrodinger_hamiltonian(lap, pot, float(cfg["a"]))
    outputs.update(dimension=h.dimension, r0=h.r0, norm_bound=h.norm_bound)
    if cfg.get("dense_check", False):
        dense = dense_from_oracle(h).entries
        outputs["dense_norm"] = spectral_norm(dense)
        outputs["bound_ok"] = outputs["dense_norm"] <= h.norm_bound + 1e-9
    return outputs, {}, None, EXIT_OK


def _run_embed(cfg: dict):
    seed = cfg["seed"]
    circuit = build_circuit(cfg)
    mode = cfg["mode"]
    outputs: dict = {"mode": mode, "n_qubits": circuit.n,
                     "gates": circuit.length}
    rows = None
    if mode == "short":
        h = fk_classical(circuit)
    else:
        h = fk_long_local(circuit)
    outputs.update(clock_length=h.clock_length, dimension=h.dimension,
                   norm_bound=h.generator.norm_bound)
    t_star = None
    if cfg.get("scan_readout", False):
        grid_points = int(cfg.get("grid_points", 10_000))
        scan = find_readout_time(h.clock_length, t_max=cfg.get("t_max"),
                                 grid_points=grid_points)
        outputs.update(t_star=scan.t_star, overlap=scan.overlap,
                       threshold=scan.threshold, threshold_met=scan.met)
        t_star = scan.t_star
        t_max = float(cfg.get("t_max", default_scan_horizon(h.clock_length)))
        ts = np.linspace(0.0, t_max, grid_points)
        rows = [("t", "overlap")]
        for t, ov in zip(ts, readout_overlap_curve(h.clock_length, ts)):
            rows.append((repr(float(t)), repr(float(ov))))
    if "simulate_at" in cfg or (cfg.get("scan_readout") and mode == "short"):
        t_sim = float(cfg.get("simulate_at", t_star if t_star is not None else 0.0))
        dim = 2 ** circuit.n
        if "psi" in cfg:
            psi_or = build_vector(cfg["psi"], dim, seed, role_key=0)
            psi_in = np.array([psi_or.query(i) for i in range(dim)])
        else:
            psi_in = np.zeros(dim)
            psi_in[int(cfg.get("input_z", 0))] = 1.0
        run = simulate_embedded_circuit(h, psi_in, t_sim)
        outputs.update(
            simulate_at=t_sim,
            slice_norms=[float(x) for x in run.slice_norms],
            last_distribution=(None if run.last_distribution is None
                               else [float(x) for x in run.last_distribution]))
        if circuit.n <= 6 and not circuit.has_hadamard:
            outputs["classical_output"] = classical_output(
                circuit, int(cfg.get("input_z", 0)))
    return outputs, {}, rows, EXIT_OK


def _run_verify(cfg: dict):
    suite = cfg.get("suite", "all")
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; have {sorted(SUITES)}")
    threads = int(cfg.get("threads", os.cpu_count() or 1))
    results = run_suite(SUITES[suite], seed=cfg["seed"], threads=threads)
    for res in results:
        print(res.line)
    outputs = {
        "suite": suite,
        "criteria": [{"name": r.name, "passed": r.passed, "details": r.details,
                      "seconds": round(r.seconds, 3)} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    code = EXIT_OK if outputs["all_passed"] else EXIT_PRECONDITION
    return outputs, {}, None, code


PIPELINES = {
    "estimate": _run_estimate,
    "sample": _run_sample,
    "oscillator": _run_oscillator_series,
    "energy": _run_oscillator_series,
    "pde": _run_pde,
    "embed": _run_embed,
    "verify": _run_verify,
}


# =====================================================================
# driver
# =====================================================================


def _finite(parse):
    """A JSON number parser for json.load: NaN, Infinity, -Infinity and
    literals beyond the float range, such as 1e400 or a 400-digit integer,
    are a ConfigError."""
    def number(text: str):
        try:
            value = parse(text)
            finite = math.isfinite(value)
        except (OverflowError, ValueError):  # past float range, or int's digit limit
            finite = False
        if not finite:
            shown = text if len(text) <= 32 else f"{text[:32]}... ({len(text)} characters)"
            raise ConfigError(f"config number {shown} is not finite")
        return value
    return number


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh, parse_constant=_finite(float), parse_float=_finite(float),
                        parse_int=_finite(int))
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _resolve(scenario: str, args: argparse.Namespace) -> dict:
    cfg = _load_config(args.config)
    if "scenario" in cfg and cfg["scenario"] != scenario:
        raise ConfigError(f"config is for scenario {cfg['scenario']!r}, "
                          f"but the {scenario} subcommand was invoked")
    overrides = {
        "count": getattr(args, "count", None),
        "suite": getattr(args, "suite", None),
        "mode": getattr(args, "mode", None),
        "circuit_file": getattr(args, "circuit", None),
        "threads": getattr(args, "threads", None),
    }
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    if getattr(args, "scan_readout", False):
        cfg["scan_readout"] = True
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("seed", DEFAULT_SEED)
    cfg["scenario"] = scenario
    jsonschema.validate(cfg, SCHEMAS[scenario])
    return cfg


def run_scenario(scenario: str, cfg: dict, out_dir: str) -> int:
    """Validated config -> pipeline -> report + optional CSV; returns exit code."""
    t0 = time.perf_counter()
    outputs, cost, rows, code = PIPELINES[scenario](cfg)
    wall = time.perf_counter() - t0
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "scenario": scenario,
        "config": cfg,
        "outputs": outputs,
        "cost": cost,
        "wall_time_s": round(wall, 6),
    }
    out_cfg = cfg.get("output", {})
    report_path = os.path.join(out_dir, out_cfg.get("report",
                                                    f"{scenario}_report.json"))
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if rows is not None:
        series_path = os.path.join(out_dir, out_cfg.get("series",
                                                        f"{scenario}_series.csv"))
        with open(series_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in rows:
                writer.writerow(row)
        print(f"series: {series_path}")
    print(f"report: {report_path}")
    return code


def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON scenario config (closed schema)")
    common.add_argument("--seed", type=int, metavar="U64",
                        help=f"RNG seed (default {DEFAULT_SEED:#x})")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="directory for reports and series (default .)")

    parser = argparse.ArgumentParser(
        prog="glsim",
        description="Classical simulation of linear dynamics generated by "
                    "geometrically local matrices.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="scenario", required=True)

    sub.add_parser("estimate", parents=[common],
                   help="estimate v^dag P(A) u from oracle access")
    p_sample = sub.add_parser("sample", parents=[common],
                              help="sample sites from a time-evolved state")
    p_sample.add_argument("--count", type=int, help="number of samples")
    sub.add_parser("oscillator", parents=[common],
                   help="estimate v^dag psi(t) for an oscillator network")
    sub.add_parser("energy", parents=[common],
                   help="estimate subset energy fractions at time t")
    sub.add_parser("pde", parents=[common],
                   help="build PDE front-end generators and check bounds")
    p_embed = sub.add_parser("embed", parents=[common],
                             help="circuit-to-clock-matrix embeddings")
    p_embed.add_argument("--mode", choices=["short", "long"])
    p_embed.add_argument("--circuit", metavar="PATH",
                         help="circuit text file (one gate per line)")
    p_embed.add_argument("--scan-readout", action="store_true",
                         dest="scan_readout",
                         help="scan |overlap(t)|^2 and pick t_star")
    p_verify = sub.add_parser("verify", parents=[common],
                              help="run acceptance criteria suites")
    p_verify.add_argument("--suite", choices=sorted(SUITES),
                          help="criteria suite (default all)")
    p_verify.add_argument("--threads", type=int, metavar="N",
                          help="cap worker parallelism (results are "
                          "seed-deterministic regardless)")
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    scenario = args.scenario
    try:
        cfg = _resolve(scenario, args)
    except (ConfigError, jsonschema.ValidationError, json.JSONDecodeError,
            OSError, KeyError) as exc:
        msg = getattr(exc, "message", None) or str(exc)
        print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run_scenario(scenario, cfg, args.out)
    except (PreconditionError, LocalityError, OracleInconsistencyError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalCheckError as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        # in glsim a ValueError means bad input; ConfigError is one of them
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a dense vector or a polynomial degree too large for the config's sizes
        print(f"config error: the config needs more memory than there is: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
