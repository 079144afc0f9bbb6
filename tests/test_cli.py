"""Command-line driver: config validation, reports, series, exit codes."""

import csv
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glsim
from glsim import DEFAULT_SEED
from glsim.cli import main


def _write_config(tmp_path, name: str, cfg: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_report(out_dir, name: str) -> dict:
    with open(out_dir / name) as fh:
        return json.load(fh)


ESTIMATE_CFG = {
    "matrix": {"kind": "tridiagonal", "n": 24},
    "poly": {"kind": "monomial", "coefficients": [0.0, 0.5], "sup_bound": 1.0},
    "u": {"kind": "point", "site": 3},
    "v": {"kind": "point", "site": 4},
    "eps": 0.2,
    "delta": 0.2,
}


# =====================================================================
# argument parsing
# =====================================================================


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_every_exported_name_resolves():
    assert [name for name in glsim.__all__ if not hasattr(glsim, name)] == []


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# =====================================================================
# estimate: reports and determinism
# =====================================================================


def test_estimate_writes_report_with_outputs_and_cost(tmp_path):
    cfg_path = _write_config(tmp_path, "est.json", ESTIMATE_CFG)
    assert main(["estimate", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    report = _read_report(tmp_path, "estimate_report.json")
    assert report["scenario"] == "estimate"
    # v = e_4, u = e_3, P(A) = A/2: the (4,3) entry of the chain matrix is 1
    assert report["outputs"]["value_re"] == pytest.approx(0.5, abs=0.2)
    assert report["outputs"]["value_im"] == pytest.approx(0.0, abs=0.2)
    assert report["outputs"]["samples_used"] > 0
    assert report["cost"]["A"]["queries"] > 0
    assert report["config"]["seed"] == DEFAULT_SEED


def test_reports_are_identical_up_to_wall_time(tmp_path):
    cfg_path = _write_config(tmp_path, "est.json", ESTIMATE_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["estimate", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert main(["estimate", "--config", cfg_path, "--out", str(out_b)]) == 0
    rep_a = _read_report(out_a, "estimate_report.json")
    rep_b = _read_report(out_b, "estimate_report.json")
    rep_a.pop("wall_time_s")
    rep_b.pop("wall_time_s")
    assert rep_a == rep_b


def test_seed_flag_changes_resolved_config(tmp_path):
    cfg_path = _write_config(tmp_path, "est.json", ESTIMATE_CFG)
    assert main(["estimate", "--config", cfg_path, "--out", str(tmp_path),
                 "--seed", "99"]) == 0
    report = _read_report(tmp_path, "estimate_report.json")
    assert report["config"]["seed"] == 99


def test_output_names_are_honoured(tmp_path):
    cfg = dict(ESTIMATE_CFG, output={"report": "custom.json"})
    cfg_path = _write_config(tmp_path, "est.json", cfg)
    assert main(["estimate", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "custom.json").exists()


def test_point_vectors_stay_sparse_at_any_dimension(tmp_path):
    """point vectors are never densified: n = 2^40 answers as n = 512 does."""
    values = []
    for n in (512, 2 ** 40):
        cfg_path = _write_config(tmp_path, "est.json",
                                 dict(ESTIMATE_CFG, matrix={"kind": "tridiagonal", "n": n}))
        assert main(["estimate", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        values.append(_read_report(tmp_path, "estimate_report.json")["outputs"])
    assert values[0] == values[1]


def test_sparse_vectors_with_zeta_stay_sparse_at_any_dimension(tmp_path):
    """a perturbed sparse v is built over its entries: n = 2^40 answers as n = 512 does."""
    values = []
    for n in (512, 2 ** 40):
        cfg = dict(ESTIMATE_CFG, matrix={"kind": "tridiagonal", "n": n}, zeta=0.01,
                   u={"kind": "sparse", "entries": {"3": 1.0, "5": [0.0, 0.5]}},
                   v={"kind": "sparse", "entries": {"4": 1.0, "6": 0.5}})
        cfg_path = _write_config(tmp_path, "est.json", cfg)
        assert main(["estimate", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        values.append(_read_report(tmp_path, "estimate_report.json")["outputs"])
    assert values[0] == values[1]


def test_point_vector_with_zeta_is_a_precondition_error(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, "est.json", dict(ESTIMATE_CFG, zeta=0.01))
    assert main(["estimate", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


# =====================================================================
# config rejection (exit code 1)
# =====================================================================


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = dict(ESTIMATE_CFG, bogus=1)
    cfg_path = _write_config(tmp_path, "bad.json", cfg)
    assert main(["estimate", "--config", cfg_path, "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_scenario_mismatch_is_rejected(tmp_path, capsys):
    cfg = dict(ESTIMATE_CFG, scenario="sample")
    cfg_path = _write_config(tmp_path, "bad.json", cfg)
    assert main(["estimate", "--config", cfg_path, "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_missing_required_key_is_rejected(tmp_path):
    cfg = {k: v for k, v in ESTIMATE_CFG.items() if k != "eps"}
    cfg_path = _write_config(tmp_path, "bad.json", cfg)
    assert main(["estimate", "--config", cfg_path, "--out", str(tmp_path)]) == 1


def test_malformed_json_is_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["estimate", "--config", str(path), "--out", str(tmp_path)]) == 1


FOUR_MASS_OSCILLATOR_CFG = {
    "system": {"graph": {"kind": "chain", "n_sites": 4}, "r0": 1,
               "masses": [1.0] * 4, "springs": [[0, 1, 1.0], [2, 3, 1.0]]},
    "v": {"kind": "point", "site": 0},
    "t": 0.1,
    "eps": 0.2,
    "delta": 0.2,
}

FOUR_MASS_ENERGY_CFG = {
    "system": FOUR_MASS_OSCILLATOR_CFG["system"],
    "state": {"x": [1.0, 0.0, 0.0, 0.0], "xdot": [0.0] * 4},
    "mass_subset": [0],
    "spring_subset": [[0, 1]],
    "t": 0.1,
    "eps": 0.2,
    "delta": 0.2,
}


SAMPLE_CFG = {
    "matrix": {"kind": "tridiagonal", "n": 16, "i_times": True},
    "t": 0.4,
    "psi": {"kind": "point", "site": 8},
    "eps": 0.1,
    "alpha_min": 0.9,
    "delta": 0.1,
}


@pytest.mark.parametrize("scenario,cfg,files", [
    ("estimate", dict(ESTIMATE_CFG, matrix={"kind": "tridiagonal", "n": 8},
                      u={"kind": "point", "site": 9}), None),
    ("estimate", dict(ESTIMATE_CFG, matrix={
        "kind": "laplacian",
        "graph": {"kind": "grid", "dims": [4, 4], "n_sites": 99}}), None),
    ("oscillator", FOUR_MASS_OSCILLATOR_CFG,
     {"state_file": "site,x,xdot\n-1,0.5,0.0\n3,0.2,0.0\n"}),
    ("oscillator", FOUR_MASS_OSCILLATOR_CFG,
     {"state_file": "site,x,xdot\n3,0.2,0.0\n3,0.7,0.0\n"}),
    ("oscillator", FOUR_MASS_OSCILLATOR_CFG, {"state_file": "site,x,xdot\n3,0.2\n"}),
    ("oscillator", dict(FOUR_MASS_OSCILLATOR_CFG, state_file="missing.csv"), None),
    ("oscillator", dict(FOUR_MASS_OSCILLATOR_CFG,
                        state={"x": [1.0, 0.0, 0.0, 0.0], "xdot": [0.0, 0.0]}), None),
    ("energy", dict(FOUR_MASS_ENERGY_CFG, mass_subset=[7]), None),
    ("energy", dict(FOUR_MASS_ENERGY_CFG, spring_subset=[[0, 9]]), None),
    ("embed", {"mode": "short", "circuit": {"n": 2, "gates": [["X", [5]]]}}, None),
    ("embed", {"mode": "short", "circuit": {"n": 2, "gates": [["FOO", [0]]]}}, None),
    ("embed", {"mode": "long", "circuit_file": "missing.txt"}, None),
    ("estimate", dict(ESTIMATE_CFG, u={"kind": "sparse"}), None),
    ("estimate", dict(ESTIMATE_CFG, poly={"kind": "monomial"}), None),
    ("estimate", dict(ESTIMATE_CFG, matrix={"kind": "laplacian",
                                            "graph": {"kind": "chain"}}), None),
    ("oscillator", {k: v for k, v in FOUR_MASS_OSCILLATOR_CFG.items() if k != "system"},
     {"system_file": json.dumps({"graph": {"kind": "chain", "n_sites": 4}, "r0": 1}),
      "state_file": "site,x,xdot\n0,1.0,0.0\n"}),
    ("pde", {"kind": "schrodinger", "graph": {"kind": "chain", "n_sites": 4}}, None),
    ("oscillator", dict(FOUR_MASS_OSCILLATOR_CFG, state=FOUR_MASS_ENERGY_CFG["state"],
                        system=dict(FOUR_MASS_OSCILLATOR_CFG["system"],
                                    springs=[[0.6, 1, 1.0], [2, 3, 1.0]])), None),
    ("sample", dict(SAMPLE_CFG, matrix={"kind": "tridiagonal", "n": 2 ** 40, "i_times": True},
                    psi={"kind": "uniform"}), None),
    ("sample", dict(SAMPLE_CFG, matrix={"kind": "tridiagonal", "n": 16, "i_times": True,
                                        "offdiag": 2.0 ** 40}), None),
    ("sample", dict(SAMPLE_CFG, matrix={"kind": "random_local", "anti": True,
                                        "graph": {"kind": "chain", "n_sites": 2 ** 20}}), None),
], ids=["point-site-out-of-range", "grid-n-sites-contradicts-dims",
        "state-negative-site", "state-duplicate-site", "state-short-row",
        "state-file-missing", "state-x-xdot-lengths-differ",
        "energy-mass-index-out-of-range", "energy-spring-pair-out-of-range",
        "embed-gate-beyond-n", "embed-unknown-gate", "embed-circuit-file-missing",
        "sparse-vector-without-entries", "monomial-poly-without-coefficients",
        "graph-without-n-sites", "system-file-without-masses-and-springs",
        "schrodinger-without-a", "system-spring-site-not-an-integer",
        "sample-dense-psi-beyond-memory", "sample-degree-beyond-memory",
        "random-local-beyond-the-dense-cap"])
def test_malformed_input_is_a_config_error(tmp_path, capsys, scenario, cfg,
                                           files):
    for key, text in (files or {}).items():
        path = tmp_path / key
        path.write_text(text)
        cfg = dict(cfg, **{key: str(path)})
    cfg_path = _write_config(tmp_path, "bad.json", cfg)
    assert main([scenario, "--config", cfg_path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "Traceback" not in err


# masses and kappas stay off tiny positive values, which raise the degree
# rather than test the input checks
_FLAWS = {
    "mass": st.sampled_from([0.0, -1.0, -1e300, 1e300]),
    "negative-site": st.sampled_from([-1, -3]),
    "out-of-range-site": st.sampled_from([4, 7, 2 ** 40, 1e30]),
    "non-integer-site": st.sampled_from([0.5, 2.25, -0.5]),
    "kappa": st.sampled_from([-1.0, -1e300, math.inf, 0.0]),
    "conflicting-row": st.sampled_from([0.5, 3.0]),
}


@st.composite
def _system_blocks(draw):
    """A 4-site chain with springs between neighbours, then one to three flaws: a
    zero, negative or huge mass; a spring row with a negative, out-of-range or
    non-integer site or a negative or infinite kappa; a row repeating another's
    sites with another kappa."""
    masses = draw(st.lists(st.sampled_from([1.0, 2.5]), min_size=4, max_size=4))
    springs = [[i, i + 1, draw(st.sampled_from([0.5, 1.0, 2.0]))] for i in range(3)]
    for flaw in draw(st.lists(st.sampled_from(sorted(_FLAWS)), min_size=1, max_size=3)):
        value = draw(_FLAWS[flaw])
        if flaw == "mass":
            masses[draw(st.integers(0, 3))] = value
            continue
        row = [draw(st.integers(0, 3)), draw(st.integers(0, 3)), 1.0]
        if flaw == "conflicting-row":
            row = draw(st.sampled_from(springs))[:2] + [value]
        elif flaw == "kappa":
            row[2] = value
        else:
            row[draw(st.integers(0, 1))] = value
        springs.insert(draw(st.integers(0, len(springs))), row)
    return {"graph": {"kind": "chain", "n_sites": 4}, "r0": 1,
            "masses": masses, "springs": springs}


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(system=_system_blocks())
def test_malformed_system_blocks_exit_with_a_documented_code(system):
    """Every system block gives exit 0, 1, 2 or 4 and no exception escapes main."""
    cfg = dict(FOUR_MASS_ENERGY_CFG, system=system)
    with tempfile.TemporaryDirectory() as out:
        path = f"{out}/energy.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["energy", "--config", path, "--out", out]) in (0, 1, 2, 4)


def test_huge_masses_give_a_degree_zero_energy_run(tmp_path):
    """Masses of 1e300 make alpha t about 1e-300; exp_poly once overflowed there (exit 4)."""
    system = dict(FOUR_MASS_ENERGY_CFG["system"], masses=[1e300] * 4)
    path = _write_config(tmp_path, "energy.json", dict(FOUR_MASS_ENERGY_CFG, system=system))
    assert main(["energy", "--config", path, "--out", str(tmp_path)]) == 0
    assert _read_report(tmp_path, "energy_report.json")["outputs"]["points"][0]["value_re"] == 1.0


# sizes are small, or far too large for any memory (2^40 dense entries), never
# in between, where a dense vector or matrix would fill the machine
_BIG = 2 ** 40
_VECTOR_BASES = {
    "point": {"kind": "point", "site": 8},
    "uniform": {"kind": "uniform"},
    "inline": {"kind": "inline", "values": [0.25] * 16},
    "sparse": {"kind": "sparse", "entries": {"3": 0.6, "8": [0.0, 0.8]}},
    "random": {"kind": "random", "seed_key": 1, "floor": 0.1},
}
_VECTOR_FLAWS = {
    "kind": st.sampled_from(sorted(_VECTOR_BASES) + ["bogus"]),
    "site": st.sampled_from([16, _BIG, -1, 0.5, "8"]),
    "values": st.sampled_from([[], [0.25] * 15, [0.0] * 16, [1e300] * 16, [1e-300] * 16,
                               [[0.25, 0.0]] * 16, ["x"] * 16]),
    "entries": st.sampled_from([{}, {"16": 1.0}, {"9" * 20: 1.0}, {"-1": 1.0},
                                {"3": 0.0}, {"3": 1e300, "4": 1e300}]),
    "seed_key": st.sampled_from([-1, 0.5]),
    "floor": st.sampled_from([1e300, -1.0]),
}
_MATRIX_BASES = {
    "tridiagonal": {"kind": "tridiagonal", "n": 16, "i_times": True},
    "laplacian": {"kind": "laplacian", "graph": {"kind": "grid", "dims": [4, 4]}},
    "random_local": {"kind": "random_local", "anti": True,
                     "graph": {"kind": "chain", "n_sites": 16, "boundary": "periodic"}},
}
_MATRIX_FLAWS = {
    "kind": st.sampled_from(sorted(_MATRIX_BASES) + ["bogus"]),
    "n": st.sampled_from([0, 1, _BIG]),
    "diag": st.sampled_from([2.5, 1e300, float(_BIG)]),
    "offdiag": st.sampled_from([0.0, -1.0, 1e300, float(_BIG)]),
    "i_times": st.just(False),
    "anti": st.just(False),
    "r0": st.sampled_from([0, 2]),
    "graph": st.sampled_from([
        {"kind": "bogus"}, {"kind": "chain"}, {"kind": "chain", "n_sites": 0},
        {"kind": "chain", "n_sites": _BIG}, {"kind": "chain", "n_sites": 16, "boundary": "x"},
        {"kind": "grid", "dims": [4, 0]}, {"kind": "grid", "dims": [4, 4], "n_sites": 15},
        {"kind": "grid", "dims": [_BIG, _BIG]}, {"kind": "grid", "dims": []},
        {"kind": "general", "n_sites": 16}, {"kind": "general", "n_sites": 16, "bonds": [[0, 16]]},
        {"kind": "general", "n_sites": 16, "bonds": [[0, -1]]},
        {"kind": "general", "n_sites": 4, "bonds": [[0, 1], [1, 2], [2, 2]]}]),
}


@st.composite
def _flawed_block(draw, bases, flaws):
    """A valid block of a drawn kind, then one to three of its fields set to an
    out-of-range, fractional, negative, huge, mistyped or contradicting value."""
    block = dict(bases[draw(st.sampled_from(sorted(bases)))])
    for key in draw(st.lists(st.sampled_from(sorted(flaws)), unique=True, min_size=1,
                             max_size=3)):
        block[key] = draw(flaws[key])
    return block


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(psi=st.one_of(st.none(), _flawed_block(_VECTOR_BASES, _VECTOR_FLAWS)),
       matrix=st.one_of(st.none(), _flawed_block(_MATRIX_BASES, _MATRIX_FLAWS)))
def test_malformed_sample_blocks_exit_with_a_documented_code(psi, matrix):
    """Every psi vector block and matrix block of the sample config gives exit 0, 1,
    2 or 4 and no exception escapes main."""
    cfg = dict(SAMPLE_CFG, count=3)
    cfg.update({key: block for key, block in (("psi", psi), ("matrix", matrix))
                if block is not None})
    with tempfile.TemporaryDirectory() as out:
        path = f"{out}/sample.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["sample", "--config", path, "--out", out]) in (0, 1, 2, 4)


# alpha * t stays tiny, or so large that the degree cap is out of reach at once;
# never in between, where exp_poly would build a huge Bessel table
_POLY_BASES = {
    "exp": {"kind": "exp", "t": 0.5},
    "chebyshev": {"kind": "chebyshev", "coefficients": [0.5, 0.25], "interval": [-4.0, 4.0],
                  "sup_bound": 1.0},
    "monomial": {"kind": "monomial", "coefficients": [0.0, 0.5], "sup_bound": 1.0},
}
_POLY_FLAWS = {
    "kind": st.sampled_from(sorted(_POLY_BASES) + ["bogus"]),
    "alpha": st.sampled_from([0.0, -1.0, 1e-300, 1e300, "4"]),
    "t": st.sampled_from([0.0, -0.5, 1e-300, 1e300, -1e300, "0.5"]),
    "tol": st.sampled_from([0.0, -1.0, 1e-300, 2.0]),
    "coefficients": st.sampled_from([[], [0.0], [1e300, 1e300], [1e-300], ["x"], [[1, 2, 3]],
                                     [[0.5, 0.5]]]),
    "interval": st.sampled_from([[1.0, -1.0], [0.0, 0.0], [-1e300, 1e300], [1.0], [-1.0, 1e-300]]),
    "sup_bound": st.sampled_from([0.0, -1.0, 1e-300, 1.25, 1e300]),
}


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(poly=_flawed_block(_POLY_BASES, _POLY_FLAWS))
def test_malformed_poly_blocks_exit_with_a_documented_code(poly):
    """Every poly block of the estimate config gives exit 0, 1, 2 or 4 and no
    exception escapes main."""
    with tempfile.TemporaryDirectory() as out:
        path = f"{out}/estimate.json"
        with open(path, "w") as fh:
            json.dump(dict(ESTIMATE_CFG, poly=poly), fh)
        assert main(["estimate", "--config", path, "--out", out]) in (0, 1, 2, 4)


def test_exp_poly_with_an_overflowing_alpha_t_is_a_precondition_error(tmp_path, capsys):
    """alpha * t = inf once escaped main as an OverflowError."""
    cfg = dict(ESTIMATE_CFG, poly={"kind": "exp", "alpha": 1e300, "t": 1e300})
    path = _write_config(tmp_path, "estimate.json", cfg)
    assert main(["estimate", "--config", path, "--out", str(tmp_path)]) == 2
    assert "is not finite" in capsys.readouterr().err


# three qubits at most, so every embedding stays small
_GATE_ROWS = [["X", [0]], ["CNOT", [0, 1]], ["TOFFOLI", [0, 1, 2]], ["x", [2]]]
_CIRCUIT_FLAWS = {
    "n": st.sampled_from([0, -1, 1, 2.5, "3"]),
    "name": st.sampled_from([5, None, "FOO", "H", "hadamard", ""]),
    "qubits": st.sampled_from(["0", [], [0, 0], [0, 1, 2, 3], [-1], [None], [[0]], [0.5],
                               [True], [2 ** 40], [1e30], [3]]),
    "row": st.sampled_from([["X"], ["X", [0], 1], "X 0", 7, None]),
    "gates": st.sampled_from([[], None, "X 0", {}]),
}


@st.composite
def _circuit_blocks(draw):
    """A valid 3-qubit circuit of one to three classical gates, then one to three
    flaws: n out of range, mistyped or too small; a gate name unknown, mistyped or
    a Hadamard; qubits mistyped, repeated, negative, fractional, out of range or
    of the wrong count; a row or the gate list malformed."""
    gates = [list(row) for row in draw(st.lists(st.sampled_from(_GATE_ROWS), min_size=1,
                                                max_size=3))]
    block = {"n": 3, "gates": gates}
    for flaw in draw(st.lists(st.sampled_from(sorted(_CIRCUIT_FLAWS)), min_size=1,
                              max_size=3)):
        value = draw(_CIRCUIT_FLAWS[flaw])
        k = draw(st.integers(0, len(gates) - 1))
        if flaw in ("n", "gates"):
            block[flaw] = value
        elif flaw == "row":
            gates[k] = value
        elif isinstance(gates[k], list) and len(gates[k]) == 2:
            gates[k] = [value, gates[k][1]] if flaw == "name" else [gates[k][0], value]
    return block


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(circuit=_circuit_blocks(), mode=st.sampled_from(["short", "long"]))
def test_malformed_circuit_blocks_exit_with_a_documented_code(circuit, mode):
    """Every circuit block of the embed config gives exit 0, 1, 2 or 4 and no
    exception escapes main."""
    with tempfile.TemporaryDirectory() as out:
        path = f"{out}/embed.json"
        with open(path, "w") as fh:
            json.dump({"mode": mode, "circuit": circuit}, fh)
        assert main(["embed", "--config", path, "--out", out]) in (0, 1, 2, 4)


@pytest.mark.parametrize("value", [1e300, 1e-300, 1e-170])
def test_inline_values_near_the_float_range_ends_make_a_table(tmp_path, capsys, value):
    """Entries whose squares overflow or underflow still give a table: estimate runs
    (exit 0), and sample, whose psi must be a unit vector, reports that (exit 2)."""
    cfg = dict(ESTIMATE_CFG, u={"kind": "inline", "values": [value] * 24})
    path = _write_config(tmp_path, "estimate.json", cfg)
    assert main(["estimate", "--config", path, "--out", str(tmp_path)]) == 0
    assert math.isfinite(_read_report(tmp_path, "estimate_report.json")["outputs"]["value_re"])
    cfg = dict(SAMPLE_CFG, count=3, psi={"kind": "inline", "values": [value] * 16})
    path = _write_config(tmp_path, "sample.json", cfg)
    assert main(["sample", "--config", path, "--out", str(tmp_path)]) == 2
    assert "psi must be a unit vector" in capsys.readouterr().err


@pytest.mark.parametrize("scenario,cfg,literal", [
    ("sample", dict(SAMPLE_CFG, t="@"), "Infinity"),
    ("sample", dict(SAMPLE_CFG, t="@"), "-Infinity"),
    ("sample", dict(SAMPLE_CFG, t="@"), "NaN"),
    ("sample", dict(SAMPLE_CFG, t="@"), "1e400"),
    ("sample", dict(SAMPLE_CFG, t="@"), "1" + "0" * 400),
    ("pde", {"kind": "wave", "graph": {"kind": "chain", "n_sites": 8}, "c": "@",
             "a": 1.0}, "NaN"),
], ids=["sample-t-infinity", "sample-t-minus-infinity", "sample-t-nan",
        "sample-t-overflowing-literal", "sample-t-400-digit-integer", "pde-wave-c-nan"])
def test_non_finite_config_number_is_a_config_error(tmp_path, capsys, scenario, cfg,
                                                    literal):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg).replace('"@"', literal))
    assert main([scenario, "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"config error: config number {literal[:32]}" in err
    assert "is not finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / f"{scenario}_report.json").exists()


# =====================================================================
# precondition failures (exit code 2)
# =====================================================================


def test_sampling_a_hermitian_generator_fails_preconditions(tmp_path, capsys):
    cfg = {
        "matrix": {"kind": "tridiagonal", "n": 16},  # real symmetric
        "t": 0.5,
        "psi": {"kind": "point", "site": 8},
        "eps": 0.05,
        "alpha_min": 0.5,
        "delta": 0.1,
        "count": 4,
    }
    cfg_path = _write_config(tmp_path, "samp.json", cfg)
    assert main(["sample", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert "precondition failure" in capsys.readouterr().err


# =====================================================================
# sample: series output
# =====================================================================


def test_sample_writes_series_and_counts_acceptances(tmp_path):
    cfg_path = _write_config(tmp_path, "samp.json", SAMPLE_CFG)
    assert main(["sample", "--config", cfg_path, "--out", str(tmp_path),
                 "--count", "8"]) == 0
    report = _read_report(tmp_path, "sample_report.json")
    assert report["outputs"]["count"] == 8
    assert report["outputs"]["accepted"] == 8
    assert report["outputs"]["tv_bound"] < 1.0
    with open(tmp_path / "sample_series.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "site", "accepted", "trials"]
    assert len(rows) == 1 + 8 + 1  # header, samples, summary comment
    sites = [int(r[1]) for r in rows[1:9]]
    assert all(0 <= s < 16 for s in sites)


# =====================================================================
# oscillator and energy pipelines
# =====================================================================

TWO_MASS_SYSTEM = {
    "graph": {"kind": "chain", "n_sites": 2},
    "r0": 1,
    "masses": [1.0, 1.0],
    "springs": [[0, 1, 1.0]],
}


def test_oscillator_time_grid_writes_series(tmp_path):
    cfg = {
        "system": TWO_MASS_SYSTEM,
        "state": {"x": [1.0, -1.0], "xdot": [0.0, 0.0]},
        "v": {"kind": "uniform"},
        "t_grid": [0.0, 0.3],
        "eps": 0.2,
        "delta": 0.2,
    }
    cfg_path = _write_config(tmp_path, "osc.json", cfg)
    assert main(["oscillator", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    report = _read_report(tmp_path, "oscillator_report.json")
    assert len(report["outputs"]["points"]) == 2
    assert report["outputs"]["n_sites"] == 2
    with open(tmp_path / "oscillator_series.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "value_re", "value_im", "samples_used"]
    assert len(rows) == 3


def test_energy_single_time_reports_fraction_near_one(tmp_path):
    cfg = {
        "system": TWO_MASS_SYSTEM,
        "state": {"x": [1.0, -1.0], "xdot": [0.0, 0.0]},
        "mass_subset": [0, 1],
        "spring_subset": [[0, 1]],
        "t": 0.7,
        "eps": 0.1,
        "delta": 0.1,
    }
    cfg_path = _write_config(tmp_path, "en.json", cfg)
    assert main(["energy", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    report = _read_report(tmp_path, "energy_report.json")
    point = report["outputs"]["points"][0]
    assert point["value_re"] == pytest.approx(1.0, abs=0.1)


THREE_MASS_CHAIN = {
    "graph": {"kind": "chain", "n_sites": 3}, "r0": 1,
    "masses": [1.0, 1.0, 1.0], "springs": [[0, 1, 1.0], [1, 2, 1.0]],
}
THREE_MASS_STIFFNESS = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def _three_mass_dense_solution(x0, xdot0, t: float):
    """x(t) and xdot(t) of THREE_MASS_CHAIN (unit masses) by its normal modes."""
    w2, vecs = np.linalg.eigh(THREE_MASS_STIFFNESS)
    w = np.sqrt(np.clip(w2, 0.0, None))
    c, s = vecs.T @ np.asarray(x0), vecs.T @ np.asarray(xdot0)
    x = vecs @ (np.cos(t * w) * c + t * np.sinc(t * w / np.pi) * s)
    xdot = vecs @ (-w * np.sin(t * w) * c + np.cos(t * w) * s)
    return x, xdot


def test_oscillator_at_large_t_matches_the_dense_solution(tmp_path):
    """t = 400 and 4000 on a 3-mass unit chain (norm bound 6) need exp_poly
    degree 998 and 9,837: a fixed 1e-12 recombination check refused the
    first, and the second needs a parity split in O(d), not a refit."""
    x0 = np.array([1.0, 0.0, -1.0])
    for t in (400.0, 4000.0):
        cfg = {
            "system": THREE_MASS_CHAIN,
            "state": {"x": x0.tolist(), "xdot": [0.0, 0.0, 0.0]},
            "v": {"kind": "point", "site": 0},
            "t": t,
            "eps": 0.05,
            "delta": 0.05,
        }
        cfg_path = _write_config(tmp_path, "osc.json", cfg)
        assert main(["oscillator", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        value = _read_report(tmp_path, "oscillator_report.json")["outputs"]["points"][0]["value_re"]
        _, xdot = _three_mass_dense_solution(x0, np.zeros(3), t)
        exact = xdot[0] / math.sqrt(x0 @ THREE_MASS_STIFFNESS @ x0)   # over sqrt(2E)
        assert abs(value - exact) <= 0.05, t


def test_energy_at_large_t_matches_the_dense_solution(tmp_path):
    """The energy pipeline's division by y at degree 1,001 and 9,843: the
    kinetic energy of mass 0 and the potential of spring (0, 1), over E."""
    x0, xdot0 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])
    total = 0.5 * xdot0 @ xdot0 + 0.5 * x0 @ THREE_MASS_STIFFNESS @ x0
    for t in (400.0, 4000.0):
        cfg = {
            "system": THREE_MASS_CHAIN,
            "state": {"x": x0.tolist(), "xdot": xdot0.tolist()},
            "mass_subset": [0],
            "spring_subset": [[0, 1]],
            "t": t,
            "eps": 0.05,
            "delta": 0.05,
        }
        cfg_path = _write_config(tmp_path, "en.json", cfg)
        assert main(["energy", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        value = _read_report(tmp_path, "energy_report.json")["outputs"]["points"][0]["value_re"]
        x, xdot = _three_mass_dense_solution(x0, xdot0, t)
        exact = (0.5 * xdot[0] ** 2 + 0.5 * (x[0] - x[1]) ** 2) / total
        assert abs(value - exact) <= 0.05, t


def test_failed_numerical_check_exits_4(tmp_path, capsys, monkeypatch):
    def refuse(p):
        raise glsim.NumericalCheckError("parity split recombination error 1e-3")

    monkeypatch.setattr(glsim.oscillators, "parity_split", refuse)
    cfg = {
        "system": TWO_MASS_SYSTEM,
        "state": {"x": [1.0, -1.0], "xdot": [0.0, 0.0]},
        "v": {"kind": "point", "site": 0},
        "t": 1.0,
        "eps": 0.2,
        "delta": 0.2,
    }
    cfg_path = _write_config(tmp_path, "osc.json", cfg)
    assert main(["oscillator", "--config", cfg_path, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "numerical check failed: parity split recombination error" in err
    assert "Traceback" not in err


def test_oscillator_requires_exactly_one_time_spec(tmp_path):
    cfg = {
        "system": TWO_MASS_SYSTEM,
        "state": {"x": [1.0, -1.0], "xdot": [0.0, 0.0]},
        "v": {"kind": "uniform"},
        "t": 0.1,
        "t_grid": [0.0, 0.1],
        "eps": 0.2,
        "delta": 0.2,
    }
    cfg_path = _write_config(tmp_path, "osc.json", cfg)
    assert main(["oscillator", "--config", cfg_path, "--out", str(tmp_path)]) == 1


# =====================================================================
# pde pipeline
# =====================================================================


def test_pde_advection_dense_check_confirms_bound(tmp_path):
    cfg = {
        "kind": "advection",
        "velocity": [1.0, 0.5],
        "a": 1.0,
        "n_per_axis": 4,
        "dense_check": True,
    }
    cfg_path = _write_config(tmp_path, "adv.json", cfg)
    assert main(["pde", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    out = _read_report(tmp_path, "pde_report.json")["outputs"]
    assert out["dimension"] == 16
    assert out["bound_ok"] is True
    assert out["dense_norm"] <= out["norm_bound"] + 1e-9


def test_pde_wave_dense_check_matches_scaled_laplacian(tmp_path):
    cfg = {
        "kind": "wave",
        "graph": {"kind": "grid", "dims": [3, 3]},
        "c": 2.0,
        "a": 0.5,
        "dense_check": True,
    }
    cfg_path = _write_config(tmp_path, "wave.json", cfg)
    assert main(["pde", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    out = _read_report(tmp_path, "pde_report.json")["outputs"]
    assert out["n_sites"] == 9
    assert out["max_deviation"] <= 1e-10


def test_pde_advection_missing_field_is_a_config_error(tmp_path):
    cfg = {"kind": "advection", "velocity": [1.0]}
    cfg_path = _write_config(tmp_path, "adv.json", cfg)
    assert main(["pde", "--config", cfg_path, "--out", str(tmp_path)]) == 1


# =====================================================================
# embed pipeline
# =====================================================================


def test_embed_short_scan_simulates_at_readout_time(tmp_path):
    cfg = {
        "mode": "short",
        "circuit": {"n": 2, "gates": [["X", [0]], ["CNOT", [0, 1]]]},
        "scan_readout": True,
        "grid_points": 400,
        "input_z": 0,
    }
    cfg_path = _write_config(tmp_path, "emb.json", cfg)
    assert main(["embed", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    out = _read_report(tmp_path, "embed_report.json")["outputs"]
    assert out["clock_length"] == 2
    assert out["threshold_met"] is True
    assert out["classical_output"] == 3
    # the readout slice reproduces the classical output as a point mass
    dist = out["last_distribution"]
    assert dist.index(max(dist)) == 3
    with open(tmp_path / "embed_series.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "overlap"]
    assert len(rows) == 1 + 400


def test_embed_circuit_file_round_trips(tmp_path):
    circ_path = tmp_path / "circ.txt"
    circ_path.write_text("# tiny program\nX 0\nCNOT 0 1\n")
    cfg_path = _write_config(tmp_path, "emb.json", {"mode": "long"})
    assert main(["embed", "--config", cfg_path, "--circuit", str(circ_path),
                 "--out", str(tmp_path)]) == 0
    out = _read_report(tmp_path, "embed_report.json")["outputs"]
    assert out["mode"] == "long"
    assert out["n_qubits"] == 2
    assert out["gates"] == 2


def test_embed_without_circuit_is_a_config_error(tmp_path):
    cfg_path = _write_config(tmp_path, "emb.json", {"mode": "short"})
    assert main(["embed", "--config", cfg_path, "--out", str(tmp_path)]) == 1


# =====================================================================
# verify pipeline
# =====================================================================


def test_verify_pde_suite_passes_and_prints_a_line(tmp_path, capsys):
    assert main(["verify", "--suite", "pde", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured
    report = _read_report(tmp_path, "verify_report.json")
    assert report["outputs"]["all_passed"] is True
    assert report["outputs"]["criteria"][0]["passed"] is True
