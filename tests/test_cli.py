"""End-to-end CLI behavior: exit codes, determinism, config handling."""
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from proctensor import process, recovery, tomography
from proctensor.cli import main
from proctensor.instruments import (INSTRUMENTS, gram_matrix,
                                    instrument_by_name, instrument_to_json)
from proctensor.linalg import builtin, mat_from_json, mat_to_json
from proctensor.presets import PRESETS
from proctensor.states import lambda_state, state_by_name
from proctensor.tomography import counts_to_csv, simulate_counts
from proctensor.walk import circuit_by_name, circuit_to_json, save_circuit


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_states_emit(capsys):
    code, out, _ = run_cli(capsys, ["states", "emit", "--name", "lambda"])
    assert code == 0
    obj = json.loads(out)
    assert obj["dims"] == [2, 2, 2]
    assert np.array_equal(mat_from_json(obj["matrix"]), lambda_state())
    code, _, err = run_cli(capsys, ["states", "emit", "--name", "phi"])
    assert code == 2
    assert "error" in err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_process_build_and_check_roundtrip(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    code, _, _ = run_cli(capsys, ["process", "build", "--state", "lambda",
                                  "--out", str(proc)])
    assert code == 0
    code, out, _ = run_cli(capsys, ["process", "check", "--process",
                                    str(proc)])
    assert code == 0
    assert json.loads(out)["ok"]
    # a tampered matrix no longer factors as state x identity outputs
    obj = json.loads(proc.read_text())
    obj["matrix"]["re"][1] += 0.2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, ["process", "check", "--process",
                                    str(bad)])
    assert code == 2
    assert "common-cause" in err


def test_instrument_commands(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["instrument", "validate", "--name",
                                    "tetra"])
    assert code == 0
    report = json.loads(out)
    assert "ok" not in report
    assert report["completeness_residual"] < 1e-12
    code, out, _ = run_cli(capsys, ["instrument", "dual", "--name", "theta"])
    assert code == 0
    assert json.loads(out)["duality_residual"] < 1e-10
    code, _, _ = run_cli(capsys, ["instrument", "show", "--name", "xi"])
    assert code == 0
    code, _, err = run_cli(capsys, ["instrument", "show", "--name", "huh"])
    assert code == 2
    # malformed file: elements that do not sum to identity
    bad = tmp_path / "inst.json"
    bad.write_text(json.dumps({"dim": 2, "name": "bad", "elements": [
        mat_to_json(np.eye(2) / 2)]}))
    code, _, err = run_cli(capsys, ["instrument", "validate", "--name",
                                    str(bad)])
    assert code == 2


def test_instrument_validate_agrees_with_loading(tmp_path, capsys):
    # entries of sum - 1 within 1e-10 pass the constructor, though the
    # Frobenius residual reported is 1.8e-10: exit 0, and no ok flag
    delta = 0.9e-10 * np.ones((2, 2))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"dim": 2, "name": "edge", "elements": [
        mat_to_json(np.eye(2) / 2 + delta), mat_to_json(np.eye(2) / 2)]}))
    code, out, _ = run_cli(capsys, ["instrument", "validate", "--name",
                                    str(path)])
    assert code == 0
    report = json.loads(out)
    assert "ok" not in report
    assert report["completeness_residual"] > 1e-10


def test_memory_commands(capsys):
    code, out, _ = run_cli(capsys, ["memory", "strength", "--process",
                                    "omega", "--instrument", "xi"])
    assert code == 0
    obj = json.loads(out)
    assert obj["markov_order_one"] is True
    assert obj["report"]["max_event"] < 1e-10
    code, out, _ = run_cli(capsys, ["memory", "survey", "--samples", "2000",
                                    "--seed", "0"])
    assert code == 0
    frac = json.loads(out)["fraction_below_cutoff"]["value"]
    assert 0.0 < frac < 1.0


def test_recover_build_and_scan(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["recover", "build", "--process",
                                    "lambda", "--instrument", "theta"])
    assert code == 0
    obj = json.loads(out)
    assert obj["born_preservation_max"] < 1e-12
    assert np.isclose(obj["fidelity_to_true"], 0.9980427365968065,
                      atol=1e-10)
    csv_path = tmp_path / "scan.csv"
    code, out, _ = run_cli(capsys, ["recover", "scan", "--process", "lambda",
                                    "--instrument", "theta", "--out",
                                    str(csv_path)])
    assert code == 0
    summary = json.loads(out)
    assert np.isclose(summary["max_abs_diff"], 0.007765718989647286,
                      atol=1e-12)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + summary["points"]
    code, out, _ = run_cli(capsys, ["recover", "scan", "--process", "lambda",
                                    "--instrument", "theta", "--noise",
                                    "0.05", "--out", str(csv_path)])
    assert code == 0
    # full scan at the default grid is deliberately too large
    code, _, err = run_cli(capsys, ["recover", "scan", "--process", "lambda",
                                    "--instrument", "theta", "--full",
                                    "--out", str(csv_path)])
    assert code == 2


def test_walk_verify_exit_codes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["walk", "verify", "--circuit", "theta"])
    assert code == 0
    assert json.loads(out)["match"] == "exact"
    code, out, _ = run_cli(capsys, ["walk", "verify", "--circuit", "tetra"])
    assert code == 0
    assert json.loads(out)["match"] == "rotated_frame"
    # a target with two swapped elements matches in no frame
    tetra = instrument_by_name("tetra")
    obj = instrument_to_json(tetra)
    obj["elements"][0], obj["elements"][1] = (obj["elements"][1],
                                              obj["elements"][0])
    target = tmp_path / "target.json"
    target.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, ["walk", "verify", "--circuit", "tetra",
                                    "--target", str(target)])
    assert code == 3
    assert json.loads(out)["match"] == "none"
    code, _, _ = run_cli(capsys, ["walk", "verify", "--circuit", "mystery"])
    assert code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_walk_verify_bad_tol_exits_two(capsys, tol):
    # a bad option is a validation error (2), not a failed check (3)
    code, out, err = run_cli(capsys, ["walk", "verify", "--circuit", "theta",
                                      "--tol", tol])
    assert code == 2
    assert out == ""
    assert f"--tol must be finite and >= 0, got {float(tol)}" in err


def test_tomo_chain(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    code, out, _ = run_cli(capsys, ["tomo", "simulate", "--state", "lambda",
                                    "--shots", "27000", "--seed", "5",
                                    "--out", str(counts)])
    assert code == 0
    assert json.loads(out)["total_shots"] == 27000
    rho_file = tmp_path / "rho.json"
    code, out, _ = run_cli(capsys, ["tomo", "reconstruct", "--counts",
                                    str(counts), "--state", "lambda",
                                    "--matrix-out", str(rho_file)])
    assert code == 0
    obj = json.loads(out)
    assert obj["fidelity"]["value"] > 0.98
    assert "non_markovianity_reconstructed" in obj
    est = mat_from_json(json.loads(rho_file.read_text())["matrix"])
    assert np.isclose(np.trace(est).real, 1.0, atol=1e-10)
    code, out, _ = run_cli(capsys, ["tomo", "bootstrap", "--counts",
                                    str(counts), "--state", "lambda",
                                    "--resamples", "20", "--seed", "5"])
    assert code == 0
    obj = json.loads(out)
    assert obj["statistic"] == "non_markovianity"
    assert obj["stderr"]["value"] > 0


def test_tomo_custom_state_purity_fallback(tmp_path, capsys):
    g, dims = state_by_name("lambda")
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"dims": list(dims),
                                      "matrix": mat_to_json(g)}))
    code, out, _ = run_cli(capsys, ["tomo", "bootstrap", "--state",
                                    str(state_file), "--shots", "2700",
                                    "--resamples", "10", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["statistic"] == "purity"
    code, _, err = run_cli(capsys, ["tomo", "reconstruct"])
    assert code == 2


def _short_state():
    g, dims = state_by_name("lambda")
    matrix = mat_to_json(g)
    matrix["re"] = matrix["re"][:-3]
    return "state.json", json.dumps({"dims": list(dims), "matrix": matrix})


def _mixed_state(dims):
    d = int(np.prod(dims))
    return "state.json", json.dumps({"dims": list(dims),
                                     "matrix": mat_to_json(np.eye(d) / d)})


def test_reconstruct_reads_a_byte_order_mark(tmp_path, capsys):
    # a UTF-8 byte-order mark before the header changes nothing read
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    code, _, _ = run_cli(capsys, ["tomo", "simulate", "--state", "lambda",
                                  "--shots", "2700", "--out", str(plain)])
    assert code == 0
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outs = []
    for path in (plain, marked):
        code, out, err = run_cli(capsys, ["tomo", "reconstruct", "--counts",
                                          str(path), "--state", "lambda"])
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


def _lambda_counts(edit):
    """A lambda counts CSV with its rows (header first) passed through
    edit; the first setting, X/X/X, holds rows 1..8."""
    g, dims = state_by_name("lambda")
    buf = io.StringIO()
    counts_to_csv(simulate_counts(g, dims, 2700, seed=0), buf)
    return "counts.csv", "\n".join(edit(buf.getvalue().splitlines())) + "\n"


HEADER_ONLY = ("counts.csv", "setting,outcome,count\n")
MISSING_ROW = _lambda_counts(lambda rows: rows[:8] + rows[9:])
EXTRA_OUTCOME = _lambda_counts(lambda rows: rows[:9] + ["X/X/X,8,5"]
                               + rows[9:])
ZERO_SHOTS = _lambda_counts(lambda rows: [rows[0]] + [
    f"X/X/X,{k},0" for k in range(8)] + rows[9:])
NO_COUNT_COLUMN = ("counts.csv", "setting,outcome\nX/X/X,0\n")
UNKNOWN_BASIS = ("counts.csv", "setting,outcome,count\nQ/X/X,0,5\n")
LAMBDA_COUNTS = _lambda_counts(lambda rows: rows)
# a label longer than csv's default field limit (131072 characters)
HUGE_CELL = ("counts.csv",
             "setting,outcome,count\n" + "X" * 200000 + ",0,5\n")
# setting is the last column, so a two-cell row lacks it
NO_SETTING_CELL = ("counts.csv", "outcome,count,setting\n0,3\n")
SHORT_STATE = _short_state()
WRONG_DIMS = ("state.json", json.dumps({"dims": [2, 3, 2], "matrix":
                                        mat_to_json(np.eye(8) / 8)}))
XI = ("inst.json", json.dumps(instrument_to_json(instrument_by_name("xi"))))
INT_DIMS = ("state.json", json.dumps({"dims": 5, "matrix":
                                      mat_to_json(np.eye(8) / 8)}))
INT_LAYOUT = ("process.json", json.dumps({"layout": 5, "matrix":
                                          mat_to_json(np.eye(8) / 8)}))
BASES = "unknown basis 'Q' on leg 0 (dimension 2; expected one of " \
    "['X', 'Y', 'Z'])"
DUPLICATE_ROW = _lambda_counts(lambda rows: rows[:9] + [rows[4]] + rows[9:])
NEGATIVE_OUTCOME = _lambda_counts(lambda rows: rows[:9] + ["X/X/X,-1,50"]
                                  + rows[9:])
GAPPED_OUTCOMES = _lambda_counts(lambda rows: rows[:4] + rows[5:])
TEXT_OUTCOME = _lambda_counts(lambda rows: [rows[0], "X/X/X,a,5"] + rows[2:])
TEXT_COUNT = _lambda_counts(lambda rows: [rows[0], "X/X/X,0,5.5"]
                            + rows[2:])
NEGATIVE_COUNT = _lambda_counts(lambda rows: [rows[0], "X/X/X,0,-5"]
                                + rows[2:])
REPEATED_COLUMN = _lambda_counts(lambda rows: [rows[0] + ",count"] + [
    row + ",1" for row in rows[1:]])
CUSTOM_IGNORED_KEYS = ("cfg.json", json.dumps({
    "preset": "custom", "command": ["instrument", "validate", "--name", "xi"],
    "tolerances": {"bogus": 1}, "seed": 5, "output": "x.json",
    "format": "csv"}))


def _nonfinite_state(key, value):
    g, dims = state_by_name("lambda")
    matrix = mat_to_json(g)
    matrix[key][5] = value
    return "state.json", json.dumps({"dims": list(dims), "matrix": matrix})


def _nonhermitian_state():
    # lambda with the imaginary part of entry (0, 1) set, (1, 0) unchanged
    g, dims = state_by_name("lambda")
    matrix = mat_to_json(g)
    matrix["im"][1] = 0.05
    return "state.json", json.dumps({"dims": list(dims), "matrix": matrix})


# a valid three-element instrument on a qutrit, not a qubit
QUTRIT_Z = ("qutrit_z.json", json.dumps(
    {"dim": 3, "name": "qutrit_z",
     "elements": [mat_to_json(np.diag(e)) for e in np.eye(3)]}))


def _dropped_port():
    # theta with its element-3 port (position 2) left out of the map
    obj = circuit_to_json(circuit_by_name("theta"))
    obj["ports"] = [port for port in obj["ports"] if port[0] != 2]
    return "circuit.json", json.dumps(obj)


def _config(**cfg):
    return "cfg.json", json.dumps({"preset": "process2", **cfg})


def _no_grid(*args):
    raise AssertionError("a scan grid was built")


def _no_draw(*args, **kwargs):
    raise AssertionError("a random draw was seeded")


PROCESS2_KEYS = ("['cmi', 'non_markovianity', 'qutrit_sharp_event_memory', "
                 "'recovered_fidelity_tabulated_form', 'scan_projector_max', "
                 "'werner_literal_max_trace_distance', "
                 "'werner_rotated_residual', 'xi_max_event_memory']")


@pytest.mark.parametrize("argv, bad_input, expect", [
    (["tomo", "reconstruct", "--counts"], HEADER_ONLY, "no rows"),
    (["tomo", "bootstrap", "--counts"], HEADER_ONLY, "no rows"),
    (["tomo", "reconstruct", "--counts"], NO_COUNT_COLUMN, "['count']"),
    (["tomo", "bootstrap", "--counts"], NO_COUNT_COLUMN, "['count']"),
    (["tomo", "reconstruct", "--counts"], UNKNOWN_BASIS, BASES),
    (["tomo", "bootstrap", "--counts"], UNKNOWN_BASIS, BASES),
    (["tomo", "reconstruct", "--counts"], HUGE_CELL,
     "counts table line 2: field larger than field limit (131072)"),
    (["tomo", "reconstruct", "--counts"], NO_SETTING_CELL,
     "counts table line 2 has no cell for column 'setting'"),
    (["tomo", "reconstruct", "--state", "lambda", "--counts"],
     NO_SETTING_CELL, "counts table line 2 has no cell for column 'setting'"),
    (["process", "build", "--state"], SHORT_STATE, "matrix field 're'"),
    (["tomo", "reconstruct", "--state"], SHORT_STATE, "matrix field 're'"),
    (["tomo", "bootstrap", "--state"], SHORT_STATE, "matrix field 're'"),
    (["memory", "strength", "--instrument", "z", "--process"], WRONG_DIMS,
     "state matrix size disagrees with dims"),
    (["memory", "strength", "--process", "lambda", "--instrument"], XI,
     "element of shape (3, 3) does not fit party B's input leg of "
     "dimension 2"),
    (["memory", "survey", "--samples", "100", "--process"],
     _mixed_state((2, 3, 2)), "input dims are (2, 3, 2)"),
    (["tomo", "reconstruct", "--counts"], MISSING_ROW,
     "setting 'X/X/X' has 7 outcomes; expected 8"),
    (["tomo", "bootstrap", "--counts"], MISSING_ROW,
     "setting 'X/X/X' has 7 outcomes; expected 8"),
    (["tomo", "reconstruct", "--counts"], EXTRA_OUTCOME,
     "setting 'X/X/X' has 9 outcomes; expected 8"),
    (["tomo", "bootstrap", "--counts"], EXTRA_OUTCOME,
     "setting 'X/X/X' has 9 outcomes; expected 8"),
    (["tomo", "reconstruct", "--counts"], ZERO_SHOTS,
     "setting 'X/X/X' has no shots"),
    (["tomo", "bootstrap", "--counts"], ZERO_SHOTS,
     "setting 'X/X/X' has no shots"),
    (["process", "build", "--state"], INT_DIMS,
     "'dims' must be a list of leg dimensions, got 5"),
    (["process", "check", "--process"], INT_LAYOUT,
     "'layout' must list [label, dim, direction] legs, got 5"),
    (["tomo", "reconstruct", "--counts"], DUPLICATE_ROW,
     "setting 'X/X/X' lists outcome 3 twice"),
    (["tomo", "bootstrap", "--counts"], DUPLICATE_ROW,
     "setting 'X/X/X' lists outcome 3 twice"),
    (["tomo", "reconstruct", "--counts"], NEGATIVE_OUTCOME,
     "setting 'X/X/X' has negative outcome -1"),
    (["tomo", "bootstrap", "--counts"], NEGATIVE_OUTCOME,
     "setting 'X/X/X' has negative outcome -1"),
    (["tomo", "reconstruct", "--counts"], GAPPED_OUTCOMES,
     "setting 'X/X/X' has no row for outcome 3"),
    (["tomo", "bootstrap", "--counts"], GAPPED_OUTCOMES,
     "setting 'X/X/X' has no row for outcome 3"),
    (["process", "build", "--state"], _nonfinite_state("re", float("nan")),
     "matrix field 're' holds a non-finite entry"),
    (["memory", "strength", "--instrument", "z", "--process"],
     _nonfinite_state("im", float("inf")),
     "matrix field 'im' holds a non-finite entry"),
    (["run", "--config"], _config(tolerances={"non_markovianty": 1.0}),
     "tolerances: unknown key(s) ['non_markovianty'] for preset 'process2' "
     f"(expected one of {PROCESS2_KEYS})"),
    (["run", "--config"], _config(tolerances={"non_markovianity": None}),
     "tolerances: 'non_markovianity' must be a number, got None"),
    (["run", "--config"], _config(seed=[1]), "seed must be a number, got [1]"),
    (["run", "--config"], _config(output=5),
     "output must be a file path, got 5"),
    (["run", "--config"], CUSTOM_IGNORED_KEYS,
     "preset 'custom' takes only 'command'; ['format', 'output', 'seed', "
     "'tolerances'] would be ignored"),
    (["tomo", "reconstruct", "--counts"], TEXT_OUTCOME,
     "setting 'X/X/X': column 'outcome' holds 'a', not an integer"),
    (["tomo", "bootstrap", "--counts"], TEXT_OUTCOME,
     "setting 'X/X/X': column 'outcome' holds 'a', not an integer"),
    (["tomo", "reconstruct", "--counts"], TEXT_COUNT,
     "setting 'X/X/X': column 'count' holds '5.5', not an integer"),
    (["tomo", "bootstrap", "--counts"], TEXT_COUNT,
     "setting 'X/X/X': column 'count' holds '5.5', not an integer"),
    (["tomo", "reconstruct", "--counts"], NEGATIVE_COUNT,
     "setting 'X/X/X' has negative count -5 for outcome 0"),
    (["tomo", "bootstrap", "--counts"], NEGATIVE_COUNT,
     "setting 'X/X/X' has negative count -5 for outcome 0"),
    (["process", "build", "--state"], _nonhermitian_state(), "not Hermitian"),
    (["memory", "strength", "--instrument", "z", "--process"],
     _nonhermitian_state(), "not Hermitian"),
    (["memory", "survey", "--samples", "100", "--cutoff", "nan",
      "--process"], _mixed_state((2, 2, 2)),
     "cutoff must be positive and finite, got nan"),
    (["memory", "survey", "--samples", "100", "--cutoff", "inf",
      "--process"], _mixed_state((2, 2, 2)),
     "cutoff must be positive and finite, got inf"),
    (["run", "--config"], ("cfg.json", json.dumps({
        "preset": "custom", "command": ["preset", "survey", "--seed", "-1"]})),
     "custom preset 'command': argument --seed: must be >= 0, got -1"),
    (["preset", "process2", "--seed", "99", "--out"], ("out.json", ""),
     "preset 'process2' takes no seed, got 99"),
    (["run", "--config"], _config(seed=5),
     "preset 'process2' takes no seed, got 5"),
    (["run", "--config"], ("cfg.json", json.dumps({
        "preset": "Process1", "seed": 0})),
     "preset 'process1' takes no seed, got 0"),
    (["run", "--config"], ("cfg.json", json.dumps({"preset": "bogus"})),
     "unknown preset 'bogus' (expected one of custom, process1, process2, "
     "survey, tomo, walk_verify)"),
    (["run", "--config"], ("cfg.json", json.dumps({
        "preset": " Custom ", "command": ["states", "emit", "--name",
                                          "lambda"], "seed": 1})),
     "preset 'custom' takes only 'command'; ['seed'] would be ignored"),
    (["run", "--config"], _config(command=["states", "emit", "--name",
                                           "lambda"]),
     "'command' is only valid with preset 'custom'"),
    (["process", "build", "--state"], _mixed_state((2, 2)),
     "dims must list 3 input legs, got (2, 2)"),
    (["process", "build", "--state"], _mixed_state((2, 2, 2, 2)),
     "dims must list 3 input legs, got (2, 2, 2, 2)"),
    (["memory", "strength", "--instrument", "z", "--process"],
     _mixed_state((2, 2)), "dims must list 3 input legs, got (2, 2)"),
    (["recover", "build", "--instrument", "theta", "--process"],
     _mixed_state((2, 2, 2, 2)),
     "dims must list 3 input legs, got (2, 2, 2, 2)"),
    (["recover", "scan", "--process", "lambda", "--instrument", "theta",
      "--grid", "100000", "--out"], ("scan.csv", ""),
     "grid 100000 makes a scan of over 2**22 points"),
    (["tomo", "simulate", "--state", "lambda", "--shots", str(10 ** 21),
      "--out"], ("counts.csv", ""), f"shots {10 ** 21} over 27 settings is "
     "37037037037037037037 per setting, beyond the int64 range"),
    (["memory", "survey", "--process", "lambda", "--samples", str(10 ** 20),
      "--out"], ("out.json", ""), f"samples {10 ** 20} is over 2**24"),
    (["tomo", "bootstrap", "--resamples", str(10 ** 20), "--counts"],
     _lambda_counts(lambda rows: rows),
     f"resamples {10 ** 20} of 216 count entries each redraw over 2**24"),
    (["walk", "verify", "--circuit", "theta", "--target"], QUTRIT_Z,
     "--target dimension 3 differs from the circuit's POVM dimension 2"),
    (["recover", "scan", "--process", "lambda", "--instrument", "theta",
      "--noise", "2", "--out"], ("scan.csv", ""),
     "depolarizing strength must be in [0, 1], got 2.0"),
    (["tomo", "reconstruct", "--counts"], REPEATED_COLUMN,
     "counts table names column(s) ['count'] more than once"),
    (["tomo", "bootstrap", "--counts"], REPEATED_COLUMN,
     "counts table names column(s) ['count'] more than once"),
    (["walk", "verify", "--target", "theta", "--circuit"], _dropped_port(),
     "circuit 'theta': walker reached undeclared ports [2]"),
    (["tomo", "reconstruct", "--shots", "5", "--counts"], LAMBDA_COUNTS,
     "--shots would be ignored with --counts"),
    (["tomo", "reconstruct", "--seed", "9", "--counts"], LAMBDA_COUNTS,
     "--seed would be ignored with --counts"),
    (["tomo", "reconstruct", "--seed", "9", "--shots", "5", "--counts"],
     LAMBDA_COUNTS, "--shots, --seed would be ignored with --counts"),
    (["tomo", "bootstrap", "--shots", "5", "--counts"], LAMBDA_COUNTS,
     "--shots would be ignored with --counts"),
    (["tomo", "reconstruct", "--state", "omega", "--counts"], LAMBDA_COUNTS,
     "--state 'omega' has dims (2, 3, 2), but the counts' labels imply "
     "dims (2, 2, 2)"),
    (["tomo", "bootstrap", "--state", "omega", "--counts"], LAMBDA_COUNTS,
     "--state 'omega' has dims (2, 3, 2), but the counts' labels imply "
     "dims (2, 2, 2)"),
], ids=["reconstruct-header-only", "bootstrap-header-only",
        "reconstruct-no-count-column", "bootstrap-no-count-column",
        "reconstruct-unknown-basis", "bootstrap-unknown-basis",
        "reconstruct-huge-cell", "reconstruct-no-setting-cell",
        "reconstruct-state-no-setting-cell", "build-short-matrix",
        "reconstruct-short-matrix", "bootstrap-short-matrix",
        "strength-wrong-dims",
        "strength-instrument-dim", "survey-qutrit-middle",
        "reconstruct-missing-row",
        "bootstrap-missing-row", "reconstruct-outcome-beyond-d",
        "bootstrap-outcome-beyond-d", "reconstruct-zero-shots",
        "bootstrap-zero-shots", "build-int-dims", "check-int-layout",
        "reconstruct-duplicate-row", "bootstrap-duplicate-row",
        "reconstruct-negative-outcome", "bootstrap-negative-outcome",
        "reconstruct-gapped-outcomes", "bootstrap-gapped-outcomes",
        "build-nan-state", "strength-inf-state", "config-tolerance-typo",
        "config-null-tolerance", "config-list-seed", "config-int-output",
        "config-custom-ignored-keys", "reconstruct-text-outcome",
        "bootstrap-text-outcome", "reconstruct-text-count",
        "bootstrap-text-count", "reconstruct-negative-count",
        "bootstrap-negative-count", "build-nonhermitian-state",
        "strength-nonhermitian-state", "survey-nan-cutoff",
        "survey-inf-cutoff", "config-custom-negative-seed",
        "preset-seedless-seed", "config-seedless-seed",
        "config-seedless-zero-seed", "config-unknown-preset",
        "config-custom-case-ignored-keys", "config-command-without-custom",
        "build-two-legs", "build-four-legs", "strength-two-legs",
        "recover-four-legs", "scan-grid-over-cap", "simulate-shots-over-int64",
        "survey-samples-over-cap", "bootstrap-resamples-over-cap",
        "walk-target-qutrit", "scan-noise-over-one",
        "reconstruct-repeated-column", "bootstrap-repeated-column",
        "walk-dropped-port", "reconstruct-counts-shots",
        "reconstruct-counts-seed", "reconstruct-counts-shots-seed",
        "bootstrap-counts-shots", "reconstruct-counts-state-dims",
        "bootstrap-counts-state-dims"])
def test_malformed_input_exits_two(tmp_path, monkeypatch, capsys, argv,
                                   bad_input, expect):
    # no malformed input may get as far as building a scan's grid or
    # seeding a draw (the shots, samples and resamples bounds come first)
    monkeypatch.setattr(recovery, "_bloch_vectors", _no_grid)
    recovery._scan_grid.cache_clear()  # a cached grid would skip the guard
    monkeypatch.setattr(np.random, "default_rng", _no_draw)
    monkeypatch.setattr(np.random, "SeedSequence", _no_draw)
    name, text = bad_input
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, argv + [str(path)])
    assert code == 2
    assert out == ""
    assert expect in err


@pytest.mark.parametrize("dims", [(3, 2, 2), (2, 2, 3)],
                         ids=["survey-qutrit-first", "survey-qutrit-last"])
def test_survey_qutrit_outer_leg(tmp_path, capsys, dims):
    # a product state: every projective instrument leaves A:C uncorrelated
    path = tmp_path / "state.json"
    path.write_text(_mixed_state(dims)[1])
    code, out, _ = run_cli(capsys, ["memory", "survey", "--samples", "100",
                                    "--process", str(path)])
    assert code == 0
    assert json.loads(out)["fraction_below_cutoff"]["value"] == 1.0


@pytest.mark.parametrize("dims", [(1, 2, 2), (2, 2, 1)],
                         ids=["survey-trivial-first", "survey-trivial-last"])
def test_survey_trivial_outer_leg(tmp_path, capsys, dims):
    # a generic state: with a one-dimensional outer leg A:C carries no
    # information after any instrument, and the other two legs' Bloch
    # blocks do not commute
    rng = np.random.default_rng(5)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dims": list(dims), "matrix": mat_to_json(
        z @ z.conj().T / np.trace(z @ z.conj().T).real)}))
    code, out, _ = run_cli(capsys, ["memory", "survey", "--samples", "100",
                                    "--process", str(path)])
    assert code == 0
    assert json.loads(out)["fraction_below_cutoff"]["value"] == 1.0


@pytest.mark.parametrize("argv, kind, names", [
    (["process", "build", "--state", "lamda"], "state", "lambda, omega"),
    (["tomo", "simulate", "--out", "c.csv", "--state", "lamda"], "state",
     "lambda, omega"),
    (["process", "check", "--process", "lamda"], "process",
     "lambda, omega"),
    (["memory", "strength", "--process", "lambda", "--instrument", "huh"],
     "instrument", "qutrit_sharp, tetra, theta, xi, z"),
    (["walk", "verify", "--circuit", "huh"], "circuit", "tetra, theta"),
    (["walk", "verify", "--circuit", "theta", "--target", "huh"],
     "instrument", "qutrit_sharp, tetra, theta, xi, z"),
], ids=["state", "tomo-state", "process", "instrument", "circuit",
        "target"])
def test_unknown_name_exits_two(tmp_path, monkeypatch, capsys, argv, kind,
                                names):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == (f"error: {kind} {argv[-1]!r} is not a built-in name "
                   f"(one of {names}) and no such file exists\n")


# the name rule: case and surrounding space ignored, '-' read as '_'
LOOKUPS = {
    "state": lambda name: state_by_name(name)[1],
    "instrument": lambda name: instrument_by_name(name).name,
    "circuit": lambda name: circuit_by_name(name).name,
    "preset": lambda name: builtin(PRESETS, name, "preset")[0],
}
BUILTIN_KEYS = {"state": ("lambda", "omega"), "instrument": tuple(INSTRUMENTS),
                "circuit": ("tetra", "theta"), "preset": tuple(PRESETS)}


def _cli_name(tmp_path, capsys, kind, name):
    """(exit code, stdout JSON or None, stderr) of a command naming name."""
    if kind == "preset":
        (tmp_path / "cfg.json").write_text(json.dumps({"preset": name}))
    argv = {"state": ["states", "emit", "--name", name],
            "instrument": ["instrument", "show", "--name", name],
            "circuit": ["walk", "verify", "--circuit", name],
            "preset": ["run", "--config", "cfg.json"]}[kind]
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out) if out else None, err


@pytest.mark.parametrize("kind, name, key", [
    ("state", "Lambda", "lambda"), ("state", " OMEGA ", "omega"),
    ("instrument", " Theta ", "theta"),
    ("instrument", "QUTRIT-SHARP", "qutrit_sharp"),
    ("circuit", " Theta ", "theta"), ("circuit", "Tetra", "tetra"),
    ("preset", "Walk-Verify", "walk_verify")],
    ids=["state", "state-spaced", "instrument", "instrument-dash",
         "circuit", "circuit-case", "preset"])
def test_name_rule_library_and_cli(tmp_path, monkeypatch, capsys, kind,
                                   name, key):
    monkeypatch.chdir(tmp_path)
    assert LOOKUPS[kind](name) == LOOKUPS[kind](key)
    code, obj, _ = _cli_name(tmp_path, capsys, kind, name)
    assert code == 0
    if kind == "state":
        assert obj["name"] == key
        assert np.array_equal(mat_from_json(obj["matrix"]),
                              state_by_name(key)[0])
    elif kind == "instrument":
        assert obj["name"] == key
    elif kind == "circuit":
        assert obj["match"] == ("exact" if key == "theta"
                                else "rotated_frame")
    else:
        assert obj["preset"] == key


@pytest.mark.parametrize("kind", list(LOOKUPS))
def test_unknown_builtin_name(tmp_path, monkeypatch, capsys, kind):
    monkeypatch.chdir(tmp_path)
    choices = ", ".join(sorted(BUILTIN_KEYS[kind]))
    with pytest.raises(KeyError) as exc:
        LOOKUPS[kind]("nope")
    assert exc.value.args == (f"unknown {kind} 'nope' (expected one of "
                              f"{choices})",)
    code, obj, err = _cli_name(tmp_path, capsys, kind, "nope")
    assert code == 2 and obj is None
    if kind in ("instrument", "circuit"):  # the name could be a file
        assert err == (f"error: {kind} 'nope' is not a built-in name (one "
                       f"of {choices}) and no such file exists\n")
    elif kind == "preset":  # a config preset may also be 'custom'
        assert err == (f"error: unknown preset 'nope' (expected one of "
                       f"custom, {choices})\n")
    else:  # one line, not the quoted str() of the KeyError
        assert err == f"error: {exc.value.args[0]}\n"


def test_process_check_builds_one_choi(tmp_path, monkeypatch, capsys):
    path = tmp_path / "proc.json"
    assert run_cli(capsys, ["process", "build", "--state", "omega", "--out",
                            str(path)])[0] == 0
    calls = []
    choi = process._choi
    monkeypatch.setattr(process, "_choi",
                        lambda *a: calls.append(a) or choi(*a))
    code, out, _ = run_cli(capsys, ["process", "check", "--process",
                                    str(path)])
    assert code == 0 and json.loads(out)["ok"]
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(INSTRUMENTS))
def test_instrument_dual_prints_the_gram_matrix(capsys, name):
    code, out, _ = run_cli(capsys, ["instrument", "dual", "--name", name])
    assert code == 0
    assert np.array_equal(mat_from_json(json.loads(out)["gram"]),
                          gram_matrix(instrument_by_name(name).matrices()))


def test_matrix_out_ends_with_newline_and_loads(tmp_path, capsys):
    rho_file = tmp_path / "rho.json"
    code, out, _ = run_cli(capsys, ["tomo", "reconstruct", "--state",
                                    "lambda", "--shots", "27000",
                                    "--matrix-out", str(rho_file)])
    assert code == 0
    assert json.loads(out)["matrix_file"] == str(rho_file)
    text = rho_file.read_text()
    assert text.endswith("}\n") and not text.endswith("\n\n")
    code, out, _ = run_cli(capsys, ["tomo", "reconstruct", "--state",
                                    str(rho_file), "--shots", "27000"])
    assert code == 0
    assert json.loads(out)["dims"] == [2, 2, 2]


@pytest.mark.parametrize("command", [
    ["tomo", "simulate", "--out", "c.csv"], ["tomo", "reconstruct"],
    ["tomo", "bootstrap"]], ids=["simulate", "reconstruct", "bootstrap"])
@pytest.mark.parametrize("shots", ["0", "-5"])
def test_nonpositive_shots_exits_two(tmp_path, monkeypatch, capsys,
                                     command, shots):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command + ["--state", "lambda",
                                                "--shots", shots])
    assert code == 2
    assert out == ""
    assert err == f"error: shots must be at least 1, got {shots}\n"


def test_shot_split_is_exact_in_integers(tmp_path, capsys):
    # 1e20 shots over 27 settings: the float split printed 99999999999999995904
    code, out, _ = run_cli(capsys, ["tomo", "simulate", "--state", "lambda",
                                    "--shots", str(10 ** 20), "--out",
                                    str(tmp_path / "counts.csv")])
    assert code == 0
    per_setting = (2 * 10 ** 20 + 27) // 54
    assert json.loads(out)["total_shots"] == 27 * per_setting
    assert 27 * per_setting == 100000000000000000008


def _rounded_circuit(tmp_path, name, digits):
    """A built-in circuit saved with every coin entry rounded."""
    obj = circuit_to_json(circuit_by_name(name))
    for step in obj["steps"]:
        for coin in step["coins"].values():
            for part in ("re", "im"):
                coin[part] = [round(v, digits) for v in coin[part]]
    path = tmp_path / f"{name}_{digits}.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("name, digits, code, err", [
    ("theta", 10, 0, ""), ("tetra", 11, 0, ""),
    ("tetra", 10, 2, "error: instrument 'tetra': elements do not sum to the "
     "identity (max entrywise residual 1.26e-10)\n")],
    ids=["theta-10", "tetra-11", "tetra-10"])
def test_rounded_circuit(tmp_path, capsys, name, digits, code, err):
    # the rounded coins pass the coin check and no walker step checks a
    # norm again; completeness is checked once, on the extracted POVM,
    # which tetra at 10 decimals misses by 1.26e-10 entrywise
    path = _rounded_circuit(tmp_path, name, digits)
    got = run_cli(capsys, ["walk", "verify", "--circuit", path,
                           "--target", name])
    assert (got[0], got[2]) == (code, err)
    if code == 0:
        assert json.loads(got[1])["match"] == ("exact" if name == "theta"
                                               else "rotated_frame")


@pytest.mark.parametrize("argv, builds", [
    (["memory", "strength", "--process", "lambda", "--instrument", "theta"],
     ["theta"]),
    (["preset", "process1"], ["theta", "z", "theta", "theta", "theta"]),
    (["preset", "process2"], ["xi", "qutrit_sharp", "xi"]),
], ids=["strength", "process1", "process2"])
def test_one_event_table_per_process_instrument(monkeypatch, capsys, argv,
                                                builds):
    # memory_strength's report carries the Markov-order verdict, so a
    # (process, instrument) pair is conditioned once for both; process1's
    # recover runs on theta and on two noisy replays, process2's on xi
    from proctensor import memory
    events, seen = process._events, []

    def counted(p, inst):
        seen.append(inst.name)
        return events(p, inst)
    for module in (process, memory, recovery):
        monkeypatch.setattr(module, "_events", counted)
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    assert seen == builds


def test_process2_conditions_each_event_once(monkeypatch, capsys):
    # xi's 2 events once for both its report and recover, qutrit_sharp's 5
    # once for both its report and the Werner residuals
    condition, calls = process.condition, []

    def counted(p, party, element):
        calls.append(party)
        return condition(p, party, element)
    monkeypatch.setattr(process, "condition", counted)
    code, _, _ = run_cli(capsys, ["preset", "process2"])
    assert code == 0
    assert calls == ["B"] * 7


def test_process1_reduces_each_process_to_ac_data_once(monkeypatch, capsys):
    # six scans of lambda against three recoveries (theta's and two noisy
    # replays'): the true process's AC Bloch data once, each recovery's once
    ac, seen = recovery._ac_bloch_data, []

    def counted(p):
        seen.append(type(p).__name__)
        return ac(p)
    monkeypatch.setattr(recovery, "_ac_bloch_data", counted)
    code, _, _ = run_cli(capsys, ["preset", "process1"])
    assert code == 0
    assert seen == ["ProcessTensor"] + ["RecoveredProcess"] * 3


def test_bad_event_state_exits_two_with_the_density_message(monkeypatch,
                                                           capsys):
    # an event whose A:C state, 0.6 (|00><11| + h.c.) over maximally mixed
    # marginals, has eigenvalue -0.1: the stacked report raises
    # check_density's message for it
    bad = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    bad[0, 3] = bad[3, 0] = 0.6
    cps = [process.ConditionalProcess(m / 2, 0.5, (2, 2))
           for m in (np.eye(4, dtype=complex) / 4, bad)]
    monkeypatch.setattr(process, "condition_instrument",
                        lambda p, party, inst: cps)
    code, out, err = run_cli(capsys, ["memory", "strength", "--process",
                                      "lambda", "--instrument", "z"])
    assert (code, out) == (2, "")
    assert err == "error: negative eigenvalue -1.000e-01\n"


@pytest.mark.parametrize("command", [
    ["memory", "survey"], ["preset", "survey"],
    ["walk", "verify", "--circuit", "theta"],
    ["tomo", "simulate", "--state", "lambda", "--out", "c.csv"],
    ["tomo", "reconstruct", "--state", "lambda"],
    ["tomo", "bootstrap", "--state", "lambda"]],
    ids=["survey", "preset", "walk", "simulate", "reconstruct", "bootstrap"])
def test_negative_seed_exits_two(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: argument --seed: must be >= 0, got -1\n")
    assert not any(tmp_path.iterdir())


def test_walk_verify_circuit_file_needs_target(tmp_path, capsys):
    path = tmp_path / "circuit.json"
    save_circuit(circuit_by_name("theta"), str(path))
    code, out, err = run_cli(capsys, ["walk", "verify", "--circuit",
                                      str(path)])
    assert code == 2
    assert out == ""
    assert err == (f"error: circuit file {str(path)!r} needs --target; only "
                   "a built-in circuit defaults to its own instrument\n")
    code, out, _ = run_cli(capsys, ["walk", "verify", "--circuit", str(path),
                                    "--target", "theta"])
    assert code == 0
    assert json.loads(out)["match"] == "exact"


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" \
    / "cli_reference.json"


def test_reference_commands_byte_identical(tmp_path, monkeypatch, capsys):
    """The recorded benchmark commands print byte-identical stdout."""
    reference = json.loads(REFERENCE.read_text())
    monkeypatch.chdir(tmp_path)
    # the simulate commands write the counts the reconstructions read
    order = sorted(reference, key=lambda c: not c.startswith("tomo simulate"))
    for cmd in order:
        code, out, _ = run_cli(capsys, cmd.split())
        assert code == 0, cmd
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == reference[cmd]["sha256"], cmd


def test_tomography_bytes_cold_and_warm(tmp_path, monkeypatch, capsys):
    """The tomography commands print their reference bytes whether the
    settings table's pseudo-inverse is built afresh or reused."""
    reference = json.loads(REFERENCE.read_text())
    monkeypatch.chdir(tmp_path)
    for cmd in reference:
        if cmd.startswith("tomo simulate"):
            assert run_cli(capsys, cmd.split())[0] == 0, cmd
    cmds = ["preset tomo"] + [c for c in reference
                              if c.startswith("tomo reconstruct")]
    assert len(cmds) == 3
    for cold in (True, False):
        for cmd in cmds:
            if cold:
                tomography._cached_pseudo_inverse.cache_clear()
            code, out, _ = run_cli(capsys, cmd.split())
            assert code == 0, cmd
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == reference[cmd]["sha256"], cmd


# stdout sha256 of commands whose references the benchmark commands above
# do not print: both walk verifications, the process2 CSV and a tolerance
# override
PINNED = {
    "walk verify --circuit theta":
        "3e397d38aa46f96bec3071f1fcfeaf3d9a476f34dd208d0ba5001486f26a47aa",
    "walk verify --circuit tetra":
        "33fe37a016425abce3e29d73a1d43351f073647548627991f303c224b632c9ac",
    "preset process2 --format csv":
        "08be85fa00c21481c1a040d697a3723a6c768d826164aab3d7f396d2b986dbf2",
    "run --config cfg.json":
        "d87b33defea94ff1a36a8026604910ac74c65fd3dde146fbc8fab10d9d0029e1",
    # a generic state: the survey kernel's eigvalsh path
    "memory survey --samples 2000 --process rand.json":
        "059ba31bcddefdde28aef9516c33f4a81ebd4dc73f2f6eaeca301855a63cb298",
    # qutrit outer legs: every block of the table in its full real view
    "memory survey --samples 2000 --cutoff 0.02 --process rand323.json":
        "02b99d3a7cdd9c1de0bdc849c78e42920b066e5f5e6add01371d8fbd1397cf94",
    # process files: the full Choi matrix and its leg table
    "process build --state lambda":
        "a6dab6692cd02e4e0eca0e50d6c671873bd1c26f5fb86ed0b56ec66c75ccfd7e",
    "process build --state omega":
        "121f5678dd4d2be6c2c5226ae1475b18e01dbca54127c051e41845d349369092",
    "process check --process omega":
        "b557c951883e6ee1a5c58751d72be131e89965f03e9a591a0ef1f1d5d41c1451",
    "recover build --process lambda --instrument theta":
        "3dc733fcb15f2effdb13f02e15bb60fc79450e8e77fe6db73efa870d534d26ab",
    # memory strength and the Markov-order test read one event table
    "memory strength --process lambda --instrument theta":
        "49686cc4606ab0155870dce782bfef3de184fdc7ebdc4acf1a29970e4c924dad",
    "memory strength --process lambda --instrument z":
        "7722dc13bbaf612ed8f122d5027d3c9796c32cd6b26a1a8cec63b3f6059b4f8a",
    "memory strength --process omega --instrument qutrit_sharp":
        "43adc673dd3784835edd64fc99ab7e09493b865afadfbd0057ea8d41d35e6d1e",
    "memory strength --process omega --instrument xi":
        "3fa0409fc2d9b75f1a2bdca7d00fa2ef945801b771d95b261d621f48acc13ffd",
    # an instrument with an impossible event: the zero-probability path
    "memory strength --process lambda --instrument zero.json":
        "e57fc9c35e172a4cfd15bba7e0c7c99ebb88fa28347b62f6705350279ee0fecd",
    # the dual frame, built once and kept on the instrument
    "instrument dual --name theta":
        "c48bfc2d09d23e33308659044a903b375f56b13fe9da8695d9a667d1f22d08a8",
}

# an instrument whose first element is zero
ZERO_INSTRUMENT = {"dim": 2, "name": "zero",
                   "elements": [mat_to_json(np.zeros((2, 2))),
                                mat_to_json(np.eye(2))]}


def _random_state_text(dims):
    """A random full-rank state, a quarter of the way from the maximally
    mixed state to a random one, seeded by its dims read as digits. At 2000
    samples the survey fraction is 0.4215 for both the (2,2,2) state
    (cutoff 0.0125) and the (3,2,3) state (cutoff 0.02), no sample within
    1e-6 of the cutoff."""
    d = int(np.prod(dims))
    rng = np.random.default_rng(int("".join(map(str, dims))))
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    r = z @ z.conj().T
    g = 0.75 * np.eye(d) / d + 0.25 * r / np.trace(r).real
    return json.dumps({"dims": list(dims), "matrix": mat_to_json(g)})


@pytest.mark.parametrize("cmd, digest", PINNED.items(), ids=list(PINNED))
def test_pinned_commands_byte_identical(tmp_path, monkeypatch, capsys, cmd,
                                        digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"preset": "process2", "tolerances": {"non_markovianity": 1.0}}))
    (tmp_path / "rand.json").write_text(_random_state_text((2, 2, 2)))
    (tmp_path / "rand323.json").write_text(_random_state_text((3, 2, 3)))
    (tmp_path / "zero.json").write_text(json.dumps(ZERO_INSTRUMENT))
    code, out, _ = run_cli(capsys, cmd.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the CSV file of a grid-8 lambda/theta scan, by extra options
SCAN_CSV = {
    "": "f756c8bf2f58336e25391716da854f45e68fefc59807f8424d1da97197ada364",
    "--convention correlator":
        "6664c8ef72fd6a74a51fe8c89edf1914a0fc16fec7a95fa4fceb1c49a06e0569",
    "--full":
        "3f711c58d816198a1cd2ae5b504b15750db2e917ad9d7f70fe878dcad12a9ca2",
    "--noise 0.05":
        "d3e2c7652524aaebc59b072078b6aad563bda194f508464eb50003d61fae10d6",
}


@pytest.mark.parametrize("extra, digest", SCAN_CSV.items(),
                         ids=["projector", "correlator", "full", "noise"])
def test_scan_csv_byte_identical(tmp_path, capsys, extra, digest):
    path = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, ["recover", "scan", "--process", "lambda",
                                  "--instrument", "theta", "--grid", "8",
                                  "--out", str(path)] + extra.split())
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# stdout sha256 of every --help at 80 columns; the parser is built without
# the modules the handlers load (preset choices and seed defaults come
# from presets.py)
HELP = {
    "":
        "edbc8852799ce4ed8f1eba3a85c5e534031692a61fb1c2628583a5cf3564f673",
    "states":
        "ed8e3155db9cbf2eb7ea136f11b1208337689de44f13f9f4e1875a245e95f1b8",
    "states emit":
        "b29aade86ede4a95d6b5b21a84cca9f105475a42e8acfa7bea477f1f021524e2",
    "process":
        "16d7e938f23c7d76079271a780820a2762ad5be2679f494c964d6e306b5e85ce",
    "process build":
        "9b95e3c157558c500cd02dd236eda8c624fed7c632fe185e4dbd14dec9910d98",
    "process check":
        "d5c05cfb45a7e58626f935d33607f8183325300698bacc5d591cf5bc08ce89d3",
    "instrument":
        "a778d8586ff08eb9a0fad01da7e2a57b628c6fa3aa1049a6c979de2c4df58bd8",
    "instrument show":
        "a42220b8622c5356f79c4119dc53c1d8525a8f174d702faedfa58fa4c0fb02fc",
    "instrument validate":
        "5a55583bd9cca51aaa6330b37a256ed8bf38320469e3999c08f50d6752fec4c9",
    "instrument dual":
        "ddb2e968fc205d19d702d3f82363a779e76ac1ad0e2b4a146aafd83cf6c2048f",
    "memory":
        "d628d6706d013ea55d5423c1a9a56b991a2b331da5360af1fd13459665b0021a",
    "memory strength":
        "2ea54c905563128e09a7552c60aaacc9909d56810fefa9a3197ea41a96015f11",
    "memory survey":
        "8240c7dd26036aa3ec0dc0781dc5dbaf39c4dd6d4661c6d57ab8f66828fffad5",
    "recover":
        "98944eb6142f2fb77b970e89c9af8d1a5bde3787e542e34e7a97f2e0ca63be98",
    "recover build":
        "99d3c7c287cfc11a7471a7eb7b451c312e3e7372854111b12ccbf657dc93ca95",
    "recover scan":
        "3f75766c8b52a7ed687a8695e64aa3c0fdc7aec5a5633c4b561509cdd7a1cd8b",
    "walk":
        "3b78cab88570a5bc2e97540e0eb31aa9692db767164cb273ed1ac5a0e510e5ed",
    "walk verify":
        "b099e6c1a8af3eb8e4b0c6381ad67447f454974c8f16aadff713e1c38b7fe291",
    "tomo":
        "eeca283316062e1e8e5586e5836d78755b03260d6c4b896c872867cffb881855",
    "tomo simulate":
        "e51466d9578938c2a4fcd98b2987fa1c3d51ff1bc80a58cccb3c12da82e6f9f6",
    "tomo reconstruct":
        "f46d8eeb148d0fdafb258b3291ffe3e0b00d829bfd19c7f1533dd912e51c46fd",
    "tomo bootstrap":
        "4a3f90f2fae79c3c94acc69b87dda37abbd11f3db7612faaa62f2f08d803d320",
    "preset":
        "bb834ab5261dce83cc435b6c025b3bf91aa6e317cac189e5c3cc7c500dd05715",
    "run":
        "390e4531216c5a7a5acd7a72f3e0dc24f4f8c205ed4f9b4b9d03736efb4da856",
}


@pytest.mark.parametrize("cmd, digest", HELP.items(),
                         ids=[c or "top" for c in HELP])
def test_help_byte_identical(monkeypatch, capsys, cmd, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(cmd.split() + ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_preset_process1_values(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["preset", "process1", "--out", str(out_a)]) == 0
    assert main(["preset", "process1", "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    obj = json.loads(out_a.read_text())
    nm = obj["non_markovianity"]
    assert np.isclose(nm["value"], 0.2836518149970493, atol=1e-12)
    # tabulated reference misses, the experimental one agrees
    kinds = {r["kind"]: r["agrees"] for r in nm["reference"]}
    assert kinds == {"theoretical": False, "experimental": True}
    assert obj["theta_markov_order_one"]["value"] is False
    assert obj["recovered_fidelity_tabulated_form"]["value"] < 1.0
    strengths = [row["strength"] for row in obj["noisy_replay"]]
    assert strengths == [0.01, 0.05]
    for row in obj["noisy_replay"]:
        assert 0.005 < row["scan_correlator_max"] < 0.1


def test_preset_process2_values(capsys):
    code, out, _ = run_cli(capsys, ["preset", "process2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["xi_markov_order_one"]["value"] is True
    assert np.isclose(obj["cmi_state_convention"]["value"], 0.5, atol=1e-9)
    assert obj["cmi_state_convention"]["reference"][0]["agrees"]
    assert obj["werner_rotated_residual"]["value"] < 1e-10
    assert obj["werner_literal_max_trace_distance"]["value"] > 0.28
    assert np.isclose(obj["recovered_fidelity_tabulated_form"]["value"],
                      1.0, atol=1e-12)
    assert obj["scan_projector_max"]["value"] < 1e-12


def test_preset_csv_format(capsys):
    code, out, _ = run_cli(capsys, ["preset", "walk_verify", "--format",
                                    "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,value"
    fields = {l.split(",", 1)[0] for l in lines[1:]}
    assert "theta.match" in fields


def test_run_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out_file = tmp_path / "report.json"
    cfg.write_text(json.dumps({"preset": "process2",
                               "output": str(out_file),
                               "tolerances": {"non_markovianity": 1.0}}))
    code, _, _ = run_cli(capsys, ["run", "--config", str(cfg)])
    assert code == 0
    obj = json.loads(out_file.read_text())
    # the loose override flips the headline reference to agreement
    assert obj["non_markovianity"]["reference"][0]["agrees"] is True

    cfg.write_text(json.dumps({"preset": "process2", "bogus": 1}))
    code, _, err = run_cli(capsys, ["run", "--config", str(cfg)])
    assert code == 2 and "unknown config keys" in err

    cfg.write_text(json.dumps({"preset": "walk_verify",
                               "command": ["states"]}))
    code, _, err = run_cli(capsys, ["run", "--config", str(cfg)])
    assert code == 2 and "custom" in err

    cfg.write_text(json.dumps({"preset": "custom",
                               "command": ["instrument", "validate",
                                           "--name", "xi"]}))
    code, out, _ = run_cli(capsys, ["run", "--config", str(cfg)])
    assert code == 0
    report = json.loads(out)
    assert report["name"] == "xi" and "ok" not in report

    cfg.write_text(json.dumps({"preset": "custom",
                               "command": ["run", "--config", str(cfg)]}))
    code, _, err = run_cli(capsys, ["run", "--config", str(cfg)])
    assert code == 2

    cfg.write_text(json.dumps({"preset": "nothere"}))
    code, _, _ = run_cli(capsys, ["run", "--config", str(cfg)])
    assert code == 2


@pytest.mark.parametrize("argv, config, named", [
    (["states", "emit", "--name", "lambda", "--out", ""], None, "--out"),
    (["tomo", "simulate", "--state", "lambda", "--out", ""], None, "--out"),
    (["run", "--config", "cfg.json"], {"preset": "walk_verify",
                                       "output": ""}, "output"),
    (["run", "--config", "cfg.json"], {"preset": "custom", "command": [
        "states", "emit", "--name", "lambda", "--out", ""]}, "--out"),
], ids=["json-command", "csv-command", "config-output", "custom-command"])
def test_empty_out_exits_two(tmp_path, monkeypatch, capsys, argv, config,
                             named):
    # an empty path is no path: every command, typed or from a config,
    # exits 2 naming the option before it runs or writes anything
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {named} must be a file path, got ''\n"
    assert [p.name for p in tmp_path.iterdir()] == (["cfg.json"] if config
                                                    else [])


@pytest.mark.parametrize("config, typed", [
    ({"preset": "walk_verify", "seed": 5, "format": "csv",
      "output": "config.out"},
     ["preset", "walk_verify", "--seed", "5", "--format", "csv"]),
    ({"preset": "custom", "command": ["memory", "strength", "--process",
                                      "lambda", "--instrument", "theta",
                                      "--out", "config.out"]},
     ["memory", "strength", "--process", "lambda", "--instrument",
      "theta"]),
], ids=["preset", "custom"])
def test_config_writes_the_typed_commands_bytes(tmp_path, monkeypatch,
                                                capsys, config, typed):
    # a config runs as the command it names: same output file bytes, and
    # nothing on stdout
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert run_cli(capsys, ["run", "--config", "cfg.json"]) == (0, "", "")
    assert run_cli(capsys, typed + ["--out", "typed.out"]) == (0, "", "")
    assert (tmp_path / "config.out").read_bytes() == (
        tmp_path / "typed.out").read_bytes()


@pytest.mark.parametrize("preset", ["Custom", " CUSTOM "])
def test_config_custom_follows_the_name_rule(tmp_path, capsys, preset):
    cfg = tmp_path / "cfg.json"
    command = ["states", "emit", "--name", "lambda"]
    cfg.write_text(json.dumps({"preset": preset, "command": command}))
    code, out, err = run_cli(capsys, ["run", "--config", str(cfg)])
    assert code == 0 and err == ""
    assert out == run_cli(capsys, command)[1]


def test_custom_state_process_pipeline(tmp_path, capsys):
    # a product state fed through the file-based loaders end to end
    rng = np.random.default_rng(30)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a)
    g = np.kron(np.kron(rho_a, np.eye(2) / 2), np.eye(2) / 2)
    state_file = tmp_path / "prod.json"
    state_file.write_text(json.dumps({"dims": [2, 2, 2],
                                      "matrix": mat_to_json(g)}))
    code, out, _ = run_cli(capsys, ["memory", "strength", "--process",
                                    str(state_file), "--instrument", "z"])
    assert code == 0
    assert json.loads(out)["report"]["max_event"] < 1e-10
    code, out, _ = run_cli(capsys, ["recover", "build", "--process",
                                    str(state_file), "--instrument",
                                    "tetra"])
    assert code == 0
    assert np.isclose(json.loads(out)["fidelity_to_true"], 1.0, atol=1e-10)
