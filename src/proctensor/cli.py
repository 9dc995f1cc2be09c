"""Command-line front end.

Presets reproduce the headline quantities end to end; the plumbing
subcommands expose every stage (states, process tensors, instruments,
memory metrics, recovery, walk circuits, tomography) for scripting.
Numeric fields carry reference values, tagged theoretical or
experimental, with an "agrees" flag per reference. Output is
deterministic for a fixed (config, seed): no timestamps, sorted keys.

Exit codes: 0 success, 2 validation failure, 3 numerical-tolerance
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .instruments import (INSTRUMENTS, Instrument, dual_frame, gram_matrix,
                          instrument_by_name, instrument_from_json,
                          instrument_to_json, validate as
                          validate_instrument)
from .linalg import (fidelity, kron, mat_from_json, mat_to_json,
                     partial_trace, path_or_handle, trace_distance)
from .memory import (confusion_probability, markov_order_test,
                     memory_strength, non_markovianity, projective_survey,
                     quantum_cmi, quantum_cmi_choi)
from .process import (ProcessTensor, born_probability, build_common_cause,
                      check_causality, condition_instrument)
from .recovery import (_REF_THETA_WEIGHTS, deviation_scan, noisy_replay,
                       recover, reference_recovered_lambda,
                       reference_recovered_omega)
from .states import state_by_name, werner
from .tomography import (bootstrap, counts_from_csv, counts_to_csv,
                         reconstruct, simulate_counts)
from .walk import (CIRCUITS, align_frames, circuit_by_name,
                   circuit_from_json, extract_povm, port_probabilities)

STATE_NAMES = ("lambda", "omega")
PRESET_SEEDS = {"process1": 0, "process2": 0, "walk_verify": 11,
                "survey": 7, "tomo": 3}
CONFIG_KEYS = {"preset", "seed", "output", "format", "tolerances",
               "command"}

# single-qubit change of frame carrying the sharp-instrument conditional
# states onto Bell-diagonal form, with the event -> Bell index map
_WERNER_FRAME = 0.5 * np.array([[1 + 1j, 1 + 1j], [-1 + 1j, 1 - 1j]])
_WERNER_EVENT_BELL = (1, 3, 4, 2)


# ---------------------------------------------------------------- plumbing

def _ref(kind, value, tolerance=None, uncertainty=None):
    return {"kind": kind, "value": float(value), "tolerance": tolerance,
            "uncertainty": uncertainty}


def _entry(value, *refs, key=None, tols=None):
    """Scalar report field with attached reference values."""
    val = float(value)
    out = {"value": val}
    rendered = []
    for r in refs:
        tol = None
        if tols and key is not None:
            tol = tols.get(key)
        if tol is None:
            tol = r.get("tolerance")
        if tol is None and r.get("uncertainty") is not None:
            tol = 2.0 * r["uncertainty"]
        if tol is None:
            tol = 1e-3
        item = {"kind": r["kind"], "value": r["value"],
                "agrees": bool(abs(val - r["value"]) <= tol)}
        if r.get("uncertainty") is not None:
            item["uncertainty"] = r["uncertainty"]
        rendered.append(item)
    if rendered:
        out["reference"] = rendered
    return out


def _jsonify(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _flatten_rows(node, prefix, rows):
    if isinstance(node, dict):
        for k in sorted(node):
            _flatten_rows(node[k], f"{prefix}.{k}" if prefix else str(k),
                          rows)
    elif isinstance(node, (list, tuple)):
        for i, v in enumerate(node):
            _flatten_rows(v, f"{prefix}.{i}", rows)
    else:
        rows.append((prefix, node))


def _emit(obj, out_path=None, fmt="json"):
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    with path_or_handle(out_path or sys.stdout, "w") as fh:
        if fmt == "json":
            fh.write(json.dumps(obj, indent=1, sort_keys=True,
                                default=_jsonify) + "\n")
        else:
            rows = []
            _flatten_rows(obj, "", rows)
            w = csv.writer(fh)
            w.writerow(["field", "value"])
            for path, val in rows:
                w.writerow([path, json.dumps(val, default=_jsonify)])


def _resolve(arg, kind, names, by_name):
    """(key, built-in object) for a built-in name, else (None, the parsed
    JSON file named by arg). Built-in names win over files."""
    key = str(arg).strip().lower().replace("-", "_")
    if key in names:
        return key, by_name(key)
    if not os.path.isfile(arg):
        raise ValueError(f"{kind} {arg!r} is not a built-in name (one of "
                         f"{', '.join(sorted(names))}) and no such file "
                         "exists")
    with open(arg) as fh:
        return None, json.load(fh)


def _state_to_json(g, dims) -> dict:
    return {"dims": list(dims), "matrix": mat_to_json(g)}


def _state_from_json(obj, arg):
    """(state, dims) from a state file's JSON {dims, matrix}."""
    if not isinstance(obj, dict) or "matrix" not in obj or "dims" not in obj:
        raise ValueError(f"state file {arg!r} needs 'dims' and 'matrix'")
    dims = obj["dims"]
    if not isinstance(dims, list) or not all(
            isinstance(d, (int, float)) for d in dims):
        raise ValueError(f"state file {arg!r}: 'dims' must be a list of leg "
                         f"dimensions, got {dims!r}")
    dims = tuple(int(d) for d in dims)
    m = mat_from_json(obj["matrix"])
    if m.shape[0] != int(np.prod(dims)):
        raise ValueError("state matrix size disagrees with dims")
    return m, dims


def _load_state(arg):
    """(state, dims, built-in key or None) for a state name or file."""
    key, obj = _resolve(arg, "state", STATE_NAMES, state_by_name)
    g, dims = obj if key else _state_from_json(obj, arg)
    return g, dims, key


def _process_to_json(p: ProcessTensor) -> dict:
    return {
        "layout": [[leg.label, leg.dim, leg.direction]
                   for leg in p.layout.legs],
        "matrix": mat_to_json(p.matrix),
    }


_CANON_LEGS = ("A_in", "A_out", "B_in", "B_out", "C_in")


def _process_from_json(obj: dict, arg) -> ProcessTensor:
    legs = obj["layout"]
    if not isinstance(legs, list) or not all(
            isinstance(l, list) and len(l) == 3 for l in legs):
        raise ValueError(f"process file {arg!r}: 'layout' must list "
                         f"[label, dim, direction] legs, got {legs!r}")
    names = [l[0] for l in legs]
    if names != list(_CANON_LEGS):
        raise ValueError(f"layout must list legs {_CANON_LEGS}")
    dim = {l[0]: int(l[1]) for l in legs}
    m = mat_from_json(obj["matrix"])
    dims = (dim["A_in"], dim["B_in"], dim["C_in"])
    out_dims = (dim["A_out"], dim["B_out"])
    per_leg = tuple(dim[n] for n in _CANON_LEGS)
    if m.shape[0] != int(np.prod(per_leg)):
        raise ValueError("process matrix size disagrees with layout")
    # inputs sit on legs 0, 2, 4; outputs are identity factors
    gamma = partial_trace(m, per_leg, (0, 2, 4)) / float(np.prod(out_dims))
    p = build_common_cause(gamma, dims, out_dims)
    if float(np.max(np.abs(p.matrix - m))) > 1e-8:
        raise ValueError("matrix is not a common-cause process tensor "
                         "(identity output legs expected)")
    return p


def _load_process(arg):
    """Process from a state name, a process file or a state file."""
    key, obj = _resolve(arg, "process", STATE_NAMES, state_by_name)
    if key is None and isinstance(obj, dict) and "layout" in obj:
        return _process_from_json(obj, arg)
    g, dims = obj if key else _state_from_json(obj, arg)
    return build_common_cause(g, dims, dims[:2])


def _load_instrument(arg) -> Instrument:
    key, obj = _resolve(arg, "instrument", INSTRUMENTS, instrument_by_name)
    return obj if key else instrument_from_json(obj)


def _load_circuit(arg):
    """(built-in key or None, circuit) for a circuit name or file."""
    key, obj = _resolve(arg, "circuit", CIRCUITS, circuit_by_name)
    return key, (obj if key else circuit_from_json(obj))


# ---------------------------------------------------------------- presets

def _scan_pair(p, rec, grid=64):
    proj = deviation_scan(p, rec, grid=grid, convention="projector")
    corr = deviation_scan(p, rec, grid=grid, convention="correlator")
    return proj, corr


def preset_process1(seed=None, tols=None) -> dict:
    """Two-qubit common-cause process: memory metrics and recovery."""
    g, dims = state_by_name("lambda")
    p = build_common_cause(g, dims, dims[:2])
    theta = instrument_by_name("theta")
    z = instrument_by_name("z")
    r = {"process": "lambda"}
    nm = non_markovianity(p)
    r["non_markovianity"] = _entry(
        nm, _ref("theoretical", 0.329),
        _ref("experimental", 0.285, uncertainty=0.004),
        key="non_markovianity", tols=tols)
    r["confusion_probability_single_copy"] = {
        "value": confusion_probability(1, nm)}
    cmi_refs = (_ref("theoretical", 0.059),)
    r["cmi_state_convention"] = _entry(
        quantum_cmi(g, dims), *cmi_refs, key="cmi", tols=tols)
    r["cmi_process_convention"] = _entry(
        quantum_cmi_choi(p), *cmi_refs, key="cmi", tols=tols)
    r["cmi_note"] = ("both conventions coincide near 0.019; the tabulated "
                     "reference 0.059 is not reproduced by this matrix")
    probs = [born_probability(p, b_element=e.matrix) for e in theta.elements]
    r["theta_probabilities"] = [
        _entry(v, _ref("theoretical", c), key="theta_probabilities",
               tols=tols)
        for v, c in zip(probs, _REF_THETA_WEIGHTS)]
    rep = memory_strength(p, theta)
    r["theta_memory"] = rep.as_dict()
    r["theta_max_event_memory"] = _entry(
        rep.max_event, _ref("theoretical", 0.0, tolerance=0.02),
        key="theta_max_event_memory", tols=tols)
    ok, detail = markov_order_test(p, theta)
    r["theta_markov_order_one"] = {"value": bool(ok)}
    r["theta_trace_distances"] = [
        {"value": e["trace_distance"]} for e in detail["events"]]
    repz = memory_strength(p, z)
    r["z_memory"] = repz.as_dict()
    r["z_first_event_memory"] = _entry(
        repz.per_event[0][1], _ref("theoretical", 0.0514),
        key="z_first_event_memory", tols=tols)
    rec = recover(p, theta)
    r["recovered_fidelity_tabulated_form"] = _entry(
        fidelity(rec.gamma, reference_recovered_lambda()),
        _ref("theoretical", 1.0, tolerance=1e-10),
        key="recovered_fidelity_tabulated_form", tols=tols)
    r["recovered_fidelity_true_process"] = _entry(
        fidelity(rec.gamma, g), _ref("experimental", 0.9979),
        key="recovered_fidelity_true_process", tols=tols)
    proj, corr = _scan_pair(p, rec)
    r["scan_projector_max"] = _entry(
        proj.max_abs_diff, _ref("experimental", 0.048),
        key="scan_projector_max", tols=tols)
    r["scan_correlator_max"] = {"value": corr.max_abs_diff}
    noisy = []
    for strength in (0.01, 0.05):
        gn = noisy_replay(g, dims, strength)
        pn = build_common_cause(gn, dims, dims[:2])
        recn = recover(pn, theta)
        # clean process against the noisy-data reconstruction
        projn, corrn = _scan_pair(p, recn)
        noisy.append({"strength": strength,
                      "fidelity_to_clean": fidelity(gn, g),
                      "scan_projector_max": projn.max_abs_diff,
                      "scan_correlator_max": corrn.max_abs_diff})
    r["noisy_replay"] = noisy
    r["noisy_replay_note"] = ("leg-local depolarizing noise moves the scan "
                              "maxima into the 0.01 to 0.1 range")
    return r


def preset_process2(seed=None, tols=None) -> dict:
    """Qubit-qutrit common-cause process: exact Markov-order-one middle."""
    g, dims = state_by_name("omega")
    p = build_common_cause(g, dims, dims[:2])
    xi = instrument_by_name("xi")
    sharp = instrument_by_name("qutrit_sharp")
    r = {"process": "omega"}
    nm = non_markovianity(p)
    r["non_markovianity"] = _entry(
        nm, _ref("theoretical", 0.5), key="non_markovianity", tols=tols)
    r["confusion_probability_single_copy"] = {
        "value": confusion_probability(1, nm)}
    r["cmi_state_convention"] = _entry(
        quantum_cmi(g, dims), _ref("theoretical", 0.5, tolerance=1e-6),
        key="cmi", tols=tols)
    r["cmi_process_convention"] = _entry(
        quantum_cmi_choi(p), _ref("theoretical", 0.5, tolerance=1e-6),
        key="cmi", tols=tols)
    ok, detail = markov_order_test(p, xi)
    r["xi_markov_order_one"] = {"value": bool(ok)}
    repx = memory_strength(p, xi)
    r["xi_memory"] = repx.as_dict()
    r["xi_max_event_memory"] = _entry(
        repx.max_event, _ref("theoretical", 0.0, tolerance=1e-8),
        key="xi_max_event_memory", tols=tols)
    reps = memory_strength(p, sharp)
    r["qutrit_sharp_memory"] = reps.as_dict()
    mi_entries = []
    for i, (_, mi) in enumerate(reps.per_event):
        ref = (_ref("theoretical", 0.2075) if i < 4
               else _ref("theoretical", 0.0, tolerance=1e-8))
        mi_entries.append(_entry(mi, ref, key="qutrit_sharp_event_memory",
                                 tols=tols))
    r["qutrit_sharp_event_memory"] = mi_entries
    conds = condition_instrument(p, "B", sharp)[:4]
    frame = _WERNER_FRAME
    lit = rot = 0.0
    for i, cond in enumerate(conds):
        lit = max(lit, min(
            trace_distance(cond.state, werner(x, 1.0 / 3.0))
            for x in (1, 2, 3, 4)))
        change = kron(np.eye(2), frame)
        target = change.conj().T @ werner(
            _WERNER_EVENT_BELL[i], 1.0 / 3.0) @ change
        rot = max(rot, float(np.max(np.abs(cond.state - target))))
    r["werner_literal_max_trace_distance"] = _entry(
        lit, _ref("theoretical", 0.0, tolerance=1e-10),
        key="werner_literal_max_trace_distance", tols=tols)
    r["werner_rotated_residual"] = _entry(
        rot, _ref("theoretical", 0.0, tolerance=1e-10),
        key="werner_rotated_residual", tols=tols)
    r["werner_note"] = ("conditional states are Bell-diagonal only after a "
                        "fixed change of frame on the last qubit; in the "
                        "literal frame each sits trace distance 0.289 from "
                        "every Bell-diagonal target")
    rec = recover(p, xi)
    r["recovered_fidelity_tabulated_form"] = _entry(
        fidelity(rec.gamma, reference_recovered_omega()),
        _ref("theoretical", 1.0, tolerance=1e-10),
        _ref("experimental", 0.9960),
        key="recovered_fidelity_tabulated_form", tols=tols)
    proj, corr = _scan_pair(p, rec)
    r["scan_projector_max"] = _entry(
        proj.max_abs_diff, _ref("theoretical", 0.0, tolerance=1e-10),
        _ref("experimental", 0.022),
        key="scan_projector_max", tols=tols)
    r["scan_correlator_max"] = {"value": corr.max_abs_diff}
    return r


def _walk_born_consistency(circuit, inst, seed, trials=100):
    rng = np.random.default_rng(seed)
    idx_by_port = dict(circuit.ports)
    worst = 0.0
    for _ in range(trials):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = v / np.linalg.norm(v)
        probs = port_probabilities(v, circuit)
        for port, prob in probs.items():
            e = inst.elements[idx_by_port[port] - 1].matrix
            worst = max(worst, abs(prob - float((v.conj() @ e @ v).real)))
    return worst


def _verify_circuit(circuit, target, seed, tols=None, key_prefix=""):
    extracted = extract_povm(circuit)
    if len(extracted) != len(target):
        raise ValueError("circuit and target element counts differ")
    lit = max(float(np.max(np.abs(a.matrix - b.matrix)))
              for a, b in zip(target.elements, extracted.elements))
    rotation, rot = align_frames(target.matrices(), extracted.matrices())
    born = _walk_born_consistency(circuit, extracted, seed)
    if lit <= 1e-8:
        match = "exact"
    elif rot <= 1e-8:
        match = "rotated_frame"
    else:
        match = "none"
    return {
        "elements": len(extracted),
        "literal_max_deviation": _entry(
            lit, _ref("theoretical", 0.0, tolerance=1e-8),
            key=key_prefix + "literal_max_deviation", tols=tols),
        "rotated_max_deviation": _entry(
            rot, _ref("theoretical", 0.0, tolerance=1e-8),
            key=key_prefix + "rotated_max_deviation", tols=tols),
        "rotation": mat_to_json(rotation),
        "born_consistency_max": _entry(
            born, _ref("theoretical", 0.0, tolerance=1e-10),
            key=key_prefix + "born_consistency_max", tols=tols),
        "match": match,
    }


def preset_walk_verify(seed=None, tols=None) -> dict:
    """Both walk circuits against their target instruments."""
    seed = PRESET_SEEDS["walk_verify"] if seed is None else seed
    r = {}
    for name in ("theta", "tetra"):
        block = _verify_circuit(circuit_by_name(name),
                                instrument_by_name(name), seed, tols,
                                key_prefix=f"{name}.")
        r[name] = block
    r["note"] = ("the tetra circuit realizes its target up to one fixed "
                 "qubit rotation; the theta circuit matches literally")
    return r


def preset_survey(seed=None, samples=100000, cutoff=0.0125,
                  tols=None) -> dict:
    """Projective-instrument survey on the two-qubit process."""
    seed = PRESET_SEEDS["survey"] if seed is None else seed
    g, dims = state_by_name("lambda")
    p = build_common_cause(g, dims, dims[:2])
    frac = projective_survey(p, cutoff, samples, seed)
    return {
        "process": "lambda",
        "cutoff": cutoff,
        "samples": samples,
        "seed": seed,
        "fraction_below_cutoff": _entry(
            frac, _ref("theoretical", 0.288, uncertainty=0.01),
            key="fraction_below_cutoff", tols=tols),
        "note": ("the computed fraction sits near 0.417 for this matrix; "
                 "the tabulated 0.288 is not reproduced"),
    }


def preset_tomo(seed=None, shots=1000000, resamples=100,
                tols=None) -> dict:
    """Simulated tomography of both states at a fixed shot budget."""
    seed = PRESET_SEEDS["tomo"] if seed is None else seed
    r = {"shots": shots, "seed": seed}
    fid_refs = {"lambda": _ref("experimental", 0.9862),
                "omega": _ref("experimental", 0.9858)}
    for name in STATE_NAMES:
        g, dims = state_by_name(name)
        counts = simulate_counts(g, dims, shots, seed)
        rho = reconstruct(counts, dims)
        block = {
            "settings": len(counts.labels),
            "fidelity": _entry(
                fidelity(rho, g), fid_refs[name],
                key=f"{name}.fidelity", tols=tols),
        }
        if name == "lambda":
            pn = build_common_cause(rho, dims, dims[:2])
            block["non_markovianity_reconstructed"] = _entry(
                non_markovianity(pn), _ref("theoretical", 0.329),
                _ref("experimental", 0.285, uncertainty=0.004),
                key="non_markovianity_reconstructed", tols=tols)

            def stat(sigma, d=dims):
                return non_markovianity(build_common_cause(sigma, d, d[:2]))

            mean, err = bootstrap(counts, dims, stat, resamples=resamples,
                                  seed=seed)
            block["bootstrap"] = {
                "statistic": "non_markovianity",
                "resamples": resamples,
                "mean": {"value": mean},
                "stderr": _entry(err, _ref("experimental", 0.004),
                                 key="bootstrap_stderr", tols=tols),
            }
        r[name] = block
    return r


PRESETS = {
    "process1": preset_process1,
    "process2": preset_process2,
    "walk_verify": preset_walk_verify,
    "survey": preset_survey,
    "tomo": preset_tomo,
}


def _run_preset(name, seed=None, out=None, fmt="json", tols=None) -> int:
    key = str(name).strip().lower().replace("-", "_")
    if key not in PRESETS:
        raise ValueError(f"unknown preset {name!r} "
                         f"(expected one of {sorted(PRESETS)})")
    bundle = PRESETS[key](seed=seed, tols=tols)
    bundle = {"preset": key, **bundle}
    _emit(bundle, out, fmt)
    return 0


def _load_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    if "command" in cfg and cfg.get("preset") != "custom":
        raise ValueError("'command' is only valid with preset 'custom'")
    tols = cfg.get("tolerances")
    if tols is not None:
        if not isinstance(tols, dict):
            raise ValueError("tolerances must map field names to numbers")
        cfg["tolerances"] = {str(k): float(v) for k, v in tols.items()}
    if "seed" in cfg and cfg["seed"] is not None:
        cfg["seed"] = int(cfg["seed"])
    if cfg.get("format", "json") not in ("json", "csv"):
        raise ValueError("format must be json or csv")
    return cfg


# ---------------------------------------------------------------- handlers

def _cmd_states_emit(args) -> int:
    name = args.name.strip().lower()
    if name not in STATE_NAMES:
        raise ValueError(f"unknown state {args.name!r} "
                         f"(expected one of {list(STATE_NAMES)})")
    g, dims = state_by_name(name)
    _emit({"name": name, **_state_to_json(g, dims)}, args.out, "json")
    return 0


def _cmd_process_build(args) -> int:
    g, dims, _ = _load_state(args.state)
    p = build_common_cause(g, dims, dims[:2])
    _emit(_process_to_json(p), args.out, "json")
    return 0


def _cmd_process_check(args) -> int:
    p = _load_process(args.process)
    report = check_causality(p)
    _emit(report, args.out, "json")
    return 0 if report["ok"] else 3


def _cmd_instrument_show(args) -> int:
    inst = _load_instrument(args.name)
    _emit(instrument_to_json(inst), args.out, "json")
    return 0


def _cmd_instrument_validate(args) -> int:
    inst = _load_instrument(args.name)
    report = validate_instrument(inst)
    report = {"name": inst.name, "dim": inst.dim, **report}
    _emit(report, args.out, "json")
    return 0 if report["ok"] else 3


def _cmd_instrument_dual(args) -> int:
    inst = _load_instrument(args.name)
    frame = dual_frame(inst)
    gram = gram_matrix(inst.matrices())
    worst = 0.0
    for x, d in enumerate(frame.duals):
        for y, e in enumerate(inst.matrices()):
            got = float(np.trace(d @ e).real)
            worst = max(worst, abs(got - (1.0 if x == y else 0.0)))
    _emit({
        "name": inst.name,
        "duals": [mat_to_json(d) for d in frame.duals],
        "gram": mat_to_json(gram),
        "duality_residual": worst,
    }, args.out, "json")
    return 0


def _cmd_memory_strength(args) -> int:
    p = _load_process(args.process)
    inst = _load_instrument(args.instrument)
    rep = memory_strength(p, inst)
    ok, detail = markov_order_test(p, inst)
    _emit({
        "process": str(args.process),
        "instrument": inst.name or str(args.instrument),
        "report": rep.as_dict(),
        "markov_order_one": bool(ok),
        "events": detail["events"],
        "tol": detail["tol"],
    }, args.out, "json")
    return 0


def _cmd_memory_survey(args) -> int:
    p = _load_process(args.process)
    frac = projective_survey(p, args.cutoff, args.samples, args.seed)
    _emit({
        "process": str(args.process),
        "cutoff": args.cutoff,
        "samples": args.samples,
        "seed": args.seed,
        "fraction_below_cutoff": {"value": frac},
    }, args.out, "json")
    return 0


def _cmd_recover_build(args) -> int:
    p = _load_process(args.process)
    inst = _load_instrument(args.instrument)
    rec = recover(p, inst)
    born_dev = max(
        abs(born_probability(p, b_element=e.matrix)
            - born_probability(rec, b_element=e.matrix))
        for e in inst.elements)
    _emit({
        "process": str(args.process),
        "instrument": inst.name or str(args.instrument),
        **_process_to_json(rec),
        "state_matrix": mat_to_json(rec.gamma),
        "events": [{"probability": pr} for pr, _, _ in rec.events],
        "fidelity_to_true": fidelity(rec.gamma, p.gamma),
        "born_preservation_max": born_dev,
    }, args.out, "json")
    return 0


def _cmd_recover_scan(args) -> int:
    p = _load_process(args.process)
    inst = _load_instrument(args.instrument)
    if args.noise:
        gn = noisy_replay(p.gamma, p.input_dims, args.noise)
        p = build_common_cause(gn, p.input_dims, p.output_dims)
    rec = recover(p, inst)
    scan = deviation_scan(p, rec, grid=args.grid,
                          convention=args.convention, full=args.full)
    scan.to_csv(args.out)
    _emit({
        "process": str(args.process),
        "instrument": inst.name or str(args.instrument),
        "convention": scan.convention,
        "grid": args.grid,
        "full": bool(args.full),
        "noise": args.noise,
        "points": int(scan.abs_diff.size),
        "max_abs_diff": scan.max_abs_diff,
        "argmax": scan.argmax,
        "csv": str(args.out),
    }, None, "json")
    return 0


def _cmd_walk_verify(args) -> int:
    key, circuit = _load_circuit(args.circuit)
    if not args.target and key is None:
        raise ValueError(f"circuit file {args.circuit!r} needs --target; "
                         "only a built-in circuit defaults to its own "
                         "instrument")
    target = _load_instrument(args.target or key)
    block = _verify_circuit(circuit, target, args.seed)
    block = {"circuit": str(args.circuit),
             "target": (target.name or str(args.target)), **block}
    _emit(block, args.out, "json")
    lit = block["literal_max_deviation"]["value"]
    rot = block["rotated_max_deviation"]["value"]
    return 0 if min(lit, rot) <= args.tol else 3


def _counts_for(args):
    """(counts, dims, built-in state key or None) for tomo commands.
    Counts come from --counts, else are simulated from --state; dims from
    --state, else from the first label (one-letter bases are qubits)."""
    counts = counts_from_csv(args.counts) if args.counts else None
    if args.state:
        g, dims, key = _load_state(args.state)
    elif counts is None:
        raise ValueError("need --counts or --state")
    else:
        key = None
        dims = tuple(2 if len(lbl) == 1 else 3
                     for lbl in counts.labels[0].split("/"))
    if counts is None:
        counts = simulate_counts(g, dims, args.shots, args.seed)
    return counts, dims, key


def _cmd_tomo_simulate(args) -> int:
    g, dims, _ = _load_state(args.state)
    counts = simulate_counts(g, dims, args.shots, args.seed)
    counts_to_csv(counts, args.out)
    _emit({
        "state": str(args.state),
        "settings": len(counts.labels),
        "shots_requested": args.shots,
        "total_shots": int(counts.total_shots),
        "seed": args.seed,
        "csv": str(args.out),
    }, None, "json")
    return 0


def _cmd_tomo_reconstruct(args) -> int:
    counts, dims, key = _counts_for(args)
    rho = reconstruct(counts, dims)
    out = {
        "settings": len(counts.labels),
        "total_shots": int(counts.total_shots),
        "dims": list(dims),
    }
    if key is not None:
        g, _ = state_by_name(key)
        out["fidelity"] = {"value": fidelity(rho, g)}
        pn = build_common_cause(rho, dims, dims[:2])
        out["non_markovianity_reconstructed"] = {
            "value": non_markovianity(pn)}
    if args.matrix_out:
        with open(args.matrix_out, "w") as fh:
            json.dump(_state_to_json(rho, dims), fh, indent=1,
                      sort_keys=True)
        out["matrix_file"] = str(args.matrix_out)
    else:
        out["matrix"] = mat_to_json(rho)
    _emit(out, args.out, "json")
    return 0


def _cmd_tomo_bootstrap(args) -> int:
    counts, dims, key = _counts_for(args)
    if key is not None:
        def stat(sigma):
            return non_markovianity(build_common_cause(sigma, dims, dims[:2]))

        name = "non_markovianity"
    else:
        def stat(sigma):
            return float(np.trace(sigma @ sigma).real)

        name = "purity"
    mean, err = bootstrap(counts, dims, stat, resamples=args.resamples,
                          seed=args.seed)
    _emit({
        "statistic": name,
        "resamples": args.resamples,
        "seed": args.seed,
        "total_shots": int(counts.total_shots),
        "mean": {"value": mean},
        "stderr": {"value": err},
    }, args.out, "json")
    return 0


def _cmd_preset(args) -> int:
    return _run_preset(args.name, seed=args.seed, out=args.out,
                       fmt=args.format, tols=None)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    preset = cfg.get("preset")
    if preset is None:
        raise ValueError("config needs a 'preset' key")
    if preset == "custom":
        command = cfg.get("command")
        if (not isinstance(command, list)
                or not all(isinstance(t, str) for t in command)):
            raise ValueError("custom preset needs 'command': [args...]")
        if command and command[0] == "run":
            raise ValueError("custom command cannot nest 'run'")
        return main(command)
    return _run_preset(preset, seed=cfg.get("seed"),
                       out=cfg.get("output"),
                       fmt=cfg.get("format", "json"),
                       tols=cfg.get("tolerances"))


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="proctensor",
        description="process-tensor toolkit for three-step common-cause "
                    "processes")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(parent, name, func, **kw):
        sp = parent.add_parser(name, **kw)
        sp.set_defaults(func=func)
        return sp

    states = sub.add_parser("states", help="built-in states")
    states_sub = states.add_subparsers(dest="subcommand", required=True)
    sp = add(states_sub, "emit", _cmd_states_emit,
             help="write a built-in state as JSON")
    sp.add_argument("--name", required=True)
    sp.add_argument("--out", default=None)

    proc = sub.add_parser("process", help="process tensors")
    proc_sub = proc.add_subparsers(dest="subcommand", required=True)
    sp = add(proc_sub, "build", _cmd_process_build,
             help="build a common-cause process tensor from a state")
    sp.add_argument("--state", required=True)
    sp.add_argument("--out", default=None)
    sp = add(proc_sub, "check", _cmd_process_check,
             help="run the causality hierarchy on a process")
    sp.add_argument("--process", required=True)
    sp.add_argument("--out", default=None)

    inst = sub.add_parser("instrument", help="built-in instruments")
    inst_sub = inst.add_subparsers(dest="subcommand", required=True)
    for nm, fn, hp in (("show", _cmd_instrument_show, "emit elements"),
                       ("validate", _cmd_instrument_validate,
                        "PSD and completeness residuals"),
                       ("dual", _cmd_instrument_dual,
                        "dual frame and Gram matrix")):
        sp = add(inst_sub, nm, fn, help=hp)
        sp.add_argument("--name", required=True)
        sp.add_argument("--out", default=None)

    mem = sub.add_parser("memory", help="memory metrics")
    mem_sub = mem.add_subparsers(dest="subcommand", required=True)
    sp = add(mem_sub, "strength", _cmd_memory_strength,
             help="instrument-specific memory report")
    sp.add_argument("--process", required=True)
    sp.add_argument("--instrument", required=True)
    sp.add_argument("--out", default=None)
    sp = add(mem_sub, "survey", _cmd_memory_survey,
             help="Haar survey of projective middle instruments")
    sp.add_argument("--process", default="lambda")
    sp.add_argument("--cutoff", type=float, default=0.0125)
    sp.add_argument("--samples", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=PRESET_SEEDS["survey"])
    sp.add_argument("--out", default=None)

    rc = sub.add_parser("recover", help="instrument-span reconstruction")
    rc_sub = rc.add_subparsers(dest="subcommand", required=True)
    sp = add(rc_sub, "build", _cmd_recover_build,
             help="reconstruct the process from one instrument")
    sp.add_argument("--process", required=True)
    sp.add_argument("--instrument", required=True)
    sp.add_argument("--out", default=None)
    sp = add(rc_sub, "scan", _cmd_recover_scan,
             help="true-vs-recovered deviation grid, CSV output")
    sp.add_argument("--process", required=True)
    sp.add_argument("--instrument", required=True)
    sp.add_argument("--convention", default="projector",
                    choices=["projector", "correlator"])
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--full", action="store_true",
                    help="scan azimuthal angles too")
    sp.add_argument("--noise", type=float, default=0.0,
                    help="leg-local depolarizing strength on the true state")
    sp.add_argument("--out", required=True)

    walk = sub.add_parser("walk", help="quantum-walk circuits")
    walk_sub = walk.add_subparsers(dest="subcommand", required=True)
    sp = add(walk_sub, "verify", _cmd_walk_verify,
             help="extract the circuit POVM and compare to a target")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--target", default=None)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--seed", type=int,
                    default=PRESET_SEEDS["walk_verify"])
    sp.add_argument("--out", default=None)

    tomo = sub.add_parser("tomo", help="simulated tomography")
    tomo_sub = tomo.add_subparsers(dest="subcommand", required=True)
    sp = add(tomo_sub, "simulate", _cmd_tomo_simulate,
             help="multinomial counts for every product setting")
    sp.add_argument("--state", required=True)
    sp.add_argument("--shots", type=int, default=1000000)
    sp.add_argument("--seed", type=int, default=PRESET_SEEDS["tomo"])
    sp.add_argument("--out", required=True)
    for nm, fn, hp in (("reconstruct", _cmd_tomo_reconstruct,
                        "linear-inversion state estimate"),
                       ("bootstrap", _cmd_tomo_bootstrap,
                        "resampled statistic mean and stderr")):
        sp = add(tomo_sub, nm, fn, help=hp)
        sp.add_argument("--counts", default=None)
        sp.add_argument("--state", default=None)
        sp.add_argument("--shots", type=int, default=1000000)
        sp.add_argument("--seed", type=int, default=PRESET_SEEDS["tomo"])
        sp.add_argument("--out", default=None)
        if nm == "reconstruct":
            sp.add_argument("--matrix-out", default=None)
        else:
            sp.add_argument("--resamples", type=int, default=100)

    sp = add(sub, "preset", _cmd_preset,
             help="run one reproduction preset")
    sp.add_argument("name", choices=sorted(PRESETS))
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--format", default="json", choices=["json", "csv"])
    sp.add_argument("--out", default=None)

    sp = add(sub, "run", _cmd_run, help="run from a JSON config file")
    sp.add_argument("--config", required=True)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
