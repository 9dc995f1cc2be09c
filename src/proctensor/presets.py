"""Presets: self-contained reproductions of the headline quantities.

A preset's numeric fields carry the references they are compared against,
each with an "agrees" flag. Every reference lives in REFERENCES, keyed by
preset and then by the key a config's tolerance override names. A list
field's key holds one reference per index, any other key every reference
of its field.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .instruments import _REF_THETA_WEIGHTS, instrument_by_name
from .linalg import fidelity, kron, mat_to_json, trace_distance
from .process import _events, born_probability, build_common_cause
from .states import STATES, state_by_name, werner

# memory, recovery, tomography and walk load in the functions that use them

# default seeds; process1 and process2 draw nothing at random, take none
PRESET_SEEDS = {"walk_verify": 11, "survey": 7, "tomo": 3}
# the survey and tomo budgets, also the defaults of their CLI options
SURVEY_CUTOFF = 0.0125
SURVEY_SAMPLES = 100000
TOMO_SHOTS = 1000000
TOMO_RESAMPLES = 100

# single-qubit change of frame carrying the sharp-instrument conditional
# states onto Bell-diagonal form, with the event -> Bell index map
_WERNER_FRAME = 0.5 * np.array([[1 + 1j, 1 + 1j], [-1 + 1j, 1 - 1j]])
_WERNER_EVENT_BELL = (1, 3, 4, 2)


class Reference(NamedTuple):
    """Agrees with a value within its tolerance, else within twice its
    uncertainty, else within 1e-3."""
    kind: str  # "theoretical" or "experimental"
    value: float
    tolerance: float | None = None
    uncertainty: float | None = None


_TH, _EX = "theoretical", "experimental"


def _zero(tolerance):
    return (Reference(_TH, 0.0, tolerance),)


# N(lambda): the tabulated value and the measured 0.285(4)
_N_LAMBDA = (Reference(_TH, 0.329), Reference(_EX, 0.285, uncertainty=0.004))
_TABULATED_RECOVERY = Reference(_TH, 1.0, 1e-10)
# a walk circuit against its target instrument: it matches literally or
# in a rotated frame within CIRCUIT_MATCH_TOL, the `walk verify --tol` default
CIRCUIT_MATCH_TOL = 1e-8
CIRCUIT_REFERENCES = {"literal_max_deviation": _zero(CIRCUIT_MATCH_TOL),
                      "rotated_max_deviation": _zero(CIRCUIT_MATCH_TOL),
                      "born_consistency_max": _zero(1e-10)}

REFERENCES = {
    "process1": {
        "non_markovianity": _N_LAMBDA,
        "cmi": (Reference(_TH, 0.059),),
        "theta_probabilities": tuple(Reference(_TH, float(w))
                                     for w in _REF_THETA_WEIGHTS),
        "theta_max_event_memory": _zero(0.02),
        "z_first_event_memory": (Reference(_TH, 0.0514),),
        "recovered_fidelity_tabulated_form": (_TABULATED_RECOVERY,),
        "recovered_fidelity_true_process": (Reference(_EX, 0.9979),),
        "scan_projector_max": (Reference(_EX, 0.048),),
    },
    "process2": {
        "non_markovianity": (Reference(_TH, 0.5),),
        "cmi": (Reference(_TH, 0.5, 1e-6),),
        "xi_max_event_memory": _zero(1e-8),
        # tetrahedral events 1..4 in the 01 subspace, then |2><2|
        "qutrit_sharp_event_memory": (Reference(_TH, 0.2075),) * 4
        + _zero(1e-8),
        "werner_literal_max_trace_distance": _zero(1e-10),
        "werner_rotated_residual": _zero(1e-10),
        "recovered_fidelity_tabulated_form": (_TABULATED_RECOVERY,
                                              Reference(_EX, 0.9960)),
        "scan_projector_max": _zero(1e-10) + (Reference(_EX, 0.022),),
    },
    "walk_verify": {f"{name}.{key}": refs for name in ("theta", "tetra")
                    for key, refs in CIRCUIT_REFERENCES.items()},
    "survey": {"fraction_below_cutoff": (
        Reference(_TH, 0.288, uncertainty=0.01),)},
    "tomo": {
        "lambda.fidelity": (Reference(_EX, 0.9862),),
        "omega.fidelity": (Reference(_EX, 0.9858),),
        "non_markovianity_reconstructed": _N_LAMBDA,
        # the bootstrap error bar is the quoted uncertainty of N(lambda)
        "bootstrap_stderr": (Reference(_EX, _N_LAMBDA[1].uncertainty),),
    },
}


def references(preset: str, tolerances=None) -> dict:
    """The preset's reference table, every reference under an overridden
    key taking the override as its tolerance."""
    table = REFERENCES[preset]
    tolerances = tolerances or {}
    unknown = sorted(set(tolerances) - set(table))
    if unknown:
        raise ValueError(f"tolerances: unknown key(s) {unknown} for preset "
                         f"{preset!r} (expected one of {sorted(table)})")
    return {key: (tuple(r._replace(tolerance=tolerances[key]) for r in refs)
                  if key in tolerances else refs)
            for key, refs in table.items()}


def _entry(value, refs, key, i=None) -> dict:
    """Report field: the value and its agreement with each reference under
    key (index i of a per-index key)."""
    val = float(value)
    rendered = []
    for r in (refs[key] if i is None else (refs[key][i],)):
        tol = r.tolerance
        if tol is None:
            tol = 1e-3 if r.uncertainty is None else 2.0 * r.uncertainty
        item = {"kind": r.kind, "value": r.value,
                "agrees": bool(abs(val - r.value) <= tol)}
        if r.uncertainty is not None:
            item["uncertainty"] = r.uncertainty
        rendered.append(item)
    return {"value": val, "reference": rendered}


def _scan_pair(p, rec, grid=64):
    from .recovery import deviation_scan
    proj = deviation_scan(p, rec, grid=grid, convention="projector")
    corr = deviation_scan(p, rec, grid=grid, convention="correlator")
    return proj, corr


def _process_report(name, refs):
    """(state, dims, process, report) for a built-in state; the report
    opens with the process's non-Markovianity and CMI."""
    from .memory import (confusion_probability, non_markovianity,
                         quantum_cmi, quantum_cmi_choi)
    g, dims = state_by_name(name)
    p = build_common_cause(g, dims, dims[:2])
    nm = non_markovianity(p)
    return g, dims, p, {
        "process": name,
        "non_markovianity": _entry(nm, refs, "non_markovianity"),
        "confusion_probability_single_copy": {
            "value": confusion_probability(1, nm)},
        "cmi_state_convention": _entry(quantum_cmi(g, dims), refs, "cmi"),
        "cmi_process_convention": _entry(quantum_cmi_choi(p), refs, "cmi"),
    }


def preset_process1(refs=REFERENCES["process1"]) -> dict:
    """Two-qubit common-cause process: memory metrics and recovery."""
    from .memory import memory_strength
    from .recovery import noisy_replay, recover, reference_recovered_lambda
    g, dims, p, r = _process_report("lambda", refs)
    theta = instrument_by_name("theta")
    z = instrument_by_name("z")
    r["cmi_note"] = ("both conventions coincide near 0.019; the tabulated "
                     f"reference {refs['cmi'][0].value} is not reproduced "
                     "by this matrix")
    r["theta_probabilities"] = [
        _entry(born_probability(p, b_element=e.matrix), refs,
               "theta_probabilities", i)
        for i, e in enumerate(theta.elements)]
    rep = memory_strength(p, theta)
    r["theta_memory"] = rep.as_dict()
    r["theta_max_event_memory"] = _entry(rep.max_event, refs,
                                         "theta_max_event_memory")
    r["theta_markov_order_one"] = {"value": bool(rep.markov_order()[0])}
    r["theta_trace_distances"] = [{"value": td} for td in rep.trace_distances]
    repz = memory_strength(p, z)
    r["z_memory"] = repz.as_dict()
    r["z_first_event_memory"] = _entry(repz.per_event[0][1], refs,
                                       "z_first_event_memory")
    rec = recover(p, theta)
    r["recovered_fidelity_tabulated_form"] = _entry(
        fidelity(rec.gamma, reference_recovered_lambda()), refs,
        "recovered_fidelity_tabulated_form")
    r["recovered_fidelity_true_process"] = _entry(
        fidelity(rec.gamma, g), refs, "recovered_fidelity_true_process")
    proj, corr = _scan_pair(p, rec)
    r["scan_projector_max"] = _entry(proj.max_abs_diff, refs,
                                     "scan_projector_max")
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


def preset_process2(refs=REFERENCES["process2"]) -> dict:
    """Qubit-qutrit common-cause process: exact Markov-order-one middle."""
    from .memory import memory_strength
    from .recovery import recover, reference_recovered_omega
    g, dims, p, r = _process_report("omega", refs)
    xi = instrument_by_name("xi")
    sharp = instrument_by_name("qutrit_sharp")
    repx = memory_strength(p, xi)
    r["xi_markov_order_one"] = {"value": bool(repx.markov_order()[0])}
    r["xi_memory"] = repx.as_dict()
    r["xi_max_event_memory"] = _entry(repx.max_event, refs,
                                      "xi_max_event_memory")
    # the Werner residuals read the conditional states of the report's pass
    reps = memory_strength(p, sharp)
    events = _events(p, sharp)
    r["qutrit_sharp_memory"] = reps.as_dict()
    r["qutrit_sharp_event_memory"] = [
        _entry(mi, refs, "qutrit_sharp_event_memory", i)
        for i, (_, mi) in enumerate(reps.per_event)]
    change = kron(np.eye(2), _WERNER_FRAME)
    lit = rot = 0.0
    for i, (_, state, _, _) in enumerate(events[:4]):
        lit = max(lit, min(
            trace_distance(state, werner(x, 1.0 / 3.0))
            for x in (1, 2, 3, 4)))
        target = change.conj().T @ werner(
            _WERNER_EVENT_BELL[i], 1.0 / 3.0) @ change
        rot = max(rot, float(np.max(np.abs(state - target))))
    r["werner_literal_max_trace_distance"] = _entry(
        lit, refs, "werner_literal_max_trace_distance")
    r["werner_rotated_residual"] = _entry(rot, refs,
                                          "werner_rotated_residual")
    r["werner_note"] = ("conditional states are Bell-diagonal only after a "
                        "fixed change of frame on the last qubit; in the "
                        "literal frame each sits trace distance 0.289 from "
                        "every Bell-diagonal target")
    rec = recover(p, xi)
    r["recovered_fidelity_tabulated_form"] = _entry(
        fidelity(rec.gamma, reference_recovered_omega()), refs,
        "recovered_fidelity_tabulated_form")
    proj, corr = _scan_pair(p, rec)
    r["scan_projector_max"] = _entry(proj.max_abs_diff, refs,
                                     "scan_projector_max")
    r["scan_correlator_max"] = {"value": corr.max_abs_diff}
    return r


def _walk_born_consistency(circuit, inst, seed, trials=100):
    from .walk import port_probabilities
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = v / np.linalg.norm(v)
        probs = port_probabilities(v, circuit)
        for port, prob in probs.items():
            e = inst.elements[circuit.ports[port] - 1].matrix
            worst = max(worst, abs(prob - float((v.conj() @ e @ v).real)))
    return worst


def _verify_circuit(circuit, target, seed, refs=CIRCUIT_REFERENCES,
                    prefix=""):
    """A circuit's extracted POVM against its target instrument; refs
    holds the references under prefix + CIRCUIT_REFERENCES' keys."""
    from .walk import align_frames, extract_povm
    extracted = extract_povm(circuit)
    if len(extracted) != len(target):
        raise ValueError("circuit and target element counts differ")
    lit = max(float(np.max(np.abs(a.matrix - b.matrix)))
              for a, b in zip(target.elements, extracted.elements))
    rotation, rot = align_frames(target.matrices(), extracted.matrices())
    born = _walk_born_consistency(circuit, extracted, seed)
    if lit <= CIRCUIT_MATCH_TOL:
        match = "exact"
    elif rot <= CIRCUIT_MATCH_TOL:
        match = "rotated_frame"
    else:
        match = "none"
    return {
        "elements": len(extracted),
        "literal_max_deviation": _entry(
            lit, refs, prefix + "literal_max_deviation"),
        "rotated_max_deviation": _entry(
            rot, refs, prefix + "rotated_max_deviation"),
        "rotation": mat_to_json(rotation),
        "born_consistency_max": _entry(
            born, refs, prefix + "born_consistency_max"),
        "match": match,
    }


def preset_walk_verify(seed=None, refs=REFERENCES["walk_verify"]) -> dict:
    """Both walk circuits against their target instruments."""
    from .walk import circuit_by_name
    seed = PRESET_SEEDS["walk_verify"] if seed is None else seed
    r = {name: _verify_circuit(circuit_by_name(name),
                               instrument_by_name(name), seed, refs,
                               prefix=f"{name}.")
         for name in ("theta", "tetra")}
    r["note"] = ("the tetra circuit realizes its target up to one fixed "
                 "qubit rotation; the theta circuit matches literally")
    return r


def preset_survey(seed=None, refs=REFERENCES["survey"]) -> dict:
    """Projective-instrument survey on the two-qubit process."""
    from .memory import projective_survey
    seed = PRESET_SEEDS["survey"] if seed is None else seed
    g, dims = state_by_name("lambda")
    p = build_common_cause(g, dims, dims[:2])
    frac = projective_survey(p, SURVEY_CUTOFF, SURVEY_SAMPLES, seed)
    return {
        "process": "lambda",
        "cutoff": SURVEY_CUTOFF,
        "samples": SURVEY_SAMPLES,
        "seed": seed,
        "fraction_below_cutoff": _entry(frac, refs, "fraction_below_cutoff"),
        "note": ("the computed fraction sits near 0.417 for this matrix; "
                 f"the tabulated {refs['fraction_below_cutoff'][0].value} "
                 "is not reproduced"),
    }


def preset_tomo(seed=None, refs=REFERENCES["tomo"]) -> dict:
    """Simulated tomography of both states at a fixed shot budget."""
    from .memory import state_non_markovianity
    from .tomography import bootstrap, reconstruct, simulate_counts
    seed = PRESET_SEEDS["tomo"] if seed is None else seed
    r = {"shots": TOMO_SHOTS, "seed": seed}
    for name in STATES:
        g, dims = state_by_name(name)
        counts = simulate_counts(g, dims, TOMO_SHOTS, seed)
        rho = reconstruct(counts, dims)
        block = {
            "settings": len(counts.labels),
            "fidelity": _entry(fidelity(rho, g), refs, f"{name}.fidelity"),
        }
        if name == "lambda":
            block["non_markovianity_reconstructed"] = _entry(
                state_non_markovianity(rho, dims), refs,
                "non_markovianity_reconstructed")
            mean, err = bootstrap(
                counts, dims, lambda s: state_non_markovianity(s, dims),
                resamples=TOMO_RESAMPLES, seed=seed)
            block["bootstrap"] = {
                "statistic": "non_markovianity",
                "resamples": TOMO_RESAMPLES,
                "mean": {"value": mean},
                "stderr": _entry(err, refs, "bootstrap_stderr"),
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
