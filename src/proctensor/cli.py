"""Command-line front end: parses arguments and files, runs the presets
(presets.py) and exposes every stage (states, process tensors,
instruments, memory metrics, recovery, walk circuits, tomography) for
scripting. Output is deterministic for a fixed (config, seed): no
timestamps, sorted keys.

Exit codes: 0 success, 2 validation failure, 3 numerical-tolerance
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .instruments import (INSTRUMENTS, Instrument, dual_frame,
                          instrument_by_name, instrument_from_json,
                          instrument_to_json, validate as
                          validate_instrument)
from .linalg import (builtin, fidelity, json_number, json_object,
                     mat_from_json, mat_to_json, partial_trace,
                     path_or_handle, write_json)
from .presets import (CIRCUIT_MATCH_TOL, PRESET_SEEDS, PRESETS,
                      SURVEY_CUTOFF, SURVEY_SAMPLES, TOMO_RESAMPLES,
                      TOMO_SHOTS, _verify_circuit, references)
from .process import (LEGS, ProcessTensor, born_probability,
                      build_common_cause, check_causality)
from .states import STATES, state_by_name

# memory, recovery, tomography and walk load in the handlers that use them

CONFIG_KEYS = {"preset", "seed", "output", "format", "tolerances",
               "command"}

# ---------------------------------------------------------------- plumbing

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


def _emit(obj, out_path, fmt):
    if fmt == "json":
        write_json(obj, out_path or sys.stdout)
        return
    with path_or_handle(out_path or sys.stdout, "w") as fh:
        rows = []
        _flatten_rows(obj, "", rows)
        w = csv.writer(fh)
        w.writerow(["field", "value"])
        for path, val in rows:
            w.writerow([path, json.dumps(val)])


def _resolve(arg, kind, table, by_name):
    """(key, built-in object) for a name in table, else (None, the parsed
    JSON file named by arg). Built-in names win over files."""
    try:
        key, _ = builtin(table, arg, kind)
    except KeyError:
        if not os.path.isfile(arg):
            raise ValueError(f"{kind} {arg!r} is not a built-in name (one "
                             f"of {', '.join(sorted(table))}) and no such "
                             "file exists") from None
        with open(arg) as fh:
            return None, json.load(fh)
    return key, by_name(key)


def _state_to_json(g, dims) -> dict:
    return {"dims": list(dims), "matrix": mat_to_json(g)}


def _state_from_json(obj, arg):
    """(state, dims) from a state file's JSON {dims, matrix}."""
    json_object(obj, ("dims", "matrix"), f"state file {arg!r}")
    dims = obj["dims"]
    if not isinstance(dims, list) or not dims:
        raise ValueError(f"state file {arg!r}: 'dims' must be a list of leg "
                         f"dimensions, got {dims!r}")
    dims = tuple(json_number(d, f"state file {arg!r}: 'dims' entry", 1,
                             integer=True) for d in dims)
    m, d = mat_from_json(obj["matrix"]), math.prod(dims)
    if m.shape != (d, d):
        raise ValueError(f"state matrix size disagrees with dims: 'matrix' "
                         f"is {m.shape[0]} x {m.shape[1]} ('rows' x 'cols'), "
                         f"'dims' give {d} x {d}")
    return m, dims


def _load_state(arg):
    """(state, dims, built-in key or None) for a state name or file."""
    key, obj = _resolve(arg, "state", STATES, state_by_name)
    g, dims = obj if key else _state_from_json(obj, arg)
    return g, dims, key


def _process_to_json(p: ProcessTensor) -> dict:
    return {"layout": [[label, d, direction] for (label, direction), d
                       in zip(LEGS, p.choi_dims)],
            "matrix": mat_to_json(p.matrix)}


def _process_from_json(obj: dict, arg) -> ProcessTensor:
    json_object(obj, ("layout", "matrix"), f"process file {arg!r}")
    legs = obj["layout"]
    if not isinstance(legs, list) or not all(
            isinstance(l, list) and len(l) == 3 for l in legs):
        raise ValueError(f"process file {arg!r}: 'layout' must list "
                         f"[label, dim, direction] legs, got {legs!r}")
    if tuple((l[0], l[2]) for l in legs) != LEGS:
        raise ValueError(f"process file {arg!r}: 'layout' must list the "
                         f"(label, direction) legs {list(LEGS)} in order")
    per_leg = tuple(json_number(l[1], f"process file {arg!r}: 'layout' leg "
                                f"{l[0]!r} dim", 1, integer=True)
                    for l in legs)
    m, d = mat_from_json(obj["matrix"]), math.prod(per_leg)
    if m.shape != (d, d):
        raise ValueError(f"process matrix size disagrees with layout: "
                         f"'matrix' is {m.shape[0]} x {m.shape[1]} ('rows' x "
                         f"'cols'), 'layout' gives {d} x {d}")
    # inputs sit on legs 0, 2, 4; outputs are identity factors, checked
    # before gamma is validated as a state
    dims, out_dims = per_leg[0::2], per_leg[1::2]
    gamma = partial_trace(m, per_leg, (0, 2, 4)) / float(math.prod(out_dims))
    p = ProcessTensor(gamma, dims, out_dims)
    if float(np.max(np.abs(p.matrix - m))) > 1e-8:
        raise ValueError("matrix is not a common-cause process tensor "
                         "(identity output legs expected)")
    p.spectrum  # build_common_cause's density check
    return p


def _load_process(arg):
    """Process from a state name, a process file or a state file."""
    key, obj = _resolve(arg, "process", STATES, state_by_name)
    if key is None and isinstance(obj, dict) and "layout" in obj:
        return _process_from_json(obj, arg)
    if key is None and not (isinstance(obj, dict) and "dims" in obj):
        raise ValueError(f"process file {arg!r} needs 'layout' and 'matrix' "
                         "(a process) or 'dims' and 'matrix' (a state)")
    g, dims = obj if key else _state_from_json(obj, arg)
    return build_common_cause(g, dims, dims[:2])


def _load_instrument(arg) -> Instrument:
    key, obj = _resolve(arg, "instrument", INSTRUMENTS, instrument_by_name)
    return obj if key else instrument_from_json(obj)


def _config_args(path) -> argparse.Namespace:
    """The arguments of the command a config file names: preset's, with
    the config's seed, output, format and tolerances, or those its custom
    'command' parses to."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    if cfg.get("preset") is None:
        raise ValueError("config needs a 'preset' key")
    # 'custom' follows the name rule of the built-in presets
    preset, _ = builtin({**PRESETS, "custom": None}, cfg["preset"], "preset")
    if "command" in cfg and preset != "custom":
        raise ValueError("'command' is only valid with preset 'custom'")
    ignored = sorted(set(cfg) - {"preset", "command"})
    if preset == "custom" and ignored:
        raise ValueError(f"preset 'custom' takes only 'command'; {ignored} "
                         "would be ignored (pass options inside 'command')")
    if preset == "custom":
        command = cfg.get("command")
        if (not isinstance(command, list)
                or not all(isinstance(t, str) for t in command)):
            raise ValueError("custom preset needs 'command': [args...]")
        if command and command[0] == "run":
            raise ValueError("custom command cannot nest 'run'")
        return build_parser(_CommandParser).parse_args(command)
    tols = cfg.get("tolerances")
    if tols is not None:
        if not isinstance(tols, dict):
            raise ValueError("tolerances must map field names to numbers")
        tols = {k: json_number(v, f"tolerances: {k!r}")
                for k, v in tols.items()}
    seed = cfg.get("seed")
    if seed is not None:
        seed = json_number(seed, "seed", integer=True)
    out = cfg.get("output")
    if out == "" or not isinstance(out, (str, type(None))):
        raise ValueError(f"output must be a file path, got {out!r}")
    fmt = cfg.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ValueError("format must be json or csv")
    return argparse.Namespace(func=_cmd_preset, name=preset, seed=seed,
                              out=out, format=fmt, tolerances=tols)


# ---------------------------------------------------------------- handlers
# each returns (record, exit code); main writes it to --out, else stdout

def _cmd_states_emit(args):
    name, (factory, dims) = builtin(STATES, args.name, "state")
    return {"name": name, **_state_to_json(factory(), dims)}, 0


def _cmd_process_build(args):
    g, dims, _ = _load_state(args.state)
    p = build_common_cause(g, dims, dims[:2])
    return _process_to_json(p), 0


def _cmd_process_check(args):
    p = _load_process(args.process)
    report = check_causality(p)
    return report, 0 if report["ok"] else 3


def _cmd_instrument_show(args):
    inst = _load_instrument(args.name)
    return instrument_to_json(inst), 0


def _cmd_instrument_validate(args):
    inst = _load_instrument(args.name)
    report = validate_instrument(inst)
    return {"name": inst.name, "dim": inst.dim, **report}, 0


def _cmd_instrument_dual(args):
    inst = _load_instrument(args.name)
    frame = dual_frame(inst)
    worst = 0.0
    for x, d in enumerate(frame.duals):
        for y, e in enumerate(inst.matrices()):
            got = float(np.trace(d @ e).real)
            worst = max(worst, abs(got - (1.0 if x == y else 0.0)))
    return {
        "name": inst.name,
        "duals": [mat_to_json(d) for d in frame.duals],
        "gram": mat_to_json(frame.gram),
        "duality_residual": worst,
    }, 0


def _cmd_memory_strength(args):
    from .memory import memory_strength
    p = _load_process(args.process)
    inst = _load_instrument(args.instrument)
    rep = memory_strength(p, inst)
    ok, detail = rep.markov_order()
    return {
        "process": str(args.process),
        "instrument": inst.name or str(args.instrument),
        "report": rep.as_dict(),
        "markov_order_one": bool(ok),
        "events": detail["events"],
        "tol": detail["tol"],
    }, 0


def _cmd_memory_survey(args):
    from .memory import projective_survey
    p = _load_process(args.process)
    frac = projective_survey(p, args.cutoff, args.samples, args.seed)
    return {
        "process": str(args.process),
        "cutoff": args.cutoff,
        "samples": args.samples,
        "seed": args.seed,
        "fraction_below_cutoff": {"value": frac},
    }, 0


def _cmd_recover_build(args):
    from .recovery import recover
    p = _load_process(args.process)
    inst = _load_instrument(args.instrument)
    rec = recover(p, inst)
    born_dev = max(
        abs(born_probability(p, b_element=e.matrix)
            - born_probability(rec, b_element=e.matrix))
        for e in inst.elements)
    return {
        "process": str(args.process),
        "instrument": inst.name or str(args.instrument),
        **_process_to_json(rec),
        "state_matrix": mat_to_json(rec.gamma),
        "events": [{"probability": pr} for pr, _, _ in rec.events],
        "fidelity_to_true": fidelity(rec.gamma, p.gamma),
        "born_preservation_max": born_dev,
    }, 0


def _cmd_recover_scan(args):
    from .recovery import deviation_scan, noisy_replay, recover
    p = _load_process(args.process)
    inst = _load_instrument(args.instrument)
    if args.noise:
        gn = noisy_replay(p.gamma, p.input_dims, args.noise)
        p = build_common_cause(gn, p.input_dims, p.output_dims)
    rec = recover(p, inst)
    scan = deviation_scan(p, rec, grid=args.grid,
                          convention=args.convention, full=args.full)
    scan.to_csv(args.csv)
    return {
        "process": str(args.process),
        "instrument": inst.name or str(args.instrument),
        "convention": scan.convention,
        "grid": args.grid,
        "full": bool(args.full),
        "noise": args.noise,
        "points": int(scan.abs_diff.size),
        "max_abs_diff": scan.max_abs_diff,
        "argmax": scan.argmax,
        "csv": str(args.csv),
    }, 0


def _cmd_walk_verify(args):
    from .walk import CIRCUITS, circuit_by_name, circuit_from_json
    if not 0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    key, obj = _resolve(args.circuit, "circuit", CIRCUITS, circuit_by_name)
    circuit = obj if key else circuit_from_json(obj)
    if not args.target and key is None:
        raise ValueError(f"circuit file {args.circuit!r} needs --target; "
                         "only a built-in circuit defaults to its own "
                         "instrument")
    target = _load_instrument(args.target or key)
    if target.dim != 2:
        raise ValueError(f"--target dimension {target.dim} differs from "
                         "the circuit's POVM dimension 2")
    block = _verify_circuit(circuit, target, args.seed)
    lit = block["literal_max_deviation"]["value"]
    rot = block["rotated_max_deviation"]["value"]
    return {"circuit": str(args.circuit),
            "target": (target.name or str(args.target)),
            **block}, 0 if min(lit, rot) <= args.tol else 3


def _counts_for(args, unused):
    """(counts, dims, the built-in state or None) for tomo commands. Counts
    come from --counts (passing an option in unused is then an error), else
    from --state at --shots and --seed, defaulted here; dims from --state,
    which must agree with the counts' labels, else from those labels."""
    from .tomography import counts_from_csv, label_dims, simulate_counts
    passed = [f"--{o}" for o in unused if getattr(args, o) is not None]
    if args.counts and passed:
        raise ValueError(f"{', '.join(passed)} would be ignored with --counts")
    args.shots = TOMO_SHOTS if args.shots is None else args.shots
    args.seed = PRESET_SEEDS["tomo"] if args.seed is None else args.seed
    counts = counts_from_csv(args.counts) if args.counts else None
    if counts is None and not args.state:
        raise ValueError("need --counts or --state")
    implied = None if counts is None else label_dims(counts.labels[0])
    g, dims, key = (_load_state(args.state) if args.state
                    else (None, implied, None))
    if counts is None:
        counts = simulate_counts(g, dims, args.shots, args.seed)
    elif implied != dims:
        raise ValueError(f"--state {args.state!r} has dims {dims}, but the "
                         f"counts' labels imply dims {implied}")
    return counts, dims, g if key else None


def _cmd_tomo_simulate(args):
    from .tomography import counts_to_csv, simulate_counts
    g, dims, _ = _load_state(args.state)
    counts = simulate_counts(g, dims, args.shots, args.seed)
    counts_to_csv(counts, args.csv)
    return {
        "state": str(args.state),
        "settings": len(counts.labels),
        "shots_requested": args.shots,
        "total_shots": int(counts.total_shots),
        "seed": args.seed,
        "csv": str(args.csv),
    }, 0


def _cmd_tomo_reconstruct(args):
    from .tomography import reconstruct
    counts, dims, g = _counts_for(args, ("shots", "seed"))
    rho = reconstruct(counts, dims)
    out = {
        "settings": len(counts.labels),
        "total_shots": int(counts.total_shots),
        "dims": list(dims),
    }
    if g is not None:
        from .memory import state_non_markovianity
        out["fidelity"] = {"value": fidelity(rho, g)}
        out["non_markovianity_reconstructed"] = {
            "value": state_non_markovianity(rho, dims)}
    if args.matrix_out:
        write_json(_state_to_json(rho, dims), args.matrix_out)
        out["matrix_file"] = str(args.matrix_out)
    else:
        out["matrix"] = mat_to_json(rho)
    return out, 0


def _cmd_tomo_bootstrap(args):
    from .tomography import bootstrap
    counts, dims, g = _counts_for(args, ("shots",))
    if g is not None:
        from .memory import state_non_markovianity
        name, stat = "non_markovianity", (
            lambda sigma: state_non_markovianity(sigma, dims))
    else:
        name, stat = "purity", (
            lambda sigma: float(np.trace(sigma @ sigma).real))
    mean, err = bootstrap(counts, dims, stat, resamples=args.resamples,
                          seed=args.seed)
    return {
        "statistic": name,
        "resamples": args.resamples,
        "seed": args.seed,
        "total_shots": int(counts.total_shots),
        "mean": {"value": mean},
        "stderr": {"value": err},
    }, 0


def _cmd_preset(args):
    """A preset typed as a command or named by a config, whose
    tolerances it alone carries."""
    if args.seed is not None and args.name not in PRESET_SEEDS:
        raise ValueError(f"preset {args.name!r} takes no seed, got "
                         f"{args.seed}")
    seeded = {"seed": args.seed} if args.name in PRESET_SEEDS else {}
    bundle = PRESETS[args.name](refs=references(args.name, args.tolerances),
                                **seeded)
    return {"preset": args.name, **bundle}, 0


# ---------------------------------------------------------------- parser

class _CommandParser(argparse.ArgumentParser):
    """Parser for a config's custom command: a bad command is a bad input
    field, reported like any other, not a usage exit."""

    def error(self, message):
        raise ValueError(f"custom preset 'command': {message}")


def _seed(text) -> int:
    """Type of every --seed: an int >= 0, checked before numpy sees it."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser(parser=argparse.ArgumentParser) -> argparse.ArgumentParser:
    ap = parser(
        prog="proctensor",
        description="process-tensor toolkit for three-step common-cause "
                    "processes")
    ap.set_defaults(out=None, format="json", tolerances=None)
    sub = ap.add_subparsers(dest="command", required=True)

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(
            dest="subcommand", required=True)

    def add(parent, name, func, help, *required, out=True):
        """Subcommand running func: the required options, then --out."""
        sp = parent.add_parser(name, help=help)
        sp.set_defaults(func=func)
        for flag in required:
            sp.add_argument(flag, required=True)
        if out:
            sp.add_argument("--out")
        return sp

    states = group("states", "built-in states")
    add(states, "emit", _cmd_states_emit, "write a built-in state as JSON",
        "--name")

    proc = group("process", "process tensors")
    add(proc, "build", _cmd_process_build,
        "build a common-cause process tensor from a state", "--state")
    add(proc, "check", _cmd_process_check,
        "run the causality hierarchy on a process", "--process")

    inst = group("instrument", "built-in instruments")
    for nm, fn, hp in (("show", _cmd_instrument_show, "emit elements"),
                       ("validate", _cmd_instrument_validate,
                        "PSD and completeness residuals"),
                       ("dual", _cmd_instrument_dual,
                        "dual frame and Gram matrix")):
        add(inst, nm, fn, hp, "--name")

    mem = group("memory", "memory metrics")
    add(mem, "strength", _cmd_memory_strength,
        "instrument-specific memory report", "--process", "--instrument")
    sp = add(mem, "survey", _cmd_memory_survey,
             "Haar survey of projective middle instruments", out=False)
    sp.add_argument("--process", default="lambda")
    sp.add_argument("--cutoff", type=float, default=SURVEY_CUTOFF)
    sp.add_argument("--samples", type=int, default=SURVEY_SAMPLES)
    sp.add_argument("--seed", type=_seed, default=PRESET_SEEDS["survey"])
    sp.add_argument("--out")

    rc = group("recover", "instrument-span reconstruction")
    add(rc, "build", _cmd_recover_build,
        "reconstruct the process from one instrument", "--process",
        "--instrument")
    sp = add(rc, "scan", _cmd_recover_scan,
             "true-vs-recovered deviation grid, CSV output", "--process",
             "--instrument", out=False)
    sp.add_argument("--convention", default="projector",
                    choices=["projector", "correlator"])
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--full", action="store_true",
                    help="scan azimuthal angles too")
    sp.add_argument("--noise", type=float, default=0.0,
                    help="leg-local depolarizing strength on the true state")
    sp.add_argument("--out", dest="csv", metavar="OUT", required=True)

    walk = group("walk", "quantum-walk circuits")
    sp = add(walk, "verify", _cmd_walk_verify,
             "extract the circuit POVM and compare to a target", "--circuit",
             out=False)
    sp.add_argument("--target")
    sp.add_argument("--tol", type=float, default=CIRCUIT_MATCH_TOL)
    sp.add_argument("--seed", type=_seed, default=PRESET_SEEDS["walk_verify"])
    sp.add_argument("--out")

    tomo = group("tomo", "simulated tomography")
    sp = add(tomo, "simulate", _cmd_tomo_simulate,
             "multinomial counts for every product setting", "--state",
             out=False)
    sp.add_argument("--shots", type=int, default=TOMO_SHOTS)
    sp.add_argument("--seed", type=_seed, default=PRESET_SEEDS["tomo"])
    sp.add_argument("--out", dest="csv", metavar="OUT", required=True)
    for nm, fn, hp in (("reconstruct", _cmd_tomo_reconstruct,
                        "linear-inversion state estimate"),
                       ("bootstrap", _cmd_tomo_bootstrap,
                        "resampled statistic mean and stderr")):
        sp = add(tomo, nm, fn, hp, out=False)
        sp.add_argument("--counts")
        sp.add_argument("--state")
        sp.add_argument("--shots", type=int)  # defaults: _counts_for
        sp.add_argument("--seed", type=_seed)
        sp.add_argument("--out")
        if nm == "reconstruct":
            sp.add_argument("--matrix-out")
        else:
            sp.add_argument("--resamples", type=int, default=TOMO_RESAMPLES)

    sp = add(sub, "preset", _cmd_preset, "run one reproduction preset",
             out=False)
    sp.add_argument("name", choices=sorted(PRESETS))
    sp.add_argument("--seed", type=_seed)
    sp.add_argument("--format", default="json", choices=["json", "csv"])
    sp.add_argument("--out")
    add(sub, "run", None, "run from a JSON config file", "--config",
        out=False)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            args = _config_args(args.config)
        if "" in (args.out, getattr(args, "csv", None)):
            raise ValueError("--out must be a file path, got ''")
        record, code = args.func(args)
        _emit(record, args.out, args.format)
        return code
    except (ValueError, KeyError, OSError, np.linalg.LinAlgError) as exc:
        # str() of a KeyError quotes its message; print the message itself
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
