"""Benchmark workloads: inputs made from a seed, one op each, output checks.

Every workload is a closed loop of ops run one after another in one
process. An op calls the library only through the ``proctensor`` package
namespace (``pt.f``), so the outside-in tracer sees every call. Inputs
are generated here from the workload seed; the library never sees the
seed itself, only the states and per-op seeds derived from it.

A workload is:

- ``setup(seed, workdir)`` builds what every op shares (built-in states,
  instruments, circuits, a scratch file path). It is what ``setup_s``
  times in a fresh interpreter.
- ``make(shared, seed, i)`` generates op i's own input. It runs outside
  the timed region.
- ``op(shared, x)`` is the timed op. It returns a flat tuple of floats
  and raises ``CheckError`` when an output is wrong.
- ``cli`` lists the ``proctensor.cli`` argument lists of one CLI sample.
- ``pinned``, optionally, is an op input and its exact outputs, checked
  in place of the warm-up op.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import proctensor as pt  # noqa: E402


class CheckError(Exception):
    """An op's output failed its correctness check."""


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def op_seed(seed: int, i: int) -> int:
    """Per-op library seed, derived from the workload seed and op index."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def random_state(rng, dims) -> np.ndarray:
    """Random density matrix of random rank 1..d on the given legs."""
    d = int(np.prod(dims))
    r = int(rng.integers(1, d + 1))
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.real(np.trace(rho))


# ------------------------------------------------------------------ tomo

TOMO_SHOTS = 1_000_000
TOMO_RESAMPLES = 100
# lambda must reconstruct above 0.99. omega is rank deficient and sits near
# 0.99 at 1e6 shots, so its floor is set below the minimum over 200 per-op
# seeds at the seed commit (see perfbench/README.md).
TOMO_FIDELITY_FLOOR = {"lambda": 0.99, "omega": 0.98}
TOMO_STDERR_RANGE = (1e-3, 1e-2)


def _nm_statistic(sigma):
    return pt.non_markovianity(pt.build_common_cause(sigma, (2, 2, 2),
                                                     (2, 2)))


def tomo_setup(seed, workdir):
    return {name: pt.state_by_name(name) for name in ("lambda", "omega")}


def tomo_op(states, s):
    out = []
    for name, (g, dims) in states.items():
        counts = pt.simulate_counts(g, dims, TOMO_SHOTS, s)
        rho = pt.reconstruct(counts, dims)
        f = pt.fidelity(rho, g)
        check(f > TOMO_FIDELITY_FLOOR[name],
              f"tomo {name} fidelity {f} <= {TOMO_FIDELITY_FLOOR[name]}")
        out.append(f)
        if name == "lambda":
            mean, err = pt.bootstrap(counts, dims, _nm_statistic,
                                     resamples=TOMO_RESAMPLES, seed=s)
            lo, hi = TOMO_STDERR_RANGE
            check(lo <= err <= hi,
                  f"tomo bootstrap stderr {err} outside [{lo}, {hi}]")
            out += [mean, err]
    return tuple(out)


# ------------------------------------------------------------------ tomo_io

TOMO_IO_SHOTS = 100_000
TOMO_IO_DIMS = ((2, 2, 2), (2, 3, 2))
# set below the minimum over 2500 random states per dims at the seed commit
# (0.9745 and 0.9468; see perfbench/README.md)
TOMO_IO_FIDELITY_FLOOR = {(2, 2, 2): 0.96, (2, 3, 2): 0.93}


def tomo_io_setup(seed, workdir):
    return os.path.join(workdir, "counts.csv")


def tomo_io_make(csv_path, seed, i):
    """One random state per dims, random rank, with its library seed."""
    rng = np.random.default_rng(op_seed(seed, i))
    return [(random_state(rng, dims), dims, int(rng.integers(2 ** 31)))
            for dims in TOMO_IO_DIMS]


def tomo_io_op(csv_path, states):
    out = []
    for g, dims, s in states:
        counts = pt.simulate_counts(g, dims, TOMO_IO_SHOTS, s)
        pt.counts_to_csv(counts, csv_path)
        back = pt.counts_from_csv(csv_path)
        check(back.labels == counts.labels
              and all(np.array_equal(a, b)
                      for a, b in zip(back.counts, counts.counts)),
              f"tomo_io {dims}: counts changed in the CSV round trip")
        rho = pt.reconstruct(back, dims)
        f = pt.fidelity(rho, g)
        floor = TOMO_IO_FIDELITY_FLOOR[dims]
        check(f > floor, f"tomo_io {dims} fidelity {f} <= {floor}")
        out.append(f)
    return tuple(out)


# ------------------------------------------------------------------ survey

SURVEY_SAMPLES = 100_000
SURVEY_CUTOFF = 0.0125
SURVEY_BAND = (0.417, 0.01)  # about 6 sigma at 1e5 samples


def survey_setup(seed, workdir):
    g, dims = pt.state_by_name("lambda")
    return pt.build_common_cause(g, dims, (2, 2))


def survey_op(p, s):
    frac = pt.projective_survey(p, SURVEY_CUTOFF, SURVEY_SAMPLES, s)
    centre, half = SURVEY_BAND
    check(abs(frac - centre) <= half,
          f"survey fraction {frac} outside {centre} +- {half}")
    return (frac,)


# ------------------------------------------------------------------ exact

NM_PINNED = {"lambda": 0.2836518149970493, "omega": 1.1225562489182659}
PIN_TOL = 1e-12
CROSS_TOL = 1e-9  # state-level vs full-Choi evaluation of one quantity
BORN_TOL = 1e-10
WALK_TOL = 1e-8
WALK_COINS = 4
INSTRUMENTS_BY_DIM = {2: ("theta", "tetra", "z"), 3: ("xi", "qutrit_sharp")}
# every op holds one (2,2,2) and one (2,3,2) state, so op times are not
# bimodal: the built-ins on even ops, random states on odd ones
EXACT_PAIRS = (("lambda", "omega"), ((2, 2, 2), (2, 3, 2)))


def exact_setup(seed, workdir):
    return {
        "states": {n: pt.state_by_name(n) for n in ("lambda", "omega")},
        "instruments": {d: [pt.instrument_by_name(n) for n in names]
                        for d, names in INSTRUMENTS_BY_DIM.items()},
        "circuits": [(pt.circuit_by_name(n), pt.instrument_by_name(n))
                     for n in ("theta", "tetra")],
    }


def exact_make(shared, seed, i):
    """([(name, gamma, dims)] for two states, walk coins)."""
    rng = np.random.default_rng(op_seed(seed, i))
    states = []
    for kind in EXACT_PAIRS[i % 2]:
        if isinstance(kind, str):
            states.append((kind, *shared["states"][kind]))
        else:
            states.append((None, random_state(rng, kind), kind))
    v = rng.normal(size=(WALK_COINS, 2)) + 1j * rng.normal(size=(WALK_COINS, 2))
    return states, v / np.linalg.norm(v, axis=1, keepdims=True)


def exact_op(shared, x):
    states, coins = x
    out = []
    for name, g, dims in states:
        out += _exact_chain(shared, name, g, dims)
    for circuit, target in shared["circuits"]:
        got = pt.extract_povm(circuit)
        _, rot = pt.align_frames(target.matrices(), got.matrices())
        check(rot <= WALK_TOL,
              f"exact walk {circuit.name}: rotated deviation {rot}")
        worst = 0.0
        for v in coins:
            for port, prob in pt.port_probabilities(v, circuit).items():
                e = got.elements[circuit.ports[port] - 1].matrix
                worst = max(worst, abs(prob - float((v.conj() @ e @ v).real)))
        check(worst <= BORN_TOL, f"exact walk {circuit.name}: port "
                                 f"probabilities off by {worst}")
        out += [rot, worst]
    return tuple(out)


def _exact_chain(shared, name, g, dims):
    """process1/process2 chain on one state; its outputs as a list."""
    p = pt.build_common_cause(g, dims, dims[:2])
    caus = pt.check_causality(p)
    div = pt.cp_divisibility_check(p)
    check(caus["ok"] and div["ok"],
          f"exact {dims}: causality {caus['residuals']}, "
          f"divisibility {div['residuals']}")
    nm, nm_choi = pt.non_markovianity(p), pt.non_markovianity_choi(p)
    cmi, cmi_choi = pt.quantum_cmi(p.gamma, dims), pt.quantum_cmi_choi(p)
    check(abs(nm - nm_choi) <= CROSS_TOL,
          f"exact {dims}: non_markovianity {nm} != choi {nm_choi}")
    check(abs(cmi - cmi_choi) <= CROSS_TOL,
          f"exact {dims}: quantum_cmi {cmi} != choi {cmi_choi}")
    if name is not None:
        check(abs(nm - NM_PINNED[name]) <= PIN_TOL,
              f"exact {name}: non_markovianity {nm!r} != "
              f"{NM_PINNED[name]!r}")
    out = [nm, nm_choi, cmi, cmi_choi]
    for inst in shared["instruments"][dims[1]]:
        rep = pt.memory_strength(p, inst)
        markov, _ = pt.markov_order_test(p, inst)
        rec = pt.recover(p, inst)
        born = max(abs(pt.born_probability(p, b_element=e.matrix)
                       - pt.born_probability(rec, b_element=e.matrix))
                   for e in inst.elements)
        check(born <= BORN_TOL, f"exact {dims} {inst.name}: recover moves "
                                f"an event probability by {born}")
        scans = [pt.deviation_scan(p, rec, convention=c).max_abs_diff
                 for c in ("projector", "correlator")]
        out += [rep.aggregate_weighted, rep.max_event, float(markov), *scans]
    return out


# ------------------------------------------------------------------ table

def _seed_only(shared, seed, i):
    return op_seed(seed, i)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    make: Callable
    op: Callable
    cli: tuple
    # (op input, exact outputs) run and compared before the timed loop
    pinned: tuple | None = None


WORKLOADS = {w.name: w for w in (
    Workload("tomo", tomo_setup, _seed_only, tomo_op, (("preset", "tomo"),)),
    Workload("tomo_io", tomo_io_setup, tomo_io_make, tomo_io_op, tuple(
        cmd for state in ("lambda", "omega") for cmd in (
            ("tomo", "simulate", "--state", state,
             "--shots", str(TOMO_IO_SHOTS), "--out", f"{state}.csv"),
            ("tomo", "reconstruct", "--counts", f"{state}.csv",
             "--state", state)))),
    # seed 7 is the survey preset's seed; its fraction is pinned exactly
    Workload("survey", survey_setup, _seed_only, survey_op,
             (("preset", "survey"),), pinned=(7, (0.41743,))),
    Workload("exact", exact_setup, exact_make, exact_op,
             (("preset", "process1"), ("preset", "process2"),
              ("preset", "walk_verify"))),
)}
