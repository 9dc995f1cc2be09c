"""Discrete-time quantum walk on a line whose output ports realize POVMs.

A walker starts at the origin carrying a coin qubit. Each circuit step
applies position-controlled coin unitaries (identity elsewhere) and then a
conditional translation. Terminal positions act as output ports: the
amplitude pairs reaching a port form a Kraus row, and port statistics
realize a coin-space POVM. Circuits are data (coins plus a port-to-element
map); this module executes and verifies them, it does not synthesize coins
for a target POVM.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .instruments import COMPLETENESS_TOL, PAULI, Instrument, instrument
from .linalg import (builtin, json_number, json_object, mat_from_json,
                     mat_to_json, write_json)

NORM_TOL = 1e-12
UNITARY_TOL = 1e-10
PORT_AMP_TOL = 1e-12

# coin basis: 0 = H (moves left), 1 = V (moves right)
BITFLIP = np.array([[0, 1], [1, 0]], dtype=complex)


@dataclass(frozen=True)
class WalkState:
    """Sparse walker state: (position, coin) -> amplitude. Only coin_state
    checks the norm; coins and translations then preserve it."""
    amplitudes: dict

    @property
    def positions(self) -> tuple:
        return tuple(sorted({x for x, _ in self.amplitudes}))


def coin_state(vec) -> WalkState:
    """Walker at the origin with the given coin amplitudes (H, V)."""
    v = np.asarray(vec, dtype=complex).reshape(2)
    total = float(np.vdot(v, v).real)
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"coin state norm {total} deviates from 1")
    return WalkState({(0, 0): v[0], (0, 1): v[1]})


def translate(s: WalkState) -> WalkState:
    """Conditional shift: V moves right, H moves left. Exactly unitary."""
    out = {}
    for (x, c), a in s.amplitudes.items():
        nx = x + 1 if c == 1 else x - 1
        out[(nx, c)] = out.get((nx, c), 0) + a
    return WalkState(out)


def _check_unitary(U: np.ndarray, pos) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.shape != (2, 2):
        raise ValueError(f"coin at position {pos} is not 2x2")
    if np.linalg.norm(U.conj().T @ U - np.eye(2)) > UNITARY_TOL:
        raise ValueError(f"coin at position {pos} is not unitary")
    return U


def apply_coins(s: WalkState, coins: dict) -> WalkState:
    """Apply position-controlled coin unitaries, identity elsewhere. Warns,
    at the caller's line, of coins where the walker has no amplitude."""
    ops = {int(x): _check_unitary(U, x) for x, U in coins.items()}
    idle = sorted(set(ops) - {x for (x, _), a in s.amplitudes.items()
                              if abs(a) > PORT_AMP_TOL})
    if idle:
        warnings.warn(f"coins at unreachable positions {idle} act on "
                      "nothing", stacklevel=2)
    return _apply(s, ops)


def _apply(s: WalkState, ops: dict) -> WalkState:
    out = {}
    for (x, c), a in s.amplitudes.items():
        U = ops.get(x)
        if U is None:
            out[(x, c)] = out.get((x, c), 0) + a
            continue
        for c2 in (0, 1):
            amp = U[c2, c] * a
            if amp != 0:
                out[(x, c2)] = out.get((x, c2), 0) + amp
    return WalkState(out)


@dataclass(frozen=True)
class WalkCircuit:
    """Ordered coin maps (one per step, translation follows each) plus the
    port-to-element assignment, which is circuit data."""
    steps: tuple
    ports: dict  # terminal position -> 1-based POVM element index
    name: str = ""

    def __post_init__(self):
        steps = tuple({int(x): _check_unitary(U, x) for x, U in st.items()}
                      for st in self.steps)
        object.__setattr__(self, "steps", steps)
        ports = {int(x): int(i) for x, i in self.ports.items()}
        if sorted(ports.values()) != list(range(1, len(ports) + 1)):
            raise ValueError("'ports' must assign elements 1..n once each")
        object.__setattr__(self, "ports", ports)


def run_protocol(initial_coin, circuit: WalkCircuit) -> dict:
    """Run the full circuit from the origin; group output by port.

    Returns {position: (amp_H, amp_V)} over terminal positions carrying
    amplitude, ordered by position descending.
    """
    s = coin_state(initial_coin)
    for coins in circuit.steps:
        s = translate(_apply(s, coins))  # checked by WalkCircuit
    out = {}
    for (x, c), a in s.amplitudes.items():
        pair = out.setdefault(x, [0j, 0j])
        pair[c] += a
    return {x: tuple(out[x]) for x in sorted(out, reverse=True)}


def extract_povm(circuit: WalkCircuit) -> Instrument:
    """POVM realized by the circuit, from basis-state runs.

    Each port's Kraus matrix collects the output amplitude pairs for coin
    inputs H and V; the element is K^dag K, placed at the index the
    circuit's port map assigns.
    """
    # a single basis run cannot reach every branch of a deterministic
    # first coin; coverage is checked across both runs via the port map
    runs = [run_protocol(basis, circuit) for basis in ((1, 0), (0, 1))]
    name = circuit.name or "walk"
    # a port is reached when a run ends there with more probability than
    # completeness lets go missing; the leak of a coin within UNITARY_TOL
    # (amplitude ~1e-11) stays below it
    undeclared = sorted({x for run in runs for x, (a, b) in run.items()
                         if abs(a) ** 2 + abs(b) ** 2 > COMPLETENESS_TOL}
                        - set(circuit.ports))
    if undeclared:
        raise ValueError(f"circuit {name!r}: walker reached undeclared "
                         f"ports {undeclared}")
    mats = []
    for x in sorted(circuit.ports, key=circuit.ports.get):
        # column j: the amplitude pair reaching port x from coin input j
        K = np.array([run.get(x, (0j, 0j)) for run in runs]).T
        mats.append(K.conj().T @ K)
    # completeness is the Instrument invariant, checked there once
    return instrument(mats, name)


def port_probabilities(initial_coin, circuit: WalkCircuit) -> dict:
    """Probability of the walker terminating at each declared port."""
    run = run_protocol(initial_coin, circuit)
    probs = {}
    for x in circuit.ports:
        pair = run.get(x, (0j, 0j))
        probs[x] = float(abs(pair[0]) ** 2 + abs(pair[1]) ** 2)
    return probs


def _round_steps(c1, c2):
    # one protocol round: coin at the origin, then coin at x=1 with a
    # bit flip at x=-1; a translation follows each map
    return ({0: c1}, {1: c2, -1: BITFLIP})


def theta_circuit() -> WalkCircuit:
    """Two-round circuit realizing the three-element unsharp POVM.

    The two non-identity coins are unitarized forms of the printed table
    entries (the printed matrices fail unitarity by 0.69 and 1.0; the
    corrected coins keep their sign pattern and reproduce every element
    exactly).
    """
    rt2 = np.sqrt(2.0)
    c12 = np.array([[2 ** 0.25, 1], [1, -(2 ** 0.25)]],
                   dtype=complex) / np.sqrt(1 + rt2)
    s = np.sqrt((rt2 - 1) / rt2)
    c21 = np.array([[-(2 ** -0.25), s], [s, 2 ** -0.25]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    steps = _round_steps(eye, c12) + _round_steps(c21, eye)
    return WalkCircuit(steps, {0: 2, 2: 3, 4: 1}, "theta")


def tetra_circuit() -> WalkCircuit:
    """Three-round circuit built from the printed tetrahedral coin table.

    The coins are entered exactly as printed (all unitary). The realized
    elements form a tetrahedral POVM that is a global qubit rotation of
    tetra_povm(); the port map records the rotated-frame correspondence.
    """
    rt2, rt3 = np.sqrt(2.0), np.sqrt(3.0)
    ph = np.exp(1j * np.pi / 4)
    c11 = np.array([[1 + rt3, rt2], [rt2 * ph, -(1 + rt3) * ph]],
                   dtype=complex) / np.sqrt(6 + 2 * rt3)
    c12 = np.array([[-1, 1], [1, 1]], dtype=complex) / rt2
    c21 = np.array([[1, 1], [1, -1]], dtype=complex) / rt2
    c22 = np.array([[rt2, 1], [1, -rt2]], dtype=complex) / rt3
    c31 = np.array([[np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 6)],
                    [np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 6)]],
                   dtype=complex) / rt2
    c32 = np.eye(2, dtype=complex)
    steps = (_round_steps(c11, c12) + _round_steps(c21, c22)
             + _round_steps(c31, c32))
    return WalkCircuit(steps, {0: 1, 2: 4, 4: 3, 6: 2}, "tetra")


CIRCUITS = {"theta": theta_circuit, "tetra": tetra_circuit}


def circuit_by_name(name: str) -> WalkCircuit:
    return builtin(CIRCUITS, name, "circuit")[1]()


def circuit_to_json(circuit: WalkCircuit) -> dict:
    return {
        "name": circuit.name,
        "steps": [{"coins": {str(x): mat_to_json(U) for x, U in st.items()}}
                  for st in circuit.steps],
        "ports": [[x, i] for x, i in sorted(circuit.ports.items())],
    }


def circuit_from_json(obj: dict) -> WalkCircuit:
    """Circuit from {steps, ports, name (optional)}; errors name the
    field."""
    json_object(obj, ("steps", "ports"), "circuit file")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"circuit 'name' must be a string, got {name!r}")
    if not isinstance(obj["steps"], list):
        raise ValueError("circuit 'steps' must be a list of {coins} objects")
    steps = []
    for i, st in enumerate(obj["steps"]):
        where = f"circuit 'steps' entry {i}"
        coins = json_object(st, ("coins",), where)["coins"]
        if not isinstance(coins, dict):
            raise ValueError(f"{where}: 'coins' must map positions to coins")
        step = {}
        for x, U in coins.items():
            try:
                pos = int(x)
            except ValueError:
                raise ValueError(f"{where}: 'coins' position {x!r} is not "
                                 "an integer") from None
            step[pos] = BITFLIP if U == "bitflip" else mat_from_json(
                U, f"{where}: 'coins' at {x}")
        steps.append(step)
    pairs = obj["ports"]
    if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ValueError("circuit 'ports' must list [position, element] "
                         "pairs")
    ports = {}
    for x, i in pairs:
        x = json_number(x, "circuit 'ports' position", None, integer=True)
        if x in ports:
            raise ValueError(f"circuit 'ports' lists position {x} twice")
        ports[x] = json_number(i, "circuit 'ports' element", 1, integer=True)
    return WalkCircuit(tuple(steps), ports, name)


def bloch_vector(element: np.ndarray) -> np.ndarray:
    """Pauli components (tr[E sigma_j] / 2) of a Hermitian qubit operator."""
    e = np.asarray(element, dtype=complex)
    if e.shape != (2, 2):
        raise ValueError("qubit operator expected")
    return np.array([np.trace(e @ s).real / 2.0 for s in PAULI[1:]])


def _su2_from_rotation(rot: np.ndarray) -> np.ndarray:
    # quaternion extraction, branch on the largest diagonal combination
    t = np.trace(rot)
    if t > 0:
        w = 0.5 * np.sqrt(1.0 + t)
        x = (rot[2, 1] - rot[1, 2]) / (4.0 * w)
        y = (rot[0, 2] - rot[2, 0]) / (4.0 * w)
        z = (rot[1, 0] - rot[0, 1]) / (4.0 * w)
    else:
        i = int(np.argmax(np.diag(rot)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(1.0 + rot[i, i] - rot[j, j] - rot[k, k], 0.0))
        q = np.zeros(4)
        q[1 + i] = 0.5 * s
        q[0] = (rot[k, j] - rot[j, k]) / (2.0 * s)
        q[1 + j] = (rot[j, i] + rot[i, j]) / (2.0 * s)
        q[1 + k] = (rot[k, i] + rot[i, k]) / (2.0 * s)
        w, x, y, z = q
    return w * np.eye(2) - 1j * (x * PAULI[1] + y * PAULI[2] + z * PAULI[3])


def align_frames(target_mats, mats) -> tuple[np.ndarray, float]:
    """Best single-qubit rotation U with target[x] ~ U mats[x] U^dag.

    Elements are matched by index. The rotation acts on the Bloch
    vectors, fit by an SVD Procrustes step; only proper rotations are
    reachable by conjugation, so a reflection-only match reports a
    large residual instead. Returns (U, max entrywise residual).
    """
    target_mats = [np.asarray(m, dtype=complex) for m in target_mats]
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if len(target_mats) != len(mats):
        raise ValueError("element lists differ in length")
    va = np.array([bloch_vector(m) for m in target_mats])
    vb = np.array([bloch_vector(m) for m in mats])
    u, _, vt = np.linalg.svd(vb.T @ va)
    # det correction flips the smallest-singular-value axis so degenerate
    # (coplanar) vector sets still yield a proper rotation
    d = np.diag([1.0, 1.0, float(np.linalg.det(vt.T @ u.T))])
    U = _su2_from_rotation(vt.T @ d @ u.T)
    resid = max(float(np.max(np.abs(a - U @ b @ U.conj().T)))
                for a, b in zip(target_mats, mats))
    return U, resid


def save_circuit(circuit: WalkCircuit, path) -> None:
    write_json(circuit_to_json(circuit), path)


def load_circuit(path) -> WalkCircuit:
    with open(path) as fh:
        return circuit_from_json(json.load(fh))
