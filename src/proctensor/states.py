"""The two common-cause tripartite states, their pure-state ensembles, and
Bell/Werner constructors.

Both states are stored with exact rational entries (integer numerators over
a common denominator) and converted to floating point on construction, so
regression baselines carry no transcription drift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Record, builtin, check_density, kron

LAMBDA_DIMS = (2, 2, 2)
OMEGA_DIMS = (2, 3, 2)

# legs A x B x C, index = 4a + 2b + c, numerators over 10000
_LAMBDA_NUM = [
    [1106,   25, -142, -525,   25,  294, -525,  -58],
    [  25, 1106, -525, -142,  294,   25,  -58, -525],
    [-142, -525, 1394,   25, -525,  -58,   25,    6],
    [-525, -142,   25, 1394,  -58, -525,    6,   25],
    [  25,  294, -525,  -58, 1106,   25, -142, -525],
    [ 294,   25,  -58, -525,   25, 1106, -525, -142],
    [-525,  -58,   25,    6, -142, -525, 1394,   25],
    [ -58, -525,    6,   25, -525, -142,   25, 1394],
]


def lambda_state() -> np.ndarray:
    """Qubit-qubit-qubit common-cause state (8x8), exact /10000 entries."""
    rho = np.array(_LAMBDA_NUM, dtype=complex) / 10000
    check_density(rho)
    return rho


def omega_state() -> np.ndarray:
    """Qubit-qutrit-qubit common-cause state (12x12), exact /48 entries.

    Index = 6a + 2b + c; rows 6, 11, 12 (1-based) are identically zero, so
    the state is rank deficient.
    """
    s = np.sqrt(3.0)
    i3 = 1j * s
    M = np.zeros((12, 12), dtype=complex)
    entries = {
        (0, 0): 3, (0, 1): s, (0, 8): s, (0, 9): -i3,
        (1, 1): 3, (1, 8): i3, (1, 9): -s,
        (2, 2): 3, (2, 3): -s, (2, 6): -s, (2, 7): -i3,
        (3, 3): 3, (3, 6): i3, (3, 7): s,
        (4, 4): 24,
        (6, 6): 3, (6, 7): -s,
        (7, 7): 3,
        (8, 8): 3, (8, 9): s,
        (9, 9): 3,
    }
    for (r, c), v in entries.items():
        M[r, c] = v
        if r != c:
            M[c, r] = np.conj(v)
    rho = M / 48
    check_density(rho)
    return rho


@dataclass(frozen=True, eq=False)
class StateEnsemble(Record):
    """Pure-state ensemble: (amplitude vector, weight) pairs.

    Members are kept as given, unnormalized vectors included;
    ensemble_to_state normalizes each one. Weights must sum to 1.
    """
    members: tuple[tuple[np.ndarray, float], ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        tot = sum(w for _, w in self.members)
        if abs(tot - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {tot}, not 1")
        for vec, _ in self.members:
            if np.linalg.norm(vec) < 1e-14:
                raise ValueError("zero vector ensemble member")


def ensemble_to_state(e: StateEnsemble) -> np.ndarray:
    d = math.prod(e.dims)
    rho = np.zeros((d, d), dtype=complex)
    for vec, w in e.members:
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.size != d:
            raise ValueError("member dimension mismatch")
        v = v / np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return rho


def lambda_ensemble() -> StateEnsemble:
    """Eight-member preparation ensemble for the qubit-qubit-qubit state.

    The vectors are the (unnormalized) eigenvectors of the state and the
    weights are its eigenvalues, so the mixture is exact.
    """
    vs = [
        [1, 1, -1, -1, 1, 1, -1, -1],
        [1, -1, 1, -1, -1, 1, -1, 1],
        [1, -1, -1, 1, -1, 1, 1, -1],
        [1, 1, 1, 1, 1, 1, 1, 1],
        [0, 0.1, 0, -0.7, -0.1, 0, 0.7, 0],
        [0.1, 0, -0.7, 0, 0, -0.1, 0, 0.7],
        [-0.7, 0, -0.1, 0, 0, 0.7, 0, 0.1],
        [0, -0.7, 0, -0.1, 0.7, 0, 0.1, 0],
    ]
    ws = [27, 22, 5, 2, 14, 14, 8, 8]
    members = tuple((np.array(v, dtype=complex), w / 100)
                    for v, w in zip(vs, ws))
    return StateEnsemble(members, LAMBDA_DIMS)


def omega_ensemble() -> StateEnsemble:
    """Five-member preparation ensemble for the qubit-qutrit-qubit state."""
    e23 = np.exp(-2j * np.pi / 3)
    e56 = np.exp(-5j * np.pi / 6)
    e16 = np.exp(1j * np.pi / 6)
    s3 = np.sqrt(3.0)
    vs = [
        [e23, e56, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, e23, e16, 0, 0, 0, 1, 0, 0, 0, 0],
        [1, 1j, 0, 0, 0, 0, 0, 0, s3, 1, 0, 0],
        [0, 0, -1, 1j, 0, 0, s3, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    ]
    ws = [1, 1, 1, 1, 4]
    members = tuple((np.array(v, dtype=complex), w / 8)
                    for v, w in zip(vs, ws))
    return StateEnsemble(members, OMEGA_DIMS)


def bell(x: int) -> np.ndarray:
    """Bell vectors: 1 -> (00+11)/sqrt2, 2 -> (00-11)/sqrt2,
    3 -> (01+10)/sqrt2, 4 -> (01-10)/sqrt2."""
    if x not in (1, 2, 3, 4):
        raise ValueError("Bell index must be 1..4")
    v = np.zeros(4, dtype=complex)
    if x in (1, 2):
        v[0], v[3] = 1, (1 if x == 1 else -1)
    else:
        v[1], v[2] = 1, (1 if x == 3 else -1)
    return v / np.sqrt(2)


def werner(x: int, r: float) -> np.ndarray:
    """r * Bell projector + (1-r) * maximally mixed two-qubit state."""
    b = bell(x)
    return r * np.outer(b, b.conj()) + (1 - r) * np.eye(4) / 4


STATES = {"lambda": (lambda_state, LAMBDA_DIMS),
          "omega": (omega_state, OMEGA_DIMS)}


def state_by_name(name: str) -> tuple[np.ndarray, tuple[int, int, int]]:
    factory, dims = builtin(STATES, name, "state")[1]
    return factory(), dims
