"""Process-tensor construction, validity checks, the temporal Born rule, and
conditioning on instrument events.

A three-step common-cause process is the Choi operator
Gamma = gamma (on the three input legs) x identity (on the two output legs),
with legs kept in chronological order (A_in, A_out, B_in, B_out, C_in).
Contractions follow the Choi convention in which a CP map's Choi matrix
carries the transposed POVM element on its input leg and the Born trace
transposes the instrument side; the net effect is the plain pairing
tr[(E_A x E_B x E_C) gamma], which the fast paths below use directly.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .instruments import Instrument
from .linalg import Record, check_density, kron, partial_trace, read_only

PARTIES = ("A", "B", "C")
# the Choi matrix's (label, direction) legs in chronological order
LEGS = (("A_in", "input"), ("A_out", "output"), ("B_in", "input"),
        ("B_out", "output"), ("C_in", "input"))

# events at or below this probability count as impossible
PROB_TOL = 1e-14


def _one_state(gamma: np.ndarray, what: str) -> np.ndarray:
    """gamma, refused by name when it is a stack of states: what reads a
    process's gamma as one state."""
    if gamma.ndim > 2:
        raise ValueError(f"{what} takes one state; the process holds a stack "
                         f"of {math.prod(gamma.shape[:-2])}")
    return gamma


def _choi(gamma: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Choi matrix on LEGS of dims (dA, dAo, dB, dBo, dC): gamma on the
    input legs times an identity on A_out and B_out, each leg broadcast
    onto its chronological axis."""
    dA, dAo, dB, dBo, dC = dims
    m = _one_state(gamma, "the Choi matrix").reshape((dA, 1, dB, 1, dC) * 2)
    m = m * np.eye(dAo).reshape(1, dAo, 1, 1, 1, 1, dAo, 1, 1, 1)
    m = m * np.eye(dBo).reshape(1, 1, 1, dBo, 1, 1, 1, 1, dBo, 1)
    d = math.prod(dims)
    return m.reshape(d, d)


@dataclass(frozen=True, eq=False)
class ProcessTensor(Record):
    """Common-cause process: its input-leg state gamma on (A_in, B_in,
    C_in), a record array, since everything derived from it is kept. The
    Choi matrix on LEGS, gamma with an identity on each output leg, and
    its choi_dims are built on first access. A pickle holds the fields
    alone: the memo holds its instruments weakly, so cannot be pickled."""
    gamma: np.ndarray = field(repr=False)
    input_dims: tuple[int, int, int]
    output_dims: tuple[int, int]

    @cached_property
    def choi_dims(self) -> tuple[int, int, int, int, int]:
        """Leg dims (dA, dAo, dB, dBo, dC) in the order of LEGS."""
        (dA, dB, dC), (dAo, dBo) = self.input_dims, self.output_dims
        return dA, dAo, dB, dBo, dC

    @cached_property
    def matrix(self) -> np.ndarray:
        return read_only(_choi(self.gamma, self.choi_dims))

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh (w, v) of hermitize(gamma), read-only, from the density
        check that raises unless gamma is a state."""
        return tuple(map(read_only, check_density(self.gamma, vectors=True)))

    @cached_property
    def choi_spectrum(self) -> np.ndarray:
        """eigvalsh of the hermitized trace-normalized Choi matrix, from
        its density check, read-only: the cross-checks' one decomposition
        of it."""
        return read_only(check_density(
            self.matrix / math.prod(self.output_dims)))

    @cached_property
    def _memo(self) -> weakref.WeakKeyDictionary:
        """Per middle instrument, held weakly: a dict of its "events"
        (_events) and, once asked for, memory_strength's "report"."""
        return weakref.WeakKeyDictionary()


def build_common_cause(gamma: np.ndarray,
                       input_dims: tuple[int, int, int],
                       output_dims: tuple[int, int]) -> ProcessTensor:
    """Promote a tripartite input-leg state to a full process tensor.
    Only gamma is validated (Hermitian, PSD, unit trace): the Choi
    spectrum is gamma's, repeated. The check's spectrum stays on the
    process for reuse. A stack (m, d, d) of states gives one process
    that the gamma-only paths (spectrum, marginals, markov_product,
    non_markovianity) read state by state."""
    gamma = np.asarray(gamma, dtype=complex)
    if len(input_dims) != 3:
        raise ValueError(f"dims must list 3 input legs, got {input_dims}")
    dA, dB, dC = input_dims
    if gamma.shape[-2:] != (dA * dB * dC, dA * dB * dC):
        raise ValueError("state dimension does not match input_dims")
    p = ProcessTensor(gamma, tuple(input_dims), tuple(output_dims))
    p.spectrum  # the density check: raises unless gamma is a state
    return p


def check_causality(p: ProcessTensor) -> dict:
    """Trace-condition hierarchy: discarding the future must leave an
    identity output leg times the earlier process. Diagnostic report."""
    dims = p.choi_dims
    dA, dAo, dB, dBo, dC = dims
    # level 3: trace C_in, compare to 1_{B_out} x Upsilon_{2:1}
    g3 = partial_trace(p.matrix, dims, (0, 1, 2, 3))
    up2 = partial_trace(p.matrix, dims, (0, 1, 2)) / dBo
    r3 = float(np.linalg.norm(g3 - kron(up2, np.eye(dBo))))
    # level 2: trace B_in of Upsilon_{2:1}, compare to 1_{A_out} x gamma_A
    g2 = partial_trace(up2, (dA, dAo, dB), (0, 1))
    up1 = partial_trace(up2, (dA, dAo, dB), (0,)) / dAo
    r2 = float(np.linalg.norm(g2 - kron(up1, np.eye(dAo))))
    # level 1: full trace of gamma_A is 1
    r1 = abs(float(np.real(np.trace(up1))) - 1.0)
    residuals = {"level3": r3, "level2": r2, "level1": r1}
    return {"residuals": residuals,
            "ok": all(v < 1e-8 for v in residuals.values())}


def measure_discard_choi(element: np.ndarray, d_out: int) -> np.ndarray:
    """Choi matrix of 'measure POVM element, discard, emit maximally mixed'.

    The input-leg marginal of a Choi matrix is the transposed element, so
    the transpose sits here and the Born trace cancels it.
    """
    return kron(np.asarray(element).T, np.eye(d_out) / d_out)


def final_choi(element: np.ndarray) -> np.ndarray:
    """Choi of a final-party POVM element (input leg only)."""
    return np.asarray(element, dtype=complex).T


def born_rule(p: ProcessTensor, ops: list[np.ndarray]) -> float:
    """Temporal Born rule p = tr[(op_A x op_B x op_C)^T Gamma].

    ops are per-party CP-map Choi matrices on (input, output) legs; the
    final party's op lives on its input leg alone.
    """
    if len(ops) != 3:
        raise ValueError("need one op per party")
    dA, dAo, dB, dBo, dC = p.choi_dims
    expect = ((dA * dAo, dA * dAo), (dB * dBo, dB * dBo), (dC, dC))
    for op, shape in zip(ops, expect):
        if np.asarray(op).shape != shape:
            raise ValueError("op dimension mismatch")
    joint = kron(*ops)
    val = complex(np.trace(joint.T @ p.matrix))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"Born probability has imaginary part {val.imag}")
    if not -1e-10 <= val.real <= 1 + 1e-10:
        raise ValueError(f"Born probability {val.real} outside [0, 1]")
    return float(val.real)


def born_probability(p: ProcessTensor,
                     a_element: np.ndarray | None = None,
                     b_element: np.ndarray | None = None,
                     c_element: np.ndarray | None = None) -> float:
    """Born probability from POVM elements (None means non-selective).

    Fast path evaluated directly on the input-leg state; identical to
    born_rule with measure-and-discard Chois.
    """
    dA, dB, dC = p.input_dims
    EA = np.eye(dA) if a_element is None else np.asarray(a_element)
    EB = np.eye(dB) if b_element is None else np.asarray(b_element)
    EC = np.eye(dC) if c_element is None else np.asarray(c_element)
    gamma = _one_state(p.gamma, "born_probability")
    val = complex(np.trace(kron(EA, EB, EC) @ gamma))
    return float(val.real)


@dataclass(frozen=True, eq=False)
class ConditionalProcess(Record):
    """Process left over after one party's instrument fires one event:
    the unnormalized state on the remaining input legs, in time order. The
    normalized state is derived on first access, read-only like the
    record's arrays, so it cannot go stale; no Choi matrix is kept.
    """
    unnormalized: np.ndarray = field(repr=False)
    probability: float
    input_dims: tuple[int, int]

    @cached_property
    def state(self) -> np.ndarray:
        """Normalized remaining-input state (left as is at probability 0)."""
        if self.probability > PROB_TOL:
            return read_only(self.unnormalized / self.probability)
        return self.unnormalized


def _condition(p: ProcessTensor, party: str, elements) -> tuple:
    """Condition the process on a stack (n, d, d) of elements at one party
    in one einsum, cond = tr_party[gamma (element at party)]: the party's
    ket index is summed against each element and its bra index is tied to
    the ket. Returns the (n, D, D) unnormalized states on the remaining
    legs, their traces (the probabilities) and the remaining dims."""
    if party not in PARTIES:
        raise KeyError(f"unknown party {party!r} (expected A, B, or C)")
    k = PARTIES.index(party)
    elements = np.asarray(elements, dtype=complex)
    dk = p.input_dims[k]
    if elements.shape[1:] != (dk, dk):
        raise ValueError(f"element of shape {elements.shape[1:]} does not "
                         f"fit party {party}'s input leg of dimension {dk}")
    x = "abc"[k]
    rest = "abc".replace(x, "")
    g_sub = "abc".replace(x, "D") + "ABC".replace(x.upper(), x)
    dims = tuple(d for i, d in enumerate(p.input_dims) if i != k)
    g6 = _one_state(p.gamma, "conditioning").reshape(*p.input_dims,
                                                      *p.input_dims)
    cond = np.einsum(f"n{x}D,{g_sub}->n{rest}{rest.upper()}", elements, g6)
    cond = cond.reshape(-1, dims[0] * dims[1], dims[0] * dims[1])
    return cond, np.trace(cond, axis1=1, axis2=2).real, dims


def condition(p: ProcessTensor, party: str,
              element: np.ndarray) -> ConditionalProcess:
    """Condition the process on one instrument event at one party."""
    cond, probs, dims = _condition(p, party, np.asarray(element)[None])
    return ConditionalProcess(cond[0], float(probs[0]), dims)


def condition_instrument(p: ProcessTensor, party: str,
                         inst: Instrument) -> list[ConditionalProcess]:
    cond, probs, dims = _condition(p, party, inst.matrices())
    return [ConditionalProcess(c, pr, dims)
            for c, pr in zip(cond, probs.tolist())]


def _events(p: ProcessTensor, inst: Instrument) -> tuple:
    """The middle instrument's event table, built by one _condition and
    kept in p._memo: read-only stacks (probabilities, live, A:C states, A
    marginals, C marginals) in event order. An event at or below PROB_TOL
    is stored as (0, I/dA x I/dC, I/dA, I/dC), so every row is a state."""
    memo = p._memo.setdefault(inst, {})
    if "events" not in memo:
        dA, _, dC = p.input_dims
        cond, probs, _ = _condition(p, "B", inst.matrices())
        live = probs > PROB_TOL
        states = cond / np.where(live, probs, 1.0)[:, None, None]
        rA, rC = (partial_trace(states, (dA, dC), (k,)) for k in (0, 1))
        states[~live] = np.eye(dA * dC) / (dA * dC)
        rA[~live], rC[~live] = np.eye(dA) / dA, np.eye(dC) / dC
        memo["events"] = tuple(map(read_only, (
            np.where(live, probs, 0.0), live, states, rA, rC)))
    return memo["events"]


def marginals(p: ProcessTensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-party marginals of gamma, or of each state of a stack."""
    return tuple(partial_trace(p.gamma, p.input_dims, (k,))
                 for k in range(3))


def markov_product(p: ProcessTensor) -> ProcessTensor:
    """The memoryless process with the same single-party marginals, built
    once per process and kept on it, so its one density check serves
    non_markovianity and the Choi cross-check alike."""
    q = vars(p).get("_markov_product")
    if q is None:
        gA, gB, gC = marginals(p)
        q = vars(p)["_markov_product"] = build_common_cause(
            kron(gA, gB, gC), p.input_dims, p.output_dims)
    return q


def cp_divisibility_check(p: ProcessTensor) -> dict:
    """Verify the step maps are channels whose Chois factor as
    identity-output x next-input-marginal, so composition holds exactly."""
    dims = p.choi_dims
    dA, dAo, dB, dBo, dC = dims
    gA, gB, gC = marginals(p)
    # each traced-out output leg contributes its dimension to the norm
    ao_bi = partial_trace(p.matrix, dims, (1, 2)) / dBo
    bo_ci = partial_trace(p.matrix, dims, (3, 4)) / dAo
    ao_ci = partial_trace(p.matrix, dims, (1, 4)) / dBo
    residuals = {
        "A_out:B_in": float(np.linalg.norm(ao_bi - kron(np.eye(dAo), gB))),
        "B_out:C_in": float(np.linalg.norm(bo_ci - kron(np.eye(dBo), gC))),
        "A_out:C_in": float(np.linalg.norm(ao_ci - kron(np.eye(dAo), gC))),
    }
    return {"residuals": residuals,
            "ok": all(v < 1e-10 for v in residuals.values())}
