"""Reconstruction of a three-step process from one middle instrument's
conditional statistics, plus the tools to compare it against the truth.

The reconstructed object replaces the middle input leg by dual-frame
operators weighted with event probabilities and conditional marginals. It
is a faithful predictor only for middle-party observables inside the span
of the instrument it was built from, and it need not be globally positive;
expectation therefore validates observables before contracting.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .instruments import (_REF_THETA_WEIGHTS, _RT2, Instrument, PAULI,
                          dual_frame, span_project)
from .linalg import kron, partial_trace, path_or_handle, read_only
from .process import ProcessTensor, _events

SPAN_TOL = 1e-10

# Pauli stack without the identity, for Bloch decompositions
_SIG = np.stack(PAULI[1:])


@dataclass(frozen=True)
class RecoveredProcess(ProcessTensor):
    """Process-shaped reconstruction valid on one instrument's span.

    A ProcessTensor, so conditioning and the Born fast path apply
    unchanged. Positivity holds on the instrument span only, not
    globally, so recover() does not validate it. Its event marginals are
    private read-only copies.
    """
    source_instrument: Instrument
    # per-event (probability, A marginal, C marginal) of the true process
    events: tuple = field(repr=False, default=())

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "events", tuple(
            (prob, *(read_only(np.array(m)) for m in marg))
            for prob, *marg in self.events))


def recover(p: ProcessTensor, inst: Instrument) -> RecoveredProcess:
    """Rebuild the process from the statistics of one middle instrument.

    The middle leg of each event is replaced by the instrument's dual
    operator, weighted by the event probability and tensored with the
    normalized conditional marginals of the two outer parties.
    """
    dA, dB, dC = p.input_dims
    frame = dual_frame(inst)
    gamma_rec = np.zeros((dA * dB * dC, dA * dB * dC), dtype=complex)
    events = []
    for ev, dual in zip(_events(p, inst), frame.duals):
        if ev is None:
            events.append((0.0, np.eye(dA) / dA, np.eye(dC) / dC))
            continue
        prob, _, gA, gC = ev
        gamma_rec = gamma_rec + prob * kron(gA, dual, gC)
        events.append((prob, gA, gC))
    return RecoveredProcess(gamma_rec, p.input_dims, p.output_dims, inst,
                            tuple(events))


@dataclass(frozen=True)
class Observable:
    """Multi-time observable sum_y c_y A^(y) x B^(y) x C^(y)."""
    terms: tuple  # of (coefficient, alice_op, bob_op, charlie_op)

    def __post_init__(self):
        terms = tuple(
            (float(c), np.asarray(a, dtype=complex),
             np.asarray(b, dtype=complex), np.asarray(g, dtype=complex))
            for c, a, b, g in self.terms)
        object.__setattr__(self, "terms", terms)


def observable(coefficient, alice_op, bob_op, charlie_op) -> Observable:
    """Single-term observable helper."""
    return Observable(((coefficient, alice_op, bob_op, charlie_op),))


def validate_observable(obs: Observable, inst: Instrument) -> dict:
    """Per-term distance of the middle op from the instrument span."""
    mats = inst.matrices()
    residuals = []
    for _, _, bob_op, _ in obs.terms:
        proj = span_project(bob_op, mats)
        residuals.append(float(np.linalg.norm(bob_op - proj)))
    return {"residuals": residuals,
            "pass": all(r < SPAN_TOL for r in residuals)}


def expectation(p: ProcessTensor, obs: Observable) -> float:
    """Expectation value of a product observable against the process.

    Output legs carry the identity convention of the process contraction,
    so each term reduces to a pairing on the input-leg state. Recovered
    processes reject observables whose middle part leaves the span.
    """
    if isinstance(p, RecoveredProcess):
        report = validate_observable(obs, p.source_instrument)
        if not report["pass"]:
            raise ValueError(
                "observable leaves the instrument span; the recovered "
                f"process cannot predict it (residuals {report['residuals']})")
    dA, dB, dC = p.input_dims
    val = 0.0
    for c, a_op, b_op, c_op in obs.terms:
        if a_op.shape != (dA, dA) or b_op.shape != (dB, dB) \
                or c_op.shape != (dC, dC):
            raise ValueError("observable term dimension mismatch")
        val += c * float(np.real(np.trace(kron(a_op, b_op, c_op) @ p.gamma)))
    return val


def _bloch_vectors(thetas, phases):
    """All Bloch vectors of cos(t)|0> + e^{i phase} sin(t)|1> on a grid.

    Returns the flattened (len(thetas)*len(phases), 3) array, theta slow.
    """
    t2 = 2.0 * np.asarray(thetas, dtype=float)[:, None]
    ph = np.asarray(phases, dtype=float)[None, :]
    n = np.empty((t2.shape[0], ph.shape[1], 3))
    n[..., 0] = np.sin(t2) * np.cos(ph)
    n[..., 1] = np.sin(t2) * np.sin(ph)
    n[..., 2] = np.cos(t2) * np.ones_like(ph)
    return n.reshape(-1, 3)


def _ac_bloch_data(p):
    """(a, c, M): Bloch marginals and correlation matrix of the AC state."""
    dA, dB, dC = p.input_dims
    if dA != 2 or dC != 2:
        raise ValueError("deviation scan requires qubit outer parties")
    g_ac = partial_trace(p.gamma, (dA, dB, dC), (0, 2))
    r4 = g_ac.reshape(2, 2, 2, 2)
    rA = np.einsum('acAc->aA', r4)
    rC = np.einsum('acaC->cC', r4)
    a = np.real(np.einsum('iAa,aA->i', _SIG, rA))
    c = np.real(np.einsum('iCc,cC->i', _SIG, rC))
    M = np.real(np.einsum('acAC,iAa,jCc->ij', r4, _SIG, _SIG))
    return a, c, M


def _ac_bloch(p) -> tuple:
    """_ac_bloch_data(p) as read-only arrays, computed once per process
    and kept beside its cached properties; a failure is not kept."""
    data = vars(p).get("_ac_bloch")
    if data is None:
        data = vars(p)["_ac_bloch"] = tuple(map(read_only,
                                                _ac_bloch_data(p)))
    return data


@lru_cache(maxsize=8)
def _scan_grid(grid: int, full: bool) -> tuple:
    """(thetas, phases, N1) of a scan, read-only, built once per (grid,
    full) by _bloch_vectors; a failure is not cached."""
    # grid counts steps: thetas inclusive of both ends, phases periodic
    thetas = np.linspace(0.0, np.pi / 2, grid + 1)
    phases = np.linspace(0.0, 2 * np.pi, grid, endpoint=False) if full \
        else np.array([0.0])
    return tuple(map(read_only,
                     (thetas, phases, _bloch_vectors(thetas, phases))))


@dataclass(frozen=True)
class ScanResult:
    """True/reconstructed values and differences over pairs of directions
    in thetas x phases, theta slow; to_csv writes each pair's angles."""
    convention: str
    thetas: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)
    true_values: np.ndarray = field(repr=False)
    recovered_values: np.ndarray = field(repr=False)
    abs_diff: np.ndarray = field(repr=False)
    max_abs_diff: float
    argmax: dict

    def to_csv(self, path) -> None:
        """CRLF-terminated rows, every number in %.12g; each direction's
        angle pair is formatted once and repeated."""
        dirs = ["%.12g,%.12g" % d for d in product(self.thetas.tolist(),
                                                   self.phases.tolist())]
        rows = zip(product(dirs, repeat=2), self.true_values.tolist(),
                   self.recovered_values.tolist(), self.abs_diff.tolist())
        with path_or_handle(path, "w") as fh:
            fh.write("theta1,phi,theta2,psi,true,recovered,abs_diff\r\n")
            fh.writelines("%s,%s,%.12g,%.12g,%.12g\r\n" % (d1, d2, t, r, a)
                          for (d1, d2), t, r, a in rows)


def deviation_scan(true_p, recovered_p, grid: int = 64,
                   convention: str = "projector",
                   full: bool = False) -> ScanResult:
    """Grid scan of |<C>_true - <C>_rec| with the middle party untouched.

    Both outer parties range over pure-state directions parameterized by
    cos(theta)|0> + e^{i phase} sin(theta)|1>. The default scan sweeps
    theta1, theta2 over [0, pi/2] with both phases fixed to 0; full=True
    sweeps the phases over [0, 2pi) as well (grid^4 points). Convention
    "projector" contracts rank-1 projectors on both sides (values in
    [0, 1]); "correlator" contracts the +/-1 observable of each projector
    pair. Everything reduces to Bloch algebra, so the grid is evaluated
    in one vectorized pass, ordered by grid index. Each process's AC
    Bloch data and each (grid, full) direction grid are built once and
    shared by every later scan.
    """
    if convention not in ("projector", "correlator"):
        raise ValueError(f"unknown convention {convention!r}")
    if grid < 2:
        raise ValueError("grid needs at least 2 steps per angle")
    if ((grid + 1) * (grid if full else 1)) ** 2 > 2 ** 22:
        raise ValueError(f"grid {grid} makes a scan of over 2**22 points")
    a_t, c_t, M_t = _ac_bloch(true_p)
    a_r, c_r, M_r = _ac_bloch(recovered_p)
    thetas, phases, N1 = _scan_grid(grid, bool(full))
    N2 = N1
    if convention == "projector":
        def values(a, c, M):
            u1 = N1 @ a
            u2 = N2 @ c
            return 0.25 * (1.0 + u1[:, None] + u2[None, :] + N1 @ M @ N2.T)
    else:
        def values(a, c, M):
            return N1 @ M @ N2.T
    tv = values(a_t, c_t, M_t)
    rv = values(a_r, c_r, M_r)
    diff = np.abs(tv - rv)
    k = int(np.argmax(diff))
    i1, i2 = divmod(k, diff.shape[1])
    n_ph = len(phases)
    ang = {
        "theta1": float(thetas[i1 // n_ph]), "phi": float(phases[i1 % n_ph]),
        "theta2": float(thetas[i2 // n_ph]), "psi": float(phases[i2 % n_ph]),
    }
    return ScanResult(
        convention=convention, thetas=thetas, phases=phases,
        true_values=tv.reshape(-1), recovered_values=rv.reshape(-1),
        abs_diff=diff.reshape(-1), max_abs_diff=float(diff[i1, i2]),
        argmax=ang)


def noisy_replay(gamma: np.ndarray, dims, strengths) -> np.ndarray:
    """Leg-local depolarizing noise on a multipartite state.

    strengths is one value per leg (a scalar applies to every leg). Each
    leg is mixed toward its maximally mixed marginal while the other legs
    keep their joint state, so the trace is preserved exactly.
    """
    g = np.asarray(gamma, dtype=complex)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if np.isscalar(strengths):
        strengths = (float(strengths),) * n
    strengths = tuple(float(s) for s in strengths)
    if len(strengths) != n:
        raise ValueError("need one strength per leg")
    for s in strengths:
        if not 0.0 <= s <= 1.0:
            raise ValueError(
                f"depolarizing strength must be in [0, 1], got {s}")
    for k, s in enumerate(strengths):
        if s == 0.0:
            continue
        # the other legs' joint marginal times a maximally mixed leg k,
        # broadcast so every leg keeps its axis
        rest = partial_trace(g, dims, tuple(i for i in range(n) if i != k))
        rest = rest.reshape([1 if i == k else d
                             for i, d in enumerate(dims)] * 2)
        shape = [1] * (2 * n)
        shape[k] = shape[n + k] = dims[k]
        mixed = rest * (np.eye(dims[k]) / dims[k]).reshape(shape)
        g = (1.0 - s) * g + s * mixed.reshape(g.shape)
    return g


# rounded conditional marginals for the theta reconstruction of the
# two-qubit common-cause process; its event weights are _REF_THETA_WEIGHTS
_REF_THETA_MARGINALS = (
    np.array([[0.5, 0.008967], [0.008967, 0.5]]),
    np.array([[0.5, 0.1976], [0.1976, 0.5]]),
    np.array([[0.5, -0.1652], [-0.1652, 0.5]]),
)
_REF_THETA_DUALS = (
    np.array([[-_RT2 / 2.0, 0.5], [0.5, (2.0 + _RT2) / 2.0]]),
    np.array([[1.0, -(1.0 + _RT2) / 2.0], [-(1.0 + _RT2) / 2.0, 0.0]]),
    np.array([[1.0, 0.5], [0.5, 0.0]]),
)


def reference_recovered_lambda() -> np.ndarray:
    """Tabulated closed form for the theta reconstruction of the
    two-qubit common-cause process, on legs (A, B, C).

    Assembled from rounded event weights and conditional marginals; the
    exact Born weights differ from the tabulated ones by up to 0.034, so
    recover() output sits a few parts in 1e3 away from this matrix.
    """
    out = np.zeros((8, 8), dtype=complex)
    for w, m, d in zip(_REF_THETA_WEIGHTS, _REF_THETA_MARGINALS,
                       _REF_THETA_DUALS):
        out = out + w * kron(m, d, m)
    return out


def reference_recovered_omega() -> np.ndarray:
    """Closed form for the xi reconstruction of the qubit-qutrit
    common-cause process, on legs (A, B, C).

    Each event enters with weight one half; the middle factor of each
    term is the corresponding xi dual operator, which keeps the total
    trace at one. recover() reproduces this matrix to machine precision.
    """
    term1 = kron(np.eye(2) / 2.0, np.diag([0.5, 0.5, 0.0]), np.eye(2) / 2.0)
    term2 = kron(np.diag([1.0, 0.0]), np.diag([0.0, 0.0, 1.0]),
                 np.diag([1.0, 0.0]))
    return (0.5 * (term1 + term2)).astype(complex)
