"""Memory metrics: non-Markovianity, instrument-specific memory strength,
Markov-order testing, conditional mutual information, and the Haar survey of
projective instruments.

All information quantities are in bits. For common-cause processes the
identity output legs carry no correlations, so every metric here evaluates
on input-leg states; the full-Choi equivalence is exercised by the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instruments import PAULI, Instrument
from .linalg import (CLIP_EPS, _relative_entropy, kron, partial_trace,
                     relative_entropy, trace_distance, von_neumann_entropy)
from .process import (ProcessTensor, _events, build_common_cause, marginals,
                      markov_product)

MARKOV_TOL = 1e-8  # markov_order's default trace-distance tolerance


def non_markovianity(p: ProcessTensor) -> float:
    """Relative entropy to the nearest memoryless process, in bits.

    The minimizer is the product of the process marginals, so the value is
    the total correlation of the input-leg state; identity output legs
    cancel between the two normalized Choi operators.
    """
    gA, gB, gC = marginals(p)
    return _relative_entropy(p.gamma, p.spectrum[0], kron(gA, gB, gC))


def state_non_markovianity(gamma: np.ndarray, dims) -> float:
    """non_markovianity of the common-cause process on a tripartite state,
    its output legs of the first two input legs' dims: the statistic the
    tomography reports give for a reconstructed state."""
    return non_markovianity(build_common_cause(gamma, dims, dims[:2]))


def non_markovianity_choi(p: ProcessTensor) -> float:
    """Same quantity evaluated on full normalized Choi operators.

    Kept as the cross-check path; agrees with non_markovianity to
    numerical precision.
    """
    norm = math.prod(p.output_dims)  # the Choi trace
    return relative_entropy(p.matrix / norm, markov_product(p).matrix / norm)


def mutual_information(rho: np.ndarray, split: tuple[int, int]) -> float:
    """I(1:2) = S_1 + S_2 - S_12 for a bipartite state."""
    d1, d2 = split
    r1 = partial_trace(rho, (d1, d2), (0,))
    r2 = partial_trace(rho, (d1, d2), (1,))
    return (von_neumann_entropy(r1) + von_neumann_entropy(r2)
            - von_neumann_entropy(rho))


def quantum_cmi(gamma: np.ndarray, dims: tuple[int, int, int]) -> float:
    """I(A:C|B) = S_AB + S_BC - S_ABC - S_B (nonnegative by strong
    subadditivity)."""
    rAB = partial_trace(gamma, dims, (0, 1))
    rBC = partial_trace(gamma, dims, (1, 2))
    rB = partial_trace(gamma, dims, (1,))
    return (von_neumann_entropy(rAB) + von_neumann_entropy(rBC)
            - von_neumann_entropy(gamma) - von_neumann_entropy(rB))


def quantum_cmi_choi(p: ProcessTensor) -> float:
    """I(A:C|B) on the trace-normalized full Choi operator, with the B
    block taken as (B_in, B_out). Equals the state-level value for
    common-cause processes (identity legs contribute zero)."""
    dA, dAo, dB, dBo, dC = p.choi_dims
    m = p.matrix / math.prod(p.output_dims)
    # legs are contiguous per party, so regrouping is just coarser dims
    return quantum_cmi(m, (dA * dAo, dB * dBo, dC))


def confusion_probability(n: int, nm_bits: float) -> float:
    """Asymptotic probability of mistaking the process for its memoryless
    counterpart after n shots; the exponent wants natural units, so the
    bit-valued argument is scaled by ln 2 before exponentiation."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return float(np.exp(-n * nm_bits * np.log(2.0)))


@dataclass(frozen=True)
class MemoryReport:
    per_event: tuple[tuple[float, float], ...]  # (probability, MI bits)
    aggregate_uniform: float
    aggregate_weighted: float
    max_event: float
    trace_distances: tuple[float, ...]  # per event, A:C state to product
    flags: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "per_event": [{"probability": p, "mutual_information": m}
                          for p, m in self.per_event],
            "aggregate_uniform": self.aggregate_uniform,
            "aggregate_weighted": self.aggregate_weighted,
            "max_event": self.max_event,
            "flags": list(self.flags),
        }

    def markov_order(self, tol: float = MARKOV_TOL) -> tuple[bool, dict]:
        """True iff every event's conditional state is product across the
        first/last split within trace distance tol. Mutual information is
        reported alongside as the secondary criterion."""
        events = [{"event": i, "probability": pr, "trace_distance": td,
                   "mutual_information": mi} for i, ((pr, mi), td)
                  in enumerate(zip(self.per_event, self.trace_distances), 1)]
        ok = all(td < tol for td in self.trace_distances)
        return ok, {"events": events, "tol": tol, "markov_order_one": ok}


def memory_strength(p: ProcessTensor, inst: Instrument) -> MemoryReport:
    """Per-event A:C mutual information and trace distance to product after
    the middle party's instrument fires, plus uniform and probability
    weighted aggregates. Impossible events are flagged, numbered from 1."""
    return _report(_events(p, inst))


def _report(events: list) -> MemoryReport:
    """memory_strength's report from one _events pass."""
    rows = []
    for ev in events:
        if ev is None:
            rows.append((0.0, 0.0, 0.0))
            continue
        prob, state, rA, rC = ev
        mi = (von_neumann_entropy(rA) + von_neumann_entropy(rC)
              - von_neumann_entropy(state))
        rows.append((prob, max(mi, 0.0), trace_distance(state, kron(rA, rC))))
    ps, mis, tds = zip(*rows)
    w = np.array(mis)
    flags = tuple(f"event {i}: zero probability"
                  for i, pr in enumerate(ps, 1) if pr == 0.0)
    return MemoryReport(tuple(zip(ps, mis)), float(w.mean()),
                        float(np.array(ps) @ w), float(w.max()), tds, flags)


def markov_order_test(p: ProcessTensor, inst: Instrument,
                      tol: float = MARKOV_TOL) -> tuple[bool, dict]:
    """memory_strength(p, inst).markov_order(tol)."""
    return memory_strength(p, inst).markov_order(tol)


def _bloch_blocks(p: ProcessTensor) -> tuple:
    """G_k = tr_B[gamma sigma_k]/2 (sigma_0 = 1): a qubit projector
    (1 + n.sigma)/2 at B conditions gamma to c @ G, c = (1, n), and its
    complement to c = (1, -n). Returns what c multiplies as one real (4, m)
    table, its row layout and a flag. Its columns are tr G_k and the Tr_C,
    Tr_A and AC blocks of G_k, the last, flagged, as their diagonals W in a
    joint eigenbasis. The layout is (kind, k, width) per block: "diagonal"
    (W or a 1 x 1 block), "qubit" (a, d, Re b, Im b) or "full" (real view).

    That basis is the eigenbasis of a generic combination of the G_k, in
    which G_k = diag(W_k) + E_k. By Weyl's inequality each eigenvalue of
    c @ G is one of c @ W up to ||c @ E||_2 <= ||E_0||_F + |(||E_k||_F)_k>0|
    (Cauchy-Schwarz, |n| = 1), and an event's trace is at least
    t_min = tr G_0 - |(tr G_k)_k>0|. W is used only if that bound over
    t_min is below CLIP_EPS, where the entropies drop eigenvalues, so an
    accidental degeneracy that spoils the basis falls back to eigvalsh."""
    dA, dB, dC = p.input_dims
    d = dA * dC
    g6 = p.gamma.reshape(dA, dB, dC, dA, dB, dC)
    G = np.einsum('kbD,aDcAbC->kacAC', np.array(PAULI), g6) / 2
    trace = np.einsum('kacac->k', G).real
    marg = [np.einsum(s, G) for s in ('kacAc->kaA', 'kacaC->kcC')]
    G = G.reshape(4, d, d)
    U = np.linalg.eigh(np.tensordot([1, 2 ** .5, 3 ** .5, 5 ** .5], G, 1))[1]
    R = U.conj().T @ G @ U
    W = np.einsum('kii->ki', R).real
    e = np.linalg.norm(R - W[:, :, None] * np.eye(d), axis=(1, 2))
    commuting = bool(e[0] + np.linalg.norm(e[1:])
                     < CLIP_EPS * (trace[0] - np.linalg.norm(trace[1:])))

    def columns(block, k):  # its real view is Re a, Im a, Re b, ..., Im d
        b = block.reshape(4, -1).view(float)
        return (("diagonal", k, b[:, :1]) if k == 1 else
                ("qubit", k, b[:, [0, 6, 2, 3]]) if k == 2 else ("full", k, b))

    blocks = [columns(marg[0], dA), columns(marg[1], dC),
              ("diagonal", d, W) if commuting else columns(G, d)]
    return (np.hstack([trace[:, None]] + [b for _, _, b in blocks]),
            tuple((kind, k, b.shape[1]) for kind, k, b in blocks), commuting)


def _worst_event_mi(blocks: tuple, kets: np.ndarray, dA: int,
                    dC: int) -> np.ndarray:
    """Per-ket A:C mutual information in bits, maximised over the two
    events of the instrument {P, 1 - P}, P = |v><v| / <v|v>; kets is (n, 2)
    of any nonzero norm. Both events are the columns of one (m, 2n) array,
    projectors first; their A, C and AC spectra are stacked, and eigenvalues
    at or below CLIP_EPS are dropped as von_neumann_entropy does. Equals
    memory_strength(...).max_event ket by ket."""
    table, layout, _ = blocks
    n = len(kets)
    (re0, re1), (im0, im1) = kets.real.T, kets.imag.T
    p0, p1 = re0 ** 2 + im0 ** 2, re1 ** 2 + im1 ** 2
    c = np.ones((4, 2 * n))  # (1, n) for the projectors, (1, -n) after
    c[1:, :n] = np.array([2 * (re0 * re1 + im0 * im1),
                          2 * (re0 * im1 - im0 * re1), p0 - p1]) / (p0 + p1)
    c[1:, n:] = -c[1:, :n]
    x = table.T @ c
    x = x[1:] / x[0]  # each event's rows over its trace
    w, i = [], 0
    for kind, k, width in layout:
        rows, i = x[i:i + width], i + width
        if kind == "diagonal":
            w.extend(rows)
        elif kind == "qubit":  # (t +- r)/2, r = sqrt((a - d)^2 + 4|b|^2)
            a, d, re, im = rows
            r = np.sqrt((a - d) ** 2 + 4 * (re ** 2 + im ** 2))
            w += [(a + d + r) / 2, (a + d - r) / 2]
        else:
            rho = np.ascontiguousarray(rows.T).view(complex)
            w.extend(np.linalg.eigvalsh(rho.reshape(-1, k, k)).T)
    w = np.array(w)
    w = np.where(w > CLIP_EPS, w, 1.0)  # 1 log 1 = 0 drops the entry
    h = w * np.log2(w)
    mi = h[dA + dC:].sum(axis=0) - h[:dA + dC].sum(axis=0)
    return np.maximum(mi[:n], mi[n:])


N_SURVEY_CHUNKS = 64


def _survey_mi(p: ProcessTensor, samples: int, seed) -> np.ndarray:
    """Worst-event A:C mutual information of each Haar-random projective
    instrument at B, in bits. The kets are complex Gaussian pairs, left
    unnormalised, drawn in 64 fixed chunks with one child seed each, so the
    values depend only on (samples, seed)."""
    dA, dB, dC = p.input_dims
    if dB != 2:
        raise ValueError("survey requires a qubit middle leg (Haar "
                         "projectors are drawn on a qubit); input dims are "
                         f"{tuple(p.input_dims)}")
    blocks = _bloch_blocks(p)
    children = np.random.SeedSequence(seed).spawn(N_SURVEY_CHUNKS)
    sizes = [samples // N_SURVEY_CHUNKS
             + (1 if i < samples % N_SURVEY_CHUNKS else 0)
             for i in range(N_SURVEY_CHUNKS)]
    mis = []
    for child, n in zip(children, sizes):
        rng = np.random.default_rng(child)
        V = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        mis.append(_worst_event_mi(blocks, V, dA, dC))
    return np.concatenate(mis)


def projective_survey(p: ProcessTensor, cutoff: float, samples: int,
                      seed) -> float:
    """Fraction of Haar-random projective qubit instruments at the middle
    party whose worst-event memory strength stays below cutoff.

    The middle leg must be a qubit; the outer legs may have any
    dimension. The result depends only on (samples, seed).
    """
    if not 0 < cutoff < math.inf:
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    # a sample keeps one float64 MI, twice while the chunks are joined, and
    # a chunk (samples / 64) takes 0.6 KiB a sample on lambda, 6.4 KiB on a
    # (3,2,3) state: 2**24 samples bound the working set at 0.4 to 1.9 GiB
    if samples > 2 ** 24:
        raise ValueError(f"samples {samples} is over 2**24")
    below = np.count_nonzero(_survey_mi(p, samples, seed) < cutoff)
    return int(below) / samples
