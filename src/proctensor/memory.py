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
from types import SimpleNamespace

import numpy as np

from .instruments import PAULI, Instrument
from .linalg import (CLIP_EPS, _relative_entropy, _spectrum_entropy, kron,
                     partial_trace, trace_distance, von_neumann_entropy)
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
    numerical precision. The normalized Choi matrix's spectrum is the
    process's cached one; the Markov product's eigh gives log y.
    """
    norm = math.prod(p.output_dims)  # the Choi trace
    y = markov_product(p).matrix / norm
    return _relative_entropy(p.matrix / norm, p.choi_spectrum, y)


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
    s_ab, s_bc, s_b = _marginal_entropies(gamma, dims)
    return s_ab + s_bc - von_neumann_entropy(gamma) - s_b


def _marginal_entropies(gamma: np.ndarray, dims) -> tuple:
    """(S_AB, S_BC, S_B) of a tripartite state."""
    rAB = partial_trace(gamma, dims, (0, 1))
    rBC = partial_trace(gamma, dims, (1, 2))
    rB = partial_trace(gamma, dims, (1,))
    return tuple(map(von_neumann_entropy, (rAB, rBC, rB)))


def quantum_cmi_choi(p: ProcessTensor) -> float:
    """I(A:C|B) on the trace-normalized full Choi operator, with the B
    block taken as (B_in, B_out). Equals the state-level value for
    common-cause processes (identity legs contribute zero)."""
    dA, dAo, dB, dBo, dC = p.choi_dims
    m = p.matrix / math.prod(p.output_dims)
    # legs are contiguous per party, so regrouping is just coarser dims;
    # S_ABC comes from the process's one decomposition of m
    s_ab, s_bc, s_b = _marginal_entropies(m, (dA * dAo, dB * dBo, dC))
    return s_ab + s_bc - _spectrum_entropy(p.choi_spectrum) - s_b


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
    weighted aggregates. Impossible events are flagged, numbered from 1.
    Built once per (process, instrument), beside its events in p._memo."""
    events = _events(p, inst)
    memo = p._memo[inst]
    if "report" not in memo:
        memo["report"] = _report(events)
    return memo["report"]


def _report(events: tuple) -> MemoryReport:
    """memory_strength's report from one _events pass. The surviving
    events' states, marginals and distances to product each go through
    one stacked entropy or trace distance: one density check and one
    eigvalsh per stack."""
    probs, states, rA, rC = map(np.array, zip(*filter(None, events)))
    mi = np.maximum(von_neumann_entropy(rA) + von_neumann_entropy(rC)
                    - von_neumann_entropy(states), 0.0)
    live = iter(zip(probs.tolist(), mi.tolist(),
                    trace_distance(states, kron(rA, rC)).tolist()))
    ps, mis, tds = zip(*[(0.0, 0.0, 0.0) if ev is None else next(live)
                         for ev in events])
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


def _survey_views(blocks: tuple, n: int, dA: int, dC: int) -> SimpleNamespace:
    """The working area for chunks of up to n kets, 2n columns with the
    projectors first, and every view of it that the kernel uses. Its
    buffers are C-order (rows, 2n) arrays read row by row; the kets start
    as ones, so every column holds a valid ket. A full block's
    column-major copy for eigvalsh is the head of one flat buffer."""
    table, layout, _ = blocks
    cols = 2 * n
    c = np.empty((4, cols))
    c[0] = 1.0  # the coefficient rows, a BLAS operand
    nw = sum(2 if kind == "qubit" else k for kind, k, _ in layout)
    full = max([width for kind, _, width in layout if kind == "full"],
               default=0)
    x, w, t = (np.empty((rows, cols)) for rows in (table.shape[1], nw, 4))
    flat = np.empty(full * cols)
    groups, i, j = [], 1, 0
    for kind, k, width in layout:
        rows, i = x[i:i + width], i + width
        if kind == "diagonal":
            groups.append((kind, (rows, w[j:j + k])))
        elif kind == "qubit":  # rows a, d, Re b, Im b
            ev = w[j:j + 2]
            groups.append((kind, (*rows[:2], rows[2:], ev, *ev, *t[:2])))
            k = 2
        else:
            copy = flat[:cols * width].reshape(cols, width)
            groups.append((kind, (rows.T, copy, copy.view(
                complex).reshape(-1, k, k), w[j:j + k])))
        j += k
    kets, h, sq = np.ones((2, n, 2)), x[:nw], t[:2].reshape(2, n, 2)
    (re0, re1), (im0, im1) = kets.transpose(0, 2, 1)
    return SimpleNamespace(
        kets=kets, re0=re0, re1=re1, im0=im0, im1=im1, sq=sq, norms=sq[0],
        sq_im=sq[1], p0=sq[0, :, 0], p1=sq[0, :, 1], tmp=t[2, :n],
        tT=table.T, c=c, c1=c[1, :n], c2=c[2, :n], c3=c[3, :n],
        proj=c[1:, :n], comp=c[1:, n:], x=x, x0=x[0], x1=x[1:], w=w,
        drop=np.empty((nw, cols), bool), h=h, groups=groups,
        sums=((t[0], list(h[dA + dC:])), (t[1], list(h[:dA + dC]))),
        mi=t[0], marg=t[1], proj_mi=t[0, :n], comp_mi=t[0, n:])


def _worst_event_mi(v: SimpleNamespace, out: np.ndarray) -> np.ndarray:
    """Per-ket A:C mutual information in bits, maximised over the two
    events of the instrument {P, 1 - P}, P = |v><v| / <v|v>, for the kets
    (of any nonzero norm) of the working area v. Every column is computed;
    the first len(out) results go to out, which is returned. Both events'
    A, C and AC spectra are stacked, and eigenvalues at or below CLIP_EPS
    are dropped as von_neumann_entropy does. Every ufunc writes in place,
    its output passed positionally, which numpy parses faster than out=
    (only np.maximum must name it). Equals memory_strength(...).max_event
    ket by ket."""
    # c = (1, s) for the projectors, (1, -s) after, s the Bloch vector
    # (2 Re(v0* v1), 2 Im(v0* v1), |v0|^2 - |v1|^2) / <v|v>
    np.multiply(v.kets, v.kets, v.sq)  # real parts squared, then imaginary
    np.add(v.norms, v.sq_im, v.norms)  # |v0|^2, |v1|^2
    np.multiply(v.re0, v.re1, v.c1)
    np.multiply(v.im0, v.im1, v.tmp)
    np.add(v.c1, v.tmp, v.c1)
    np.multiply(v.c1, 2.0, v.c1)
    np.multiply(v.re0, v.im1, v.c2)
    np.multiply(v.im0, v.re1, v.tmp)
    np.subtract(v.c2, v.tmp, v.c2)
    np.multiply(v.c2, 2.0, v.c2)
    np.subtract(v.p0, v.p1, v.c3)
    np.add(v.p0, v.p1, v.tmp)
    np.divide(v.proj, v.tmp, v.proj)
    np.negative(v.proj, v.comp)
    np.matmul(v.tT, v.c, v.x)
    np.divide(v.x1, v.x0, v.x1)  # each event's rows over its trace
    for kind, args in v.groups:
        if kind == "diagonal":
            np.copyto(args[1], args[0])
        elif kind == "qubit":  # (t +- r)/2, r = sqrt((a - d)^2 + 4|b|^2)
            a, d, b, ev, plus, minus, r, u = args
            np.multiply(b, b, ev)  # the event rows hold (Re b)^2, (Im b)^2
            np.add(plus, minus, u)
            np.multiply(u, 4.0, u)
            np.subtract(a, d, r)
            np.multiply(r, r, r)
            np.add(r, u, r)
            np.sqrt(r, r)
            np.add(a, d, u)
            np.add(u, r, plus)
            np.subtract(u, r, minus)
            np.multiply(ev, 0.5, ev)
        else:
            rows, copy, rho, dst = args
            np.copyto(copy, rows)
            np.copyto(dst, np.linalg.eigvalsh(rho).T)
    np.logical_not(np.greater(v.w, CLIP_EPS, v.drop), v.drop)
    np.copyto(v.w, 1.0, where=v.drop)  # 1 log 1 = 0 drops the entry
    np.log2(v.w, v.h)
    np.multiply(v.w, v.h, v.h)
    for total, rows in v.sums:  # row by row, as ndarray.sum(axis=0) adds
        if len(rows) == 1:
            np.copyto(total, rows[0])
        else:
            np.add(rows[0], rows[1], total)
        for row in rows[2:]:
            np.add(total, row, total)
    np.subtract(v.mi, v.marg, v.mi)
    m = len(out)
    return np.maximum(v.proj_mi[:m], v.comp_mi[:m], out=out)


N_SURVEY_CHUNKS = 64


def _survey_mi(p: ProcessTensor, samples: int, seed) -> np.ndarray:
    """Worst-event A:C mutual information of each Haar-random projective
    instrument at B, in bits. The kets are complex Gaussian pairs, left
    unnormalised, drawn in 64 fixed chunks with one child seed each (real
    parts, then imaginary parts), so the values depend only on (samples,
    seed). One working area, built once at the largest chunk's width,
    serves every chunk: a shorter chunk fills the head rows of its kets."""
    dA, dB, dC = p.input_dims
    if dB != 2:
        raise ValueError("survey requires a qubit middle leg (Haar "
                         "projectors are drawn on a qubit); input dims are "
                         f"{tuple(p.input_dims)}")
    blocks = _bloch_blocks(p)
    children = np.random.SeedSequence(seed).spawn(N_SURVEY_CHUNKS)
    q, extra = divmod(samples, N_SURVEY_CHUNKS)
    v = _survey_views(blocks, q + (extra > 0), dA, dC)
    mi = np.empty(samples)
    start = 0
    for i, child in enumerate(children):
        n = q + (i < extra)
        rng = np.random.default_rng(child)
        rng.standard_normal(out=v.kets[0, :n])
        rng.standard_normal(out=v.kets[1, :n])
        _worst_event_mi(v, mi[start:start + n])
        start += n
    return mi


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
    # a sample keeps one float64 MI, and the working area, allocated once
    # per call for the largest chunk (samples / 64), takes 0.5 KiB a chunk
    # sample on lambda, 6.2 KiB on a (3,2,3) state (eigvalsh's output
    # included): 2**24 samples bound the working set at 0.25 to 1.7 GiB
    if samples > 2 ** 24:
        raise ValueError(f"samples {samples} is over 2**24")
    below = np.count_nonzero(_survey_mi(p, samples, seed) < cutoff)
    return int(below) / samples
