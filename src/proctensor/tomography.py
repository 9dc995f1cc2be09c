"""Synthetic tomography pipeline: product-basis settings, multinomial count
simulation, linear-inversion reconstruction with spectral projection, and
bootstrap uncertainties.

Settings are products of per-leg bases: the three Pauli eigenbases for a
qubit leg, and for a qutrit leg the nine two-level bases (each Pauli basis
embedded in one of the three level pairs, the remaining level fixed). Both
sets are informationally complete for their leg.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .linalg import hermitize, path_or_handle

_QUBIT = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
    "Z": np.eye(2, dtype=complex),
}
_QUBIT_ORDER = ("X", "Y", "Z")


def qubit_bases() -> list[tuple[str, np.ndarray]]:
    """Pauli measurement bases as (label, column-basis unitary)."""
    return [(lbl, _QUBIT[lbl].copy()) for lbl in _QUBIT_ORDER]


def qutrit_bases() -> list[tuple[str, np.ndarray]]:
    """Nine pair-subspace bases covering a qutrit informationally."""
    out = []
    for (j, k) in ((0, 1), (0, 2), (1, 2)):
        other = ({0, 1, 2} - {j, k}).pop()
        for lbl in _QUBIT_ORDER:
            U2 = _QUBIT[lbl]
            U = np.zeros((3, 3), dtype=complex)
            U[[j, k], 0] = U2[:, 0]
            U[[j, k], 1] = U2[:, 1]
            U[other, 2] = 1.0
            out.append((f"{j}{k}{lbl}", U))
    return out


def _leg_bases(d: int) -> list[tuple[str, np.ndarray]]:
    if d == 2:
        return qubit_bases()
    if d == 3:
        return qutrit_bases()
    raise ValueError(f"no basis set for leg dimension {d}")


def product_settings(dims) -> list[tuple[str, np.ndarray]]:
    """All products of per-leg bases; labels join leg labels with '/'."""
    per_leg = [_leg_bases(int(d)) for d in dims]
    settings = []
    for combo in iproduct(*per_leg):
        lbl = "/".join(l for l, _ in combo)
        U = np.array([[1.0]], dtype=complex)
        for _, B in combo:
            U = np.kron(U, B)
        settings.append((lbl, U))
    return settings


def born_probabilities(rho: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Outcome distribution of a basis measurement; clipped, normalized."""
    p = np.clip(np.real(np.diag(basis.conj().T @ rho @ basis)), 0, None)
    return p / p.sum()


@dataclass(frozen=True)
class CountsTable:
    """Measured counts per setting and outcome."""
    labels: tuple
    counts: tuple  # one integer array per setting
    shots: tuple  # per-setting totals

    def __post_init__(self):
        counts = tuple(np.asarray(c, dtype=np.int64) for c in self.counts)
        shots = tuple(int(s) for s in self.shots)
        if len(self.labels) != len(counts) or len(counts) != len(shots):
            raise ValueError("labels, counts, shots must align")
        for c, s in zip(counts, shots):
            if c.min() < 0:
                raise ValueError("negative count")
            if int(c.sum()) != s:
                raise ValueError("per-setting counts must sum to shots")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", shots)

    @property
    def total_shots(self) -> int:
        return int(sum(self.shots))


def simulate_counts(gamma: np.ndarray, dims, shots: int,
                    seed) -> CountsTable:
    """Multinomial counts for every product setting, deterministic per seed.

    shots is the total budget, split evenly across settings (at least one
    shot per setting).
    """
    settings = product_settings(dims)
    shots_per = max(1, int(round(shots / len(settings))))
    rng = np.random.default_rng(seed)
    counts = [rng.multinomial(shots_per, born_probabilities(gamma, U))
              for _, U in settings]
    return CountsTable(tuple(l for l, _ in settings), tuple(counts),
                       (shots_per,) * len(settings))


def _matrices_for(labels, dims) -> list[np.ndarray]:
    lookup = [dict(_leg_bases(int(d))) for d in dims]
    mats = []
    for lbl in labels:
        parts = lbl.split("/")
        if len(parts) != len(lookup):
            raise ValueError(f"setting {lbl!r} does not match {len(lookup)} "
                             "legs")
        U = np.array([[1.0]], dtype=complex)
        for i, (leg, part) in enumerate(zip(lookup, parts)):
            if part not in leg:
                raise ValueError(
                    f"setting {lbl!r}: unknown basis {part!r} on leg {i} "
                    f"(dimension {dims[i]}; expected one of {list(leg)})")
            U = np.kron(U, leg[part])
        mats.append(U)
    return mats


def inversion_matrix(mats, d: int) -> np.ndarray:
    """Rows map vec(rho) to outcome probabilities, one row per outcome."""
    rows = []
    for U in mats:
        for k in range(d):
            P = np.outer(U[:, k], U[:, k].conj())
            rows.append(P.conj().reshape(-1))
    return np.array(rows)


def simplex_projection(evals: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real spectrum onto the unit simplex."""
    u = np.sort(evals)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(u) + 1)
    k = ks[u - (css - 1) / ks > 0][-1]
    tau = (css[k - 1] - 1) / k
    return np.clip(evals - tau, 0, None)


def reconstruct(counts: CountsTable, dims) -> np.ndarray:
    """Linear inversion of outcome frequencies, projected to a state.

    Raises when the settings in the table are informationally incomplete
    for the requested dimensions.
    """
    d = int(np.prod([int(x) for x in dims]))
    mats = _matrices_for(counts.labels, dims)
    A = inversion_matrix(mats, d)
    if np.linalg.matrix_rank(A) < d * d:
        raise ValueError(
            f"settings are informationally incomplete: rank "
            f"{np.linalg.matrix_rank(A)} < {d * d}")
    freqs = np.concatenate([c / c.sum() for c in counts.counts])
    rho = (np.linalg.pinv(A) @ freqs).reshape(d, d)
    rho = hermitize(rho)
    w, v = np.linalg.eigh(rho)
    w = simplex_projection(w)
    return (v * w) @ v.conj().T


def resample_counts(counts: CountsTable, rng) -> CountsTable:
    """One bootstrap resample: multinomial redraw per setting."""
    new = [rng.multinomial(s, c / c.sum())
           for c, s in zip(counts.counts, counts.shots)]
    return CountsTable(counts.labels, tuple(new), counts.shots)


def bootstrap(counts: CountsTable, dims, statistic, resamples: int = 500,
              seed=None) -> tuple[float, float]:
    """Bootstrap mean and standard error of statistic(reconstructed state).

    Each resample redraws every setting's counts and reruns the full
    reconstruction; per-resample seeds are spawned from seed so the result
    does not depend on evaluation order.
    """
    if resamples < 2:
        raise ValueError("need at least 2 resamples")
    children = np.random.SeedSequence(seed).spawn(resamples)
    vals = []
    for child in children:
        rng = np.random.default_rng(child)
        vals.append(float(statistic(reconstruct(
            resample_counts(counts, rng), dims))))
    vals = np.array(vals)
    return float(vals.mean()), float(vals.std())


_CSV_COLUMNS = ("setting", "outcome", "count")


def counts_to_csv(counts: CountsTable, path) -> None:
    with path_or_handle(path, "w") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_COLUMNS)
        for lbl, c in zip(counts.labels, counts.counts):
            for k, n in enumerate(c):
                w.writerow([lbl, k, int(n)])


def counts_from_csv(path) -> CountsTable:
    with path_or_handle(path) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [c for c in _CSV_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"counts table lacks column(s) {missing}")
    if not rows:
        raise ValueError("counts table has no rows")
    per = {}
    order = []
    for row in rows:
        lbl = row["setting"]
        if lbl not in per:
            per[lbl] = {}
            order.append(lbl)
        per[lbl][int(row["outcome"])] = int(row["count"])
    counts = []
    for lbl in order:
        outcomes = per[lbl]
        arr = np.zeros(max(outcomes) + 1, dtype=np.int64)
        for k, n in outcomes.items():
            arr[k] = n
        counts.append(arr)
    return CountsTable(tuple(order), tuple(counts),
                       tuple(int(c.sum()) for c in counts))


__all__ = [
    "CountsTable", "bootstrap", "born_probabilities", "counts_from_csv",
    "counts_to_csv", "inversion_matrix", "product_settings", "qubit_bases",
    "qutrit_bases", "reconstruct", "resample_counts", "simplex_projection",
    "simulate_counts",
]
