"""Synthetic tomography pipeline: product-basis settings, multinomial count
simulation, linear-inversion reconstruction with spectral projection, and
bootstrap uncertainties.

Settings are products of per-leg bases: the three Pauli eigenbases for a
qubit leg, and for a qutrit leg the nine two-level bases (each Pauli basis
embedded in one of the three level pairs, the remaining level fixed). Both
sets are informationally complete for their leg.

The pseudo-inverse of a settings table depends only on its labels and leg
dimensions, so it is built once per process for each (labels, dims) and
reused, read-only, by every later reconstruct and bootstrap on an equal
table. An informationally incomplete table raises on every call.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from itertools import product as iproduct
from types import SimpleNamespace

import numpy as np

from .linalg import hermitize, path_or_handle, read_only

_QUBIT = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
    "Z": np.eye(2, dtype=complex),
}
_QUBIT_ORDER = ("X", "Y", "Z")
_INT64_MAX = int(np.iinfo(np.int64).max)


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


def label_dims(label: str) -> tuple:
    """Leg dimensions a setting label implies: a one-letter basis ('X')
    is a qubit leg's, any other ('01X') a qutrit leg's."""
    return tuple(2 if len(leg) == 1 else 3 for leg in label.split("/"))


def product_settings(dims) -> list[tuple[str, np.ndarray]]:
    """All products of per-leg bases; labels join leg labels with '/'."""
    labels, U = _settings(dims)
    return list(zip(labels, U.copy()))


def _settings(dims) -> tuple[tuple, np.ndarray]:
    """Labels and read-only (n, d, d) unitary stack of every product
    setting, shared by every call with the same dims (list or tuple)."""
    return _cached_settings(tuple(int(d) for d in dims))


@functools.lru_cache(maxsize=4)
def _cached_settings(dims: tuple) -> tuple[tuple, np.ndarray]:
    per_leg = [[lbl for lbl, _ in _leg_bases(d)] for d in dims]
    labels = tuple("/".join(combo) for combo in iproduct(*per_leg))
    return labels, read_only(_unitaries(labels, dims))


def _unitaries(labels, dims) -> np.ndarray:
    """(n, d, d) stack of the product unitaries the labels name, built by
    one broadcast multiply per leg: the products np.kron forms."""
    lookup = [dict(_leg_bases(int(d))) for d in dims]
    parts = [lbl.split("/") for lbl in labels]
    for lbl, part in zip(labels, parts):
        if len(part) != len(lookup):
            raise ValueError(f"setting {lbl!r} does not match {len(lookup)} "
                             "legs")
        for i, (leg, name) in enumerate(zip(lookup, part)):
            if name not in leg:
                raise ValueError(
                    f"setting {lbl!r}: unknown basis {name!r} on leg {i} "
                    f"(dimension {dims[i]}; expected one of {list(leg)})")
    n = len(labels)
    U = np.ones((n, 1, 1), dtype=complex)
    for i, leg in enumerate(lookup):
        a, b = U.shape[1], int(dims[i])
        B = np.array([leg[part[i]] for part in parts]).reshape(n, b, b)
        U = (U[:, :, None, :, None] * B[:, None, :, None, :]).reshape(
            n, a * b, a * b)
    return U


def born_probabilities(rho: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Outcome distribution of a basis measurement, or an (n, d) stack of
    them for an (n, d, d) stack of bases; clipped, normalized."""
    q = basis.conj().swapaxes(-1, -2) @ rho @ basis
    p = np.clip(np.real(np.diagonal(q, axis1=-2, axis2=-1)), 0, None)
    return p / p.sum(axis=-1, keepdims=True)


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
        # one pass over the whole table: a trailing 0 keeps every segment
        # start in range, and an empty setting's reductions go unread
        sizes = [c.size for c in counts]
        flat = np.concatenate([*(c.ravel() for c in counts), [0]])
        starts = np.cumsum([0, *sizes[:-1]])
        low = np.minimum.reduceat(flat, starts).tolist()
        total = np.add.reduceat(flat, starts).tolist()
        for lbl, size, lo, t, s in zip(self.labels, sizes, low, total, shots):
            if not size:
                raise ValueError(f"setting {lbl!r} has no outcomes")
            if lo < 0:
                raise ValueError("negative count")
            if t != s:
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
    shot per setting) and rounded to the nearest integer; the number of
    settings is odd (a product of 3s and 9s), so the rounding has no tie.
    """
    if not shots >= 1:  # NaN too
        raise ValueError(f"shots must be at least 1, got {shots}")
    labels, U = _settings(dims)
    n = len(labels)
    split = (2 * shots + n) // (2 * n)
    if not split <= _INT64_MAX:  # inf // n is NaN
        raise ValueError(f"shots {shots} over {n} settings is {split} per "
                         "setting, beyond the int64 range")
    shots_per = max(1, split)
    P = born_probabilities(gamma, U)
    # one 2-D draw takes the rows from the stream in setting order
    counts = np.random.default_rng(seed).multinomial(shots_per, P)
    return CountsTable(labels, tuple(counts), (shots_per,) * n)


def inversion_matrix(mats, d: int) -> np.ndarray:
    """Rows map vec(rho) to outcome probabilities, one row per outcome."""
    cols = np.asarray(mats).swapaxes(-1, -2)  # cols[n, k] = U_n[:, k]
    P = cols[:, :, :, None] * cols.conj()[:, :, None, :]
    return np.conjugate(P, out=P).reshape(-1, d * d)


def _pseudo_inverse(labels, dims) -> np.ndarray:
    """Read-only pseudo-inverse of the settings' inversion matrix, shared
    by every call with the same labels and dims (list or tuple)."""
    return _cached_pseudo_inverse(tuple(labels), tuple(int(x) for x in dims))


@functools.lru_cache(maxsize=4)
def _cached_pseudo_inverse(labels: tuple, dims: tuple) -> np.ndarray:
    """One SVD gives both the rank (matrix_rank's tolerance) and the inverse
    (pinv's formula). Raises when the settings are informationally
    incomplete for the dimensions; a raise is not cached.
    """
    d = math.prod(dims)
    A = inversion_matrix(_unitaries(labels, dims), d)
    # conjugated in place, so no second (rows, d * d) array is live in the SVD
    u, s, vt = np.linalg.svd(np.conjugate(A, out=A), full_matrices=False)
    smax = s.max(initial=0.0)
    rank = int(np.count_nonzero(
        s > smax * (max(A.shape) * np.finfo(s.dtype).eps)))
    if rank < d * d:
        raise ValueError(
            f"settings are informationally incomplete: rank {rank} < {d * d}")
    # rank d * d takes d + 1 settings or more (each adds at most d - 1
    # independent rows), so A has 6 rows or more, the rank tolerance
    # max(A.shape) * eps exceeds pinv's 1e-15 cutoff and pinv keeps every
    # singular value
    return read_only(vt.T @ ((1 / s)[:, None] * u.T))


def _frequencies(counts: CountsTable, d: int) -> np.ndarray:
    """(settings, d) outcome frequencies of a table whose every setting has
    d outcomes and at least one shot."""
    for lbl, c in zip(counts.labels, counts.counts):
        if len(c) != d:
            raise ValueError(f"setting {lbl!r} has {len(c)} outcomes; "
                             f"expected {d}")
        if not c.sum():
            raise ValueError(f"setting {lbl!r} has no shots")
    c = np.array(counts.counts)
    return c / c.sum(axis=-1, keepdims=True)


def simplex_projection(evals: np.ndarray) -> np.ndarray:
    """Euclidean projection of real spectra onto the unit simplex, along the
    last axis (Smolin, Gambetta and Smith, PRL 108, 070502)."""
    u = np.sort(evals, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    ks = np.arange(1, u.shape[-1] + 1)
    # k: the largest index (from 1) with u_k > (css_k - 1) / k
    k = ks[-1] - np.argmax((u - (css - 1) / ks > 0)[..., ::-1], axis=-1)
    tau = (np.take_along_axis(css, k[..., None] - 1, axis=-1)[..., 0] - 1) / k
    return np.clip(evals - tau[..., None], 0, None)


def _estimate(inv: np.ndarray, freqs: np.ndarray, d: int) -> np.ndarray:
    """(m, d, d) states from m stacked frequency vectors: linear inversion,
    then each spectrum projected onto the simplex."""
    # a stacked matvec per row: one (m, n) @ (n, d^2) matmul rounds
    # differently
    rho = hermitize(np.matmul(inv, freqs[:, :, None]).reshape(-1, d, d))
    w, v = np.linalg.eigh(rho)
    w = simplex_projection(w)
    return (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)


def reconstruct(counts: CountsTable, dims) -> np.ndarray:
    """Linear inversion of outcome frequencies, projected to a state.

    Raises when the settings in the table are informationally incomplete
    for the requested dimensions, or when a setting lacks outcomes or shots.
    """
    d = math.prod(int(x) for x in dims)
    inv = _pseudo_inverse(counts.labels, dims)
    return _estimate(inv, _frequencies(counts, d).reshape(1, -1), d)[0]


def resample_counts(counts: CountsTable, rng) -> CountsTable:
    """One bootstrap resample: multinomial redraw per setting."""
    c = np.array(counts.counts)
    new = rng.multinomial(counts.shots, c / c.sum(axis=-1, keepdims=True))
    return CountsTable(counts.labels, tuple(new), counts.shots)


def bootstrap(counts: CountsTable, dims, statistic, resamples: int = 500,
              seed=None) -> tuple[float, float]:
    """Bootstrap mean and standard error of statistic(reconstructed state).

    Each resample redraws every setting's counts with its own generator,
    spawned from seed, so the result does not depend on evaluation order.
    All resamples share the table's cached pseudo-inverse and are
    projected as one batch; each state is the one reconstruct() gives for
    the same redrawn counts.
    """
    if resamples < 2:
        raise ValueError("need at least 2 resamples")
    # a resample's redrawn counts, frequencies and state take 35-42 bytes
    # a count entry on lambda and omega: 2**24 entries bound them at 0.7 GiB
    entries = sum(map(len, counts.counts))
    if resamples * entries > 2 ** 24:
        raise ValueError(f"resamples {resamples} of {entries} count entries "
                         "each redraw over 2**24 counts")
    d = math.prod(int(x) for x in dims)
    inv = _pseudo_inverse(counts.labels, dims)
    p = _frequencies(counts, d)
    children = np.random.SeedSequence(seed).spawn(resamples)
    draws = np.array([np.random.default_rng(child).multinomial(
        counts.shots, p) for child in children])
    freqs = draws / draws.sum(axis=-1, keepdims=True)
    states = _estimate(inv, freqs.reshape(resamples, -1), d)
    vals = np.array([float(statistic(rho)) for rho in states])
    return float(vals.mean()), float(vals.std())


_CSV_COLUMNS = ("setting", "outcome", "count")


def counts_to_csv(counts: CountsTable, path) -> None:
    """Write the table as `setting,outcome,count` rows, CRLF-terminated,
    each label quoted as csv.writer quotes a field."""
    quoted = []  # each label in a row (label, ''), which ends ',\r\n'
    csv.writer(SimpleNamespace(write=quoted.append)).writerows(
        (lbl, "") for lbl in counts.labels)
    lines = [",".join(_CSV_COLUMNS) + "\r\n"]
    for q, c in zip(quoted, counts.counts):
        q = q[:-2]
        lines += [f"{q}{k},{n}\r\n" for k, n in enumerate(c.tolist())]
    with path_or_handle(path, "w") as fh:
        fh.write("".join(lines))


def _not_integer(lbl, column: str, cell) -> ValueError:
    return ValueError(f"setting {lbl!r}: column {column!r} holds {cell!r}, "
                      "not an integer")


def counts_from_csv(path) -> CountsTable:
    """Read a counts CSV: a header naming setting, outcome and count once
    each (in any order, after an optional UTF-8 byte-order mark), then one
    row per (setting, outcome). Rows are checked in file order, so an error
    names the first offending row; a short row's missing cells read None,
    and a row without its setting cell is named by the line it ends on.
    """
    with path_or_handle(path, encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:  # e.g. a cell longer than csv.field_size_limit()
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:
            raise ValueError(f"counts table line {reader.line_num}: {exc}"
                             ) from None
    header = rows[0][1] if rows else []
    missing = [c for c in _CSV_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"counts table lacks column(s) {missing}")
    repeated = [c for c in _CSV_COLUMNS if header.count(c) > 1]
    if repeated:
        raise ValueError(f"counts table names column(s) {repeated} more "
                         "than once")
    body = [(line, row) for line, row in rows[1:] if row]  # blank: []
    if not body:
        raise ValueError("counts table has no rows")
    at_s, at_k, at_n = map(header.index, _CSV_COLUMNS)
    width = max(at_s, at_k, at_n) + 1
    per = {}  # setting -> {outcome: count}, in file order
    for line, row in body:
        if len(row) < width:
            row += [None] * (width - len(row))
        lbl, k, n = row[at_s], row[at_k], row[at_n]
        if lbl is None:
            raise ValueError(f"counts table line {line} has no cell for "
                             "column 'setting'")
        try:
            k = int(k)
        except (TypeError, ValueError):
            raise _not_integer(lbl, "outcome", k) from None
        try:
            n = int(n)
        except (TypeError, ValueError):
            raise _not_integer(lbl, "count", n) from None
        outcomes = per.setdefault(lbl, {})
        if k < 0:
            raise ValueError(f"setting {lbl!r} has negative outcome {k}")
        if k in outcomes:
            raise ValueError(f"setting {lbl!r} lists outcome {k} twice")
        if n < 0:
            raise ValueError(f"setting {lbl!r} has negative count {n} for "
                             f"outcome {k}")
        outcomes[k] = n
    values, sizes, shots = [], [], []
    for lbl, outcomes in per.items():
        # distinct outcomes >= 0 cover 0..m-1 exactly when the largest is m-1
        m = len(outcomes)
        if max(outcomes) != m - 1:
            gap = next(k for k in range(m) if k not in outcomes)
            raise ValueError(f"setting {lbl!r} has no row for outcome {gap}")
        ordered = [outcomes[k] for k in range(m)]
        total = sum(ordered)
        if total > _INT64_MAX:
            raise ValueError(f"setting {lbl!r}: column 'count' sums beyond "
                             "the int64 range")
        values += ordered
        sizes.append(m)
        shots.append(total)
    flat = np.array(values, dtype=np.int64)
    ends = np.cumsum(sizes).tolist()
    counts = [flat[a:b] for a, b in zip([0, *ends], ends)]
    return CountsTable(tuple(per), tuple(counts), tuple(shots))
