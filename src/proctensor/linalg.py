"""Dense complex linear algebra on small tensor legs, the base of the
package's read-only array records, and JSON file helpers.

Everything here operates on plain numpy arrays. Entropic quantities are in
bits (log base 2) throughout the package; eigenvalues below CLIP_EPS are
treated as exact zeros when taking logarithms.

The two-state metrics (relative_entropy, fidelity, trace_distance) take
one pair of states or two stacks (..., d, d) of equal shape, giving a
float or one value per pair; any other pair, a stack against one state
included, is refused with a message naming both shapes.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os

import numpy as np

# density checks: entrywise Hermiticity, least eigenvalue, unit trace
HERM_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-8
CLIP_EPS = 1e-12


def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.abs(m - m.conj().swapaxes(-1, -2)).max() <= HERM_TOL)


def read_only(m: np.ndarray) -> np.ndarray:
    """m, set to raise on any in-place write: for arrays that are kept."""
    m.setflags(write=False)  # half the cost of assigning flags.writeable
    return m


def _private(value):
    """value, with every ndarray in it, alone or inside tuples and dicts,
    replaced by a read-only copy."""
    if isinstance(value, np.ndarray):
        return read_only(np.array(value))
    if isinstance(value, tuple):
        return tuple(map(_private, value))
    if isinstance(value, dict):
        return {k: _private(v) for k, v in value.items()}
    return value


class Record:
    """Base of the package's array records, frozen dataclasses declared
    eq=False: compared and hashed by identity, since arrays give a
    generated __eq__ no truth value. __post_init__, which a subclass's own
    calls, replaces every ndarray field, and every ndarray in a tuple or
    dict field, by a read-only private copy, so nothing a record derives
    goes stale and the caller's arrays stay writable. A record pickles as
    its fields alone and reruns __post_init__ on load, rebuilding what it
    derives and copying again the arrays numpy unpickles writable."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _private(getattr(self, f.name)))

    def __getstate__(self):
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    def __setstate__(self, state):
        vars(self).update(state)
        self.__post_init__()


def hermitize(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def kron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of matrices, left to right, as complex: the
    broadcast product np.kron forms, without its generic dispatch. Stacks
    (..., r, c) of equal length multiply matrix by matrix."""
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        m = np.asarray(m, dtype=complex)
        (a, b), (c, e) = out.shape[-2:], m.shape[-2:]
        out = out[..., :, None, :, None] * m[..., None, :, None, :]
        out = out.reshape(*out.shape[:-4], a * c, b * e)
    return out


def partial_trace(m: np.ndarray, dims: tuple[int, ...],
                  keep: tuple[int, ...]) -> np.ndarray:
    """Trace out all legs not in keep; kept legs stay in the order of m.

    dims lists every leg dimension of the square matrix m, or of each
    matrix of a stack (..., d, d); keep holds leg positions, strictly
    increasing. The dropped legs are traced in leg order. Trace is
    preserved: tr(result) = tr(m).
    """
    n = len(dims)
    keep = tuple(keep)
    if any(k < 0 or k >= n for k in keep):
        raise IndexError("keep positions out of range")
    if any(a >= b for a, b in zip(keep, keep[1:])):
        raise ValueError(f"keep must list leg positions in strictly "
                         f"increasing order, got {keep}")
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2:] != (math.prod(dims),) * 2:
        raise ValueError("dims do not match matrix shape")
    lead = m.shape[:-2]
    t = m.reshape(*lead, *dims, *dims)
    drop = [i for i in range(n) if i not in keep]
    for off, i in enumerate(drop):
        ax = len(lead) + i - off
        t = t.trace(axis1=ax, axis2=ax + (n - off))
    d_keep = math.prod(dims[i] for i in keep)
    return t.reshape(*lead, d_keep, d_keep)


def check_density(rho: np.ndarray, vectors: bool = False):
    """Raise unless rho, or every state of a stack (..., d, d), is
    Hermitian, positive semidefinite and of unit trace; a stack's error
    quotes its first failing state. Returns the spectrum of hermitize(rho)
    the check computed: eigvalsh's eigenvalues, or eigh's (w, v) when
    vectors is set, so a caller reuses it instead of decomposing rho
    again. The conjugate transpose is formed once, for is_hermitian's
    test and hermitize's mean alike."""
    rho = np.asarray(rho)
    adj = rho.conj().swapaxes(-1, -2)
    if not np.abs(rho - adj).max() <= HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    h = (rho + adj) / 2
    spectrum = np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    w = spectrum[0] if vectors else spectrum
    # eigenvalues come in ascending order: w[..., 0] is each state's least
    bad = [x for x in w[..., 0].reshape(-1).tolist() if x < -PSD_TOL]
    if bad:
        raise ValueError(f"negative eigenvalue {bad[0]:.3e}")
    bad = [tr for tr in rho.trace(axis1=-2, axis2=-1).real.reshape(-1).tolist()
           if abs(tr - 1.0) > TRACE_TOL]
    if bad:
        raise ValueError(f"trace {bad[0]} deviates from 1")
    return spectrum


def von_neumann_entropy(rho: np.ndarray):
    """S(rho) = -sum e log2 e with 0 log 0 := 0; a float, or an array of
    one entropy per state for a stack (..., d, d). The eigenvalues above
    CLIP_EPS are the top of each ascending spectrum, one contiguous run,
    and a masked sum adds each run as np.sum adds it alone."""
    return _spectrum_entropy(check_density(rho))


def _spectrum_entropy(w: np.ndarray):
    """-sum w log2 w over the eigenvalues above CLIP_EPS of an ascending
    spectrum, or of each spectrum of a stack (..., d): von_neumann_entropy
    of a state whose check gave w."""
    keep = w > CLIP_EPS
    s = -(w * np.log2(np.where(keep, w, 1.0))).sum(-1, where=keep)
    return float(s) if s.ndim == 0 else s


def _same_shape(x: np.ndarray, y: np.ndarray) -> None:
    if np.shape(x) != np.shape(y):
        raise ValueError(f"operands have different shapes {np.shape(x)} "
                         f"and {np.shape(y)}")


def relative_entropy(x: np.ndarray, y: np.ndarray):
    """S(x||y) = tr[x(log x - log y)] in bits; a float, or an array of one
    divergence per pair for stacks (..., d, d).

    Raises if the support of x is not contained in the support of y.
    """
    _same_shape(x, y)
    return _relative_entropy(x, check_density(x, vectors=True)[0],
                             *check_density(y, vectors=True))


def _relative_entropy(x: np.ndarray, wx: np.ndarray, wy: np.ndarray,
                      vy: np.ndarray):
    """relative_entropy for a checked x whose eigh eigenvalues are wx and a
    checked y whose eigh is (wy, vy), or for stacks of them. y's kernel
    columns are masked, not sliced, since each state's kernel differs; a
    stack's support violation names its first failing state."""
    ker = wy <= CLIP_EPS
    if ker.any():
        k = vy * ker[..., None, :]
        bad = np.flatnonzero(np.linalg.norm(
            k.conj().swapaxes(-1, -2) @ x @ k, axis=(-2, -1)) > 1e-10)
        if bad.size:
            at = f" (state {bad[0]})" if wy.ndim > 1 else ""
            raise ValueError(f"support violation{at}: divergence is infinite")
    t1 = -_spectrum_entropy(wx)
    log_wy = np.log2(np.clip(wy, CLIP_EPS, None))
    log_y = (vy * log_wy[..., None, :]) @ vy.conj().swapaxes(-1, -2)
    s = t1 - np.trace(x @ log_y, axis1=-2, axis2=-1).real
    return float(s) if s.ndim == 0 else s


def fidelity(rho: np.ndarray, sigma: np.ndarray):
    """Squared fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 from the eigh
    of rho's density check; a float, or one per pair for stacks (..., d, d)."""
    _same_shape(rho, sigma)
    w, v = check_density(np.asarray(rho, dtype=complex), vectors=True)
    check_density(sigma)
    s = (v * np.sqrt(w.clip(0))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    w = np.clip(np.linalg.eigvalsh(hermitize(s @ sigma @ s)), 0, None)
    # pow squares as a float's ** 2 does; an array's ** 2, x * x, can differ
    f = np.float_power(np.sum(np.sqrt(w), axis=-1), 2)
    return float(f) if f.ndim == 0 else f


def trace_distance(a: np.ndarray, b: np.ndarray):
    """Half the trace norm of a - b; a float, or an array of one distance
    per pair for stacks (..., d, d)."""
    _same_shape(a, b)
    w = np.linalg.eigvalsh(hermitize(np.asarray(a) - np.asarray(b)))
    s = np.sum(np.abs(w), axis=-1) / 2
    return float(s) if s.ndim == 0 else s


def trace_norm(m: np.ndarray):
    """Sum of the singular values; a float, or an array of one norm per
    matrix for a stack (..., r, c)."""
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).sum(-1)
    return float(s) if s.ndim == 0 else s


def mat_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "re": np.real(m).reshape(-1).tolist(),
            "im": np.imag(m).reshape(-1).tolist()}


def json_object(obj, keys, what: str) -> dict:
    """obj, checked to be a JSON object holding every key in keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object with keys {list(keys)}, "
                         f"got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{what} lacks key(s) {missing}")
    return obj


def json_number(value, field: str, minimum: float | None = 0,
                integer: bool = False):
    """value, checked to be a finite JSON number, >= minimum unless that is
    None, and a whole one when integer is set; the error names field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{field} must be a finite number, got an integer "
                         f"of {len(str(abs(value)))} digits") from None
    if (minimum is not None and value < minimum
            or isinstance(value, float) and not (
                math.isfinite(value) and (value.is_integer() or not integer))):
        kind = "an integer" if integer else "a finite number"
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{field} must be {kind}{bound}, got {value!r}")
    return int(value) if integer else float(value)


def builtin(table: dict, name, kind: str):
    """(key, table[key]) for a built-in name: case and surrounding space
    ignored, '-' read as '_'. A KeyError names kind and the choices."""
    key = str(name).strip().lower().replace("-", "_")
    if key not in table:
        raise KeyError(f"unknown {kind} {name!r} (expected one of "
                       f"{', '.join(sorted(table))})")
    return key, table[key]


def mat_from_json(obj: dict, where: str = "matrix") -> np.ndarray:
    """Matrix from {rows, cols, re, im}; errors name the field, prefixed by
    where (the matrix's place in its file)."""
    json_object(obj, ("rows", "cols", "re", "im"), where)
    r, c = (json_number(obj[k], f"{where} field {k!r}", 1, integer=True)
            for k in ("rows", "cols"))
    parts = []
    for key in ("re", "im"):
        vals = obj[key]
        if not isinstance(vals, list) or not all(
                type(v) in (int, float) for v in vals):
            raise ValueError(f"{where} field {key!r} must be a flat list of "
                             "numbers")
        try:
            flat = np.array(vals, dtype=float)
        except OverflowError:  # an int beyond the float range
            raise ValueError(f"{where} field {key!r} holds a non-finite "
                             "entry") from None
        if flat.size != r * c:
            raise ValueError(f"{where} field {key!r} holds {flat.size} "
                             f"entries, expected rows*cols = {r * c}")
        if not np.isfinite(flat).all():
            raise ValueError(f"{where} field {key!r} holds a non-finite "
                             "entry")
        parts.append(flat.reshape(r, c))
    return parts[0] + 1j * parts[1]


@contextlib.contextmanager
def path_or_handle(target, mode: str = "r", encoding=None):
    """Open a path for the block and close it after, or pass an open
    handle through untouched."""
    if isinstance(target, (str, bytes, os.PathLike)):
        with open(target, mode, newline="", encoding=encoding) as fh:
            yield fh
    else:
        yield target


def write_json(obj, target) -> None:
    """Write obj to a path or an open handle in the package's JSON file
    format: indent 1, sorted keys and a final newline."""
    with path_or_handle(target, "w") as fh:
        fh.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")
