"""POVM instruments, validation, dual frames, and Haar-random projective
sampling.

All instruments here are measure-and-discard: elements are positive
operators on one input leg, summing to the identity. Dual frames are the
minimal-norm frames obtained by Gram inversion, which pins the convention
used everywhere downstream (recovery, span projections).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (Record, builtin, hermitize, is_hermitian, json_number,
                     json_object, kron, mat_from_json, mat_to_json)

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

GRAM_COND_MAX = 1e12
# max entrywise residual of sum(elements) - 1 an instrument may carry
COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PovmElement(Record):
    """One element: its matrix, as complex, and its label."""
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           np.asarray(self.matrix, dtype=complex))
        super().__post_init__()
        if not is_hermitian(self.matrix):
            raise ValueError(f"element {self.label!r} is not Hermitian")
        w = np.linalg.eigvalsh(hermitize(self.matrix))
        if w.min() < -1e-10 or w.max() > 1 + 1e-10:
            raise ValueError(
                f"element {self.label!r} eigenvalues outside [0, 1]")


@dataclass(frozen=True, eq=False)
class Instrument(Record):
    """Elements summing to the identity. Compared and hashed by identity,
    so a process can key the event tables it keeps on it. A pickle holds
    the elements and name; the dual frame is built again on first use."""
    elements: tuple[PovmElement, ...]
    name: str = ""

    def __post_init__(self):
        super().__post_init__()
        if not self.elements:
            raise ValueError("instrument needs at least one element")
        dims = {e.matrix.shape for e in self.elements}
        if len(dims) != 1:
            raise ValueError("element dimensions disagree")
        total = sum(e.matrix for e in self.elements)
        resid = float(np.abs(total - np.eye(self.dim)).max())
        if resid > COMPLETENESS_TOL:
            raise ValueError(
                f"instrument {self.name!r}: elements do not sum to the "
                f"identity (max entrywise residual {resid:.3g})")

    @property
    def dim(self) -> int:
        return self.elements[0].matrix.shape[0]

    def __len__(self) -> int:
        return len(self.elements)

    def matrices(self) -> list[np.ndarray]:
        return [e.matrix for e in self.elements]

    @cached_property
    def _dual_frame(self) -> DualFrame:
        """dual_frame's result: kept once built, since the elements cannot
        change; a failure is not kept, so it raises on every call."""
        mats = self.matrices()
        G = gram_matrix(mats)
        cond = np.linalg.cond(G)
        if not np.isfinite(cond) or cond > GRAM_COND_MAX:
            raise ValueError(
                f"instrument elements are not linearly independent "
                f"(Gram condition number {cond:.2e})")
        Ginv = np.linalg.inv(G)
        duals = tuple(hermitize(sum(Ginv[y, x] * m
                                    for y, m in enumerate(mats)))
                      for x in range(len(mats)))
        return DualFrame(duals, G)


@dataclass(frozen=True, eq=False)
class DualFrame(Record):
    duals: tuple[np.ndarray, ...]
    gram: np.ndarray


def instrument(mats, name: str = "") -> Instrument:
    els = tuple(PovmElement(m, f"{name}[{i + 1}]")
                for i, m in enumerate(mats))
    return Instrument(els, name)


def theta_povm() -> Instrument:
    """Three-element qubit POVM built from two non-orthogonal projectors.

    Element 1 = (2-sqrt2)|1><1|, element 2 = (2-sqrt2)|-><-|, element 3
    completes to the identity. The common weight 2-sqrt2 = sqrt2/(1+sqrt2)
    is the largest for which element 3 stays positive.
    """
    w = 2 - np.sqrt(2.0)
    e1 = w * np.array([[0, 0], [0, 1]], dtype=complex)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    e2 = w * np.outer(minus, minus.conj())
    e3 = np.eye(2, dtype=complex) - e1 - e2
    return instrument([e1, e2, e3], "theta")


_RT2 = float(np.sqrt(2.0))

# tabulated Born weights of the theta events on the two-qubit process:
# preset references and recovery.reference_recovered_lambda's weights
_REF_THETA_WEIGHTS = (2.0 * (3.0 - 2.0 * _RT2),
                      2.0 * (3.0 - 2.0 * _RT2),
                      8.0 * _RT2 - 11.0)


TETRA_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def tetra_povm() -> Instrument:
    """Symmetric four-element qubit POVM; Bloch vectors point to the corners
    of a regular tetrahedron (each element rank 1 with eigenvalue 1/2)."""
    mats = []
    for signs in TETRA_SIGNS:
        m = np.eye(2, dtype=complex)
        for c, sig in zip(signs, PAULI[1:]):
            m = m + (c / np.sqrt(3.0)) * sig
        mats.append(m / 4)
    return instrument(mats, "tetra")


def xi_noisy() -> Instrument:
    """Two-element qutrit instrument: the 01-subspace projector and |2><2|.

    Blind to everything inside the 01 subspace, so it cannot resolve the
    subspace correlations of the qubit-qutrit-qubit process.
    """
    p01 = np.diag([1, 1, 0]).astype(complex)
    p2 = np.diag([0, 0, 1]).astype(complex)
    return instrument([p01, p2], "xi")


def qutrit_sharp() -> Instrument:
    """Five-element qutrit instrument: the tetrahedral POVM embedded in the
    01 subspace (events 1..4) plus |2><2| (event 5). Coarse-graining events
    1..4 reproduces the first element of xi_noisy."""
    mats = []
    for m in tetra_povm().matrices():
        big = np.zeros((3, 3), dtype=complex)
        big[:2, :2] = m
        mats.append(big)
    mats.append(np.diag([0, 0, 1]).astype(complex))
    return instrument(mats, "qutrit_sharp")


def z_basis(dim: int = 2) -> Instrument:
    return instrument([np.diag((np.arange(dim) == k).astype(complex))
                       for k in range(dim)], "z")


INSTRUMENTS = {"theta": theta_povm, "tetra": tetra_povm, "xi": xi_noisy,
               "qutrit_sharp": qutrit_sharp, "z": z_basis}


def instrument_by_name(name: str) -> Instrument:
    return builtin(INSTRUMENTS, name, "instrument")[1]()


def validate(inst: Instrument) -> dict:
    """PSD and completeness residuals (the latter a Frobenius norm).
    Raises nothing; diagnostic only. There is no pass/fail flag: the
    Instrument constructor already applies the tests (entries of sum - 1
    within 1e-10), so a bad file fails when it is loaded."""
    psd = []
    for e in inst.elements:
        w = np.linalg.eigvalsh(hermitize(e.matrix))
        psd.append(float(max(0.0, -w.min())))
    deviation = sum(inst.matrices()) - np.eye(inst.dim)
    return {"psd_violations": psd,
            "completeness_residual": float(np.linalg.norm(deviation))}


def gram_matrix(mats) -> np.ndarray:
    """Pairwise tr[O_x O_y]; the Hilbert-Schmidt Gram for Hermitian mats."""
    n = len(mats)
    G = np.zeros((n, n), dtype=complex)
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            G[i, j] = np.trace(a @ b)
    return G


def dual_frame(inst: Instrument) -> DualFrame:
    """Minimal-norm dual frame: tr[dual_x element_y] = delta_xy.

    Built by inverting the Gram matrix G_xy = tr[O_x O_y], the same
    pairing the Born rule uses, so expansions in the dual frame report
    the raw event probabilities. Requires the elements to be linearly
    independent (condition number below 1e12). Built once per instrument
    and kept on it, with read-only duals and Gram matrix.
    """
    return inst._dual_frame


def span_project(m: np.ndarray, mats) -> np.ndarray:
    """Orthogonal projection of m onto span{mats} (Hilbert-Schmidt)."""
    m = np.asarray(m)
    basis = np.reshape(mats, (len(mats), -1))
    g = basis.conj() @ basis.T
    coeff = np.linalg.solve(g, basis.conj() @ m.reshape(-1))
    return (coeff @ basis).reshape(m.shape)


def random_projective(seed) -> Instrument:
    """Haar-random two-element projective qubit instrument {P, 1 - P}."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    P = np.outer(v, v.conj())
    return instrument([P, np.eye(2, dtype=complex) - P], "random_projective")


def instrument_to_json(inst: Instrument) -> dict:
    return {"dim": inst.dim, "name": inst.name,
            "elements": [mat_to_json(m) for m in inst.matrices()]}


def instrument_from_json(obj: dict) -> Instrument:
    """Instrument from {dim, elements, name (optional)}; errors name the
    field."""
    json_object(obj, ("dim", "elements"), "instrument file")
    dim = json_number(obj["dim"], "instrument 'dim'", 1, integer=True)
    name, elements = obj.get("name", ""), obj["elements"]
    if not isinstance(name, str):
        raise ValueError(f"instrument 'name' must be a string, got {name!r}")
    if not isinstance(elements, list) or not elements:
        raise ValueError("instrument 'elements' must be a non-empty list of "
                         "matrices")
    mats = [mat_from_json(e, f"instrument 'elements' entry {i}")
            for i, e in enumerate(elements)]
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise ValueError(f"instrument 'elements' entry {i} is "
                             f"{m.shape[0]} x {m.shape[1]}, but 'dim' is "
                             f"{dim}")
    return instrument(mats, name)
