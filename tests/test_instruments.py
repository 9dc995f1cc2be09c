"""Instrument constructors, validation, Gram matrices, and dual frames."""
import numpy as np
import pytest

from proctensor.instruments import (
    Instrument, PovmElement, dual_frame, gram_matrix,
    instrument, instrument_by_name, instrument_from_json, instrument_to_json,
    qutrit_sharp, random_projective, span_project, tetra_povm, theta_povm,
    validate, xi_noisy, z_basis)


def test_theta_elements():
    inst = theta_povm()
    assert len(inst) == 3 and inst.dim == 2
    w = 2 - np.sqrt(2.0)
    assert np.allclose(inst.elements[0].matrix, w * np.diag([0, 1.0]))
    minus = np.array([1, -1]) / np.sqrt(2)
    assert np.allclose(inst.elements[1].matrix, w * np.outer(minus, minus))
    assert np.allclose(sum(inst.matrices()), np.eye(2))
    # third element is rank one: the completion weight saturates positivity
    ev = np.linalg.eigvalsh(inst.elements[2].matrix)
    assert np.isclose(ev[0], 0.0, atol=1e-12)


def test_tetra_geometry():
    inst = tetra_povm()
    assert len(inst) == 4
    mats = inst.matrices()
    for i, a in enumerate(mats):
        assert np.isclose(np.trace(a), 0.5)
        for j, b in enumerate(mats):
            ov = np.trace(a @ b).real
            assert np.isclose(ov, 0.25 if i == j else 1.0 / 12.0)


def test_xi_and_qutrit_sharp_coarse_grain():
    xi = xi_noisy()
    sharp = qutrit_sharp()
    assert len(xi) == 2 and len(sharp) == 5
    assert np.allclose(sum(sharp.matrices()[:4]), xi.matrices()[0])
    assert np.allclose(sharp.matrices()[4], xi.matrices()[1])
    # embedded tetrahedron keeps the third level untouched
    for m in sharp.matrices()[:4]:
        assert np.allclose(m[2, :], 0) and np.allclose(m[:, 2], 0)


def test_z_basis_and_lookup():
    z3 = z_basis(3)
    assert len(z3) == 3
    assert np.allclose(sum(z3.matrices()), np.eye(3))
    assert instrument_by_name("qutrit-sharp").name == "qutrit_sharp"
    with pytest.raises(KeyError):
        instrument_by_name("nope")


def test_element_and_instrument_validation():
    with pytest.raises(ValueError):
        PovmElement(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        PovmElement(np.diag([1.5, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        instrument([np.eye(2) / 2])  # does not sum to identity
    with pytest.raises(ValueError):
        instrument([np.eye(2), np.zeros((3, 3))])
    with pytest.raises(ValueError):
        Instrument(())
    rep = validate(theta_povm())
    assert "ok" not in rep and rep["completeness_residual"] < 1e-12


def test_gram_matrix_properties():
    for inst in (theta_povm(), tetra_povm(), xi_noisy(), qutrit_sharp()):
        G = gram_matrix(inst.matrices())
        assert np.allclose(G, G.conj().T)
        assert np.linalg.eigvalsh(G).min() > -1e-12


def test_dual_frame_duality():
    for name in ("theta", "tetra", "xi", "qutrit_sharp", "z"):
        inst = instrument_by_name(name)
        frame = dual_frame(inst)
        mats = inst.matrices()
        for x, d in enumerate(frame.duals):
            assert np.allclose(d, d.conj().T)
            for y, e in enumerate(mats):
                got = np.trace(d @ e)
                assert np.isclose(got, 1.0 if x == y else 0.0, atol=1e-10)


def test_dual_frame_reconstructs_span_members():
    rng = np.random.default_rng(12)
    for name in ("theta", "tetra", "xi"):
        inst = instrument_by_name(name)
        frame = dual_frame(inst)
        mats = inst.matrices()
        for _ in range(20):
            coeff = rng.normal(size=len(mats))
            m = sum(c * e for c, e in zip(coeff, mats))
            rebuilt = sum(np.trace(d @ m) * e
                          for d, e in zip(frame.duals, mats))
            assert np.max(np.abs(rebuilt - m)) < 1e-10


def test_dual_frame_rejects_dependent_elements():
    dep = instrument([np.eye(2) / 2, np.eye(2) / 2])
    with pytest.raises(ValueError):
        dual_frame(dep)


def test_element_matrix_is_a_read_only_copy():
    m = np.eye(2, dtype=complex) / 2
    e = PovmElement(m)
    with pytest.raises(ValueError, match="read-only"):
        e.matrix[0, 0] = 1.0
    m[0, 0] = 0.25
    assert e.matrix[0, 0] == 0.5


def test_dual_frame_kept_on_its_instrument_unless_it_fails():
    theta = instrument_by_name("theta")
    frame = dual_frame(theta)
    assert dual_frame(theta) is frame
    assert dual_frame(instrument_by_name("theta")) is not frame
    for m in (*frame.duals, frame.gram):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0.0
    dep = instrument([np.eye(2) / 2, np.eye(2) / 2])
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^instrument elements are not "
                           r"linearly independent \(Gram condition number "):
            dual_frame(dep)


def test_span_project():
    xi = xi_noisy()
    mats = xi.matrices()
    for m in mats:
        assert np.allclose(span_project(m, mats), m)
    # a 01-subspace observable is invisible to the noisy instrument
    sz01 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    proj = span_project(sz01, mats)
    assert np.isclose(np.linalg.norm(sz01 - proj), np.sqrt(2.0))
    rng = np.random.default_rng(13)
    theta = theta_povm().matrices()
    for _ in range(10):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        p1 = span_project(m, theta)
        assert np.allclose(span_project(p1, theta), p1)


def test_random_projective():
    a = random_projective(7)
    b = random_projective(7)
    assert np.array_equal(a.matrices()[0], b.matrices()[0])
    c = random_projective(8)
    assert not np.allclose(a.matrices()[0], c.matrices()[0])
    P = a.matrices()[0]
    assert np.allclose(P @ P, P)
    assert np.allclose(sum(a.matrices()), np.eye(2))


def test_instrument_json_roundtrip():
    for name in ("theta", "tetra", "xi"):
        inst = instrument_by_name(name)
        back = instrument_from_json(instrument_to_json(inst))
        assert back.name == inst.name
        for a, b in zip(back.matrices(), inst.matrices()):
            assert np.array_equal(a, b)
