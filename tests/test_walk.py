"""Quantum-walk execution, POVM extraction, frame alignment, circuit IO."""
import sys
import warnings

import numpy as np
import pytest

from proctensor import walk
from proctensor.instruments import instrument_by_name
from proctensor.walk import (
    BITFLIP, WalkCircuit, _su2_from_rotation, align_frames,
    apply_coins,
    bloch_vector, circuit_by_name, circuit_from_json, circuit_to_json,
    coin_state, extract_povm, load_circuit, port_probabilities,
    run_protocol, save_circuit, tetra_circuit, theta_circuit, translate)


def rand_coin(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def rand_su2(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.sqrt(np.linalg.det(q) + 0j)


def test_walk_state_and_translate():
    s = coin_state([1, 0])
    assert s.positions == (0,)
    t = translate(s)
    # H amplitude moves left, the vacuous V entry rides along at zero
    assert t.amplitudes[(-1, 0)] == 1
    assert t.amplitudes.get((1, 1), 0) == 0
    s = coin_state(np.array([1, 1]) / np.sqrt(2))
    t = translate(s)
    assert t.positions == (-1, 1)
    with pytest.raises(ValueError, match="coin state norm 2.0"):
        coin_state([1, 1])


def test_apply_coins_checks_and_warns():
    s = coin_state([1, 0])
    with pytest.raises(ValueError):
        apply_coins(s, {0: np.eye(3)})
    with pytest.raises(ValueError):
        apply_coins(s, {0: np.array([[1, 1], [0, 1]], dtype=complex)})
    with pytest.warns(UserWarning):
        apply_coins(s, {5: np.eye(2, dtype=complex)})
    flipped = apply_coins(s, {0: BITFLIP})
    assert np.isclose(flipped.amplitudes[(0, 1)], 1.0)


def test_run_protocol_applies_the_checked_coins(monkeypatch):
    # WalkCircuit checks its coins once; a run does not check them again
    circuit = tetra_circuit()
    calls = []
    check = walk._check_unitary
    monkeypatch.setattr(walk, "_check_unitary",
                        lambda U, x: calls.append(x) or check(U, x))
    run_protocol([1, 0], circuit)
    assert calls == []
    apply_coins(coin_state([1, 0]), {0: BITFLIP})
    assert calls == [0]
    bad = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        apply_coins(coin_state([1, 0]), {0: bad})
    with pytest.raises(ValueError, match="not unitary"):
        WalkCircuit(({0: bad},), {-1: 1, 1: 2})


def test_norm_conservation_along_run():
    rng = np.random.default_rng(22)
    for circuit in (theta_circuit(), tetra_circuit()):
        for _ in range(20):
            out = run_protocol(rand_coin(rng), circuit)
            total = sum(abs(a) ** 2 + abs(b) ** 2 for a, b in out.values())
            assert np.isclose(total, 1.0, atol=1e-12)


def test_port_probabilities_sum_to_one():
    rng = np.random.default_rng(23)
    for circuit in (theta_circuit(), tetra_circuit()):
        for _ in range(20):
            probs = port_probabilities(rand_coin(rng), circuit)
            assert set(probs) == set(circuit.ports)
            assert np.isclose(sum(probs.values()), 1.0, atol=1e-12)


def test_extract_theta_matches_target_literally():
    inst = extract_povm(theta_circuit())
    target = instrument_by_name("theta")
    dev = max(np.max(np.abs(a.matrix - b.matrix))
              for a, b in zip(inst.elements, target.elements))
    assert dev < 1e-12


def test_extract_tetra_matches_in_a_rotated_frame():
    inst = extract_povm(tetra_circuit())
    target = instrument_by_name("tetra")
    assert len(inst) == 4
    assert np.allclose(sum(inst.matrices()), np.eye(2), atol=1e-10)
    lit = max(np.max(np.abs(a.matrix - b.matrix))
              for a, b in zip(inst.elements, target.elements))
    assert lit > 0.1  # the printed coins realize a rotated tetrahedron
    U, resid = align_frames(target.matrices(), inst.matrices())
    assert resid < 1e-10
    assert np.allclose(U.conj().T @ U, np.eye(2), atol=1e-10)


def test_extract_povm_born_consistency():
    rng = np.random.default_rng(24)
    for circuit in (theta_circuit(), tetra_circuit()):
        inst = extract_povm(circuit)
        by_port = circuit.ports
        for _ in range(50):
            v = rand_coin(rng)
            probs = port_probabilities(v, circuit)
            for port, pr in probs.items():
                e = inst.elements[by_port[port] - 1].matrix
                assert np.isclose(pr, (v.conj() @ e @ v).real, atol=1e-12)


def test_extract_povm_rejects_bad_port_maps():
    base = theta_circuit()
    with pytest.raises(ValueError):
        WalkCircuit(base.steps, {0: 2, 2: 2, 4: 1})
    with pytest.raises(ValueError):
        WalkCircuit(base.steps, {0: 3, 2: 4, 4: 1})
    # walker reaches a port the map does not declare
    short = WalkCircuit(base.steps, {0: 1, 2: 2})
    with pytest.raises(ValueError):
        extract_povm(short)


def test_unreachable_coin_warning_from_direct_run():
    # a coin where the walker has no amplitude warns only from the public
    # single-step call, at the caller's line
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        line = sys._getframe().f_lineno + 1
        apply_coins(coin_state([1, 0]), {1: BITFLIP})
    assert [(x.filename, x.lineno) for x in w] == [(__file__, line)]
    assert "unreachable positions [1]" in str(w[0].message)
    # runs of the built-in circuits, whose first coins leave one basis
    # input's branch empty, do not warn
    for circ in (theta_circuit(), tetra_circuit()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for coin in ([1, 0], [0, 1]):
                run_protocol(coin, circ)
                port_probabilities(coin, circ)
            extract_povm(circ)


def test_bloch_vector():
    assert np.allclose(bloch_vector(np.eye(2)), [0, 0, 0])
    assert np.allclose(bloch_vector(np.diag([1.0, -1.0])), [0, 0, 1])
    with pytest.raises(ValueError):
        bloch_vector(np.eye(3))


def test_align_frames_identity_and_random_rotations():
    rng = np.random.default_rng(25)
    tetra = instrument_by_name("tetra").matrices()
    U0, r0 = align_frames(tetra, tetra)
    assert r0 < 1e-12
    for _ in range(20):
        U = rand_su2(rng)
        rotated = [U @ m @ U.conj().T for m in tetra]
        _, resid = align_frames(tetra, rotated)
        assert resid < 1e-10
    # coplanar Bloch vectors (rank-deficient fit) still align
    theta = instrument_by_name("theta").matrices()
    for _ in range(20):
        U = rand_su2(rng)
        rotated = [U @ m @ U.conj().T for m in theta]
        _, resid = align_frames(theta, rotated)
        assert resid < 1e-10
    # half-turn conjugations exercise the negative-trace branch
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    rotated = [sx @ m @ sx for m in tetra]
    _, resid = align_frames(tetra, rotated)
    assert resid < 1e-10
    with pytest.raises(ValueError):
        align_frames(tetra, tetra[:3])


def test_align_frames_reports_true_mismatch():
    tetra = instrument_by_name("tetra").matrices()
    # swapping one pair only is not a rotation of the tetrahedron
    permuted = [tetra[1], tetra[0], tetra[2], tetra[3]]
    _, resid = align_frames(tetra, permuted)
    assert resid > 0.1


def _align_four_candidates(target_mats, mats):
    """Reference: the search over {R, R^T} x {U, U^dag} that align_frames
    once scored, R the det-corrected Procrustes rotation; the first of
    equal residuals wins."""
    va = np.array([bloch_vector(m) for m in target_mats])
    vb = np.array([bloch_vector(m) for m in mats])
    u, _, vt = np.linalg.svd(vb.T @ va)
    d1 = np.diag([1.0, 1.0, float(np.linalg.det(vt.T @ u.T))])
    d2 = np.diag([1.0, 1.0, float(np.linalg.det(u @ vt))])
    best = None
    for rot in (vt.T @ d1 @ u.T, u @ d2 @ vt):
        cand = _su2_from_rotation(rot)
        for op in (cand, cand.conj().T):
            resid = max(float(np.max(np.abs(a - op @ b @ op.conj().T)))
                        for a, b in zip(target_mats, mats))
            if best is None or resid < best[1]:
                best = (op, resid)
    return best


def test_align_frames_matches_four_candidate_search():
    rng = np.random.default_rng(26)
    for name in ("tetra", "theta"):
        target = instrument_by_name(name).matrices()
        for _ in range(500):
            U = rand_su2(rng)
            rotated = [U @ m @ U.conj().T for m in target]
            _, resid = align_frames(target, rotated)
            _, ref = _align_four_candidates(target, rotated)
            assert resid <= ref + 1e-15
    # both built-in circuits: the rotation and residual are bit-equal
    for circuit in (theta_circuit(), tetra_circuit()):
        target = instrument_by_name(circuit.name).matrices()
        got = extract_povm(circuit).matrices()
        U, resid = align_frames(target, got)
        U_ref, ref = _align_four_candidates(target, got)
        assert np.array_equal(U, U_ref) and resid == ref


def test_circuit_json_roundtrip(tmp_path):
    for circ in (theta_circuit(), tetra_circuit()):
        back = circuit_from_json(circuit_to_json(circ))
        assert back.ports == circ.ports
        a = extract_povm(circ).matrices()
        b = extract_povm(back).matrices()
        for x, y in zip(a, b):
            assert np.allclose(x, y, atol=1e-14)
    path = tmp_path / "circ.json"
    save_circuit(theta_circuit(), path)
    loaded = load_circuit(path)
    assert loaded.name == "theta"
    assert loaded.ports == theta_circuit().ports


def test_circuit_from_json_bitflip_shortcut():
    obj = {"name": "mini",
           "steps": [{"coins": {"0": "bitflip"}}],
           "ports": [[-1, 1], [1, 2]]}
    circ = circuit_from_json(obj)
    assert np.allclose(circ.steps[0][0], BITFLIP)
    probs = port_probabilities([1, 0], circ)
    # bitflip sends the H coin to V, which then moves right
    assert np.isclose(probs[1], 1.0)


def test_circuit_by_name():
    assert circuit_by_name("theta").name == "theta"
    with pytest.raises(KeyError):
        circuit_by_name("walkabout")


def test_saved_circuit_ends_with_newline_and_loads(tmp_path):
    path = tmp_path / "theta.json"
    circuit = theta_circuit()
    save_circuit(circuit, path)
    text = path.read_bytes()
    assert text.endswith(b"]\n}\n")
    assert circuit_to_json(load_circuit(path)) == circuit_to_json(circuit)
