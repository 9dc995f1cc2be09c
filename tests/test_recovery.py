"""Recovered-process reconstruction, observables, scans, noise replay."""
import io

import numpy as np
import pytest

from proctensor import recovery
from proctensor.instruments import (dual_frame, instrument,
                                    instrument_by_name, random_projective)
from proctensor.linalg import fidelity, kron, partial_trace
from proctensor.process import (born_probability, build_common_cause,
                                condition_instrument)
from proctensor.recovery import (
    Observable, deviation_scan, expectation, noisy_replay, observable,
    recover, reference_recovered_lambda, reference_recovered_omega,
    validate_observable)
from proctensor.states import state_by_name


def lam_process():
    g, dims = state_by_name("lambda")
    return build_common_cause(g, dims, (2, 2))


def ome_process():
    g, dims = state_by_name("omega")
    return build_common_cause(g, dims, (2, 3))


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_recover_preserves_born_statistics():
    for p, name in ((lam_process(), "theta"), (ome_process(), "xi")):
        inst = instrument_by_name(name)
        rec = recover(p, inst)
        for e in inst.elements:
            true_p = born_probability(p, b_element=e.matrix)
            rec_p = born_probability(rec, b_element=e.matrix)
            assert abs(true_p - rec_p) < 1e-12
        assert abs(born_probability(rec) - 1.0) < 1e-12


def test_recover_conditionals_are_product():
    p = lam_process()
    theta = instrument_by_name("theta")
    rec = recover(p, theta)
    true_conds = condition_instrument(p, "B", theta)
    for cond, true_cond in zip(condition_instrument(rec, "B", theta),
                               true_conds):
        rA = partial_trace(cond.state, (2, 2), (0,))
        rC = partial_trace(cond.state, (2, 2), (1,))
        assert np.max(np.abs(cond.state - kron(rA, rC))) < 1e-12
        # per-event marginals of the truth survive the reconstruction
        assert np.allclose(rA, partial_trace(true_cond.state, (2, 2), (0,)),
                           atol=1e-12)
        assert np.allclose(rC, partial_trace(true_cond.state, (2, 2), (1,)),
                           atol=1e-12)
        assert np.isclose(cond.probability, true_cond.probability,
                          atol=1e-12)


def test_recover_idempotent():
    p = lam_process()
    theta = instrument_by_name("theta")
    rec = recover(p, theta)
    rec2 = recover(rec, theta)
    assert np.max(np.abs(rec2.gamma - rec.gamma)) < 1e-10


def test_recover_reproduces_product_processes():
    # informationally complete middle instrument, product conditionals
    rng = np.random.default_rng(20)
    tetra = instrument_by_name("tetra")
    for _ in range(10):
        g = kron(random_density(rng, 2), random_density(rng, 2),
                 random_density(rng, 2))
        p = build_common_cause(g, (2, 2, 2), (2, 2))
        rec = recover(p, tetra)
        assert np.max(np.abs(rec.gamma - g)) < 1e-10


def test_recover_validation():
    p = lam_process()
    with pytest.raises(ValueError):
        recover(p, instrument_by_name("xi"))  # qutrit middle on qubits
    dep = instrument([np.eye(2) / 2, np.eye(2) / 2])
    with pytest.raises(ValueError):
        recover(p, dep)


def test_recovered_closed_forms():
    rec = recover(ome_process(), instrument_by_name("xi"))
    ref = reference_recovered_omega()
    assert np.max(np.abs(rec.gamma - ref)) < 1e-12
    rec_l = recover(lam_process(), instrument_by_name("theta"))
    ref_l = reference_recovered_lambda()
    assert np.isclose(np.trace(ref_l).real, 1.0, atol=1e-12)
    # tabulated weights disagree with the exact Born weights, so the
    # closed form sits a few parts in 1e3 away
    f = fidelity(rec_l.gamma, ref_l)
    assert np.isclose(f, 0.997418458822981, atol=1e-9)


def test_validate_observable():
    theta = instrument_by_name("theta")
    obs = observable(1.0, np.eye(2), np.eye(2), np.eye(2))
    rep = validate_observable(obs, theta)
    assert rep["pass"]
    obs = observable(1.0, np.eye(2), theta.matrices()[1], np.eye(2))
    assert validate_observable(obs, theta)["pass"]
    xi = instrument_by_name("xi")
    sz01 = np.diag([1.0, -1.0, 0.0])
    rep = validate_observable(observable(1.0, np.eye(2), sz01, np.eye(2)),
                              xi)
    assert not rep["pass"]
    assert np.isclose(rep["residuals"][0], np.sqrt(2.0))


def test_expectation_closed_form_on_span():
    rng = np.random.default_rng(21)
    p = lam_process()
    theta = instrument_by_name("theta")
    rec = recover(p, theta)
    for x, e in enumerate(theta.elements):
        prob, gA, gC = rec.events[x]
        for _ in range(5):
            ea = random_projective(rng.integers(1 << 31)).matrices()[0]
            ec = random_projective(rng.integers(1 << 31)).matrices()[0]
            got = expectation(rec, observable(1.0, ea, e.matrix, ec))
            want = prob * np.trace(ea @ gA).real * np.trace(ec @ gC).real
            assert np.isclose(got, want, atol=1e-12)


def test_expectation_identity_and_span_guard():
    p = lam_process()
    theta = instrument_by_name("theta")
    rec = recover(p, theta)
    one = observable(1.0, np.eye(2), np.eye(2), np.eye(2))
    assert np.isclose(expectation(p, one), 1.0)
    assert np.isclose(expectation(rec, one), 1.0)
    sy = np.array([[0, -1j], [1j, 0]])
    off = observable(1.0, np.eye(2), sy, np.eye(2))
    # true process accepts anything; the reconstruction must refuse
    expectation(p, off)
    with pytest.raises(ValueError):
        expectation(rec, off)
    with pytest.raises(ValueError):
        expectation(p, observable(1.0, np.eye(3), np.eye(2), np.eye(2)))


def test_observable_terms_coerced():
    obs = Observable(((1, [[1, 0], [0, 0]], np.eye(2), np.eye(2)),))
    c, a, b, g = obs.terms[0]
    assert isinstance(c, float) and a.dtype == complex


def test_scan_zero_for_identical_and_omega():
    p = ome_process()
    rec = recover(p, instrument_by_name("xi"))
    scan = deviation_scan(p, rec, grid=32)
    assert scan.max_abs_diff < 1e-12
    scan_same = deviation_scan(p, p, grid=16)
    assert scan_same.max_abs_diff == 0.0


def test_scan_lambda_frozen_maxima():
    p = lam_process()
    rec = recover(p, instrument_by_name("theta"))
    proj = deviation_scan(p, rec, grid=64, convention="projector")
    corr = deviation_scan(p, rec, grid=64, convention="correlator")
    assert np.isclose(proj.max_abs_diff, 0.007765718989647286, atol=1e-12)
    assert np.isclose(corr.max_abs_diff, 0.031062875958589017, atol=1e-12)
    assert np.all(proj.true_values >= -1e-12)
    assert np.all(proj.true_values <= 1 + 1e-12)
    assert np.isclose(proj.max_abs_diff, proj.abs_diff.max())


def test_scan_grid_shapes_and_validation():
    p = lam_process()
    rec = recover(p, instrument_by_name("theta"))
    scan = deviation_scan(p, rec, grid=8)
    assert scan.abs_diff.size == 81  # (8 + 1)^2, phases fixed
    full = deviation_scan(p, rec, grid=4, full=True)
    assert full.abs_diff.size == ((4 + 1) * 4) ** 2
    assert full.max_abs_diff >= scan.max_abs_diff - 1e-12
    with pytest.raises(ValueError):
        deviation_scan(p, rec, grid=64, full=True)
    with pytest.raises(ValueError):
        deviation_scan(p, rec, grid=1)
    with pytest.raises(ValueError):
        deviation_scan(p, rec, convention="other")
    # outer parties must be qubits; a qutrit first leg is rejected
    wide = kron(np.eye(3) / 3, np.eye(2) / 2, np.eye(2) / 2)
    pw = build_common_cause(wide, (3, 2, 2), (3, 2))
    with pytest.raises(ValueError):
        deviation_scan(pw, pw, grid=4)


class GridBuilt(Exception):
    pass


def test_scan_point_cap(monkeypatch):
    # every scan is capped at 2**22 points before its grid is built
    def build(*args):
        raise GridBuilt
    monkeypatch.setattr(recovery, "_bloch_vectors", build)
    recovery._scan_grid.cache_clear()
    p = lam_process()
    for grid, full in ((2048, False), (100000, False), (45, True)):
        with pytest.raises(ValueError, match=f"grid {grid} makes a scan"):
            deviation_scan(p, p, grid=grid, full=full)
    for grid, full in ((2047, False), (44, True)):  # the largest allowed
        with pytest.raises(GridBuilt):
            deviation_scan(p, p, grid=grid, full=full)


@pytest.mark.parametrize("full", [False, True], ids=["phases-0", "full"])
def test_scan_results_do_not_depend_on_scan_order(full):
    # the AC data and the grid are shared, so whichever scan builds them
    # first, each convention's arrays keep their bytes
    results = []
    for order in (("projector", "correlator"), ("correlator", "projector")):
        recovery._scan_grid.cache_clear()
        p = lam_process()
        rec = recover(p, instrument_by_name("theta"))
        results.append({c: deviation_scan(p, rec, grid=6, convention=c,
                                          full=full) for c in order})
    for conv in ("projector", "correlator"):
        a, b = (r[conv] for r in results)
        for name in ("thetas", "phases", "true_values", "recovered_values",
                     "abs_diff"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert (a.max_abs_diff, a.argmax) == (b.max_abs_diff, b.argmax)


def test_scan_shares_its_ac_data_and_grid(monkeypatch):
    # one AC reduction per process and one grid per (grid, full), kept
    # read-only, of which a scan keeps its own copy; the patched builders
    # see every miss
    ac, bloch, calls = recovery._ac_bloch_data, recovery._bloch_vectors, []

    def counted_ac(p):
        calls.append(type(p).__name__)
        return ac(p)

    def counted_grid(thetas, phases):
        calls.append(("grid", len(thetas), len(phases)))
        return bloch(thetas, phases)
    monkeypatch.setattr(recovery, "_ac_bloch_data", counted_ac)
    monkeypatch.setattr(recovery, "_bloch_vectors", counted_grid)
    recovery._scan_grid.cache_clear()
    p = lam_process()
    recs = [recover(p, instrument_by_name(n)) for n in ("theta", "tetra")]
    for rec in recs:
        for conv in ("projector", "correlator"):
            deviation_scan(p, rec, grid=5, convention=conv)
    scan = deviation_scan(p, recs[0], grid=5, full=True)
    assert calls == ["ProcessTensor", "RecoveredProcess", ("grid", 6, 1),
                     "RecoveredProcess", ("grid", 6, 5)]
    thetas, phases, n1 = recovery._scan_grid(5, True)
    for kept, grid_axis in ((scan.thetas, thetas), (scan.phases, phases)):
        assert kept is not grid_axis
        assert kept.tobytes() == grid_axis.tobytes()
    for arr in (*recovery._ac_bloch(p), *recovery._ac_bloch(recs[1]),
                thetas, phases, n1):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_failed_ac_reduction_is_not_kept():
    wide = kron(np.eye(3) / 3, np.eye(2) / 2, np.eye(2) / 2)
    pw = build_common_cause(wide, (3, 2, 2), (3, 2))
    for _ in range(2):
        with pytest.raises(ValueError, match="qubit outer parties"):
            deviation_scan(pw, pw, grid=4)
    assert "_ac_bloch" not in vars(pw)


def test_scan_csv():
    p = lam_process()
    rec = recover(p, instrument_by_name("theta"))
    scan = deviation_scan(p, rec, grid=4)
    buf = io.StringIO()
    scan.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "theta1,phi,theta2,psi,true,recovered,abs_diff"
    assert len(lines) == 1 + scan.abs_diff.size


def test_noisy_replay_extremes():
    g, dims = state_by_name("lambda")
    assert np.array_equal(noisy_replay(g, dims, 0.0), g)
    fully = noisy_replay(g, dims, 1.0)
    assert np.max(np.abs(fully - np.eye(8) / 8)) < 1e-12
    gn = noisy_replay(g, dims, 0.02)
    assert np.isclose(np.trace(gn).real, 1.0, atol=1e-12)
    assert np.linalg.eigvalsh(gn).min() > -1e-12
    assert np.isclose(fidelity(gn, g), 0.9996971090016966, atol=1e-10)
    # stronger noise moves further from the clean state
    f1 = fidelity(noisy_replay(g, dims, 0.01), g)
    f5 = fidelity(noisy_replay(g, dims, 0.05), g)
    assert f5 < f1 < 1.0


def test_noisy_replay_validation():
    g, dims = state_by_name("lambda")
    with pytest.raises(ValueError):
        noisy_replay(g, dims, 1.5)
    with pytest.raises(ValueError):
        noisy_replay(g, dims, (0.1, 0.1))
    per_leg = noisy_replay(g, dims, (0.0, 0.3, 0.0))
    # noise on the middle leg only keeps the AC marginal intact
    ac = partial_trace(g, dims, (0, 2))
    assert np.allclose(partial_trace(per_leg, dims, (0, 2)), ac, atol=1e-12)


def test_reference_forms_basic():
    ref_o = reference_recovered_omega()
    assert np.isclose(np.trace(ref_o).real, 1.0)
    assert np.allclose(ref_o, ref_o.conj().T)
    ref_l = reference_recovered_lambda()
    assert np.allclose(ref_l, ref_l.conj().T)
    # middle factors are dual operators, so duality holds entrywise
    xi = instrument_by_name("xi")
    duals = dual_frame(xi).duals
    blocks = [np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.0, 1.0])]
    for d, b in zip(duals, blocks):
        assert np.allclose(d, b, atol=1e-12)
