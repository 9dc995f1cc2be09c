"""Built-in tripartite states, their ensembles, Bell and Werner helpers."""
import numpy as np
import pytest

from proctensor.linalg import check_density, kron, partial_trace
from proctensor.states import (
    LAMBDA_DIMS, OMEGA_DIMS, StateEnsemble, bell, ensemble_to_state,
    lambda_ensemble, lambda_state, omega_ensemble, omega_state,
    state_by_name, werner)


def test_lambda_state_is_exact_rational():
    rho = lambda_state()
    assert rho.shape == (8, 8)
    check_density(rho)
    scaled = rho * 10000
    assert np.allclose(scaled, np.round(np.real(scaled)), atol=1e-12)
    assert np.allclose(rho, rho.conj().T)


def test_omega_state_rank_deficient():
    rho = omega_state()
    assert rho.shape == (12, 12)
    check_density(rho)
    w = np.linalg.eigvalsh(rho)
    # three basis rows are identically zero, so at least three zero modes
    assert np.sum(w < 1e-14) >= 3
    assert np.allclose(rho[5], 0) and np.allclose(rho[10], 0)
    assert np.allclose(rho[11], 0)


def test_marginals_of_lambda():
    rho = lambda_state()
    outer = np.array([[0.5, 0.01], [0.01, 0.5]])
    middle = np.array([[0.4424, -0.0568], [-0.0568, 0.5576]])
    # first and last legs share a marginal; the middle leg is biased
    for keep, want in (((0,), outer), ((1,), middle), ((2,), outer)):
        got = partial_trace(rho, LAMBDA_DIMS, keep)
        assert np.allclose(got, want, atol=1e-12)
        assert np.isclose(np.trace(got).real, 1.0, atol=1e-12)


def test_ensembles_reproduce_states_exactly():
    le = lambda_ensemble()
    assert np.max(np.abs(ensemble_to_state(le) - lambda_state())) < 1e-15
    oe = omega_ensemble()
    assert np.max(np.abs(ensemble_to_state(oe) - omega_state())) < 1e-15


def test_lambda_ensemble_is_eigendecomposition():
    le = lambda_ensemble()
    rho = lambda_state()
    # members are kept as given: ensemble_to_state normalizes them
    assert np.isclose(np.linalg.norm(le.members[0][0]), 2 * np.sqrt(2))
    for vec, w in le.members:
        v = vec / np.linalg.norm(vec)
        assert np.allclose(rho @ v, w * v, atol=1e-12)


def test_ensemble_validation():
    good = ((np.array([1.0, 0.0]), 0.5), (np.array([0.0, 1.0]), 0.5))
    StateEnsemble(good, (2,))
    with pytest.raises(ValueError):
        StateEnsemble(((np.array([1.0, 0.0]), 0.7),), (2,))
    with pytest.raises(ValueError):
        StateEnsemble(((np.zeros(2), 1.0),), (2,))
    with pytest.raises(ValueError):
        ensemble_to_state(StateEnsemble(((np.array([1.0, 0, 0]), 1.0),),
                                        (2,)))


def test_bell_vectors_orthonormal():
    vs = [bell(x) for x in (1, 2, 3, 4)]
    G = np.array([[v.conj() @ w for w in vs] for v in vs])
    assert np.allclose(G, np.eye(4))
    with pytest.raises(ValueError):
        bell(0)
    with pytest.raises(ValueError):
        bell(5)


def test_werner_limits_and_marginals():
    for x in (1, 2, 3, 4):
        b = bell(x)
        assert np.allclose(werner(x, 1.0), np.outer(b, b.conj()))
        assert np.allclose(werner(x, 0.0), np.eye(4) / 4)
        w = werner(x, 1.0 / 3.0)
        check_density(w)
        # both marginals maximally mixed at every mixing ratio
        assert np.allclose(partial_trace(w, (2, 2), (0,)), np.eye(2) / 2)
        assert np.allclose(partial_trace(w, (2, 2), (1,)), np.eye(2) / 2)


def test_state_by_name():
    g, dims = state_by_name("lambda")
    assert dims == LAMBDA_DIMS and np.array_equal(g, lambda_state())
    g, dims = state_by_name(" OMEGA ")
    assert dims == OMEGA_DIMS and np.array_equal(g, omega_state())
    with pytest.raises(KeyError):
        state_by_name("sigma")


def test_kron_reexport():
    assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))
