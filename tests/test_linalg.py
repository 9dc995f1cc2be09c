"""Core linear-algebra helpers: partial traces, entropies, metrics."""
import re
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from proctensor.instruments import span_project
from proctensor.linalg import (
    check_density, fidelity, hermitize,
    is_hermitian, kron, mat_from_json, mat_to_json, partial_trace,
    relative_entropy, trace_distance, trace_norm,
    von_neumann_entropy)
from proctensor.memory import mutual_information, quantum_cmi
from proctensor.tomography import simulate_counts


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_kron_matches_numpy_and_chains():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3))
    c = rng.normal(size=(2, 2))
    assert np.allclose(kron(a, b), np.kron(a, b))
    assert np.allclose(kron(a, b, c), np.kron(np.kron(a, b), c))
    assert kron(a).shape == (2, 2)


def _kron_factors():
    """Random complex and real 1x1, 2x2 and 3x3 factors, and identities."""
    rng = np.random.default_rng(12)
    out = {"eye2": np.eye(2), "eye3": np.eye(3)}
    for d in (1, 2, 3):
        out[f"real{d}"] = rng.normal(size=(d, d))
        out[f"complex{d}"] = (rng.normal(size=(d, d))
                              + 1j * rng.normal(size=(d, d)))
    return out


def test_kron_bit_equal_to_numpy_fold():
    factors = _kron_factors()
    names = sorted(factors)
    rng = np.random.default_rng(13)
    chains = [[n] for n in names] + [
        list(rng.choice(names, size=k)) for k in (2, 3, 3, 4) * 6]
    for chain in chains:
        mats = [factors[n] for n in chain]
        ref = reduce(lambda a, b: np.kron(a, np.asarray(b, dtype=complex)),
                     mats, np.array([[1.0]], dtype=complex))
        got = kron(*mats)
        assert got.dtype == ref.dtype and got.shape == ref.shape, chain
        assert got.tobytes() == ref.tobytes(), chain


def test_dagger_and_hermitize():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = hermitize(m)
    assert is_hermitian(h)
    assert not is_hermitian(m + np.diag([1j, 0, 0]))


def test_partial_trace_of_product_factors():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        c = random_density(rng, 2)
        m = kron(a, b, c)
        assert np.allclose(partial_trace(m, (2, 3, 2), (0,)), a)
        assert np.allclose(partial_trace(m, (2, 3, 2), (1,)), b)
        assert np.allclose(partial_trace(m, (2, 3, 2), (0, 2)), kron(a, c))


def test_partial_trace_composition_and_trace():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_density(rng, 12)
        # tracing legs one at a time equals tracing them at once
        step = partial_trace(m, (2, 3, 2), (0, 1))
        step = partial_trace(step, (2, 3), (0,))
        once = partial_trace(m, (2, 3, 2), (0,))
        assert np.allclose(step, once)
        assert np.isclose(np.trace(once), np.trace(m))
    full = partial_trace(m, (2, 3, 2), ())
    assert full.shape == (1, 1)
    assert np.isclose(full[0, 0], 1.0)


def test_partial_trace_rejects_bad_args():
    m = np.eye(4)
    with pytest.raises(IndexError):
        partial_trace(m, (2, 2), (2,))
    with pytest.raises(ValueError):
        partial_trace(m, (2, 3), (0,))


@pytest.mark.parametrize("dims", [(2, 3), (1, 2), (3, 1, 2), (2, 2, 2),
                                  (2, 3, 1, 2), (1, 1, 3, 2)])
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_partial_trace_stack_bit_equal_to_each_state(dims, lead):
    """A stack (..., d, d) reduces state by state with the 2-D call's
    bits, for every strictly increasing keep."""
    rng = np.random.default_rng(len(dims) + len(lead))
    d = int(np.prod(dims))
    states = np.array([random_density(rng, d)
                       for _ in range(int(np.prod(lead)))]).reshape(
                           *lead, d, d)
    legs = range(len(dims))
    for keep in (k for r in range(len(dims) + 1)
                 for k in combinations(legs, r)):
        got = partial_trace(states, dims, keep)
        dk = int(np.prod([dims[i] for i in keep]))
        assert got.shape == (*lead, dk, dk), keep
        ref = np.array([partial_trace(s, dims, keep)
                        for s in states.reshape(-1, d, d)])
        assert got.tobytes() == ref.tobytes(), keep


@pytest.mark.parametrize("shape", [(4,), (), (5, 4, 4), (2, 8, 8),
                                   (3, 6, 4)],
                         ids=["1-D", "0-D", "stack-too-small",
                              "stack-too-large", "stack-not-square"])
def test_partial_trace_rejects_shapes_against_dims(shape):
    dims = (2, 3) if len(shape) == 3 else (2, 2)
    with pytest.raises(ValueError, match="^dims do not match matrix shape$"):
        partial_trace(np.ones(shape), dims, (0,))


@pytest.mark.parametrize("keep", [(1, 0), (0, 0), (2, 0, 1)])
def test_partial_trace_rejects_unordered_keep(keep):
    """The result keeps m's leg order, so a reordered or repeated keep is
    refused."""
    msg = f"keep must list leg positions in strictly increasing order, " \
          f"got {keep}"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        partial_trace(np.eye(12) / 12, (2, 3, 2), keep)


@pytest.mark.parametrize(
    "call", [relative_entropy, fidelity, trace_distance],
    ids=["relative_entropy", "fidelity", "trace_distance"])
def test_metrics_reject_mismatched_shapes(call):
    # one pair of states or two equal stacks: a stack is not broadcast
    # against one state
    half = np.eye(2) / 2
    for x, y in ((half, np.eye(4) / 4), (np.array([half] * 3), half),
                 (half, np.array([half] * 3))):
        msg = f"operands have different shapes {x.shape} and {y.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            call(x, y)


def test_check_density_raises():
    check_density(np.eye(2) / 2)
    with pytest.raises(ValueError):
        check_density(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        check_density(np.eye(2))
    with pytest.raises(ValueError):
        check_density(np.array([[0.5, 0.5], [-0.5, 0.5]]))


def test_check_density_returns_its_spectrum():
    rho = random_density(np.random.default_rng(14), 4)
    h = hermitize(rho)
    assert check_density(rho).tobytes() == np.linalg.eigvalsh(h).tobytes()
    w, v = check_density(rho, vectors=True)
    ref_w, ref_v = np.linalg.eigh(h)
    assert w.tobytes() == ref_w.tobytes() and v.tobytes() == ref_v.tobytes()


@pytest.mark.parametrize("scale", [0.0, 0.4e-10, 1e-10, 1.6e-10, 1e-6])
def test_check_density_hermiticity_tolerance(scale):
    # an anti-Hermitian part of entrywise size up to HERM_TOL passes, and
    # the spectrum is still that of hermitize(rho), bit for bit
    rng = np.random.default_rng(int(scale * 1e12) + 3)
    rho = np.array([random_density(rng, 4), random_density(rng, 4)])
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1], skew[1, 0] = scale, -scale
    rho = rho + skew
    if not is_hermitian(rho):
        with pytest.raises(ValueError,
                           match="^density matrix is not Hermitian$"):
            check_density(rho)
        return
    assert check_density(rho).tobytes() == np.linalg.eigvalsh(
        hermitize(rho)).tobytes()
    w, v = check_density(rho[0], vectors=True)
    ref_w, ref_v = np.linalg.eigh(hermitize(rho[0]))
    assert w.tobytes() == ref_w.tobytes() and v.tobytes() == ref_v.tobytes()


def test_check_density_rejects_nan_as_not_hermitian():
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 1] = np.nan
    with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
        check_density(rho)


NOT_HERMITIAN = np.array([[0.5, 0.5], [-0.5, 0.5]])
NEGATIVE = np.diag([1.5, -0.5])
WRONG_TRACE = np.eye(2)
GOOD = np.eye(2) / 2


@pytest.mark.parametrize("bad, message", [
    (NOT_HERMITIAN, "density matrix is not Hermitian"),
    (NEGATIVE, "negative eigenvalue -5.000e-01"),
    (WRONG_TRACE, "trace 2.0 deviates from 1"),
], ids=["not-hermitian", "negative-eigenvalue", "wrong-trace"])
@pytest.mark.parametrize("call", [
    lambda bad: von_neumann_entropy(bad),
    lambda bad: relative_entropy(bad, GOOD),
    lambda bad: relative_entropy(GOOD, bad),
    lambda bad: fidelity(bad, GOOD),
    lambda bad: fidelity(GOOD, bad),
], ids=["entropy", "relative-x", "relative-y", "fidelity-rho",
        "fidelity-sigma"])
def test_density_checks_raise_their_messages(call, bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(bad)


def test_entropies_equal_separate_decompositions():
    """Reusing the check's spectrum gives the bits of decomposing again."""
    rng = np.random.default_rng(15)
    for d in (2, 4, 8):
        for _ in range(5):
            x, y = random_density(rng, d), random_density(rng, d)
            w = np.linalg.eigvalsh(hermitize(x))
            w = w[w > 1e-12]
            assert von_neumann_entropy(x) == float(-np.sum(w * np.log2(w)))
            wx, _ = np.linalg.eigh(hermitize(x))
            wy, vy = np.linalg.eigh(hermitize(y))
            wx = wx[wx > 1e-12]
            log_y = (vy * np.log2(np.clip(wy, 1e-12, None))) @ vy.conj().T
            ref = (float(np.sum(wx * np.log2(wx)))
                   - float(np.real(np.trace(x @ log_y))))
            assert relative_entropy(x, y) == ref


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
def test_stacks_bit_equal_to_their_matrices(d):
    # full-rank and low-rank states, so some spectra are clipped, past the
    # eight terms at which np.sum stops adding in order
    rng = np.random.default_rng(20 + d)
    stack = []
    for rank in (d, 1, max(1, d - 1), d, 2):
        v = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        rho = v @ v.conj().T
        stack.append(rho / np.trace(rho).real)
    stack = np.array(stack)
    other = stack[::-1]
    entropies, distances, norms, fidelities = [], [], [], []
    for a, b in zip(stack, other):
        w = np.linalg.eigvalsh(hermitize(a))
        w = w[w > 1e-12]
        entropies.append(float(-np.sum(w * np.log2(w))))
        w, v = np.linalg.eigh(hermitize(a))
        s = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
        w = np.clip(np.linalg.eigvalsh(hermitize(s @ b @ s)), 0, None)
        fidelities.append(float(np.sum(np.sqrt(w)) ** 2))
        w = np.linalg.eigvalsh(hermitize(a - b))
        distances.append(float(np.sum(np.abs(w)) / 2))
        norms.append(float(np.sum(np.linalg.svd(a - b, compute_uv=False))))
    assert check_density(stack).tobytes() == np.linalg.eigvalsh(
        hermitize(stack)).tobytes()
    for got in (von_neumann_entropy(stack).tolist(),
                [von_neumann_entropy(a) for a in stack]):
        assert got == entropies
    for got in (trace_distance(stack, other).tolist(),
                [trace_distance(a, b) for a, b in zip(stack, other)]):
        assert got == distances
    for got in (trace_norm(stack - other).tolist(),
                [trace_norm(a - b) for a, b in zip(stack, other)]):
        assert got == norms
    for got in (fidelity(stack, other).tolist(),
                [fidelity(a, b) for a, b in zip(stack, other)]):
        assert got == fidelities
    assert fidelity(stack.reshape(5, 1, d, d), other.reshape(5, 1, d, d)
                    ).tolist() == [[f] for f in fidelities]
    split = {2: (1, 2), 3: (3, 1), 4: (2, 2), 6: (3, 2), 9: (3, 3)}[d]
    assert mutual_information(stack, split).tolist() == [
        mutual_information(a, split) for a in stack]
    tri = {2: (2, 1, 1), 3: (1, 3, 1), 4: (2, 1, 2), 6: (2, 3, 1),
           9: (3, 1, 3)}[d]
    assert quantum_cmi(stack, tri).tolist() == [
        quantum_cmi(a, tri) for a in stack]
    small = stack[:, :2, :2]
    assert kron(small, other).tobytes() == np.array(
        [kron(a, b) for a, b in zip(small, other)]).tobytes()


@pytest.mark.parametrize("bad, message", [
    (NOT_HERMITIAN, "density matrix is not Hermitian"),
    (NEGATIVE, "negative eigenvalue -5.000e-01"),
    (WRONG_TRACE, "trace 2.0 deviates from 1"),
], ids=["not-hermitian", "negative-eigenvalue", "wrong-trace"])
def test_stacked_density_check_quotes_its_first_failing_state(bad, message):
    # the later state fails the same check by more
    stack = np.array([GOOD, bad, 2 * bad - GOOD])
    with pytest.raises(ValueError, match=f"^{message}$"):
        von_neumann_entropy(stack)


def test_entropy_values_and_unitary_invariance():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert np.isclose(von_neumann_entropy(np.eye(4) / 4), 2.0)
    rng = np.random.default_rng(6)
    for _ in range(20):
        rho = random_density(rng, 4)
        U = random_unitary(rng, 4)
        s = von_neumann_entropy(rho)
        assert 0 <= s <= 2 + 1e-12
        assert np.isclose(von_neumann_entropy(U @ rho @ U.conj().T), s)


def test_relative_entropy_klein_and_support():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = random_density(rng, 3)
        y = random_density(rng, 3)
        d = relative_entropy(x, y)
        assert d >= -1e-10
        assert np.isclose(relative_entropy(x, x), 0.0, atol=1e-9)
        # S(x || 1/d) = log2 d - S(x)
        assert np.isclose(relative_entropy(x, np.eye(3) / 3),
                          np.log2(3) - von_neumann_entropy(x))
    pure = np.diag([1.0, 0.0])
    with pytest.raises(ValueError):
        relative_entropy(np.eye(2) / 2, pure)


def test_stacked_relative_entropy_names_its_first_failing_state():
    # y's kernel differs state by state, so each is masked, not sliced
    half, up, down = np.eye(2) / 2, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    x, y = np.array([half, up, down, up]), np.array([half, up, up, down])
    with pytest.raises(ValueError, match=r"^support violation \(state 2\): "
                       "divergence is infinite$"):
        relative_entropy(x, y)
    with pytest.raises(ValueError, match="^support violation: divergence "
                       "is infinite$"):
        relative_entropy(down, up)
    got = relative_entropy(x[:2], y[:2])
    assert got.tolist() == [relative_entropy(a, b)
                            for a, b in zip(x[:2], y[:2])]


def test_fidelity_pure_states_and_bounds():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        ra, rb = np.outer(a, a.conj()), np.outer(b, b.conj())
        assert np.isclose(fidelity(ra, rb), abs(a.conj() @ b) ** 2)
        rho = random_density(rng, 3)
        assert np.isclose(fidelity(rho, rho), 1.0)
        f = fidelity(rho, random_density(rng, 3))
        assert -1e-10 <= f <= 1 + 1e-10


# one state and one full-rank state on (2, 2, 2), as nested lists
_LIST_PAIR = (random_density(np.random.default_rng(34), 8).tolist(),
              (np.eye(8) / 8).tolist())


@pytest.mark.parametrize("call", [
    fidelity, relative_entropy,
    lambda a, b: von_neumann_entropy(a),
    lambda a, b: mutual_information(a, (2, 4)),
    lambda a, b: quantum_cmi(a, (2, 2, 2)),
    lambda a, b: simulate_counts(a, (2, 2, 2), 270, seed=0).counts,
    lambda a, b: hermitize(a),
    lambda a, b: span_project(a, [b, np.diag([1.0] + [0.0] * 7).tolist()])],
    ids=["fidelity", "relative_entropy", "von_neumann_entropy",
         "mutual_information", "quantum_cmi", "simulate_counts", "hermitize",
         "span_project"])
def test_public_functions_accept_nested_lists(call):
    # a nested-list state gives, bit for bit, its array's result
    got = call(*_LIST_PAIR)
    want = call(*map(np.array, _LIST_PAIR))
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_trace_distance_and_norm():
    assert np.isclose(trace_distance(np.eye(2) / 2, np.eye(2) / 2), 0.0)
    assert np.isclose(trace_distance(np.diag([1.0, 0]), np.diag([0, 1.0])),
                      1.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        td = trace_distance(a, b)
        assert 0 <= td <= 1 + 1e-12
        assert np.isclose(td, trace_norm(a - b) / 2)


def test_mat_json_roundtrip():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    back = mat_from_json(mat_to_json(m))
    assert np.array_equal(back, m)
