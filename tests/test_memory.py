"""Memory metrics: non-Markovianity, memory strength, CMI, Haar survey."""
import gc
import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from proctensor import memory, process
from proctensor.instruments import (INSTRUMENTS, instrument,
                                    instrument_by_name, z_basis)
from proctensor.linalg import (check_density, hermitize, kron,
                               partial_trace, relative_entropy,
                               trace_distance, von_neumann_entropy)
from proctensor.memory import (
    _bloch_blocks, _survey_mi, _survey_views, _worst_event_mi,
    confusion_probability, markov_order_test, memory_strength,
    mutual_information, non_markovianity, non_markovianity_choi,
    projective_survey, quantum_cmi, quantum_cmi_choi)
from proctensor.process import ProcessTensor, build_common_cause, marginals
from proctensor.recovery import recover
from proctensor.states import bell, state_by_name


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


def test_non_markovianity_zero_on_products():
    rng = np.random.default_rng(16)
    for _ in range(10):
        g = kron(random_density(rng, 2), random_density(rng, 2),
                 random_density(rng, 2))
        p = build_common_cause(g, (2, 2, 2), (2, 2))
        assert abs(non_markovianity(p)) < 1e-9


def test_non_markovianity_frozen_values():
    assert np.isclose(non_markovianity(lam_process()), 0.2836518149970493,
                      atol=1e-12)
    assert np.isclose(non_markovianity(ome_process()), 1.1225562489182659,
                      atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 3)])
def test_non_markovianity_bit_equal_to_relative_entropy(dims):
    """Reusing the build check's spectrum of gamma changes no bit."""
    rng = np.random.default_rng(34)
    states = [random_density(rng, int(np.prod(dims))) for _ in range(5)]
    states += [g for g, d in map(state_by_name, ("lambda", "omega"))
               if d == dims]
    for g in states:
        p = build_common_cause(g, dims, dims[:2])
        ref = relative_entropy(g, kron(*marginals(p)))
        assert (np.float64(non_markovianity(p)).tobytes()
                == np.float64(ref).tobytes())


def test_unvalidated_process_raises_from_non_markovianity():
    bad = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(ValueError, match="^negative eigenvalue -5.000e-01$"):
        build_common_cause(bad, (2, 2, 2), (2, 2))
    with pytest.raises(ValueError, match="^negative eigenvalue -5.000e-01$"):
        non_markovianity(ProcessTensor(bad, (2, 2, 2), (2, 2)))


def test_choi_path_agrees_with_state_path():
    rng = np.random.default_rng(17)
    for p in (lam_process(), ome_process()):
        assert np.isclose(non_markovianity(p), non_markovianity_choi(p),
                          atol=1e-9)
        assert np.isclose(quantum_cmi_choi(p),
                          quantum_cmi(p.gamma, p.input_dims), atol=1e-9)
    for _ in range(5):
        g = random_density(rng, 8)
        p = build_common_cause(g, (2, 2, 2), (2, 2))
        assert np.isclose(non_markovianity(p), non_markovianity_choi(p),
                          atol=1e-9)


CHOI_DIMS = [(2, 2, 2), (2, 3, 2), (3, 2, 3), (2, 2, 3), (3, 2, 2)]


def rank_state(rng, d, rank):
    v = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = v @ v.conj().T
    return rho / np.trace(rho).real


def normalized_choi(p):
    return p.matrix / math.prod(p.output_dims)


@pytest.mark.parametrize("dims", CHOI_DIMS)
def test_quantum_cmi_choi_bit_equal_to_its_state_formula(dims):
    """S_ABC from the process's cached Choi spectrum changes no bit."""
    rng = np.random.default_rng(41)
    d = math.prod(dims)
    for rank in range(1, d + 1):
        p = build_common_cause(rank_state(rng, d, rank), dims, dims[:2])
        dA, dAo, dB, dBo, dC = p.choi_dims
        ref = quantum_cmi(normalized_choi(p), (dA * dAo, dB * dBo, dC))
        assert (np.float64(quantum_cmi_choi(p)).tobytes()
                == np.float64(ref).tobytes())


@pytest.mark.parametrize("dims", CHOI_DIMS)
def test_non_markovianity_choi_agrees_in_either_call_order(dims):
    rng = np.random.default_rng(42)
    d = math.prod(dims)
    for rank in (1, d // 2, d):
        g = rank_state(rng, d, rank)
        got = []
        for cmi_first in (True, False):
            p = build_common_cause(g, dims, dims[:2])
            if cmi_first:
                quantum_cmi_choi(p)
            got.append(non_markovianity_choi(p))
            assert abs(got[-1] - non_markovianity(p)) <= 1e-9
        assert got[0] == got[1]


def _count_decompositions(monkeypatch, target):
    """List that gains an entry per eigvalsh or eigh call on target."""
    seen = []
    for name in ("eigvalsh", "eigh"):
        def counted(a, *args, _f=getattr(np.linalg, name), **kw):
            if np.shape(a) == target.shape and np.array_equal(a, target):
                seen.append(_f.__name__)
            return _f(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    return seen


@pytest.mark.parametrize("cmi_first", [True, False], ids=["cmi", "nm"])
@pytest.mark.parametrize("state", ["omega", "random-323"])
def test_cross_checks_decompose_the_choi_matrix_once(monkeypatch, state,
                                                      cmi_first):
    if state == "omega":
        p = ome_process()
    else:
        g = rank_state(np.random.default_rng(43), 18, 18)
        p = build_common_cause(g, (3, 2, 3), (3, 2))
    seen = _count_decompositions(monkeypatch, hermitize(normalized_choi(p)))
    checks = [quantum_cmi_choi, non_markovianity_choi]
    for check in checks if cmi_first else checks[::-1]:
        check(p)
    assert seen == ["eigvalsh"]


def test_choi_spectrum_is_cached_and_read_only():
    p = ome_process()
    w = p.choi_spectrum
    assert p.choi_spectrum is w
    assert w.tobytes() == np.linalg.eigvalsh(
        hermitize(normalized_choi(p))).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0


def test_mutual_information():
    rng = np.random.default_rng(18)
    for _ in range(10):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        assert abs(mutual_information(kron(a, b), (2, 3))) < 1e-10
    b1 = bell(1)
    assert np.isclose(mutual_information(np.outer(b1, b1.conj()), (2, 2)),
                      2.0)


def test_quantum_cmi_strong_subadditivity():
    rng = np.random.default_rng(19)
    for _ in range(200):
        rho = random_density(rng, 8)
        assert quantum_cmi(rho, (2, 2, 2)) > -1e-9
    # vanishes when the last leg is uncorrelated
    for _ in range(10):
        rho = kron(random_density(rng, 4), random_density(rng, 2))
        assert abs(quantum_cmi(rho, (2, 2, 2))) < 1e-9


def test_cmi_frozen_values():
    g, dims = state_by_name("omega")
    assert np.isclose(quantum_cmi(g, dims), 0.5, atol=1e-9)
    g, dims = state_by_name("lambda")
    assert np.isclose(quantum_cmi(g, dims), 0.01899866985941534, atol=1e-12)


def test_confusion_probability():
    assert np.isclose(confusion_probability(1, 1.0), 0.5)
    assert np.isclose(confusion_probability(2, 1.0), 0.25)
    nm = non_markovianity(lam_process())
    assert np.isclose(confusion_probability(1, nm), 0.8215089426338882,
                      atol=1e-12)
    with pytest.raises(ValueError):
        confusion_probability(0, 1.0)


def test_memory_strength_theta_frozen():
    rep = memory_strength(lam_process(), instrument_by_name("theta"))
    probs = [pr for pr, _ in rep.per_event]
    mis = [mi for _, mi in rep.per_event]
    assert np.allclose(probs, [0.3266345176207621, 0.3261658884706606,
                               0.3471995939085773], atol=1e-12)
    assert np.allclose(mis, [1.1448351600051865e-05, 4.5432046575033525e-05,
                             0.007593255286493683], atol=1e-10)
    assert np.isclose(rep.aggregate_uniform, np.mean(mis))
    assert np.isclose(rep.aggregate_weighted,
                      float(np.dot(probs, mis)))
    assert np.isclose(rep.max_event, max(mis))
    assert rep.max_event < 0.02


def test_memory_strength_z_frozen():
    rep = memory_strength(lam_process(), instrument_by_name("z"))
    assert np.isclose(rep.per_event[0][0], 0.4424, atol=1e-12)
    assert np.isclose(rep.per_event[0][1], 0.05143487434841432, atol=1e-10)


def test_memory_strength_zero_probability_event():
    # an all-zero element never fires; it must be flagged, not crash
    inst = instrument([np.zeros((2, 2), dtype=complex),
                       np.eye(2, dtype=complex)])
    rep = memory_strength(lam_process(), inst)
    assert rep.per_event[0] == (0.0, 0.0)
    assert any("zero probability" in f for f in rep.flags)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2, 2, 3)])
def test_reports_share_one_event_table(dims):
    # a correlated A:C state with B in |0>: every z event but the first
    # has probability exactly 0
    dA, dB, dC = dims
    rho = random_density(np.random.default_rng(sum(dims)), dA * dC)
    ket0 = np.diag(np.arange(dB) == 0).astype(complex)
    g = np.einsum("acAC,bB->abcABC", rho.reshape(dA, dC, dA, dC), ket0)
    p = build_common_cause(g.reshape(np.prod(dims), -1), dims, (dA, dB))
    z = instrument_by_name("z") if dB == 2 else z_basis(dB)
    rep = memory_strength(p, z)
    ok, detail = markov_order_test(p, z)
    rec = recover(p, z)
    zero = list(range(2, dB + 1))
    assert rep.flags == tuple(f"event {i}: zero probability" for i in zero)
    for i in zero:
        assert detail["events"][i - 1] == {
            "event": i, "probability": 0.0, "trace_distance": 0.0,
            "mutual_information": 0.0}
        prob, gA, gC = rec.events[i - 1]
        assert prob == 0.0
        assert np.array_equal(gA, np.eye(dA) / dA)
        assert np.array_equal(gC, np.eye(dC) / dC)
    assert not ok and rep.per_event[0][1] > 0.0
    for (pr, mi), e, (rpr, _, _) in zip(rep.per_event, detail["events"],
                                        rec.events, strict=True):
        assert pr == e["probability"] == rpr
        assert mi == e["mutual_information"]
    # the Markov-order test is a view of the memory report, at the default
    # tolerance and at criterion 3's
    assert (ok, detail) == rep.markov_order()
    assert markov_order_test(p, z, 1e-10) == rep.markov_order(1e-10)


def test_markov_order():
    ok, detail = markov_order_test(ome_process(), instrument_by_name("xi"))
    assert ok and detail["markov_order_one"]
    assert max(e["trace_distance"] for e in detail["events"]) < 1e-12
    ok, detail = markov_order_test(lam_process(),
                                   instrument_by_name("theta"))
    assert not ok
    tds = [e["trace_distance"] for e in detail["events"]]
    assert np.allclose(tds, [0.0019912661148723063, 0.003345265226582128,
                             0.04600274141280382], atol=1e-10)


def _per_event_report(events):
    """memory_strength's report as it was computed one event at a time,
    each entropy and trace distance from its own density check."""
    rows = []
    for ev in events:
        if ev is None:
            rows.append((0.0, 0.0, 0.0))
            continue
        prob, state, rA, rC = ev
        mi = (von_neumann_entropy(rA) + von_neumann_entropy(rC)
              - von_neumann_entropy(state))
        rows.append((prob, max(mi, 0.0), trace_distance(state, kron(rA, rC))))
    ps, mis, tds = zip(*rows)
    w = np.array(mis)
    return (tuple(zip(ps, mis)), float(w.mean()), float(np.array(ps) @ w),
            float(w.max()), tds)


def _zero_event_state(dims):
    """A correlated A:C state with B in |0>: every z event but the first
    has probability exactly 0."""
    dA, dB, dC = dims
    rho = random_density(np.random.default_rng(sum(dims)), dA * dC)
    ket0 = np.diag(np.arange(dB) == 0).astype(complex)
    g = np.einsum("acAC,bB->abcABC", rho.reshape(dA, dC, dA, dC), ket0)
    return g.reshape(np.prod(dims), -1)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 2),
                                  (2, 2, 3)])
def test_stacked_report_bit_equal_to_per_event_formula(dims):
    # full-rank and rank-one states (whose spectra the entropies clip)
    # under every built-in instrument of B's dimension, and a state with
    # impossible z events
    rng = np.random.default_rng(40 + sum(dims))
    d = int(np.prod(dims))
    states = [random_density(rng, d)]
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    states.append(np.outer(v, v.conj()) / (v.conj() @ v).real)
    insts = [i for i in map(instrument_by_name, INSTRUMENTS)
             if i.dim == dims[1]] + [z_basis(dims[1])]
    cases = [(g, inst) for g in states for inst in insts]
    cases.append((_zero_event_state(dims), z_basis(dims[1])))
    for g, inst in cases:
        p = build_common_cause(g, dims, dims[:2])
        rep = memory_strength(p, inst)
        got = (rep.per_event, rep.aggregate_uniform, rep.aggregate_weighted,
               rep.max_event, rep.trace_distances)
        assert got == _per_event_report(process._events(p, inst))
    assert rep.flags == tuple(f"event {i}: zero probability"
                              for i in range(2, dims[1] + 1))


GOOD4 = np.eye(4, dtype=complex) / 4
HALF = np.eye(2, dtype=complex) / 2
BELL4 = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
BELL4[0, 3] = BELL4[3, 0] = 0.5
NEGATIVE4 = BELL4.copy()
NEGATIVE4[0, 3] = NEGATIVE4[3, 0] = 0.6  # eigenvalue -0.1
# per kind: a bad A:C state and a bad marginal
BAD = {"not-hermitian": (GOOD4 + np.diag([0.1] * 3, 1),
                         np.array([[0.5, 0.5], [-0.5, 0.5]])),
       "negative": (NEGATIVE4, np.diag([1.5, -0.5])),
       "wrong-trace": (2 * GOOD4, np.eye(2))}


@pytest.mark.parametrize("slot", [1, 2, 3], ids=["state", "rA", "rC"])
@pytest.mark.parametrize("kind", sorted(BAD))
def test_stacked_report_raises_the_density_message(slot, kind):
    # one bad matrix among good events: the stacked checks raise exactly
    # what check_density says of that matrix alone
    event = [0.5, BELL4, HALF, HALF]
    event[slot] = BAD[kind][slot > 1]
    with pytest.raises(ValueError) as alone:
        check_density(event[slot])
    events = ((0.5, GOOD4, HALF, HALF), None, tuple(event))
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(alone.value))}$"):
        memory._report(events)


def test_one_event_pass_per_process_and_instrument(monkeypatch):
    # the report, the Markov-order view and recover share one conditioning
    # of each event; another process or instrument object conditions again
    condition, calls = process.condition, []

    def counted(p, party, element):
        calls.append(party)
        return condition(p, party, element)
    monkeypatch.setattr(process, "condition", counted)
    p, theta = lam_process(), instrument_by_name("theta")
    rep = memory_strength(p, theta)
    assert markov_order_test(p, theta) == rep.markov_order()
    recover(p, theta)
    assert memory_strength(p, theta) is rep
    assert calls == ["B"] * 3
    memory_strength(lam_process(), theta)
    memory_strength(p, instrument_by_name("theta"))
    assert calls == ["B"] * 9


def test_event_tables_hold_their_instrument_weakly():
    p, inst = lam_process(), instrument_by_name("tetra")
    memory_strength(p, inst)
    recover(p, inst)
    assert len(p._memo) == 1
    del inst
    gc.collect()
    assert len(p._memo) == 0


def test_shared_event_arrays_are_read_only():
    p, theta = lam_process(), instrument_by_name("theta")
    for ev in process._events(p, theta):
        for a in ev[1:]:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0


def test_qutrit_sharp_memory_frozen():
    rep = memory_strength(ome_process(), instrument_by_name("qutrit_sharp"))
    probs = [pr for pr, _ in rep.per_event]
    mis = [mi for _, mi in rep.per_event]
    assert np.allclose(probs, [0.125, 0.125, 0.125, 0.125, 0.5], atol=1e-12)
    assert np.allclose(mis[:4], [0.20751874963942218] * 4, atol=1e-10)
    assert abs(mis[4]) < 1e-12


def test_survey_determinism():
    p = lam_process()
    f1 = projective_survey(p, 0.0125, 2000, seed=0)
    f2 = projective_survey(p, 0.0125, 2000, seed=0)
    assert f1 == f2
    f3 = projective_survey(p, 0.0125, 2000, seed=1)
    assert f3 != f1
    # uneven split across the 64 chunks still counts every sample
    f4 = projective_survey(p, 0.0125, 1003, seed=0)
    assert 0.0 <= f4 <= 1.0


def test_survey_validation():
    p = lam_process()
    with pytest.raises(ValueError):
        projective_survey(p, -0.1, 1000, seed=0)
    with pytest.raises(ValueError):
        projective_survey(p, 0.0125, 50, seed=0)
    with pytest.raises(ValueError, match=r"input dims are \(2, 3, 2\)"):
        projective_survey(ome_process(), 0.0125, 1000, seed=0)


class SurveyRan(Exception):
    pass


def test_survey_sample_cap(monkeypatch):
    # samples are capped at 2**24 before the survey draws or allocates
    def run(*args):
        raise SurveyRan
    monkeypatch.setattr(memory, "_survey_mi", run)
    p = lam_process()
    for samples in (2 ** 24 + 1, 10 ** 20):
        with pytest.raises(ValueError, match=f"samples {samples} is over"):
            projective_survey(p, 0.0125, samples, seed=0)
    with pytest.raises(SurveyRan):  # the largest allowed
        projective_survey(p, 0.0125, 2 ** 24, seed=0)


def _generic(rng, dims):
    return random_density(rng, int(np.prod(dims)))


def _product_diagonal(rng, dims):
    """A random state diagonal in a random product basis."""
    u = kron(*(np.linalg.qr(rng.normal(size=(d, d))
                            + 1j * rng.normal(size=(d, d)))[0]
               for d in dims))
    return (u * rng.dirichlet(np.ones(len(u)))) @ u.conj().T


def _lambda(rng, dims):
    return state_by_name("lambda")[0]


def _kernel(blocks, kets, dA, dC):
    """_worst_event_mi of complex (n, 2) kets on an area of width n."""
    v = _survey_views(blocks, len(kets), dA, dC)
    v.kets[0], v.kets[1] = kets.real, kets.imag
    return _worst_event_mi(v, np.empty(len(kets)))


@pytest.mark.parametrize("dims, draw, commuting", [
    ((2, 2, 2), _generic, False), ((3, 2, 2), _generic, False),
    ((2, 2, 3), _generic, False), ((3, 2, 3), _generic, False),
    ((2, 2, 2), _lambda, True), ((2, 2, 2), _product_diagonal, True),
    ((3, 2, 2), _product_diagonal, True),
    ((3, 2, 3), _product_diagonal, True),
], ids=["2-2-2", "3-2-2", "2-2-3", "3-2-3", "lambda", "diagonal-2-2-2",
        "diagonal-3-2-2", "diagonal-3-2-3"])
def test_survey_kernel_matches_memory_strength(dims, draw, commuting):
    # the Bloch-form kernel against the one exact path, projector by
    # projector, with qubit or qutrit outer legs: generic states take
    # eigvalsh; lambda and states diagonal in a product basis, whose Bloch
    # blocks commute, take the joint eigenbasis
    rng = np.random.default_rng(sum(dims))
    for _ in range(5):
        p = build_common_cause(draw(rng, dims), dims, dims[:2])
        blocks = _bloch_blocks(p)
        assert blocks[-1] is commuting
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        P = np.outer(v, v.conj())
        exact = memory_strength(p, instrument([P, np.eye(2) - P])).max_event
        mi = _kernel(blocks, v[None, :], dims[0], dims[2])
        assert abs(mi[0] - exact) < 1e-12


@pytest.mark.parametrize("dims, draw", [
    ((2, 2, 2), _generic), ((3, 2, 2), _generic), ((2, 2, 3), _generic),
    ((3, 2, 3), _generic), ((2, 2, 2), _lambda),
    ((2, 2, 2), _product_diagonal), ((3, 2, 2), _product_diagonal),
    ((3, 2, 3), _product_diagonal), ((1, 2, 2), _generic),
    ((2, 2, 1), _generic), ((1, 2, 2), _product_diagonal),
    ((2, 2, 1), _product_diagonal),
], ids=["2-2-2", "3-2-2", "2-2-3", "3-2-3", "lambda", "diagonal-2-2-2",
        "diagonal-3-2-2", "diagonal-3-2-3", "1-2-2", "2-2-1",
        "diagonal-1-2-2", "diagonal-2-2-1"])
def test_survey_kernel_batch_of_unnormalised_kets(dims, draw):
    # 32 kets of norms from 1e-3 to 1e3 in one call: each result must be
    # its own ket's, worst of its projector and complement, so a swapped
    # half or a mixed-up sample axis shows; an outer leg of dimension 1
    # leaves a 1 x 1 marginal and a 2 x 2 AC block, generic or commuting
    rng = np.random.default_rng(100 + sum(dims))
    p = build_common_cause(draw(rng, dims), dims, dims[:2])
    kets = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
    kets *= 10.0 ** rng.uniform(-3, 3, size=(32, 1))
    mi = _kernel(_bloch_blocks(p), kets, dims[0], dims[2])
    assert mi.shape == (32,)
    for v, m in zip(kets, mi):
        P = np.outer(v, v.conj()) / np.vdot(v, v).real
        exact = memory_strength(p, instrument([P, np.eye(2) - P])).max_event
        assert abs(m - exact) < 1e-12


@pytest.mark.parametrize("seed, fraction", [(1, 0.41981), (2, 0.42164),
                                            (3, 0.41825)])
def test_lambda_survey_fraction_per_seed(seed, fraction):
    # beside seed 7 (criterion 9): the fractions ROADMAP item 1 quotes
    assert projective_survey(lam_process(), 0.0125, 100000, seed) == fraction


SURVEY_STATES = {"lambda": (_lambda, (2, 2, 2)),
                 "generic-2-2-2": (_generic, (2, 2, 2)),
                 "generic-3-2-3": (_generic, (3, 2, 3)),
                 "generic-1-2-2": (_generic, (1, 2, 2)),
                 "diagonal-3-2-3": (_product_diagonal, (3, 2, 3))}

# sha256 of _survey_mi(p, samples, 7).tobytes(), recorded with the kernel
# that allocated every array afresh per chunk. The states cover every
# row layout: lambda (qubit marginals, diagonal AC), generic (2,2,2)
# (qubit marginals, full AC), generic (3,2,3) (all full), generic (1,2,2)
# (a 1 x 1 marginal, qubit C and AC) and a (3,2,3) state diagonal in a
# product basis (full marginals, diagonal AC). No sample count is a
# multiple of 64, so the chunks are uneven.
SURVEY_PINS = {
    ("lambda", 100000):
        "5fec7cbb1338868fad141ce3301acf4d4dfeb95ae3e0d29189632d172ddd4694",
    ("lambda", 100):
        "96f3d560206e52ad5ab933c0694c72a822d30aea959c9587a00ce67091b3f2a9",
    ("lambda", 1003):
        "9e9bcb868009f33ec6a3c4873d5b3771471a1b4ee4668f3c93ed802fa98f0421",
    ("lambda", 6401):
        "94ba67022b8b6581689d1b23607b36ea226a087e7abd7d0c2654868487ba1b74",
    ("generic-2-2-2", 100):
        "0edfe23eb758555ffa12bb46921ac72a2d6686cf378481389b8f0cb2f50150c2",
    ("generic-2-2-2", 1003):
        "f58e2c6381c5d8d037ad347d6f4d080e46445f494d94a5b8bf0414e61e6de607",
    ("generic-2-2-2", 6401):
        "63676939f378fec448c6e6c74c3d7102ac62f88fadc422b20c4a9e55ffa88d99",
    ("generic-3-2-3", 100):
        "b2f1f90a4563ab6385ce3b3801479c8911676094072abee368a34f3350d7ddaf",
    ("generic-3-2-3", 1003):
        "665d6122ff6ddb551ff1283c9026612aab01929c0b54088fede2bc49bb282f0d",
    ("generic-3-2-3", 6401):
        "e71991320649e6147e8b4af5f7dafaab0aecbbdea2ef0fd3c4120583868772c8",
    ("generic-1-2-2", 100):
        "67042dfda5683aead81b6055d19c4dba238341f9dd82f49c0e7cc0c19c5f10d1",
    ("generic-1-2-2", 1003):
        "9071cfcee7de03f37be85825822952ffdf759f659a71d090dc0682e51fe4c2bf",
    ("generic-1-2-2", 6401):
        "906de7057d8f52f92a10fd19b1a2738b6591542889cb9082aa000b9d59325d30",
    ("diagonal-3-2-3", 100):
        "080245c1e6ad5aed67da2d6cfc36ff4946c169c01f85b7b6b688e4509e27d390",
    ("diagonal-3-2-3", 1003):
        "65b85729b479f34afa6488f93fcd8440ba4890c49bd49e7f73560569916d5f94",
    ("diagonal-3-2-3", 6401):
        "cfb4b58fcbaadddb6a9cdec491183112839635fe8891e22f85e7bff0c35e65b6",
}


@pytest.mark.parametrize("name, samples", SURVEY_PINS,
                         ids=[f"{n}-{s}" for n, s in SURVEY_PINS])
def test_survey_mi_bytes_pinned(name, samples):
    # every per-sample MI byte holds. The survey reuses one working area
    # per call, as wide as its widest chunk, so a shorter chunk leaves an
    # earlier chunk's ket in its tail column. The kernel computes that
    # valid ket too; one that wrote a tail column into a result would move
    # a byte, and garbage in the area would warn (a division by zero,
    # log2 or sqrt of a negative)
    draw, dims = SURVEY_STATES[name]
    rng = np.random.default_rng(sum(dims))
    p = build_common_cause(draw(rng, dims), dims, dims[:2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mi = _survey_mi(p, samples, 7)
    assert mi.shape == (samples,)
    assert hashlib.sha256(mi.tobytes()).hexdigest() == SURVEY_PINS[
        name, samples]


@pytest.mark.parametrize("name", SURVEY_STATES)
def test_short_chunk_on_a_fresh_area(name):
    # a chunk one ket short of its area gives the bytes of an area of
    # exactly its width, with no warning: the tail column keeps the ones
    # a fresh area starts with, a valid ket, and no result reads it
    draw, dims = SURVEY_STATES[name]
    rng = np.random.default_rng(sum(dims))
    p = build_common_cause(draw(rng, dims), dims, dims[:2])
    blocks = _bloch_blocks(p)
    kets = rng.normal(size=(31, 2)) + 1j * rng.normal(size=(31, 2))
    v = _survey_views(blocks, 32, dims[0], dims[2])
    v.kets[0, :31], v.kets[1, :31] = kets.real, kets.imag
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mi = _worst_event_mi(v, np.empty(31))
    assert mi.tobytes() == _kernel(blocks, kets, dims[0], dims[2]).tobytes()


def test_survey_builds_one_area_per_call(monkeypatch):
    # one working area per survey, at the widest chunk's width:
    # 1003 = 64 * 15 + 43 samples take chunks of 16 and 15 kets
    widths = []
    build = memory._survey_views
    monkeypatch.setattr(memory, "_survey_views",
                        lambda blocks, n, dA, dC: widths.append(n)
                        or build(blocks, n, dA, dC))
    mi = _survey_mi(lam_process(), 1003, 7)
    assert widths == [16] and mi.shape == (1003,)
    projective_survey(lam_process(), 0.0125, 6400, seed=7)
    assert widths == [16, 100]


def test_criterion_09_cutoff_table():
    # one seed-7 survey of lambda read at the literal cutoff, at
    # 0.0125 ln 2 (inside 0.288 +- 0.01) and at 0.0125 / ln 2 (what a
    # nats/bits mix-up would give)
    mi = _survey_mi(lam_process(), 100000, 7)
    for cutoff, fraction in ((0.0125, 0.41743),
                             (0.0125 * np.log(2), 0.28433),
                             (0.0125 / np.log(2), 0.5766)):
        assert np.count_nonzero(mi < cutoff) / mi.size == fraction
