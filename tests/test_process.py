"""Process-tensor construction, causality, the Born rule, conditioning."""
import pickle
import re
from dataclasses import dataclass, field

import numpy as np
import pytest

from proctensor.instruments import (INSTRUMENTS, dual_frame, instrument,
                                    instrument_by_name, random_projective,
                                    z_basis)
from proctensor.linalg import fidelity, kron, partial_trace
from proctensor.process import (
    LEGS, PROB_TOL, ProcessTensor, _events, born_probability, born_rule,
    build_common_cause, check_causality, condition, condition_instrument,
    cp_divisibility_check, final_choi, marginals, markov_product,
    measure_discard_choi)
from proctensor.memory import (memory_strength, non_markovianity_choi,
                               projective_survey, quantum_cmi_choi)
from proctensor.recovery import _ac_bloch, deviation_scan, recover
from proctensor.states import state_by_name


def lam_process():
    g, dims = state_by_name("lambda")
    return build_common_cause(g, dims, (2, 2))


def ome_process():
    g, dims = state_by_name("omega")
    return build_common_cause(g, dims, (2, 3))


@dataclass(frozen=True)
class CorruptChoi(ProcessTensor):
    """A process whose Choi matrix is replaced by an arbitrary one."""
    choi: np.ndarray = field(repr=False, default=None)

    @property
    def matrix(self):
        return self.choi


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_build_shapes_and_trace():
    p = lam_process()
    assert p.matrix.shape == (32, 32)
    assert p.choi_dims == (2, 2, 2, 2, 2)
    assert np.isclose(np.trace(p.matrix).real, 4.0)
    q = ome_process()
    assert q.matrix.shape == (72, 72)
    assert q.choi_dims == (2, 2, 3, 3, 2)
    assert [label for label, _ in LEGS] == ["A_in", "A_out", "B_in",
                                            "B_out", "C_in"]
    assert np.isclose(np.trace(q.matrix).real, 6.0)
    with pytest.raises(ValueError):
        build_common_cause(np.eye(8) / 8, (2, 3, 2), (2, 2))


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2)])
def test_build_needs_three_input_legs(dims):
    d = int(np.prod(dims))
    with pytest.raises(ValueError, match=re.escape(
            f"dims must list 3 input legs, got {dims}")):
        build_common_cause(np.eye(d) / d, dims, dims[:2])


def test_build_rejects_invalid_states():
    bad = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(ValueError):
        build_common_cause(bad, (2, 2, 2), (2, 2))


def test_output_legs_are_identity_factors():
    p = lam_process()
    outputs = tuple(i for i, (_, direction) in enumerate(LEGS)
                    if direction == "output")
    # tracing the input legs leaves the identity on each output leg
    outs = partial_trace(p.matrix, p.choi_dims, outputs)
    assert np.allclose(outs, np.eye(4))


def test_causality_hierarchy():
    for p in (lam_process(), ome_process()):
        rep = check_causality(p)
        assert rep["ok"]
        assert max(rep["residuals"].values()) < 1e-10


def test_causality_detects_corruption():
    p = lam_process()
    rng = np.random.default_rng(14)
    bad = random_density(rng, 32) * 4.0
    corrupt = CorruptChoi(p.gamma, p.input_dims, p.output_dims, bad)
    rep = check_causality(corrupt)
    assert not rep["ok"]


def test_born_rule_completeness_and_fast_path():
    rng = np.random.default_rng(15)
    p = lam_process()
    eye = np.eye(2)
    assert np.isclose(born_rule(p, [kron(eye, eye) / 2, kron(eye, eye) / 2,
                                    eye]), 1.0)
    # measure-and-discard Chois reproduce the element fast path
    for _ in range(20):
        ea = random_projective(rng.integers(1 << 31)).matrices()[0]
        eb = random_projective(rng.integers(1 << 31)).matrices()[0]
        ec = random_projective(rng.integers(1 << 31)).matrices()[0]
        slow = born_rule(p, [measure_discard_choi(ea, 2),
                             measure_discard_choi(eb, 2), final_choi(ec)])
        fast = born_probability(p, ea, eb, ec)
        assert np.isclose(slow, fast, atol=1e-12)
    with pytest.raises(ValueError):
        born_rule(p, [np.eye(4), np.eye(4)])
    with pytest.raises(ValueError):
        born_rule(p, [np.eye(2), np.eye(4), np.eye(2)])


def test_born_completeness_over_instruments():
    p = lam_process()
    theta = instrument_by_name("theta")
    z = instrument_by_name("z")
    total = 0.0
    for ea in z.matrices():
        for eb in theta.matrices():
            for ec in z.matrices():
                pr = born_probability(p, ea, eb, ec)
                assert -1e-12 <= pr <= 1 + 1e-12
                total += pr
    assert np.isclose(total, 1.0, atol=1e-12)


def test_condition_linearity_and_probability():
    p = ome_process()
    xi = instrument_by_name("xi")
    e1, e2 = xi.matrices()
    c1 = condition(p, "B", e1)
    c2 = condition(p, "B", e2)
    csum = condition(p, "B", e1 + e2)
    assert np.allclose(c1.unnormalized + c2.unnormalized, csum.unnormalized,
                       atol=1e-12)
    assert np.isclose(c1.probability, born_probability(p, b_element=e1))
    assert np.isclose(c1.probability + c2.probability, 1.0)
    assert np.isclose(np.trace(c1.state).real, 1.0)


def test_condition_sums_to_marginal_process():
    p = lam_process()
    theta = instrument_by_name("theta")
    conds = condition_instrument(p, "B", theta)
    total = sum(c.probability * c.state for c in conds)
    g_ac = partial_trace(p.gamma, p.input_dims, (0, 2))
    assert np.allclose(total, g_ac, atol=1e-12)


def test_condition_on_each_party():
    dims = (2, 3, 2)
    g = random_density(np.random.default_rng(8), 12)
    p = build_common_cause(g, dims, dims[:2])
    for party, remaining in (("A", (3, 2)), ("B", (2, 2)), ("C", (2, 3))):
        d = dims["ABC".index(party)]
        proj = np.diag([1.0] + [0.0] * (d - 1)).astype(complex)
        c = condition(p, party, proj)
        assert c.input_dims == remaining
        assert c.unnormalized.shape == (int(np.prod(remaining)),) * 2
        assert 0 <= c.probability <= 1
        assert np.isclose(np.trace(c.state).real, 1.0)
    with pytest.raises(KeyError):
        condition(p, "D", np.eye(2))


def test_conditional_arrays_are_read_only():
    # a write to either array would leave the cached state stale; the
    # B-in-|0> process makes z's second event impossible (state is the
    # unnormalized array itself)
    zero = build_common_cause(kron(np.eye(2) / 2, np.diag([1.0, 0.0]),
                                   np.eye(2) / 2), (2, 2, 2), (2, 2))
    theta = instrument_by_name("theta")
    conds = [condition(lam_process(), "B", theta.matrices()[0]),
             *condition_instrument(lam_process(), "B", theta),
             *condition_instrument(ome_process(), "A", z_basis(2)),
             *condition_instrument(zero, "B", z_basis(2))]
    assert conds[-1].probability == 0.0
    for c in conds:
        before = c.unnormalized.tobytes(), c.state.tobytes()
        for arr in (c.unnormalized, c.state):
            with pytest.raises(ValueError,
                               match="assignment destination is read-only"):
                arr[0, 0] += 1
        assert (c.unnormalized.tobytes(), c.state.tobytes()) == before


def _condition_reference(p, party, element):
    """One element's conditioning, its own einsum: (cond, probability)."""
    k = "ABC".index(party)
    x = "abc"[k]
    rest = "abc".replace(x, "")
    g_sub = "abc".replace(x, "D") + "ABC".replace(x.upper(), x)
    d = int(np.prod(p.input_dims)) // p.input_dims[k]
    g6 = p.gamma.reshape(*p.input_dims, *p.input_dims)
    cond = np.einsum(f"{x}D,{g_sub}->{rest}{rest.upper()}",
                     np.asarray(element, dtype=complex), g6).reshape(d, d)
    return cond, float(np.real(np.trace(cond)))


def _random_basis(rng, d):
    """A projective instrument on a random orthonormal basis."""
    q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return instrument([np.outer(v, v.conj()) for v in q.T], "basis")


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 2),
                                  (2, 2, 3), (3, 2, 3)])
def test_stacked_conditioning_bit_equal_to_per_element_einsum(dims):
    # full-rank, rank-one and B-in-|0> states (the last gives impossible z
    # events): the event table, condition and condition_instrument at every
    # party, to the last bit
    rng = np.random.default_rng(60 + sum(dims))
    d = int(np.prod(dims))
    dA, dB, dC = dims
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    rho = random_density(rng, dA * dC).reshape(dA, dC, dA, dC)
    zero = np.einsum("acAC,bB->abcABC", rho, np.diag(np.arange(dB) == 0))
    states = [random_density(rng, d), np.outer(v, v.conj()) / (v.conj() @ v),
              zero.reshape(d, d)]
    insts = [i for i in map(instrument_by_name, INSTRUMENTS)
             if i.dim == dB] + [z_basis(dB), _random_basis(rng, dB)]
    dead = 0
    for g in states:
        p = build_common_cause(g, dims, dims[:2])
        for inst in insts:
            probs, live, st, rA, rC = _events(p, inst)
            for i, e in enumerate(inst.matrices()):
                cond, prob = _condition_reference(p, "B", e)
                assert live[i] == (prob > PROB_TOL)
                if live[i]:
                    state = cond / prob
                    ref = (prob, state,
                           partial_trace(state, (dA, dC), (0,)),
                           partial_trace(state, (dA, dC), (1,)))
                else:
                    dead += 1
                    ref = (0.0, np.eye(dA * dC) / (dA * dC), np.eye(dA) / dA,
                           np.eye(dC) / dC)
                got = (probs[i], st[i], rA[i], rC[i])
                assert [np.asarray(x, complex).tobytes() for x in got] == \
                    [np.asarray(x, complex).tobytes() for x in ref]
        for party, dk in zip("ABC", dims):
            inst = _random_basis(rng, dk)
            cps = condition_instrument(p, party, inst)
            for cp, e in zip(cps, inst.matrices()):
                for got in (cp, condition(p, party, e)):
                    cond, prob = _condition_reference(p, party, e)
                    assert got.unnormalized.tobytes() == cond.tobytes()
                    assert got.probability == prob
    assert dead >= dB - 1  # at least z's impossible events


def test_marginals_and_markov_product():
    p = lam_process()
    gA, gB, gC = marginals(p)
    for m in (gA, gB, gC):
        assert np.isclose(np.trace(m).real, 1.0)
    mp = markov_product(p)
    assert np.allclose(mp.gamma, kron(gA, gB, gC))
    assert markov_product(p) is mp  # built once, kept on p
    rep = check_causality(mp)
    assert rep["ok"]


def test_build_accepts_a_stack_of_states():
    g, dims = state_by_name("lambda")
    p = build_common_cause(np.array([g, np.eye(8) / 8]), dims, (2, 2))
    assert p.spectrum[0].shape == (2, 8)
    with pytest.raises(ValueError, match="state dimension does not match"):
        build_common_cause(np.array([g[:4, :4]] * 2), dims, (2, 2))


@pytest.mark.parametrize("call", [
    lambda p, inst: p.matrix,
    lambda p, inst: condition(p, "B", inst.elements[0].matrix),
    memory_strength, recover,
    lambda p, inst: born_probability(p),
    lambda p, inst: check_causality(p),
    lambda p, inst: projective_survey(p, 0.0125, 100, 0),
    lambda p, inst: non_markovianity_choi(p),
    lambda p, inst: quantum_cmi_choi(p),
    lambda p, inst: deviation_scan(p, p, grid=4),
    lambda p, inst: fidelity(p.gamma, p.gamma)],
    ids=["matrix", "condition", "memory_strength", "recover",
         "born_probability", "check_causality", "projective_survey",
         "non_markovianity_choi", "quantum_cmi_choi", "deviation_scan",
         "fidelity"])
def test_stacked_process_raises_on_one_process_paths(call):
    # only the gamma-only paths read a stack state by state; every Choi,
    # conditioning, Born and scan path refuses it by name
    g, dims = state_by_name("lambda")
    p = build_common_cause(np.array([g, g, np.eye(8) / 8]), dims, (2, 2))
    with pytest.raises(ValueError, match=r"^.+ takes one (state|pair of "
                       r"states); the (process holds a stack|operands are "
                       r"stacks) of 3$"):
        call(p, instrument_by_name("theta"))


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 3),
                                  (1, 2, 3), (2, 1, 1)])
def test_marginals_bit_equal_to_partial_trace(dims):
    rng = np.random.default_rng(sum(dims))
    for _ in range(5):
        g = random_density(rng, int(np.prod(dims)))
        p = build_common_cause(g, dims, dims[:2])
        for k, m in enumerate(marginals(p)):
            ref = partial_trace(p.gamma, dims, (k,))
            assert m.shape == ref.shape
            assert m.tobytes() == ref.tobytes()


def test_spectrum_is_the_build_checks_eigh():
    g = random_density(np.random.default_rng(3), 8)
    p = build_common_cause(g, (2, 2, 2), (2, 2))
    w, v = np.linalg.eigh((p.gamma + p.gamma.conj().T) / 2)
    assert p.spectrum[0].tobytes() == w.tobytes()
    assert p.spectrum[1].tobytes() == v.tobytes()
    assert p.spectrum is p.spectrum


def test_cp_divisibility():
    for p in (lam_process(), ome_process()):
        rep = cp_divisibility_check(p)
        assert rep["ok"]
        assert max(rep["residuals"].values()) < 1e-12


def test_gamma_is_a_read_only_copy():
    # the process keeps what it derives from gamma (its spectrum and event
    # tables), so its gamma cannot change, nor can the Choi matrix and
    # spectrum it keeps; the caller's array still can
    g, dims = state_by_name("lambda")
    g = g.copy()
    p = build_common_cause(g, dims, (2, 2))
    rec = recover(p, instrument_by_name("theta"))
    for kept in (p.gamma, rec.gamma, p.matrix, *p.spectrum):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0.0
    g[0, 0] += 1.0
    assert p.gamma[0, 0] != g[0, 0]
    assert p.gamma.tobytes() == state_by_name("lambda")[0].tobytes()


def test_process_pickles_without_its_event_tables():
    p = lam_process()
    theta = instrument_by_name("theta")
    rec = recover(p, theta)
    deviation_scan(p, rec, grid=4)
    quantum_cmi_choi(p)
    q = pickle.loads(pickle.dumps(p))
    assert q.gamma.tobytes() == p.gamma.tobytes() and "_memo" not in vars(q)
    assert len(p._memo) == 1
    # the cached Choi spectrum and AC data are rebuilt, to the same bytes
    # and read-only again, as is the unpickled gamma
    assert "choi_spectrum" not in vars(q) and "_ac_bloch" not in vars(q)
    assert q.choi_spectrum.tobytes() == p.choi_spectrum.tobytes()
    for got, want in zip(_ac_bloch(q), _ac_bloch(p)):
        assert got.tobytes() == want.tobytes()
    for arr in (q.gamma, q.choi_spectrum, *_ac_bloch(q)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    r = pickle.loads(pickle.dumps(rec))
    assert type(r) is type(rec) and r.gamma.tobytes() == rec.gamma.tobytes()
    assert r.source_instrument.name == "theta"


def _assert_read_only(arrays):
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0


def _event_bytes(rec):
    return [(prob, *(m.tobytes() for m in marg))
            for prob, *marg in rec.events]


def test_unpickled_kept_arrays_are_read_only():
    # numpy unpickles arrays writable; a recovered process and an
    # instrument, its dual frame built or not, freeze every kept array
    # again on load, to the same bytes. With B in |0>, z's second event is
    # impossible and keeps maximally mixed marginals in its place
    g = kron(np.eye(2) / 2, np.diag([1.0, 0.0]), np.eye(2) / 2)
    for p, name in ((lam_process(), "theta"),
                    (build_common_cause(g, (2, 2, 2), (2, 2)), "z")):
        rec = recover(p, instrument_by_name(name))
        r = pickle.loads(pickle.dumps(rec))
        assert _event_bytes(r) == _event_bytes(rec)
        for obj in (rec, r):
            _assert_read_only([m for _, *marg in obj.events for m in marg])
    theta = instrument_by_name("theta")
    bare = pickle.loads(pickle.dumps(theta))
    frame = dual_frame(theta)
    built = pickle.loads(pickle.dumps(theta))
    assert "_dual_frame" not in vars(built)
    for inst in (theta, bare, built):
        assert [m.tobytes() for m in inst.matrices()] == [
            m.tobytes() for m in theta.matrices()]
        f = dual_frame(inst)
        assert [m.tobytes() for m in (*f.duals, f.gram)] == [
            m.tobytes() for m in (*frame.duals, frame.gram)]
        _assert_read_only([*inst.matrices(), *f.duals, f.gram])
