"""Property checks of the process core over random states and POVMs.

Dims are drawn from {2,3} per party, states include rank-deficient ones,
and POVMs come from random isometries. Each example draws one numpy seed,
so a failure replays from the seed hypothesis reports.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from proctensor.instruments import instrument
from proctensor.linalg import kron, partial_trace
from proctensor.process import (LEGS, born_probability, build_common_cause,
                                condition)
from proctensor.recovery import recover
from proctensor.tomography import (CountsTable, born_probabilities,
                                   product_settings, reconstruct)

PROPS = settings(max_examples=25, deadline=None)
DIMS = st.tuples(*[st.sampled_from((2, 3))] * 3)
SEEDS = st.integers(0, 2 ** 32 - 1)

# Choi leg positions of the input and the output legs
INPUTS = tuple(i for i, (_, way) in enumerate(LEGS) if way == "input")
OUTPUTS = tuple(i for i, (_, way) in enumerate(LEGS) if way == "output")


def random_state(rng, d):
    """Density matrix of random rank between 1 and d."""
    rank = int(rng.integers(1, d + 1))
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_povm(rng, d, n):
    """n-outcome POVM E_i = V_i^dag V_i from a random isometry V."""
    z = rng.normal(size=(n * d, d)) + 1j * rng.normal(size=(n * d, d))
    v, _ = np.linalg.qr(z)
    blocks = v.reshape(n, d, d)
    return [b.conj().T @ b for b in blocks]


def random_process(dims, seed):
    rng = np.random.default_rng(seed)
    out_dims = tuple(int(x) for x in rng.choice((2, 3), size=2))
    gamma = random_state(rng, int(np.prod(dims)))
    p = build_common_cause(gamma, dims, out_dims)
    povms = [random_povm(rng, d, int(rng.integers(2, 4))) for d in dims]
    return p, povms


def embed(element, k, dims):
    """element on party k, identity elsewhere."""
    return kron(*[element if i == k else np.eye(d)
                  for i, d in enumerate(dims)])


@PROPS
@given(DIMS, SEEDS)
def test_condition_matches_born_and_partial_trace(dims, seed):
    p, povms = random_process(dims, seed)
    for k, party in enumerate("ABC"):
        rest = tuple(i for i in range(3) if i != k)
        total = 0
        for e in povms[k]:
            c = condition(p, party, e)
            born = born_probability(p, *[e if i == k else None
                                         for i in range(3)])
            assert abs(c.probability - born) < 1e-12
            total = total + c.probability * c.state
            # tr_party[gamma (element at party)], built independently
            ref = partial_trace(p.gamma @ embed(e, k, dims), dims, rest)
            assert np.allclose(c.unnormalized, ref, atol=1e-12)
            assert c.input_dims == tuple(dims[i] for i in rest)
        assert np.allclose(total, partial_trace(p.gamma, dims, rest),
                           atol=1e-10)


@PROPS
@given(DIMS, SEEDS)
def test_common_cause_choi_reduces_to_gamma(dims, seed):
    p, _ = random_process(dims, seed)
    (dA, dB, dC), (dAo, dBo) = dims, p.output_dims
    assert p.choi_dims == (dA, dAo, dB, dBo, dC)
    reduced = partial_trace(p.matrix, p.choi_dims, INPUTS)
    assert np.allclose(reduced / np.prod(p.output_dims), p.gamma,
                       atol=1e-12)
    # output legs alone carry the identity
    assert np.allclose(partial_trace(p.matrix, p.choi_dims, OUTPUTS),
                       np.eye(int(np.prod(p.output_dims))), atol=1e-12)


@PROPS
@given(DIMS, SEEDS)
def test_recover_preserves_event_probabilities(dims, seed):
    p, povms = random_process(dims, seed)
    inst = instrument(povms[1], "random")
    rec = recover(p, inst)
    assert np.allclose(partial_trace(rec.matrix, rec.choi_dims,
                                     INPUTS) / np.prod(rec.output_dims),
                       rec.gamma, atol=1e-12)
    # each middle event, alone and jointly with either outer party's
    # events; the recovered process keeps only the outer marginals, so
    # three-party joint statistics are not part of the contract
    for eb in inst.matrices():
        outer = [(None, None)] + [(ea, None) for ea in povms[0]] \
            + [(None, ec) for ec in povms[2]]
        for ea, ec in outer:
            assert abs(born_probability(p, ea, eb, ec)
                       - born_probability(rec, ea, eb, ec)) < 1e-10


# (3, 3, 3) is left out: its inversion matrix is 19683 x 729 complex
# (230 MB a copy). One SVD for two qutrit legs takes ~0.5 s, hence fewer
# examples.
@settings(max_examples=12, deadline=None)
@given(DIMS.filter(lambda dims: dims != (3, 3, 3)), SEEDS)
def test_reconstruct_returns_gamma_from_born_frequencies(dims, seed):
    gamma = random_state(np.random.default_rng(seed), int(np.prod(dims)))
    table = product_settings(dims)
    # 2**50 shots per setting: every count and sum is exact in float64,
    # so the frequencies are the Born probabilities to about 1e-16
    born = [np.rint(born_probabilities(gamma, U) * 2.0 ** 50)
            .astype(np.int64) for _, U in table]
    counts = CountsTable(tuple(lbl for lbl, _ in table), tuple(born))
    assert np.max(np.abs(reconstruct(counts, dims) - gamma)) < 1e-10
