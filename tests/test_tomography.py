"""Tomography: settings, simulated counts, inversion, bootstrap, CSV."""
import hashlib
import io
import re
from functools import reduce

import numpy as np
import pytest

from proctensor import tomography
from proctensor.linalg import fidelity
from proctensor.states import state_by_name
from proctensor.tomography import (
    CountsTable, _leg_bases, _pseudo_inverse, _unitaries, bootstrap,
    born_probabilities, counts_from_csv, counts_to_csv, inversion_matrix,
    product_settings, qubit_bases, qutrit_bases, reconstruct,
    resample_counts, simplex_projection, simulate_counts)


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_bases_are_unitary():
    for lbl, U in qubit_bases():
        assert np.allclose(U.conj().T @ U, np.eye(2))
    qts = qutrit_bases()
    assert len(qts) == 9
    for lbl, U in qts:
        assert np.allclose(U.conj().T @ U, np.eye(3))
    labels = [l for l, _ in qts]
    assert len(set(labels)) == 9


def test_product_settings_counts():
    assert len(product_settings((2, 2, 2))) == 27
    assert len(product_settings((2, 3, 2))) == 81
    assert len(product_settings((2,))) == 3
    with pytest.raises(ValueError):
        product_settings((2, 4))
    lbl, U = product_settings((2, 3, 2))[0]
    assert lbl.count("/") == 2
    assert U.shape == (12, 12)


def test_born_probabilities():
    rng = np.random.default_rng(26)
    for _ in range(10):
        rho = random_density(rng, 4)
        for _, U in product_settings((2, 2)):
            p = born_probabilities(rho, U)
            assert np.isclose(p.sum(), 1.0)
            assert np.all(p >= 0)


def test_counts_table_validation():
    assert CountsTable(("Z",), (np.array([3, 7]),)).shots == (10,)
    with pytest.raises(TypeError):  # the totals are derived, not passed
        CountsTable(("Z",), (np.array([3, 7]),), (10,))
    with pytest.raises(ValueError, match="^negative count$"):
        CountsTable(("Z",), (np.array([-1, 11]),))
    with pytest.raises(ValueError, match="^labels and counts must align$"):
        CountsTable(("Z", "X"), (np.array([5, 5]),))
    with pytest.raises(ValueError, match="^setting 'Z' has 2 outcomes, but "
                       "setting 'X' has 0$"):
        CountsTable(("Z", "X"), (np.array([5, 5]), np.array([], int)))
    # an empty table, a table without outcomes and a stack are refused
    for labels, counts, shape in (((), (), (0,)),
                                  (("Z", "X"), np.zeros((2, 0)), (2, 0)),
                                  (("Z",), np.ones((1, 2, 2)), (1, 2, 2))):
        with pytest.raises(ValueError, match=re.escape(
                "counts must be a (settings, outcomes) matrix with both "
                f"axes nonempty, got shape {shape}")):
            CountsTable(labels, counts)


@pytest.mark.parametrize("counts", [
    np.array([[3, 7], [4, 6]], dtype=np.int32),
    ([3, 7], [4, 6]), [np.array([3, 7]), [4, 6]]],
    ids=["2-d-array", "tuple-of-lists", "list-of-rows"])
def test_counts_table_is_one_read_only_matrix(counts):
    table = CountsTable(["Z", "X"], counts)
    assert table.labels == ("Z", "X") and table.shots == (10, 10)
    assert table.counts.dtype == np.int64
    assert table.counts.tolist() == [[3, 7], [4, 6]]
    assert not table.counts.flags.writeable
    assert [row.tolist() for row in table.counts] == [[3, 7], [4, 6]]


def test_counts_table_totals_are_exact():
    # an int64 sum would wrap: [2**62, 2**62] sums to -2**63 in int64
    top = 2 ** 63 - 1
    table = CountsTable(("Z", "X"), ([top - 1, 1], [4, 0]))
    assert table.shots == (top, 4) and type(table.shots[0]) is int
    assert table.total_shots == top + 4
    for c in ([2 ** 62, 2 ** 62], [top, top]):
        with pytest.raises(ValueError, match="^setting 'X': counts sum "
                           "beyond the int64 range$"):
            CountsTable(("Z", "X"), np.array([[1, 0], c]))


def _table_error_reference(labels, counts):
    """The per-setting loops the one-matrix table check replaced: rows of
    unequal width first, then each setting in turn."""
    for lbl, c in zip(labels, counts):
        if len(c) != len(counts[0]):
            return (f"setting {labels[0]!r} has {len(counts[0])} outcomes, "
                    f"but setting {lbl!r} has {len(c)}")
    for lbl, c in zip(labels, counts):
        c = np.asarray(c, dtype=np.int64)
        if not c.size:
            return ("counts must be a (settings, outcomes) matrix with both "
                    f"axes nonempty, got shape {(len(counts), 0)}")
        if c.min() < 0:
            return "negative count"
    return None


def test_table_check_equals_per_setting_loop():
    # rectangular tables with at most a few defects, and ragged ones: the
    # first failing setting raises its first failing check, as the loops do
    rng = np.random.default_rng(31)
    ragged = 0
    for _ in range(400):
        n, width = int(rng.integers(1, 6)), int(rng.integers(0, 5))
        counts = [rng.integers(0, 9, size=width) for _ in range(n)]
        if rng.random() < 0.2:
            i = int(rng.integers(n))
            counts[i] = rng.integers(0, 9, size=int(rng.integers(0, 5)))
        ragged += len({c.size for c in counts}) > 1
        for i in range(n):
            if counts[i].size and rng.random() < 0.15:
                counts[i][rng.integers(counts[i].size)] = -rng.integers(1, 4)
        labels = [f"s{i}" for i in range(n)]
        expect = _table_error_reference(labels, counts)
        if expect is None:
            table = CountsTable(labels, counts)
            assert table.counts.tolist() == [c.tolist() for c in counts]
            assert table.shots == tuple(int(c.sum()) for c in counts)
            assert all(type(s) is int for s in table.shots)
        else:
            with pytest.raises(ValueError) as exc:
                CountsTable(labels, counts)
            assert str(exc.value) == expect
    assert ragged > 20


def test_settings_built_once_per_dims(monkeypatch):
    # simulate_counts reads one cached, read-only stack per dims;
    # product_settings hands out a writable copy
    calls = []
    build = tomography._unitaries

    def counted(labels, dims):
        calls.append(dims)
        return build(labels, dims)

    tomography._cached_settings.cache_clear()
    monkeypatch.setattr(tomography, "_unitaries", counted)
    try:
        g, dims = state_by_name("lambda")
        first = simulate_counts(g, list(dims), 2700, seed=0)
        again = simulate_counts(g, np.array(dims), 2700, seed=0)
        settings = product_settings(dims)
        assert calls == [(2, 2, 2)]
        labels, stack = tomography._settings(dims)
        assert not stack.flags.writeable
        settings[0][1][0, 0] = 5.0
        assert stack[0, 0, 0] != 5.0
        assert first.labels == again.labels == labels == tuple(
            lbl for lbl, _ in settings)
        assert all(np.array_equal(a, b)
                   for a, b in zip(first.counts, again.counts))
    finally:
        tomography._cached_settings.cache_clear()


def test_simulate_counts_deterministic_split():
    g, dims = state_by_name("lambda")
    c1 = simulate_counts(g, dims, 27000, seed=0)
    c2 = simulate_counts(g, dims, 27000, seed=0)
    assert c1.labels == c2.labels
    for a, b in zip(c1.counts, c2.counts):
        assert np.array_equal(a, b)
    assert c1.shots == (1000,) * 27
    assert c1.total_shots == 27000
    c3 = simulate_counts(g, dims, 27000, seed=1)
    assert any(not np.array_equal(a, b)
               for a, b in zip(c1.counts, c3.counts))
    tiny = simulate_counts(g, dims, 5, seed=0)
    assert tiny.shots == (1,) * 27


@pytest.mark.parametrize("name", ["lambda", "omega"])
def test_integer_shot_split_keeps_every_rounded_count(name):
    # the shot values of the tests, presets and benchmark workloads, over
    # 27 (lambda) and 81 (omega) settings: the split rounds as the float
    # division did
    g, dims = state_by_name(name)
    n = len(product_settings(dims))
    for shots in (5, 2700, 8100, 20000, 27000, 50000, 10 ** 5, 10 ** 6,
                  4 * 10 ** 6):
        assert simulate_counts(g, dims, shots, seed=0).shots == (
            max(1, round(shots / n)),) * n


class Drawn(Exception):
    pass


def _drawn(*args, **kwargs):
    raise Drawn


def test_shot_split_must_fit_int64(monkeypatch):
    g, dims = state_by_name("lambda")
    top = np.iinfo(np.int64).max
    monkeypatch.setattr(np.random, "default_rng", _drawn)
    for shots in (27 * top + 14, 10 ** 21):  # rounds to top + 1 or beyond
        with pytest.raises(ValueError, match=f"shots {shots} over 27 "
                           "settings is .* beyond the int64 range"):
            simulate_counts(g, dims, shots, seed=0)
    with pytest.raises(Drawn):  # the largest split allowed
        simulate_counts(g, dims, 27 * top + 13, seed=0)


def test_bootstrap_resample_cap(monkeypatch):
    # resamples times the table's count entries is capped at 2**24 before
    # any resample is drawn
    g, dims = state_by_name("lambda")
    counts = simulate_counts(g, dims, 2700, seed=0)  # 27 x 8 entries
    monkeypatch.setattr(np.random, "SeedSequence", _drawn)
    for resamples in (2 ** 24 // 216 + 1, 10 ** 20):
        with pytest.raises(ValueError, match=f"resamples {resamples} of 216 "
                           "count entries each redraw over 2\\*\\*24"):
            bootstrap(counts, dims, np.trace, resamples=resamples, seed=0)
    with pytest.raises(Drawn):  # the largest allowed
        bootstrap(counts, dims, np.trace, resamples=2 ** 24 // 216, seed=0)


def test_exact_frequency_inversion():
    # |01><01| has dyadic outcome probabilities in every product setting,
    # so exact frequencies reconstruct it to machine precision
    v = np.zeros(4)
    v[1] = 1.0
    rho = np.outer(v, v)
    settings = product_settings((2, 2))
    shots = 1 << 10
    labels, counts = [], []
    for lbl, U in settings:
        p = born_probabilities(rho, U)
        c = p * shots
        assert np.allclose(c, np.round(c), atol=1e-9)
        labels.append(lbl)
        counts.append(np.round(c).astype(np.int64))
    table = CountsTable(tuple(labels), tuple(counts))
    est = reconstruct(table, (2, 2))
    assert np.max(np.abs(est - rho)) < 1e-10


def test_reconstruct_postconditions():
    rng = np.random.default_rng(27)
    for dims in ((2, 2), (2, 3)):
        g = random_density(rng, int(np.prod(dims)))
        counts = simulate_counts(g, dims, 20000, seed=5)
        est = reconstruct(counts, dims)
        assert np.allclose(est, est.conj().T)
        assert np.isclose(np.trace(est).real, 1.0, atol=1e-10)
        assert np.linalg.eigvalsh(est).min() > -1e-12


def test_reconstruct_rejects_incomplete_settings():
    g, dims = state_by_name("lambda")
    counts = simulate_counts(g, dims, 27000, seed=0)
    # Z-only settings cannot span the state space
    keep = [i for i, l in enumerate(counts.labels) if set(l.split("/")) == {"Z"}]
    sub = CountsTable(tuple(counts.labels[i] for i in keep),
                      tuple(counts.counts[i] for i in keep))
    with pytest.raises(ValueError):
        reconstruct(sub, dims)


def test_fidelity_improves_with_shots():
    g, dims = state_by_name("lambda")
    means = []
    for shots in (1000, 10000, 100000):
        f = [fidelity(reconstruct(simulate_counts(g, dims, shots, seed=s),
                                  dims), g)
             for s in range(3)]
        means.append(np.mean(f))
    assert means[0] < means[1] < means[2]


def test_simplex_projection():
    p = simplex_projection(np.array([0.5, 0.3, 0.2]))
    assert np.allclose(p, [0.5, 0.3, 0.2])
    q = simplex_projection(np.array([1.2, -0.1, -0.1]))
    assert np.isclose(q.sum(), 1.0)
    assert np.all(q >= 0)
    rng = np.random.default_rng(28)
    for _ in range(50):
        q = simplex_projection(rng.normal(size=6))
        assert np.isclose(q.sum(), 1.0)
        assert np.all(q >= -1e-15)


def test_resample_preserves_shape():
    g, dims = state_by_name("lambda")
    counts = simulate_counts(g, dims, 2700, seed=0)
    rng = np.random.default_rng(0)
    redrawn = resample_counts(counts, rng)
    assert redrawn.labels == counts.labels
    assert redrawn.shots == counts.shots
    assert all(int(c.sum()) == s
               for c, s in zip(redrawn.counts, redrawn.shots))


def purity(states):
    """Stacked purity, one value per state of an (m, d, d) stack."""
    return np.trace(states @ states, axis1=1, axis2=2).real


def test_bootstrap_deterministic_and_zero_variance():
    g, dims = state_by_name("lambda")
    counts = simulate_counts(g, dims, 2700, seed=0)
    m1, e1 = bootstrap(counts, dims, purity, resamples=25, seed=4)
    m2, e2 = bootstrap(counts, dims, purity, resamples=25, seed=4)
    assert m1 == m2 and e1 == e2
    assert e1 > 0
    m3, e3 = bootstrap(counts, dims, lambda s: np.ones(len(s)), resamples=10,
                       seed=4)
    assert m3 == 1.0 and e3 == 0.0
    with pytest.raises(ValueError):
        bootstrap(counts, dims, purity, resamples=1, seed=4)


@pytest.mark.parametrize("statistic, shape", [
    (lambda s: 1.0, "()"), (np.trace, "(8,)"),
    (lambda s: np.ones((len(s), 1)), "(12, 1)")],
    ids=["scalar", "trace", "column"])
def test_bootstrap_rejects_a_statistic_of_the_wrong_shape(statistic, shape):
    # the statistic gets the whole stack and must give one value per state
    g, dims = state_by_name("lambda")
    counts = simulate_counts(g, dims, 2700, seed=0)
    with pytest.raises(ValueError, match=re.escape(
            "statistic must map the (12, 8, 8) stack to shape (12,), got "
            f"shape {shape}")):
        bootstrap(counts, dims, statistic, resamples=12, seed=0)


def test_counts_csv_roundtrip(tmp_path):
    g, dims = state_by_name("omega")
    counts = simulate_counts(g, dims, 8100, seed=2)
    path = tmp_path / "counts.csv"
    counts_to_csv(counts, str(path))
    back = counts_from_csv(str(path))
    assert back.labels == counts.labels
    assert back.shots == counts.shots
    for a, b in zip(back.counts, counts.counts):
        assert np.array_equal(a, b)
    est1 = reconstruct(counts, dims)
    est2 = reconstruct(back, dims)
    assert np.array_equal(est1, est2)
    # stream round trip keeps the same content
    buf = io.StringIO()
    counts_to_csv(counts, buf)
    buf.seek(0)
    again = counts_from_csv(buf)
    assert again.labels == counts.labels


def _quoting_table():
    # labels csv must quote (a comma, a '"', a line break), one it must not
    # (a leading space) and an empty one
    labels = ("a,b", 'say "hi"', " lead", "", "x\ny")
    counts = ([1, 2, 0], [3, 0, 9], [0, 4, 5], [6, 1, 0], [7, 0, 2])
    return CountsTable(labels, counts)


def _random_232_table():
    rho = random_density(np.random.default_rng(232), 12)
    return simulate_counts(rho, (2, 3, 2), 8100, seed=5)


# sha256 of the file counts_to_csv writes, as the csv.writer loop wrote it
CSV_PINS = [
    (lambda: simulate_counts(*state_by_name("lambda"), 2700, seed=0),
     "de4ab76a9df2a02830d5ea815d5c6e3d9a075e61312e24ace58a4929c7e0d968"),
    (lambda: simulate_counts(*state_by_name("omega"), 2700, seed=0),
     "4745be8d066e6ba96ac9777dce505221f7980d3d9e5ba9ac52d225c67b33acc8"),
    (_random_232_table,
     "87fed0904aced449060735bf916a3769901924ca7798623be3cbbb709a0d1249"),
    (_quoting_table,
     "9c7b0ab3f1901857c30c573aeeafecc2fa2c38f2373859fa1bdbd371a6ca0b5a"),
]


@pytest.mark.parametrize("make, digest", CSV_PINS,
                         ids=["lambda", "omega", "random-232", "quoting"])
def test_counts_csv_bytes_pinned(tmp_path, make, digest):
    path = tmp_path / "counts.csv"
    counts_to_csv(make(), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    table, back = make(), counts_from_csv(str(path))
    assert back.labels == table.labels and back.shots == table.shots
    assert [c.tolist() for c in back.counts] == [
        c.tolist() for c in table.counts]


H = "setting,outcome,count\r\n"
# (file text, (labels, counts) read or the exact error message)
READ_CASES = {
    "lf": ("setting,outcome,count\nZ,0,3\nZ,1,7\nX,0,5\nX,1,5\n",
           (("Z", "X"), [[3, 7], [5, 5]])),
    "crlf": (H + "Z,0,3\r\nZ,1,7\r\nX,0,5\r\nX,1,5\r\n",
             (("Z", "X"), [[3, 7], [5, 5]])),
    "blank-line": (H + "Z,0,3\r\n\r\nZ,1,7\r\n\r\n", (("Z",), [[3, 7]])),
    "blank-header": ("\r\n" + H + "Z,0,3\r\n", "counts table lacks column(s) "
                     "['setting', 'outcome', 'count']"),
    "missing-column-first": ("setting,outcome\r\n",
                             "counts table lacks column(s) ['count']"),
    "short-row": (H + "Z,0\r\nZ,1,7\r\n",
                  "setting 'Z': column 'count' holds None, not an integer"),
    "extra-column": (H + "Z,0,3,9\r\nZ,1,7\r\n", (("Z",), [[3, 7]])),
    "reordered-columns": ("count,setting,outcome\r\n3,Z,0\r\n7,Z,1\r\n",
                          (("Z",), [[3, 7]])),
    "interleaved": (H + "Z,0,3\r\nX,0,5\r\nZ,1,7\r\nX,1,5\r\n",
                    (("Z", "X"), [[3, 7], [5, 5]])),
    "reversed-outcomes": (H + "Z,1,3\r\nZ,0,7\r\n", (("Z",), [[7, 3]])),
    "whitespace": (H + "Z, 0 ,3 \r\nZ,1,\t7\r\n", (("Z",), [[3, 7]])),
    "underscore": (H + "Z,0,1_000\r\nZ,1,7\r\n", (("Z",), [[1000, 7]])),
    "quoted-labels": (H + '"a,b",0,3\r\n" x",0,1\r\n',
                      (("a,b", " x"), [[3], [1]])),
    "empty-cell": (H + "Z,,3\r\n",
                   "setting 'Z': column 'outcome' holds '', not an integer"),
    "negative-first": (H + "Z,-1,3\r\nZ,a,1\r\n",
                       "setting 'Z' has negative outcome -1"),
    "text-first": (H + "Z,a,3\r\nZ,-1,1\r\n",
                   "setting 'Z': column 'outcome' holds 'a', not an integer"),
    "negative-outcome-and-count": (H + "Z,-1,-1\r\n",
                                   "setting 'Z' has negative outcome -1"),
    "repeat-with-negative-count": (H + "Z,0,3\r\nZ,0,-1\r\n",
                                   "setting 'Z' lists outcome 0 twice"),
    "row-before-gap": (H + "Z,0,3\r\nZ,2,3\r\nX,0,1\r\nX,0,1\r\n",
                       "setting 'X' lists outcome 0 twice"),
    "first-gap": (H + "Z,0,3\r\nZ,2,3\r\nX,0,1\r\nX,2,1\r\n",
                  "setting 'Z' has no row for outcome 1"),
    "int64-sum": (H + "Z,0,9223372036854775807\r\nZ,1,1\r\n",
                  "setting 'Z': column 'count' sums beyond the int64 range"),
    "int64-cell": (H + "Z,0,9223372036854775808\r\n",
                   "setting 'Z': column 'count' sums beyond the int64 range"),
}


@pytest.mark.parametrize("text, expect", READ_CASES.values(),
                         ids=READ_CASES.keys())
def test_counts_reader_cases(tmp_path, text, expect):
    path = tmp_path / "counts.csv"
    path.write_bytes(text.encode())
    if isinstance(expect, str):
        with pytest.raises(ValueError) as exc:
            counts_from_csv(str(path))
        assert str(exc.value) == expect
    else:
        labels, counts = expect
        table = counts_from_csv(str(path))
        assert table.labels == labels
        assert [c.tolist() for c in table.counts] == counts
        assert table.shots == tuple(map(sum, counts))


def test_empty_counts_file_lacks_every_column(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_bytes(b"")
    with pytest.raises(ValueError) as exc:
        counts_from_csv(str(path))
    assert str(exc.value) == ("counts table lacks column(s) "
                              "['setting', 'outcome', 'count']")


# The batched bootstrap, the one-SVD inverse and the broadcast kron must
# reproduce the straightforward per-item computations to the last bit.
BIT_DIMS = [(2, 2, 2), (2, 3, 2), (3, 2, 2)]


def _labels(dims):
    return [lbl for lbl, _ in product_settings(dims)]


def _reconstruct_reference(counts, dims):
    """Linear inversion as first written: kron chains, outer-product rows,
    numpy's pinv and rank, one eigh."""
    d = int(np.prod(dims))
    lookup = [dict(_leg_bases(x)) for x in dims]
    rows = []
    for lbl in counts.labels:
        U = reduce(np.kron, [leg[part] for leg, part
                             in zip(lookup, lbl.split("/"))],
                   np.array([[1.0]], dtype=complex))
        for k in range(d):
            rows.append(np.outer(U[:, k], U[:, k].conj()).conj().reshape(-1))
    A = np.array(rows)
    assert np.linalg.matrix_rank(A) == d * d
    freqs = np.concatenate([c / c.sum() for c in counts.counts])
    rho = (np.linalg.pinv(A) @ freqs).reshape(d, d)
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    return (v * _simplex_reference(w)) @ v.conj().T


@pytest.mark.parametrize("dims", BIT_DIMS)
def test_bootstrap_equals_resample_loop(dims):
    d = int(np.prod(dims))
    g = random_density(np.random.default_rng(29), d)
    counts = simulate_counts(g, dims, 20000, seed=6)
    stacks = []

    def record(states):
        stacks.append(states.copy())
        return purity(states)

    mean, err = bootstrap(counts, dims, record, resamples=12, seed=8)
    # each resample redraws setting by setting from its own child
    # generator, and the table's totals are the redraws' sums
    ref = []
    for child in np.random.SeedSequence(8).spawn(12):
        rng = np.random.default_rng(child)
        redrawn = tuple(rng.multinomial(s, c / c.sum())
                        for c, s in zip(counts.counts, counts.shots))
        ref.append(reconstruct(
            CountsTable(counts.labels, redrawn), dims))
    assert len(stacks) == 1 and stacks[0].shape == (12, d, d)
    assert [s.tobytes() for s in stacks[0]] == [r.tobytes() for r in ref]
    assert reconstruct(counts, dims).tobytes() == \
        _reconstruct_reference(counts, dims).tobytes()
    vals = np.array([float(np.trace(r @ r).real) for r in ref])
    assert (mean, err) == (float(vals.mean()), float(vals.std()))


def test_resample_counts_equals_per_setting_draws():
    g, dims = state_by_name("omega")
    counts = simulate_counts(g, dims, 8100, seed=2)
    redrawn = resample_counts(counts, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    for c, s, new in zip(counts.counts, counts.shots, redrawn.counts):
        assert np.array_equal(new, rng.multinomial(s, c / c.sum()))


@pytest.mark.parametrize("dims", BIT_DIMS + [(2, 2)])
def test_pseudo_inverse_is_pinv(dims):
    d = int(np.prod(dims))
    labels = _labels(dims)
    A = inversion_matrix(_unitaries(labels, dims), d)
    assert np.linalg.matrix_rank(A) == d * d
    assert (_pseudo_inverse(labels, dims).tobytes()
            == np.linalg.pinv(A).tobytes())
    # an incomplete table reports matrix_rank's rank
    z_only = [lbl for lbl in labels if set(lbl.split("/")) <= {"Z", "01Z"}]
    rank = np.linalg.matrix_rank(inversion_matrix(
        _unitaries(z_only, dims), d))
    with pytest.raises(ValueError, match=f"rank {rank} < {d * d}"):
        _pseudo_inverse(z_only, dims)


@pytest.mark.parametrize("dims", BIT_DIMS + [(2, 2, 3), (3, 3)])
def test_product_settings_equal_kron_chain(dims):
    lookup = [dict(_leg_bases(d)) for d in dims]
    for lbl, U in product_settings(dims):
        ref = reduce(np.kron, [leg[part] for leg, part
                               in zip(lookup, lbl.split("/"))],
                     np.array([[1.0]], dtype=complex))
        assert U.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dims", BIT_DIMS + [(3, 3)])
def test_unitaries_of_any_label_order_are_the_settings_rows(dims):
    # a CSV table may list its settings in any order, or only some of them
    labels, stack = tomography._settings(dims)
    rng = np.random.default_rng(sum(dims))
    for pick in (rng.permutation(len(labels)),
                 rng.choice(len(labels), size=len(labels) // 3,
                            replace=False)):
        got = _unitaries([labels[i] for i in pick], dims)
        assert got.tobytes() == stack[pick].tobytes()


def _simplex_reference(evals):
    u = np.sort(evals)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(u) + 1)
    k = ks[u - (css - 1) / ks > 0][-1]
    tau = (css[k - 1] - 1) / k
    return np.clip(evals - tau, 0, None)


def test_stacked_simplex_projection_equals_rows():
    rng = np.random.default_rng(30)
    spectra = rng.normal(size=(40, 6)) * rng.uniform(0.01, 2, size=(40, 1))
    stacked = simplex_projection(spectra)
    rows = np.array([simplex_projection(r) for r in spectra])
    ref = np.array([_simplex_reference(r) for r in spectra])
    assert stacked.tobytes() == rows.tobytes() == ref.tobytes()
    assert simplex_projection(spectra[:3].reshape(3, 1, 6)).shape == (3, 1, 6)


@pytest.mark.parametrize("dims", BIT_DIMS)
def test_stacked_born_probabilities_equal_per_basis(dims):
    rho = random_density(np.random.default_rng(31), int(np.prod(dims)))
    bases = [U for _, U in product_settings(dims)]
    stacked = born_probabilities(rho, np.array(bases))
    rows = np.array([born_probabilities(rho, U) for U in bases])
    assert stacked.shape == (len(bases), int(np.prod(dims)))
    assert stacked.tobytes() == rows.tobytes()


@pytest.mark.parametrize("dims", BIT_DIMS)
def test_simulate_counts_equals_per_setting_loop(dims):
    """One 2-D multinomial draw gives the counts of one draw per setting."""
    rng = np.random.default_rng(32)
    settings = product_settings(dims)
    for seed in (0, 5, 12345):
        g = random_density(rng, int(np.prod(dims)))
        counts = simulate_counts(g, dims, 50000, seed)
        shots_per = counts.shots[0]
        ref = np.random.default_rng(seed)
        for (lbl, U), label, c in zip(settings, counts.labels, counts.counts):
            want = ref.multinomial(shots_per, born_probabilities(g, U))
            assert label == lbl
            assert c.tobytes() == want.tobytes()


@pytest.mark.parametrize("dims", BIT_DIMS)
def test_estimate_equals_per_row_matvecs(dims):
    d = int(np.prod(dims))
    inv = _pseudo_inverse(_labels(dims), dims)
    rng = np.random.default_rng(33)
    freqs = rng.dirichlet(np.ones(d), size=(4, inv.shape[1] // d))
    freqs = freqs.reshape(4, -1)
    rho = np.array([inv @ f for f in freqs]).reshape(-1, d, d)
    w, v = np.linalg.eigh((rho + rho.conj().swapaxes(-1, -2)) / 2)
    ref = (v * simplex_projection(w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    assert tomography._estimate(inv, freqs, d).tobytes() == ref.tobytes()


def test_simulate_counts_rejects_nonpositive_shots():
    g, dims = state_by_name("lambda")
    for shots in (0, -5, float("nan")):
        with pytest.raises(ValueError, match="shots must be at least 1"):
            simulate_counts(g, dims, shots, seed=0)
    with pytest.raises(ValueError, match="beyond the int64 range"):
        simulate_counts(g, dims, float("inf"), seed=0)


def test_simulate_counts_splits_a_numpy_integer_budget_exactly():
    # a numpy integer budget splits as the Python int does, with no wrap
    # (pytest turns an overflow RuntimeWarning into an error)
    g, dims = state_by_name("lambda")
    python = simulate_counts(g, dims, 2 ** 62, seed=0)
    numpy = simulate_counts(g, dims, np.int64(2 ** 62), seed=0)
    assert numpy.shots == python.shots == (170803185867681033,) * 27
    assert np.array_equal(numpy.counts, python.counts)


@pytest.mark.parametrize("gamma, msg", [
    (np.diag([1.5, -0.5, 0.5, 0.5, 0, 0, 0, 0]).astype(complex),
     "negative eigenvalue -5.000e-01"),
    (np.eye(8) / 8 + np.eye(8, k=1) / 20, "not Hermitian"),
    (np.eye(8) / 4, "trace 2.0 deviates from 1")],
    ids=["non-psd", "non-hermitian", "trace-two"])
def test_simulate_counts_refuses_a_non_state_before_any_draw(
        monkeypatch, gamma, msg):
    def no_draw(*args, **kwargs):
        raise AssertionError("a random draw was seeded")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=msg):
        simulate_counts(gamma, (2, 2, 2), 2700, seed=0)


def test_reconstruct_and_bootstrap_reject_ragged_tables():
    # a ragged table cannot be built; a table of the wrong width or with a
    # zero-shot setting reaches reconstruct and bootstrap, which refuse it
    g, dims = state_by_name("lambda")
    counts = simulate_counts(g, dims, 2700, seed=0)
    label = counts.labels
    short = list(counts.counts)
    short[1] = short[1][:-1]
    with pytest.raises(ValueError, match=f"^setting {label[0]!r} has 8 "
                       f"outcomes, but setting {label[1]!r} has 7$"):
        CountsTable(label, short)
    empty = counts.counts.copy()
    empty[2] = 0
    for table, msg in (
            (CountsTable(label, counts.counts[:, :-1]),
             f"setting {label[0]!r} has 7 outcomes; expected 8"),
            (CountsTable(label, empty),
             f"setting {label[2]!r} has no shots")):
        with pytest.raises(ValueError, match=msg):
            reconstruct(table, dims)
        with pytest.raises(ValueError, match=msg):
            bootstrap(table, dims, lambda rho: 1.0, resamples=2, seed=0)


# The pseudo-inverse is cached per (labels, dims): every table with equal
# labels and dims shares one read-only inverse.
@pytest.fixture
def inversion_builds(monkeypatch):
    """Empty the inverse cache and count inversion_matrix calls."""
    calls = []
    build = tomography.inversion_matrix

    def counted(mats, d):
        calls.append(d)
        return build(mats, d)

    tomography._cached_pseudo_inverse.cache_clear()
    monkeypatch.setattr(tomography, "inversion_matrix", counted)
    yield calls
    tomography._cached_pseudo_inverse.cache_clear()


def test_pseudo_inverse_is_read_only():
    inv = _pseudo_inverse(_labels((2, 2)), (2, 2))
    assert not inv.flags.writeable
    with pytest.raises(ValueError):
        inv[0, 0] = 0.0


def test_equal_tables_build_one_inverse(inversion_builds):
    g, dims = state_by_name("lambda")
    first = reconstruct(simulate_counts(g, dims, 2700, seed=0), dims)
    second = reconstruct(simulate_counts(g, dims, 2700, seed=1), dims)
    assert inversion_builds == [8]
    assert first.tobytes() != second.tobytes()


def test_list_and_tuple_dims_share_an_inverse(inversion_builds):
    labels = _labels((2, 2, 2))
    inv = _pseudo_inverse(labels, (2, 2, 2))
    assert _pseudo_inverse(tuple(labels), [2, 2, 2]) is inv
    assert _pseudo_inverse(labels, np.array([2, 2, 2])) is inv
    assert inversion_builds == [8]


def test_reordered_labels_get_their_own_inverse(inversion_builds):
    labels = _labels((2, 2))
    inv = _pseudo_inverse(labels, (2, 2))
    rev = _pseudo_inverse(labels[::-1], (2, 2))
    assert rev is not inv
    assert inversion_builds == [4, 4]
    # reversing the settings reverses the inverse's column blocks
    blocks = inv.reshape(16, len(labels), 4)[:, ::-1].reshape(16, -1)
    assert np.allclose(rev, blocks, atol=1e-12)


def test_incomplete_table_raises_on_every_call(inversion_builds):
    g, dims = state_by_name("lambda")
    counts = simulate_counts(g, dims, 27000, seed=0)
    keep = [i for i, l in enumerate(counts.labels)
            if set(l.split("/")) == {"Z"}]
    sub = CountsTable(tuple(counts.labels[i] for i in keep),
                      tuple(counts.counts[i] for i in keep))
    for _ in range(2):
        with pytest.raises(ValueError, match="informationally incomplete"):
            reconstruct(sub, dims)
        with pytest.raises(ValueError, match="informationally incomplete"):
            bootstrap(sub, dims, lambda rho: 1.0, resamples=2, seed=0)
    assert inversion_builds == [8] * 4
