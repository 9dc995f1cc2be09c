"""The package namespace: the public API, lazy module loading, the
contract with perfbench/tracer.py (a lookup through the package sees a
patched function and never outlives its restore), and the one rule for
its array records."""
import ast
import dataclasses
import importlib
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import proctensor
from proctensor.linalg import Record

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ("linalg", "states", "process", "instruments", "memory",
           "recovery", "walk", "tomography", "presets", "cli")

PUBLIC = [
    "ConditionalProcess", "CountsTable", "DualFrame", "Instrument",
    "MemoryReport", "Observable", "PovmElement", "ProcessTensor",
    "RecoveredProcess", "ScanResult", "StateEnsemble", "WalkCircuit",
    "WalkState", "align_frames", "bell", "bootstrap", "born_probability",
    "born_rule", "build_common_cause", "check_causality", "circuit_by_name",
    "condition", "condition_instrument", "confusion_probability",
    "counts_from_csv", "counts_to_csv", "cp_divisibility_check",
    "deviation_scan", "dual_frame", "ensemble_to_state", "expectation",
    "extract_povm", "fidelity", "gram_matrix", "hermitize", "instrument",
    "instrument_by_name", "kron", "lambda_ensemble", "lambda_state",
    "load_circuit", "marginals", "markov_order_test", "markov_product",
    "memory_strength", "mutual_information", "noisy_replay",
    "non_markovianity", "non_markovianity_choi", "observable",
    "omega_ensemble", "omega_state", "partial_trace", "port_probabilities",
    "product_settings", "projective_survey", "quantum_cmi",
    "quantum_cmi_choi", "qubit_bases", "qutrit_bases", "qutrit_sharp",
    "random_projective", "reconstruct", "recover",
    "reference_recovered_lambda", "reference_recovered_omega",
    "relative_entropy", "run_protocol", "save_circuit", "simulate_counts",
    "span_project", "state_by_name", "state_non_markovianity",
    "tetra_circuit", "tetra_povm", "theta_circuit", "theta_povm",
    "trace_distance", "trace_norm", "validate_observable",
    "von_neumann_entropy", "werner", "xi_noisy", "z_basis",
]


def _python(code, cwd=None):
    """Run code in a fresh interpreter with src on the path; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_failing_given_test_is_reported_not_crashed(tmp_path):
    # on a failing @given test hypothesis imports libcst to print a patch;
    # that import warns, which the suite's filters must not turn into an
    # INTERNALERROR that aborts the run
    (tmp_path / "test_given.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c",
         str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed" in out and "INTERNALERROR" not in out


def test_public_api_is_pinned():
    assert len(PUBLIC) == 84 and PUBLIC == sorted(PUBLIC)
    assert proctensor.__all__ == PUBLIC
    for name in PUBLIC:
        obj = getattr(proctensor, name)
        assert obj.__module__.startswith("proctensor."), name
        assert obj is getattr(sys.modules[obj.__module__], name), name


def test_star_import_dir_and_unknown_name():
    namespace = {}
    exec("from proctensor import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert set(PUBLIC) <= set(dir(proctensor))
    assert "__version__" in dir(proctensor)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        proctensor.no_such_name
    assert not hasattr(proctensor, "validate")  # instruments' own, not public


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_standalone(module):
    _python(f"import proctensor.{module}")


@pytest.mark.parametrize("argv, unloaded", [
    (["preset", "survey"], {"walk", "tomography", "recovery"}),
    (["tomo", "simulate", "--state", "lambda", "--shots", "1000", "--out",
      "c.csv"], {"memory", "recovery", "walk"}),
], ids=["preset-survey", "tomo-simulate"])
def test_command_loads_only_its_modules(tmp_path, argv, unloaded):
    loaded = _python(
        "import contextlib, io, sys\n"
        "from proctensor.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(' '.join(m for m in sys.modules "
        "if m.startswith('proctensor.')))", cwd=tmp_path).split()
    assert "proctensor.cli" in loaded
    assert not {f"proctensor.{m}" for m in unloaded} & set(loaded)


def test_tracer_wrapper_does_not_outlive_uninstall():
    """The package's first lookup of a function happens with the tracer
    installed; it must see the wrapper, and after uninstall the original,
    with no function left bound in the package itself."""
    out = _python(
        "import inspect, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "from tracer import Tracer\n"
        "import proctensor\n"
        f"tracer = Tracer('proctensor', {MODULES!r})\n"
        "original = vars(proctensor.process)['build_common_cause']\n"
        "tracer.install()\n"
        "wrapped = proctensor.build_common_cause\n"
        "assert wrapped is not original\n"
        "assert wrapped.__wrapped__ is original\n"
        "tracer.uninstall()\n"
        "assert proctensor.build_common_cause is original\n"
        "assert proctensor.build_common_cause is "
        "proctensor.process.build_common_cause\n"
        "bound = [name for name, obj in vars(proctensor).items()\n"
        "         if inspect.isfunction(obj)\n"
        "         and obj.__module__.startswith('proctensor.')]\n"
        "assert not bound, bound\n"
        "print('ok')")
    assert out == "ok\n"


def _layer_functions():
    """perfbench/run.py's LAYER_FUNCTIONS, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["LAYER_FUNCTIONS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no LAYER_FUNCTIONS")


@pytest.mark.parametrize("module, names", _layer_functions().items())
def test_benchmark_traces_public_functions(module, names):
    """The tracer counts calls by name, so a benchmarked function that is
    renamed or deleted would report 0 calls instead of failing."""
    mod = importlib.import_module(f"proctensor.{module}")
    for name in names:
        obj = vars(mod).get(name)
        assert not name.startswith("_"), name
        assert inspect.isfunction(obj), f"{module}.{name} is not a function"
        assert obj.__module__ == mod.__name__, f"{module}.{name} is imported"


def _array_record(name):
    """The array record name, built directly from fresh writable arrays,
    and those arrays."""
    fresh = []

    def arr(values, dtype=complex):
        fresh.append(np.array(values, dtype=dtype))
        return fresh[-1]
    gamma = proctensor.state_by_name("lambda")[0]
    half, x = np.eye(2) / 2, [[0, 1], [1, 0]]
    make = {
        "ProcessTensor": lambda: proctensor.ProcessTensor(
            arr(gamma), (2, 2, 2), (2, 2)),
        "RecoveredProcess": lambda: proctensor.RecoveredProcess(
            arr(gamma), (2, 2, 2), (2, 2), proctensor.theta_povm(),
            ((1.0, arr(half), arr(half)),)),
        "PovmElement": lambda: proctensor.PovmElement(arr(half)),
        "DualFrame": lambda: proctensor.DualFrame(
            (arr(half), arr(x)), arr(np.eye(2))),
        "CountsTable": lambda: proctensor.CountsTable(
            ("Z", "X"), arr([[3, 7], [4, 6]], np.int64)),
        "ConditionalProcess": lambda: proctensor.ConditionalProcess(
            arr(half), 0.5, (2, 1)),
        "ScanResult": lambda: proctensor.ScanResult(
            "projector", arr([0.0, 1.0], float), arr([0.0], float),
            *(arr([0.25, 0.5, 0.5, 0.25], float) for _ in range(3)), 0.0,
            {"theta1": 0.0, "phi": 0.0, "theta2": 0.0, "psi": 0.0}),
        "StateEnsemble": lambda: proctensor.StateEnsemble(
            ((arr([1, 0]), 0.5), (arr([0, 1]), 0.5)), (2,)),
        "WalkCircuit": lambda: proctensor.WalkCircuit(
            ({0: arr(x)},), {-1: 1, 1: 2}),
        "Observable": lambda: proctensor.Observable(
            ((1.0, arr(x), arr(half), arr(x)),)),
    }
    return make[name](), fresh


def _arrays(value):
    """Every ndarray in value, alone or inside tuples and dicts."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    return []


def _field_arrays(record):
    return [a for f in dataclasses.fields(record)
            for a in _arrays(getattr(record, f.name))]


@pytest.mark.parametrize("name", [
    "ProcessTensor", "RecoveredProcess", "PovmElement", "DualFrame",
    "CountsTable", "ConditionalProcess", "ScanResult", "StateEnsemble",
    "WalkCircuit", "Observable"])
def test_array_record_keeps_read_only_copies_compared_by_identity(name):
    record, fresh = _array_record(name)
    if name == "ConditionalProcess":
        record.state  # derived before the caller's array is written
    kept = _field_arrays(record)
    assert len(kept) == len(fresh)
    before = [a.tobytes() for a in kept]
    for a in fresh:  # the caller's arrays stay writable and unshared
        a += 1
    assert [a.tobytes() for a in _field_arrays(record)] == before
    if name == "ConditionalProcess":
        assert record.state.tobytes() == (
            record.unnormalized / record.probability).tobytes()
    for a in kept:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0
    loaded = pickle.loads(pickle.dumps(record))
    assert record == record and loaded == loaded and record != loaded
    assert len({record, loaded, record}) == 2
    assert [a.tobytes() for a in _field_arrays(loaded)] == before
    assert not any(a.flags.writeable for a in _field_arrays(loaded))


def _walk_state():
    from proctensor.walk import coin_state, translate
    return translate(coin_state([0.6, 0.8j]))


def _memory_report():
    g, dims = proctensor.state_by_name("lambda")
    return proctensor.memory_strength(
        proctensor.build_common_cause(g, dims, (2, 2)),
        proctensor.theta_povm())


# dataclasses that hold no arrays, so keep value equality, each with a
# builder of a sample
VALUE_RECORDS = {"MemoryReport": _memory_report, "WalkState": _walk_state}


@pytest.mark.parametrize("module", MODULES)
def test_array_records_are_identity_compared_records(module):
    """A dataclass holding arrays gets a generated __eq__ and __hash__
    that can only raise; each must be a linalg.Record declared eq=False,
    or hold no arrays and be listed in VALUE_RECORDS."""
    mod = importlib.import_module(f"proctensor.{module}")
    for cls in vars(mod).values():
        if not (dataclasses.is_dataclass(cls)
                and cls.__module__ == mod.__name__):
            continue
        if cls.__name__ in VALUE_RECORDS:
            build = VALUE_RECORDS[cls.__name__]
            sample = build()
            assert type(sample) is cls and not _field_arrays(sample)
            assert sample == build() and hash(sample) == hash(build())
            continue
        assert issubclass(cls, Record), f"{cls.__name__} is not a Record"
        assert (cls.__eq__ is object.__eq__
                and cls.__hash__ is object.__hash__), (
            f"{cls.__name__} is not declared eq=False")
