"""Numerical toolkit for three-step quantum processes with a common cause.

Builds process tensors from tripartite cause states, quantifies
non-Markovianity and instrument-specific memory, reconstructs the
process from one instrument's statistics, compiles measurement circuits
on a one-dimensional quantum walk, and simulates full state tomography
with bootstrap error bars. The `proctensor` console script exposes all
of it, including presets that reproduce the headline numbers.

The public API is `__all__`; each name loads its module on first use, so
a command pays only for the modules it runs.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "instruments": ("DualFrame", "Instrument", "PovmElement", "dual_frame",
                    "gram_matrix", "instrument", "instrument_by_name",
                    "qutrit_sharp", "random_projective", "span_project",
                    "tetra_povm", "theta_povm", "xi_noisy", "z_basis"),
    "linalg": ("fidelity", "hermitize", "kron", "partial_trace",
               "relative_entropy", "trace_distance", "trace_norm",
               "von_neumann_entropy"),
    "memory": ("MemoryReport", "confusion_probability", "markov_order_test",
               "memory_strength", "mutual_information", "non_markovianity",
               "non_markovianity_choi", "projective_survey", "quantum_cmi",
               "quantum_cmi_choi", "state_non_markovianity"),
    "process": ("ConditionalProcess", "ProcessTensor", "born_probability",
                "born_rule", "build_common_cause", "check_causality",
                "condition", "condition_instrument", "cp_divisibility_check",
                "marginals", "markov_product"),
    "recovery": ("Observable", "RecoveredProcess", "ScanResult",
                 "deviation_scan", "expectation", "noisy_replay", "observable",
                 "recover", "reference_recovered_lambda",
                 "reference_recovered_omega", "validate_observable"),
    "states": ("StateEnsemble", "bell", "ensemble_to_state", "lambda_ensemble",
               "lambda_state", "omega_ensemble", "omega_state",
               "state_by_name", "werner"),
    "tomography": ("CountsTable", "bootstrap", "counts_from_csv",
                   "counts_to_csv", "product_settings", "qubit_bases",
                   "qutrit_bases", "reconstruct", "simulate_counts"),
    "walk": ("WalkCircuit", "WalkState", "align_frames", "circuit_by_name",
             "extract_povm", "load_circuit", "port_probabilities",
             "run_protocol", "save_circuit", "tetra_circuit", "theta_circuit"),
}
_OWNER = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items()
          for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    # looked up in the owning module every time, never bound here: a
    # caller that patches a module's function (a tracer, a mock) is seen
    # through the package too, and its restore is not outlived
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(sys.modules.get(module) or import_module(module), name)


def __dir__():
    return sorted({*globals(), *__all__})
