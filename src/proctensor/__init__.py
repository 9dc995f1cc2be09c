"""Numerical toolkit for three-step quantum processes with a common cause.

Builds process tensors from tripartite cause states, quantifies
non-Markovianity and instrument-specific memory, reconstructs the
process from one instrument's statistics, compiles measurement circuits
on a one-dimensional quantum walk, and simulates full state tomography
with bootstrap error bars. The `proctensor` console script exposes all
of it, including presets that reproduce the headline numbers.
"""

from types import ModuleType as _ModuleType

from .instruments import (DualFrame, Instrument, PovmElement, dual_frame,
                          gram_matrix, instrument, instrument_by_name,
                          qutrit_sharp, random_projective, span_project,
                          tetra_povm, theta_povm, xi_noisy, z_basis)
from .linalg import (fidelity, hermitize, kron, partial_trace,
                     relative_entropy, trace_distance, trace_norm,
                     von_neumann_entropy)
from .memory import (MemoryReport, confusion_probability,
                     markov_order_test, memory_strength,
                     mutual_information, non_markovianity,
                     non_markovianity_choi, projective_survey, quantum_cmi,
                     quantum_cmi_choi, state_non_markovianity)
from .process import (ConditionalProcess, ProcessTensor, born_probability,
                      born_rule, build_common_cause, check_causality,
                      condition, condition_instrument,
                      cp_divisibility_check, marginals, markov_product)
from .recovery import (Observable, RecoveredProcess, ScanResult,
                       deviation_scan, expectation, noisy_replay,
                       observable, recover, reference_recovered_lambda,
                       reference_recovered_omega, validate_observable)
from .states import (StateEnsemble, bell, ensemble_to_state,
                     lambda_ensemble, lambda_state, omega_ensemble,
                     omega_state, state_by_name, werner)
from .tomography import (CountsTable, bootstrap, counts_from_csv,
                         counts_to_csv, product_settings, qubit_bases,
                         qutrit_bases, reconstruct, simulate_counts)
from .walk import (WalkCircuit, WalkState, align_frames, circuit_by_name,
                   extract_povm, load_circuit, port_probabilities,
                   run_protocol, save_circuit, tetra_circuit,
                   theta_circuit)

__version__ = "0.1.0"

# the public API is exactly the names imported above
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_")
                 and not isinstance(obj, _ModuleType))
