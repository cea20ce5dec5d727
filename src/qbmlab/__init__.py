"""Desk-scale training laboratory for quantum Boltzmann machines.

Dense exact-diagonalization tooling (up to 10 qubits) for training Gibbs
states e^{-H}/Tr[e^{-H}] of parameterized Hamiltonians against measurement
statistics or full target states, with exact, bound-based, commutator-series
and sampled gradients, plus seeded experiment runners that emit plot-ready
CSV/JSON data.
"""

from .linalg import (
    EigenSystem,
    distance,
    expectation_value,
    fidelity,
    frechet_exp_neg,
    gibbs_state,
    hermitian_eigendecompose,
    hermitize,
    kron,
    log_partition,
    matrix_log_psd,
    relative_entropy,
    validate_density_matrix,
    von_neumann_entropy,
)
from .operators import (
    HamiltonianModel,
    Term,
    assemble_hamiltonian,
    build_classical_bm,
    build_complete_pauli_set,
    build_fermionic_model,
    build_mean_field,
    build_model,
    build_transverse_ising_complete,
    complete_graph_edges,
    jordan_wigner_annihilator,
    make_term,
    pauli_matrix,
)
from .training import (
    GRADIENT_KINDS,
    OptimizerConfig,
    PovmTrainingSet,
    StateTrainingSet,
    TraceRecord,
    TrainingTrace,
    child_seed,
    grad_povm_commutator,
    grad_povm_exact,
    grad_povm_gt,
    grad_relent,
    grad_relent_sampled,
    objective_povm_exact,
    objective_povm_gt,
    objective_relent,
    sampled_expectation,
    train,
)
from .datasets import (
    haar_random_pure,
    haar_unitary,
    random_mixed,
    random_ti_teacher,
    step_distribution,
    step_function_state,
)
from .serialize import write_csv, write_json
from .experiments import (
    EXPERIMENTS,
    EnsembleSummary,
    ExperimentConfig,
    gradcheck,
    make_config,
    parse_config_file,
    run_commutator_compare,
    run_experiment,
    run_hamlearn,
    run_meanfield,
    run_povm_experiment,
    run_tomography_ensemble,
    run_variance_sweep,
)

__version__ = "0.1.0"
