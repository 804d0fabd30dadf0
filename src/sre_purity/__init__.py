"""Stabilizer Rényi entropy estimation via purity encoding.

The package simulates an estimation scheme in which the order-alpha
stabilizer Rényi entropy of a pure state is read off the purity of the state
obtained by applying every Pauli string, uniformly at random, to alpha copies
of the input.  It ships an exact oracle, three channel preparations, a
swap-test sampler that draws each run from its route's exact purity, the
replica-trick observable, and verification suites for every identity the
construction rests on.
"""

__version__ = "0.1.0"

from .bench import (
    ComplexityRow,
    ReplicaObservable,
    SweepRow,
    build_gamma,
    complexity_table,
    direct_gamma_estimate,
    direct_single_copy_estimate,
    gamma_tensor_max_abs_eig,
    replica_expectation,
    sweep_theta,
    entanglement_identity_residual,
)
from .channels import (
    PreparationMethod,
    ancilla_marginal,
    ancilla_marginal_of,
    coherent_prepare,
    copies_marginal,
    exact_channel_output,
    incoherent_sample,
)
from .clifford import (
    apply_circuit,
    haar_random_state,
    random_clifford_circuit,
    random_clifford_state,
    single_qubit_stabilizer_states,
)
from .errors import DimensionError, NormalizationError, SizeGuardError
from .estimation import (
    ShotBudget,
    copies_required,
    estimate_purity,
    state_overlap,
    swap_test_circuit_p0,
)
from .oracle import (
    CharacteristicDistribution,
    SreValue,
    a_alpha_exact,
    characteristic_distribution,
    closed_form_a,
    is_stabilizer,
    m_alpha_exact,
    m_from_a,
    pauli_expectations,
    sre_value,
)
from .paulis import PauliString, enumerate_paulis, pauli_from_index, pauli_mul
from .pipeline import (
    EstimateReport,
    EstimationRequest,
    estimate_from_gamma,
    route_gamma,
    run_estimation,
)
from .states import (
    BipartiteSplit,
    DensityMatrix,
    SchmidtSpectrum,
    StateVector,
    apply_pauli,
    basis_state,
    controlled_pauli_power,
    hadamard_layer,
    partial_trace,
    pauli_expval,
    phase_state,
    pure_density,
    purity,
    reduced_density_matrix,
    renyi_entanglement,
    schmidt_spectrum,
    tensor_power,
    zero_state,
)
