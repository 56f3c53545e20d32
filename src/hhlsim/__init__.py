"""State-vector HHL solver and benchmark harness."""

from .errors import HhlSimError
from .families import FamilySpec, family_census, generate
from .hamiltonian import (
    BlockEncoding,
    BlockEvolution,
    EvolutionBackend,
    ExactEvolution,
    PauliTermList,
    TrotterEvolution,
    TrotterPlan,
    block_encode,
    make_backend,
    make_trotter_plan,
    pauli_decompose,
    taylor_exponential,
    trotter_unitary,
)
from .linalg import (
    ProblemInstance,
    Spectrum,
    condition_number,
    hermitian_eigendecomposition,
    solve_linear,
    unitary_exponential,
)
from .pipeline import (
    HhlConfig,
    HhlResult,
    eigenvalue_inversion,
    expected_outcome_distribution,
    resolve_config,
    run_hhl,
    spectral_inversion,
)
from .qpe import inverse_phase_estimation, phase_estimation, spectral_phase_estimation
from .statevector import (
    RegisterLayout,
    ShotHistogram,
    StateVector,
    fidelity,
    sample_counts,
)
from .sweep import (
    FamilyTemplate,
    MethodConfig,
    SweepConfig,
    run_eq3_experiment,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "HhlSimError",
    "FamilySpec",
    "family_census",
    "generate",
    "BlockEncoding",
    "BlockEvolution",
    "EvolutionBackend",
    "ExactEvolution",
    "PauliTermList",
    "TrotterEvolution",
    "TrotterPlan",
    "block_encode",
    "make_backend",
    "make_trotter_plan",
    "pauli_decompose",
    "taylor_exponential",
    "trotter_unitary",
    "ProblemInstance",
    "Spectrum",
    "condition_number",
    "hermitian_eigendecomposition",
    "solve_linear",
    "unitary_exponential",
    "HhlConfig",
    "HhlResult",
    "eigenvalue_inversion",
    "expected_outcome_distribution",
    "resolve_config",
    "run_hhl",
    "spectral_inversion",
    "inverse_phase_estimation",
    "phase_estimation",
    "spectral_phase_estimation",
    "RegisterLayout",
    "ShotHistogram",
    "StateVector",
    "fidelity",
    "sample_counts",
    "FamilyTemplate",
    "MethodConfig",
    "SweepConfig",
    "run_eq3_experiment",
    "run_sweep",
]
