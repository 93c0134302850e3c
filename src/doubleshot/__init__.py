"""Adaptive Bayesian estimation of Pauli observables with two-copy shots.

The package estimates the mean of a weighted Pauli sum from projective
measurements, allocating a shot budget adaptively between one-copy
commuting-group measurements (which carry sign information) and two-copy
pair measurements (which cost twice the budget but probe every term's
magnitude at once).  Posterior moments over outcome probabilities feed a
variance-minimizing chooser; the final report carries the point estimate
and its claimed variance, including commuting-pair covariance corrections.
"""

from .allocator import (
    AllocationConfig,
    AllocationResult,
    TraceRow,
    choose_action,
    run_allocation,
    virtual_update,
)
from .errors import (
    InvalidInputError,
    NumericalError,
    ObservableParseError,
    ResourceLimitError,
)
from .experiments import (
    CsvDocument,
    ExperimentSpec,
    calibrate_rows,
    cover_for,
    curve_rows,
    double_usage_rows,
    read_csv,
    reference_report,
    resolve_observable,
    resolve_state,
    run_repetitions,
    write_csv,
)
from .hamiltonians import (
    BUILTIN_NAMES,
    IsingSpec,
    build_ising,
    builtin_text,
    lattice_edges,
    load_builtin,
    random_ising_spec,
)
from .ledger import EstimateReport, PairReport, TallyLedger, TermReport, estimate
from .pauli import (
    GroupCover,
    Observable,
    PauliString,
    PauliTerm,
    build_group_cover,
    commutes,
    load_observable,
    observable_from_pairs,
    parse_observable,
    serialize_observable,
)
from .posterior import (
    DEFAULT_CONFIG,
    MomentEngine,
    phi_of_theta,
    phi_joint_of_theta_joint,
)
from .simulator import (
    DEFAULT_MAX_QUBITS,
    ShotOutcome,
    StateVector,
    exact_mean,
    exact_pair_thetas,
    exact_theta,
    expectation,
    ground_energy,
    ground_state,
    load_state_file,
    sample_double_shot,
    sample_group_shot,
)

__all__ = [
    "AllocationConfig",
    "AllocationResult",
    "BUILTIN_NAMES",
    "CsvDocument",
    "DEFAULT_CONFIG",
    "DEFAULT_MAX_QUBITS",
    "EstimateReport",
    "ExperimentSpec",
    "GroupCover",
    "InvalidInputError",
    "IsingSpec",
    "MomentEngine",
    "NumericalError",
    "Observable",
    "ObservableParseError",
    "PairReport",
    "PauliString",
    "PauliTerm",
    "ResourceLimitError",
    "ShotOutcome",
    "StateVector",
    "TallyLedger",
    "TermReport",
    "TraceRow",
    "build_group_cover",
    "build_ising",
    "builtin_text",
    "calibrate_rows",
    "cover_for",
    "choose_action",
    "commutes",
    "curve_rows",
    "double_usage_rows",
    "estimate",
    "exact_mean",
    "exact_pair_thetas",
    "exact_theta",
    "expectation",
    "ground_energy",
    "ground_state",
    "lattice_edges",
    "load_builtin",
    "load_observable",
    "load_state_file",
    "observable_from_pairs",
    "parse_observable",
    "phi_joint_of_theta_joint",
    "phi_of_theta",
    "random_ising_spec",
    "read_csv",
    "reference_report",
    "resolve_observable",
    "resolve_state",
    "run_allocation",
    "run_repetitions",
    "sample_double_shot",
    "sample_group_shot",
    "serialize_observable",
    "virtual_update",
]

__version__ = "0.1.0"
