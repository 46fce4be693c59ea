"""Solver and stability certificates for implicit fractional boundary-value
problems with the Hilfer-Hadamard derivative on [1, b].

The library discretizes the equivalent mixed-type integral equation on a
log-uniform grid, solves it by successive approximation with a
closed-form implicit solve per catalog entry for the implicit right-hand
side, computes the existence/uniqueness/stability constants in closed
form, and validates the Ulam-type stability bounds by perturbation
experiments.
"""

from .certificates import (
    Certificate,
    build_certificate,
    gronwall_bound,
    uniqueness_constant,
)
from .errors import (
    CertificateRejected,
    ConvergenceError,
    DomainError,
    GridMismatchError,
    MLOverflowError,
)
from .grids import GridFunction, LogGrid, Order, log_power, weighted_norm
from .hadamard import (
    hadamard_derivative,
    hadamard_integral,
    hilfer_hadamard_derivative,
)
from .problems import (
    ProblemSpec,
    RhsSpec,
    SolveReport,
    affine_rhs,
    manufactured_problem,
    manufactured_rhs,
    manufactured_solution,
    paper_example_problem,
    paper_example_rhs,
    table_rhs,
)
from .solver import (
    apply_Q,
    picard_solve,
    residual_fide,
    solve_with_fixed_constant,
)
from .specfun import MLSeriesResult, beta, mittag_leffler, mittag_leffler_array
from .stability import (
    PerturbationSpec,
    StabilityVerdict,
    run_experiments,
    run_uh_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateRejected",
    "ConvergenceError",
    "DomainError",
    "GridFunction",
    "GridMismatchError",
    "LogGrid",
    "MLOverflowError",
    "MLSeriesResult",
    "Order",
    "PerturbationSpec",
    "ProblemSpec",
    "RhsSpec",
    "SolveReport",
    "StabilityVerdict",
    "affine_rhs",
    "apply_Q",
    "beta",
    "build_certificate",
    "gronwall_bound",
    "hadamard_derivative",
    "hadamard_integral",
    "hilfer_hadamard_derivative",
    "log_power",
    "manufactured_problem",
    "manufactured_rhs",
    "manufactured_solution",
    "mittag_leffler",
    "mittag_leffler_array",
    "paper_example_problem",
    "paper_example_rhs",
    "picard_solve",
    "residual_fide",
    "run_experiments",
    "run_uh_experiment",
    "solve_with_fixed_constant",
    "table_rhs",
    "uniqueness_constant",
    "weighted_norm",
]
