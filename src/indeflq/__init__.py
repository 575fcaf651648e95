"""Indefinite linear-quadratic stochastic control toolkit.

Solves the backward Riccati problem with an indefinite control weight under
the positivity constraint on the effective weight, computes
subsolution-based solvability certificates, synthesizes optimal feedback
gains, and verifies them by Monte Carlo simulation and a discrete-time
dynamic-programming oracle.
"""

from .core import (
    DEFAULT_EPS_POS,
    PIECEWISE_CONSTANT_LEFT,
    PIECEWISE_LINEAR,
    CoefficientPath,
    ProblemData,
    eval_f,
    eval_gamma,
    eval_hat_R,
    min_eigenvalue,
    path_samples,
    symmetrize,
)
from .certificates import (
    Certificate,
    SubsolutionCandidate,
    apply_shift,
    certify_definite_regime,
    certify_scalar_comparison,
    check_subsolution,
    constant_threshold_alpha_schedule,
    optimal_constant_alpha,
    shift_solution_back,
)
from .errors import (
    ConstraintViolation,
    GridMismatch,
    IndefLQError,
    NumericalOverflow,
    SpecError,
    StepLimit,
)
from .oracle import OracleResult, dp_solve
from .riccati import (
    BLOWUP,
    COMPLETED,
    CONSTRAINT_VIOLATION,
    RiccatiSolution,
    SolverConfig,
    check_solution_residual,
    solve_riccati,
)
from .simulate import (
    ControlPolicy,
    SimConfig,
    SimulationReport,
    completing_square_report,
    fundamental_pair_check,
    hamiltonian_identity_check,
    simulate_cost,
)

__version__ = "0.1.0"

__all__ = [
    "BLOWUP",
    "COMPLETED",
    "CONSTRAINT_VIOLATION",
    "Certificate",
    "CoefficientPath",
    "ConstraintViolation",
    "ControlPolicy",
    "DEFAULT_EPS_POS",
    "GridMismatch",
    "IndefLQError",
    "NumericalOverflow",
    "OracleResult",
    "PIECEWISE_CONSTANT_LEFT",
    "PIECEWISE_LINEAR",
    "ProblemData",
    "RiccatiSolution",
    "SimConfig",
    "SimulationReport",
    "SolverConfig",
    "SpecError",
    "StepLimit",
    "SubsolutionCandidate",
    "apply_shift",
    "certify_definite_regime",
    "certify_scalar_comparison",
    "check_solution_residual",
    "check_subsolution",
    "completing_square_report",
    "constant_threshold_alpha_schedule",
    "dp_solve",
    "eval_f",
    "eval_gamma",
    "eval_hat_R",
    "fundamental_pair_check",
    "hamiltonian_identity_check",
    "min_eigenvalue",
    "optimal_constant_alpha",
    "path_samples",
    "shift_solution_back",
    "simulate_cost",
    "solve_riccati",
    "symmetrize",
]
