"""Quantum speed limit numerics.

Computes the fidelity-dependent coefficient of the excitation-energy speed
limit three independent ways (closed form, minimax over the tangent-line
family, brute-force dynamics), and verifies the limits on simulated
finite-dimensional evolutions.
"""

from .bounds import (
    BoundEvaluation,
    CirclePoint,
    alpha,
    evaluate_bounds,
    lower_bound_m,
    mt_alpha,
    upper_bound_M,
)
from .errors import (
    CaseError,
    DomainError,
    NoConvergence,
    NoSignChange,
)
from .oracle import (
    MinimaxReport,
    identity_suite,
    minimax_bruteforce_m,
    two_level_min_time,
    two_level_passage_time,
)
from .qsim import (
    PassageResult,
    QuantumState,
    dispersion,
    fidelity,
    first_passage,
    mean_excess_energy,
    ml_bound,
    mt_bound,
    sample_random_state,
    verify_limits,
)
from .rootfind import Bracket, YBounds, bracketed_root, compute_y_bounds
from .tangent import (
    TangentSolution,
    a_of_q,
    a_of_y,
    check_tangent_inequality,
    da_dq,
    dq_dy,
    q_of_y,
    y_of_q,
)

__version__ = "0.1.0"

__all__ = [
    "BoundEvaluation",
    "Bracket",
    "CaseError",
    "CirclePoint",
    "DomainError",
    "MinimaxReport",
    "NoConvergence",
    "NoSignChange",
    "PassageResult",
    "QuantumState",
    "TangentSolution",
    "YBounds",
    "a_of_q",
    "a_of_y",
    "alpha",
    "bracketed_root",
    "check_tangent_inequality",
    "compute_y_bounds",
    "da_dq",
    "dispersion",
    "dq_dy",
    "evaluate_bounds",
    "fidelity",
    "first_passage",
    "identity_suite",
    "lower_bound_m",
    "mean_excess_energy",
    "minimax_bruteforce_m",
    "ml_bound",
    "mt_alpha",
    "mt_bound",
    "q_of_y",
    "sample_random_state",
    "two_level_min_time",
    "two_level_passage_time",
    "upper_bound_M",
    "verify_limits",
    "y_of_q",
]
