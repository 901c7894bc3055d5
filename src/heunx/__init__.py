"""Two-term reductions of the general Heun recurrence.

The expansion u(z) = sum_n c_n 2F1(alpha, beta; gamma+epsilon+n; z) turns
the four-singular-point equation into a three-term recurrence for the c_n.
This package finds the parameter choices (delta = N+2, q on a degree-(N+1)
polynomial condition, auxiliary shifts e_1..e_N) that collapse the
recurrence to two terms, builds the resulting gamma-function coefficient
closed forms, evaluates the expansion from its closed rational form, and
certifies every step against independent routes: a z-free certificate of
that form and a power-series oracle (the tests also check the form against
the tail-resummed summation). Everything runs in plain numpy.
"""

from .errors import (DivisionByZeroError, DomainError, HeunxError,
                     NonConvergenceError, NumericalError, PoleError,
                     PreconditionError, SingularPointError, ValidationError)
from .evaluator import (EvalStatus, Evaluation, SeriesControl,
                        evaluate_points, forced_residual, forcing_constant,
                        homogeneous_residual)
from .oracle import cross_check
from .params import (HeunParams, IssueCode, ValidatedHeunParams,
                     ValidationIssue, collect_issues, is_nonpos_int,
                     load_params_file, params_from_dict, params_to_dict,
                     require_valid)
from .recurrence import (CoefficientSource, residual_rows, termination_index,
                         three_term_coefficients, two_term_coefficients)
from .reduction import (ConstraintReport, ReductionCase, case_to_dict,
                        q_candidates_N0, q_candidates_N1, q_candidates_N2,
                        solve, solve_reduction_general, verify_reduction)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSource", "ConstraintReport", "DivisionByZeroError",
    "DomainError", "EvalStatus", "Evaluation",
    "HeunParams", "HeunxError", "IssueCode", "NonConvergenceError",
    "NumericalError", "PoleError", "PreconditionError", "ReductionCase",
    "SeriesControl", "SingularPointError", "ValidatedHeunParams",
    "ValidationError", "ValidationIssue", "case_to_dict", "collect_issues",
    "cross_check", "evaluate_points", "forced_residual", "forcing_constant",
    "homogeneous_residual",
    "is_nonpos_int", "load_params_file", "params_from_dict", "params_to_dict",
    "q_candidates_N0", "q_candidates_N1", "q_candidates_N2", "require_valid",
    "residual_rows", "solve", "solve_reduction_general", "termination_index",
    "three_term_coefficients", "two_term_coefficients", "verify_reduction",
]
