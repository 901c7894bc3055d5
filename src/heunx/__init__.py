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
from .evaluator import (Evaluation, evaluate, evaluate_points,
                        evaluation_table, forced_residual, forcing_constant,
                        homogeneous_residual)
from .oracle import FrobeniusSeries, cross_check, frobenius_coefficients
from .params import (HeunParams, IssueCode, ValidatedHeunParams,
                     ValidationIssue, collect_issues, is_nonpos_int,
                     load_params_file, params_from_dict, params_to_dict,
                     require_valid)
from .recurrence import (CoefficientSource, CoefficientStream, residual_rows,
                         stream_to_csv, stream_to_json, termination_index,
                         three_term_coefficients, two_term_coefficients)
from .reduction import (ConstraintReport, ReductionCase, case_to_dict,
                        q_candidates_N0, q_candidates_N1, q_candidates_N2,
                        solve, solve_reduction_general, verify_reduction)
from .special import (EvalResult, EvalStatus, SeriesControl, gauss_2f1,
                      gauss_2f1_deriv)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSource", "CoefficientStream", "ConstraintReport",
    "DivisionByZeroError", "DomainError", "EvalResult", "EvalStatus",
    "Evaluation", "FrobeniusSeries", "HeunParams", "HeunxError", "IssueCode",
    "NonConvergenceError", "NumericalError", "PoleError", "PreconditionError",
    "ReductionCase", "SeriesControl", "SingularPointError",
    "ValidatedHeunParams", "ValidationError", "ValidationIssue",
    "case_to_dict", "collect_issues", "cross_check", "evaluate",
    "evaluate_points", "evaluation_table", "forced_residual",
    "forcing_constant", "homogeneous_residual", "frobenius_coefficients",
    "gauss_2f1", "gauss_2f1_deriv", "is_nonpos_int", "load_params_file",
    "params_from_dict", "params_to_dict", "q_candidates_N0", "q_candidates_N1",
    "q_candidates_N2", "require_valid", "residual_rows", "solve",
    "solve_reduction_general", "stream_to_csv", "stream_to_json",
    "termination_index", "three_term_coefficients", "two_term_coefficients",
    "verify_reduction",
]
