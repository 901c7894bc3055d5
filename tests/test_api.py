"""The public names of heunx."""

import heunx

PUBLIC = [
    "CoefficientSource", "ConstraintReport", "DivisionByZeroError",
    "DomainError", "EvalStatus", "Evaluation", "HeunParams",
    "HeunxError", "IssueCode", "NonConvergenceError",
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

# each computed again what verify_reduction's report holds, (x)_n that
# _kernels.poch gives, or one 2F1 series that _kernels._f21_series sums; the
# tests take them from there (tests/conftest.py); the table writers are the
# CLI's own, and the tests read the tables from `heunx.cli.main`; a stream
# is the array c_0..c_{n_max} and one point is evaluate_points(case, [z]);
# cross_check fills its own power series (_kernels.frobenius_fill)
REMOVED = ("identity_lhs", "identity_scale", "leading_difference",
           "degree_claim_defect", "recurrence_residual", "pochhammer",
           "EvalResult", "gauss_2f1", "gauss_2f1_deriv",
           "evaluation_table", "stream_to_csv", "stream_to_json",
           "CoefficientStream", "evaluate", "FrobeniusSeries",
           "frobenius_coefficients")


def test_public_names_are_pinned():
    assert sorted(heunx.__all__) == PUBLIC
    assert all(hasattr(heunx, name) for name in heunx.__all__)
    assert not any(hasattr(heunx, name) for name in REMOVED)
    assert not hasattr(heunx.ReductionCase, "build")
