"""The public names of heunx."""

import heunx

PUBLIC = [
    "CoefficientSource", "CoefficientStream", "ConstraintReport",
    "DivisionByZeroError", "DomainError", "EvalResult", "EvalStatus",
    "Evaluation", "FrobeniusSeries", "HeunParams", "HeunxError", "IssueCode",
    "NonConvergenceError", "NumericalError", "PoleError", "PreconditionError",
    "ReductionCase", "SeriesControl", "SingularPointError",
    "ValidatedHeunParams", "ValidationError", "ValidationIssue",
    "case_to_dict", "collect_issues", "cross_check", "evaluate",
    "evaluate_points", "evaluation_table", "forced_residual",
    "forcing_constant", "frobenius_coefficients", "gauss_2f1",
    "gauss_2f1_deriv", "homogeneous_residual", "is_nonpos_int",
    "load_params_file", "params_from_dict", "params_to_dict",
    "q_candidates_N0", "q_candidates_N1", "q_candidates_N2", "require_valid",
    "residual_rows", "solve", "solve_reduction_general", "stream_to_csv",
    "stream_to_json", "termination_index", "three_term_coefficients",
    "two_term_coefficients", "verify_reduction",
]

# each computed again what verify_reduction's report holds, or (x)_n that
# _kernels.poch gives; the tests take them from there (tests/conftest.py)
REMOVED = ("identity_lhs", "identity_scale", "leading_difference",
           "degree_claim_defect", "recurrence_residual", "pochhammer")


def test_public_names_are_pinned():
    assert sorted(heunx.__all__) == PUBLIC
    assert all(hasattr(heunx, name) for name in heunx.__all__)
    assert not any(hasattr(heunx, name) for name in REMOVED)
