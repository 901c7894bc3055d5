"""Validation rules and JSON round-tripping for the parameter record."""

import math

import pytest

from heunx import (HeunParams, IssueCode, PreconditionError, ValidatedHeunParams,
                   ValidationError, collect_issues, is_nonpos_int,
                   params_from_dict, params_to_dict, require_valid)

ANCHOR = dict(a=2.0, q=4.0, alpha=3.0, beta=2.0, gamma=1.0, delta=2.0, epsilon=3.0)


def make(**overrides):
    return HeunParams(**{**ANCHOR, **overrides})


def codes(p):
    return sorted(issue.code for issue in collect_issues(p))


def test_anchor_is_valid():
    out = require_valid(make())
    assert isinstance(out, ValidatedHeunParams)
    assert params_to_dict(out) == ANCHOR


def test_validation_is_idempotent():
    out = require_valid(make())
    again = require_valid(out)
    assert again == out


def test_fuchsian_violation_detected():
    assert codes(make(delta=2.5)) == [IssueCode.FUCHSIAN_VIOLATED]


def test_fuchsian_tolerance_is_tight():
    # 1e-13 off the exponent-sum relation still counts as closed
    assert collect_issues(make(delta=2.0 + 1e-13)) == []


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_term_violates_the_relation(value):
    # the bound scales with the largest term, which must not let inf or nan pass
    assert IssueCode.FUCHSIAN_VIOLATED in codes(make(alpha=value))


@pytest.mark.parametrize("a", [0.0, 1.0, 1.0 - 1e-13])
def test_merged_singular_points_rejected(a):
    assert IssueCode.DEGENERATE_SINGULARITY in codes(make(a=a))


def test_forbidden_alpha():
    # epsilon adjusted so the exponent-sum relation stays closed
    p = make(alpha=0.0, epsilon=0.0)
    assert codes(p) == [IssueCode.FORBIDDEN_INTEGER_PARAMETER]
    assert collect_issues(p)[0].offending_value == 0.0


def test_forbidden_gamma_plus_epsilon():
    p = make(alpha=2.2, beta=1.3, gamma=0.5, delta=6.5, epsilon=-2.5)
    issues = collect_issues(p)
    assert [i.code for i in issues] == [IssueCode.FORBIDDEN_INTEGER_PARAMETER]
    assert issues[0].offending_value == -2.0


def test_positive_integer_parameters_allowed():
    # only non-positive integers sit on gamma-factor poles
    assert collect_issues(make()) == []  # alpha = 3, beta = 2 are fine


def test_all_issues_reported_together():
    p = make(a=1.0, alpha=-1.0, delta=9.0)
    got = codes(p)
    assert IssueCode.FUCHSIAN_VIOLATED in got
    assert IssueCode.DEGENERATE_SINGULARITY in got
    assert IssueCode.FORBIDDEN_INTEGER_PARAMETER in got


def test_validated_constructor_raises():
    with pytest.raises(ValidationError) as err:
        ValidatedHeunParams(**params_to_dict(make(a=1.0)))
    assert err.value.issues


@pytest.mark.parametrize("x,want", [
    (0.0, True),
    (-3.0, True),
    (-3.0 + 1e-10, True),
    (-3.0 + 1e-8, False),
    (2.0, False),
    (-0.5, False),
])
def test_integer_proximity_rule(x, want):
    assert is_nonpos_int(x) is want


def test_params_from_dict_round_trip():
    p = params_from_dict(dict(ANCHOR))
    assert params_to_dict(p) == ANCHOR


def test_params_from_dict_rejects_unknown_keys():
    bad = dict(ANCHOR, zeta=1.0)
    with pytest.raises(PreconditionError, match="unknown"):
        params_from_dict(bad)


def test_params_from_dict_rejects_missing_keys():
    bad = dict(ANCHOR)
    del bad["q"]
    with pytest.raises(PreconditionError, match="missing"):
        params_from_dict(bad)


def test_params_from_dict_optional_defaults():
    data = dict(ANCHOR)
    del data["q"], data["delta"]
    p = params_from_dict(data, optional={"q": 0.0, "delta": 0.0})
    assert p.q == 0.0 and p.delta == 0.0


@pytest.mark.parametrize("value", [True, "4", None, [4.0]])
def test_params_from_dict_rejects_non_numbers(value):
    with pytest.raises(PreconditionError, match="number"):
        params_from_dict(dict(ANCHOR, q=value))
