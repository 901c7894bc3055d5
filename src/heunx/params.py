"""Parameter records and validation shared by every other module.

The seven parameters of the canonical second-order equation with four
regular singular points {0, 1, a, infinity} are tied together by
1 + alpha + beta = gamma + delta + epsilon. The hypergeometric expansion
additionally requires alpha, beta and gamma+epsilon to stay away from
non-positive integers, where its gamma-function factors have poles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from .errors import PreconditionError, ValidationError

FUCHSIAN_TOL = 1e-12
FUCHSIAN_ROUNDING = 8 * 2.0 ** -52  # 8 units of roundoff of the largest term
SINGULARITY_TOL = 1e-12
INT_SNAP = 1e-9

PARAM_KEYS = ("a", "q", "alpha", "beta", "gamma", "delta", "epsilon")


class IssueCode(str, Enum):
    FUCHSIAN_VIOLATED = "FuchsianViolated"
    DEGENERATE_SINGULARITY = "DegenerateSingularity"
    FORBIDDEN_INTEGER_PARAMETER = "ForbiddenIntegerParameter"


@dataclass(frozen=True)
class ValidationIssue:
    code: IssueCode
    detail: str
    offending_value: float


def is_nonpos_int(x: float) -> bool:
    """Integer-proximity rule: x counts as a non-positive integer when it is
    within INT_SNAP of one. Keeps pole rejection deterministic for float inputs."""
    if not math.isfinite(x):   # no integer, and round() raises on it
        return False
    r = round(x)
    return abs(x - r) < INT_SNAP and r <= 0


def check_order(p: HeunParams, n_case: int) -> None:
    """An order-N reduction pins delta = N+2."""
    if abs(p.delta - (n_case + 2)) > 1e-12:
        raise PreconditionError(f"delta = {p.delta!r} does not equal N+2 = {n_case + 2}")


@dataclass(frozen=True)
class HeunParams:
    """Raw parameter record; carries no validity guarantee."""

    a: float
    q: float
    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float


def collect_issues(p: HeunParams) -> list[ValidationIssue]:
    """Every violated invariant, not just the first. The exponent-sum bound
    FUCHSIAN_TOL widens to FUCHSIAN_ROUNDING times the relation's largest
    term, as an epsilon derived from it in floats is off by up to one unit."""
    issues = []
    resid = 1.0 + p.alpha + p.beta - (p.gamma + p.delta + p.epsilon)
    tol = max(FUCHSIAN_TOL, FUCHSIAN_ROUNDING * max(
        1.0, abs(p.alpha), abs(p.beta), abs(p.gamma), abs(p.delta), abs(p.epsilon)))
    if not abs(resid) <= tol < math.inf:   # a non-finite term closes no relation
        issues.append(ValidationIssue(
            IssueCode.FUCHSIAN_VIOLATED,
            f"1+alpha+beta - (gamma+delta+epsilon) = {resid:.3e} exceeds {tol:.3g}",
            resid,
        ))
    if abs(p.a) < SINGULARITY_TOL or abs(p.a - 1.0) < SINGULARITY_TOL:
        issues.append(ValidationIssue(
            IssueCode.DEGENERATE_SINGULARITY,
            f"a = {p.a!r} merges singular points (a must avoid 0 and 1)",
            p.a,
        ))
    for name, value in (("alpha", p.alpha), ("beta", p.beta),
                        ("gamma+epsilon", p.gamma + p.epsilon)):
        if is_nonpos_int(value):
            issues.append(ValidationIssue(
                IssueCode.FORBIDDEN_INTEGER_PARAMETER,
                f"{name} = {value!r} is a non-positive integer (gamma-factor pole)",
                value,
            ))
    return issues


@dataclass(frozen=True)
class ValidatedHeunParams(HeunParams):
    """HeunParams that passed all three invariants at construction."""

    def __post_init__(self):
        issues = collect_issues(self)
        if issues:
            raise ValidationError(issues)


def require_valid(p: HeunParams) -> ValidatedHeunParams:
    """p as ValidatedHeunParams (p itself when it already is one, as the
    record is frozen); ValidationError lists every violated invariant."""
    if isinstance(p, ValidatedHeunParams):
        return p
    return ValidatedHeunParams(**params_to_dict(p))


def params_from_dict(data: dict, *, optional: dict | None = None) -> HeunParams:
    """Build HeunParams from a JSON-style mapping.

    Unknown keys are rejected, and so is a value that is not a finite float
    (NaN, an infinity, or a number out of the float range). Keys of
    `optional` may be absent and then take the value it maps them to (the
    reduction workflow solves for q itself).
    """
    if not isinstance(data, dict):
        raise PreconditionError("parameter file must contain a JSON object")
    unknown = sorted(set(data) - set(PARAM_KEYS))
    if unknown:
        raise PreconditionError(f"unknown parameter keys: {', '.join(unknown)}")
    defaults = optional or {}
    values = {}
    for key in PARAM_KEYS:
        if key not in data:
            if key in defaults:
                values[key] = defaults[key]
                continue
            raise PreconditionError(f"missing parameter key: {key}")
        v = data[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise PreconditionError(f"parameter {key} must be a number, got {v!r}")
        try:
            values[key] = float(v)
        except OverflowError:
            values[key] = math.inf
        if not math.isfinite(values[key]):
            raise PreconditionError(f"parameter {key} must be a finite float")
    return HeunParams(**values)


def params_to_dict(p: HeunParams) -> dict:
    return {k: getattr(p, k) for k in PARAM_KEYS}


def load_params_file(path: str, *, optional: dict | None = None) -> HeunParams:
    """The one reader of parameter files: JSON, then params_from_dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read parameter file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"parameter file is not valid JSON: {exc}") from exc
    return params_from_dict(data, optional=optional)
