"""Independent certification path: a power series about the origin.

The coefficients come from collecting powers of z in the cleared-denominator
form of the equation with undetermined b_n, nothing shared with the
expansion machinery: cross_check takes the expansion's values, u(0) too,
from its caller. The test suite re-checks order-by-order that the truncated
series leaves no low-order residual, so this path certifies the main one
without any common failure mode.
cross_check runs Horner's rule over Python floats at its points, on a
series summed only until its terms at the largest |z| of those points have
settled, with b_400 the cap. b_k grows like min(1, |a|)^-k, so for small
|a| and a point near the safe radius b_k can leave the floats before the
terms settle; the deviation is then not finite, and the check fails on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, PoleError, PreconditionError
from .params import ValidatedHeunParams, is_nonpos_int
from .reduction import ReductionCase

SAFE_RADIUS_FACTOR = 0.9
CROSS_CHECK_TERMS = 400    # cross_check sums the power series to b_400 at most


@dataclass(frozen=True)
class FrobeniusSeries:
    coefficients: np.ndarray
    radius_hint: float


def frobenius_coefficients(p: ValidatedHeunParams, n_max: int, *,
                           scale: float | None = None) -> FrobeniusSeries:
    """b_0 = 1 and successors from the collected-power identity: b_0..b_n_max,
    or, given a scale, up to the first CONSECUTIVE_SMALL successive terms
    |b_k| scale^k at or below EPS times the largest (_kernels.frobenius_fill).

    Collecting the z^m coefficient of z(z-1)(z-a)u'' + [gamma(z-1)(z-a)
    + delta z(z-a) + epsilon z(z-1)]u' + (alpha beta z - q)u with
    u = sum b_n z^n gives

        a(m+1)(m+gamma) b_{m+1} = [(1+a)m(m-1) + (gamma(1+a) + a delta
            + epsilon)m + q] b_m - [(m-1)(m-2) + (gamma+delta+epsilon)(m-1)
            + alpha beta] b_{m-1}.

    The leading denominator needs gamma away from non-positive integers.
    """
    if n_max < 0:
        raise PreconditionError("n_max must be non-negative")
    if is_nonpos_int(p.gamma):
        raise PoleError(f"gamma = {p.gamma!r} is a non-positive integer; "
                        "no power-series solution with unit leading term")
    coeffs, radius = _kernels.frobenius_fill(p.a, p.q, p.alpha, p.beta, p.gamma,
                                             p.delta, p.epsilon, int(n_max), scale)
    return FrobeniusSeries(coefficients=coeffs, radius_hint=radius)


def _series_values(series: FrobeniusSeries, zs) -> np.ndarray:
    """The truncated series at every z of zs by Horner's rule over Python
    floats from 0.0, the bits of np.polyval; a z outside the safe radius raises."""
    safe = SAFE_RADIUS_FACTOR * series.radius_hint
    b = series.coefficients[::-1].tolist()
    out = []
    for z in zs:
        if abs(z) >= safe:
            raise DomainError(f"|z| = {abs(z)!r} is outside the safe radius {safe!r}")
        acc, z = 0.0, float(z)
        for bk in b:
            acc = acc * z + bk
        out.append(acc)
    return np.array(out)


def cross_check(case: ReductionCase, evaluations, u0: float) -> float:
    """Max relative deviation between the expansion, read from the
    Evaluation records at their own z, and the power series after matching
    the two at z = 0, where the series is b_0 = 1 and the expansion is u0,
    its value at the origin (the caller evaluates it with the points).
    The series stops once its terms have settled at the largest |z|.
    A deviation that is not finite is the result and fails any bound."""
    if abs(u0) < 1e-280:
        raise PreconditionError("expansion vanishes at the origin; cannot normalize")
    zs = [ev.z for ev in evaluations]
    series = frobenius_coefficients(case.params, CROSS_CHECK_TERMS,
                                    scale=max(map(abs, zs), default=0.0))
    uf = _series_values(series, zs)
    u = np.array([ev.u for ev in evaluations], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(u - u0 * uf) / (np.abs(u) + 1e-300)
    return float(np.max(dev, initial=0.0))
