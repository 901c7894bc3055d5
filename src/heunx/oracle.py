"""Independent certification path: a power series about the origin.

cross_check fills the series' coefficients b_n from collecting powers of z
in the cleared-denominator form of the equation (_kernels.frobenius_fill),
nothing shared with the expansion machinery, and takes the expansion's
values, u(0) too, from its caller. The test suite re-checks order-by-order
that the truncated series leaves no low-order residual, so this path
certifies the main one without any common failure mode.
The series is summed by Horner's rule over Python floats at the points, and
only until its terms at the largest |z| of those points have settled, with
b_400 the cap. b_k grows like min(1, |a|)^-k, so for small |a| and a point
near the safe radius b_k can leave the floats before the terms settle; the
deviation is then not finite, and the check fails on it.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import DomainError, PoleError, PreconditionError
from .params import is_nonpos_int
from .reduction import ReductionCase

SAFE_RADIUS_FACTOR = 0.9
CROSS_CHECK_TERMS = 400    # cross_check sums the power series to b_400 at most


def cross_check(case: ReductionCase, evaluations, u0: float) -> float:
    """Max relative deviation between the expansion, read from the
    Evaluation records at their own z, and the power series after matching
    the two at z = 0, where the series is b_0 = 1 and the expansion is u0,
    its value at the origin (the caller evaluates it with the points).
    The series needs gamma away from the non-positive integers, and every z
    inside SAFE_RADIUS_FACTOR times its radius; it stops once its terms
    have settled at the largest |z|. Horner's rule runs from 0.0, the bits
    of np.polyval. A deviation that is not finite is the result and fails
    any bound."""
    if abs(u0) < 1e-280:
        raise PreconditionError("expansion vanishes at the origin; cannot normalize")
    p = case.params
    if is_nonpos_int(p.gamma):
        raise PoleError(f"gamma = {p.gamma!r} is a non-positive integer; "
                        "no power-series solution with unit leading term")
    zs = [ev.z for ev in evaluations]
    coeffs, radius = _kernels.frobenius_fill(p.a, p.q, p.alpha, p.beta, p.gamma,
                                             p.delta, p.epsilon, CROSS_CHECK_TERMS,
                                             max(map(abs, zs), default=0.0))
    safe = SAFE_RADIUS_FACTOR * radius
    b = coeffs[::-1].tolist()
    uf = []
    for z in zs:
        if abs(z) >= safe:
            raise DomainError(f"|z| = {abs(z)!r} is outside the safe radius {safe!r}")
        acc, z = 0.0, float(z)
        for bk in b:
            acc = acc * z + bk
        uf.append(acc)
    u = np.array([ev.u for ev in evaluations], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(u - u0 * np.array(uf)) / (np.abs(u) + 1e-300)
    return float(np.max(dev, initial=0.0))
