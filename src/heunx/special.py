"""Gauss hypergeometric and gamma-family kernels.

Series evaluation lives in the unit disk; derivatives use the
parameter-shift identities d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z)
and its second-order iterate. Rising factorials of integer order are
finite Pochhammer products, not quotients of Gamma values, so none
overflows or hits a pole for orders up to 1e4. Quotients of Gamma values
of non-integer order are formed elsewhere: evaluator._gamma_ratio (the
form's K and the forcing constant C, by math.gamma or by lgamma where a
factor leaves the floats) and _kernels.gauss_2f1_at_one (by lgamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import _kernels
from .errors import DomainError, PoleError, PreconditionError
from .params import is_nonpos_int


@dataclass(frozen=True)
class SeriesControl:
    """Termination policy for all series summation in the package."""

    rel_tol: float = 1e-14
    max_terms: int = 10000

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise PreconditionError("rel_tol must be positive and finite")
        if self.max_terms < 1:
            raise PreconditionError("max_terms must be at least 1")


class EvalStatus(str, Enum):
    CONVERGED = "Converged"
    MAX_TERMS_REACHED = "MaxTermsReached"


@dataclass(frozen=True)
class EvalResult:
    value: float
    terms_used: int
    tail_estimate: float
    status: EvalStatus


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x(x+1)...(x+n-1); 1 for n = 0."""
    if n < 0:
        raise PreconditionError("pochhammer order must be non-negative")
    return _kernels.poch(float(x), int(n))


def _check_series_args(c: float, z: float) -> None:
    if abs(z) >= 1.0:
        raise DomainError(f"|z| = {abs(z)!r} is outside the unit disk")
    if is_nonpos_int(c):
        raise PoleError(f"c = {c!r} is a non-positive integer")


def gauss_2f1(a: float, b: float, c: float, z: float,
              ctl: SeriesControl | None = None) -> EvalResult:
    """2F1(a,b;c;z) by direct summation, the series the expansion sums too.

    Stops after _kernels.CONSECUTIVE_SMALL successive terms fall below
    rel_tol times the running sum, in the value and in its second
    derivative.
    """
    if ctl is None:
        ctl = SeriesControl()
    _check_series_args(c, z)
    value, _, _, terms, last = _kernels.f21_with_derivs(
        float(a), float(b), float(c), float(z),
        ctl.rel_tol, ctl.max_terms, _kernels.CONSECUTIVE_SMALL)
    return EvalResult(float(value[0]), terms, float(last[0]),
                      EvalStatus.CONVERGED)


def gauss_2f1_deriv(a: float, b: float, c: float, z: float, order: int,
                    ctl: SeriesControl | None = None) -> float:
    """First or second z-derivative of 2F1 via parameter shifts."""
    if order not in (1, 2):
        raise PreconditionError("derivative order must be 1 or 2")
    if ctl is None:
        ctl = SeriesControl()
    _check_series_args(c, z)
    factor = a * b / c
    if order == 2:
        factor *= (a + 1.0) * (b + 1.0) / (c + 1.0)
    return factor * gauss_2f1(a + order, b + order, c + order, z, ctl).value
