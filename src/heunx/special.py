"""Gauss hypergeometric and gamma-family kernels.

Series evaluation lives in the unit disk; one scalar loop
(_kernels._f21_series) sums the value and its first two z-derivatives term
by term. The parameter-shift identity d/dz 2F1(a,b;c;z) =
(ab/c) 2F1(a+1,b+1;c+1;z) is the tests' oracle for the derivatives.
Rising factorials of integer order are finite Pochhammer products
(_kernels.poch, which the tail weights use and acceptance criterion 7
checks), not quotients of Gamma values, so none overflows or hits a pole
for orders up to 1e4. Quotients of Gamma values of non-integer order are
formed elsewhere: evaluator._gamma_ratio (the form's K and the forcing
constant C, by math.gamma or by lgamma where a factor leaves the floats)
and _kernels.gauss_2f1_at_one (by lgamma). The reduction identity, its
leading coefficient A_top and the stream defect are computed only by
reduction.verify_reduction.
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


def _check_series_args(c: float, z: float) -> None:
    if abs(z) >= 1.0:
        raise DomainError(f"|z| = {abs(z)!r} is outside the unit disk")
    if is_nonpos_int(c):
        raise PoleError(f"c = {c!r} is a non-positive integer")


def _sums(a, b, c, z, ctl):
    """(f, f', f'', terms, last) of one series from the kernel, by ctl."""
    if ctl is None:
        ctl = SeriesControl()
    _check_series_args(c, z)
    return _kernels._f21_series(float(a), float(b), float(c), float(z),
                                ctl.rel_tol, ctl.max_terms,
                                _kernels.CONSECUTIVE_SMALL)


def gauss_2f1(a: float, b: float, c: float, z: float,
              ctl: SeriesControl | None = None) -> EvalResult:
    """2F1(a,b;c;z) by direct summation, the series the expansion sums too.

    Stops after _kernels.CONSECUTIVE_SMALL successive terms fall below
    rel_tol times the running sum, in the value and in its second
    derivative.
    """
    value, _, _, terms, last = _sums(a, b, c, z, ctl)
    return EvalResult(value, terms, last, EvalStatus.CONVERGED)


def gauss_2f1_deriv(a: float, b: float, c: float, z: float, order: int,
                    ctl: SeriesControl | None = None) -> float:
    """First or second z-derivative of 2F1, summed term by term alongside
    the value under gauss_2f1's stopping rule."""
    if order not in (1, 2):
        raise PreconditionError("derivative order must be 1 or 2")
    return _sums(a, b, c, z, ctl)[order]
