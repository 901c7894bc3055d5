"""Summation of the hypergeometric expansion and equation-level diagnostics.

The summed expansion u(z) = sum_n c_n F_n(z) is evaluated together with its
first two derivatives. The truncation tail is not discarded: swapping the
n and power sums turns every tail into a difference of closed-form gamma
weights, so results carry full double precision even though the raw
coefficients only decay like n^{-2}.

Past a direct sum of length M the tail is sum_m h_m z^m s_m with
s_m = sum_{n>M} c_n / (g+n)_m, g = gamma+epsilon. Computed as a
difference of weights, s_m turns into rounding noise once it falls below
eps times the weights, so the truncation is measured without that
difference: g = alpha+beta-1-N for every accepted reduction, so c_n ~ n^-2
and s_m ~ |c_M| M / ((m+1) (g+M+1)_m). The m-sum stops at the first m whose
next term, so estimated, is below eps in all three derivative orders, and
those estimates are the reported tails. At a fixed m they fall like
M^-(m+2), so M is doubled only while a tail is above the requested
tolerance. c_0..c_M and the weights depend on the case and M only and are
computed once for all points of a case.

A structural fact drives the diagnostics here: term by term, applying the
differential operator and clearing denominators maps F_n onto the exact
combination R_n F_{n-1} + Q_n F_n + P_n F_{n+1}. Summed against a two-term
coefficient stream, everything telescopes and the limit of the boundary
terms is a constant, so the full sum satisfies

    z(z-1)(z-a) (u'' + (gamma/z + delta/(z-1) + epsilon/(z-a)) u'
                 + (alpha beta z - q) u / (z(z-1)(z-a))) = -C,

with C = Gamma(g) / (Gamma(g-alpha) Gamma(g-beta) prod_k e_k), g = gamma
+ epsilon. The expansion solves the homogeneous equation exactly when
C = 0, i.e. when the coefficient stream terminates; otherwise it is a
rational function solving the constant-forced equation, and `forcing_defect`
is the residual that certifies the summation end to end.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, NumericalError, PoleError, SingularPointError
from .params import is_nonpos_int
from .recurrence import NO_TERMINATION, termination_index
from .reduction import ReductionCase
from .special import EvalResult, EvalStatus, SeriesControl

MAX_ABS_Z = 0.95        # guard margin inside the unit disk of the term functions
SINGULAR_GUARD = 1e-8
# The m-sum stops once the next tail term is below eps; on |z| <= 0.9 that is
# by m = 13 at M = 128 for the benchmark cases. _MCAP sizes the weight
# arrays with room for larger alpha, beta; a tail still above the tolerance
# at _MCAP doubles M.
_MCAP = 24
_M_START = 128          # direct-sum length to start from; tail terms fall like (|z| m / M)^m


def check_disk(z: float, max_abs_z: float = MAX_ABS_Z) -> None:
    """The evaluation domain: |z| within the guard margin of the unit disk."""
    if abs(z) > min(max_abs_z, 1.0 - 1e-12):
        raise DomainError(f"|z| = {abs(z)!r} is outside the safe disk "
                          f"(margin {max_abs_z})")


def _is_singular(z: float, a: float) -> bool:
    return min(abs(z), abs(z - 1.0), abs(z - a)) <= SINGULAR_GUARD


def check_interior(z: float, a: float) -> None:
    """The equation's own domain: z away from the singular points 0, 1, a."""
    if _is_singular(z, a):
        raise SingularPointError(f"z = {z!r} coincides with a singular point")


@dataclass(frozen=True)
class Evaluation:
    """One tail-resummed summation at z; every value and residual reads it.
    `tails` and `status` hold one entry per derivative order 0, 1, 2: the
    estimated truncation left in that order and whether it is within
    rel_tol. `doublings` counts how often the direct-sum length M doubled."""

    z: float
    u: float
    du: float
    ddu: float
    terms_used: int
    tails: tuple
    status: tuple
    doublings: int

    def result(self, order: int) -> EvalResult:
        return EvalResult((self.u, self.du, self.ddu)[order], self.terms_used,
                          self.tails[order], self.status[order])


# params -> {(e_list, big_m): (cs, wt, wle)}, dropped with the params object
_PREFIXES = weakref.WeakKeyDictionary()


def _z_independent(case: ReductionCase, big_m: int, n0: int):
    """c_0..c_mstop, W_m and W_m^{<=mstop} of `case` at direct-sum length
    big_m, computed once while the case's parameters live."""
    p = case.params
    known = _PREFIXES.setdefault(p, {})
    key = (tuple(case.e_list), big_m)
    if key not in known:
        g = p.gamma + p.epsilon
        es = np.asarray(case.e_list, dtype=np.float64)
        known[key] = _kernels.expansion_prefix(
            g, g - p.alpha, g - p.beta, es, int(big_m), _MCAP, n0)
    return known[key]


def _settled(tails, values, ctl: SeriesControl) -> tuple:
    return tuple(bool(_kernels.settled(t, v, ctl.rel_tol))
                 for t, v in zip(tails, values))


def _sum_all(case: ReductionCase, z: float, ctl: SeriesControl):
    """(u, u', u'', terms_used, tails, doublings), doubling the direct-sum
    length M until every truncation tail is settled. `evaluate` is its only
    caller; perfbench's tracer wraps it by this name and reads terms_used
    at index 3."""
    p = case.params
    es = np.asarray(case.e_list, dtype=np.float64)
    n0 = termination_index(p)
    big_m = _M_START
    if n0 < big_m:
        big_m = max(n0, 8)
    doublings = 0
    while True:
        cs, wt, wle = _z_independent(case, big_m, n0)
        u, du, ddu, terms, t0, t1, t2 = _kernels.expansion_core(
            p.a, p.q, p.alpha, p.beta, p.gamma, p.delta, p.epsilon, es,
            float(z), int(big_m), cs, wt, wle, ctl.rel_tol / 10.0,
            ctl.max_terms, ctl.consecutive_small)
        if not all(map(math.isfinite, (u, du, ddu))):
            raise NumericalError("expansion summation produced a non-finite value")
        tails = (t0, t1, t2)
        done = all(_settled(tails, (u, du, ddu), ctl))
        if done or big_m >= ctl.max_terms or big_m >= n0:
            return u, du, ddu, terms, tails, doublings
        big_m = min(2 * big_m, ctl.max_terms)
        doublings += 1


def evaluate(case: ReductionCase, z: float, ctl: SeriesControl | None = None,
             max_abs_z: float = MAX_ABS_Z) -> Evaluation:
    """The one summation of (u, u', u'') at z behind every value and residual."""
    if ctl is None:
        ctl = SeriesControl()
    z = float(z)
    check_disk(z, max_abs_z)
    u, du, ddu, terms, tails, doublings = _sum_all(case, z, ctl)
    values = tuple(map(float, (u, du, ddu)))
    tails = tuple(map(float, tails))
    status = tuple(EvalStatus.CONVERGED if ok else EvalStatus.MAX_TERMS_REACHED
                   for ok in _settled(tails, values, ctl))
    return Evaluation(z, *values, int(terms), tails, status, doublings)


def evaluate_expansion(case: ReductionCase, z: float,
                       ctl: SeriesControl | None = None,
                       max_abs_z: float = MAX_ABS_Z) -> EvalResult:
    """u(z) = sum_n c_n 2F1(alpha, beta; gamma+epsilon+n; z), tail resummed."""
    return evaluate(case, z, ctl, max_abs_z).result(0)


def evaluate_expansion_deriv(case: ReductionCase, z: float, order: int,
                             ctl: SeriesControl | None = None,
                             max_abs_z: float = MAX_ABS_Z) -> EvalResult:
    """Term-wise derivative of the expansion, order 1 or 2."""
    if order not in (1, 2):
        raise NumericalError("derivative order must be 1 or 2")
    return evaluate(case, z, ctl, max_abs_z).result(order)


def homogeneous_residual(case: ReductionCase, ev: Evaluation) -> float:
    """Scale-free residual of the homogeneous equation at ev.z; nan where
    ev.z is a singular point of the equation."""
    p = case.params
    z = ev.z
    if _is_singular(z, p.a):
        return float("nan")
    pc = p.gamma / z + p.delta / (z - 1.0) + p.epsilon / (z - p.a)
    qc = (p.alpha * p.beta * z - p.q) / (z * (z - 1.0) * (z - p.a))
    num = abs(ev.ddu + pc * ev.du + qc * ev.u)
    den = abs(ev.ddu) + abs(pc * ev.du) + abs(qc * ev.u) + 1e-300
    return float(num / den)


def ode_residual(case: ReductionCase, z: float,
                 ctl: SeriesControl | None = None) -> float:
    """Scale-free residual of the homogeneous equation at z.

    Small only where the expansion actually solves the homogeneous
    equation, i.e. for terminating coefficient streams; the generic
    two-term case carries the constant forcing described in the module
    docstring, and this residual then sits at O(1) honestly. Use
    forcing_defect for the certification that holds in every case.
    """
    check_interior(z, case.params.a)
    return homogeneous_residual(case, evaluate(case, z, ctl))


def forcing_constant(case: ReductionCase) -> float:
    """The constant C the cleared-denominator operator maps the sum onto.

    C = Gamma(g) / (Gamma(g-alpha) Gamma(g-beta) prod_k e_k) with
    g = gamma+epsilon; exactly 0 when a reciprocal gamma factor sits at a
    pole, which is precisely the terminating (rational, genuine-solution)
    situation.
    """
    p = case.params
    g = p.gamma + p.epsilon
    # termination snap: a reciprocal-gamma argument within the shared
    # integer-proximity tolerance of a non-positive integer is a pole hit
    if is_nonpos_int(g - p.alpha) or is_nonpos_int(g - p.beta):
        return 0.0
    ln, sn = _kernels.lgamma_signed(g)
    la, sa = _kernels.lgamma_signed(g - p.alpha)
    lb, sb = _kernels.lgamma_signed(g - p.beta)
    if sn == 0.0:
        raise PoleError(f"gamma+epsilon = {g!r} sits on a gamma pole")
    if sa == 0.0 or sb == 0.0:
        return 0.0
    value = sn * sa * sb * math.exp(ln - la - lb)
    for e in case.e_list:
        value /= e
    return value


def forced_residual(case: ReductionCase, ev: Evaluation) -> float:
    """Scale-free residual of the constant-forced equation at ev.z."""
    p = case.params
    z = ev.z
    w = z * (z - 1.0) * (z - p.a)
    wp = (p.gamma * (z - 1.0) * (z - p.a) + p.delta * z * (z - p.a)
          + p.epsilon * z * (z - 1.0))
    wq = p.alpha * p.beta * z - p.q
    c = forcing_constant(case)
    num = abs(w * ev.ddu + wp * ev.du + wq * ev.u + c)
    den = abs(w * ev.ddu) + abs(wp * ev.du) + abs(wq * ev.u) + abs(c) + 1e-300
    return float(num / den)


def forcing_defect(case: ReductionCase, z: float,
                   ctl: SeriesControl | None = None) -> float:
    """Scale-free residual of the constant-forced equation; the end-to-end
    certificate that holds for every accepted reduction, terminating or not."""
    check_interior(z, case.params.a)
    return forced_residual(case, evaluate(case, z, ctl))


def detect_truncation(case: ReductionCase, n_limit: int = 500):
    """Smallest n0 with c_n = 0 for all n >= n0 (a zero Pochhammer factor),
    or None when no termination exists within n_limit."""
    n0 = termination_index(case.params)
    if n0 == NO_TERMINATION or n0 > n_limit:
        return None
    return int(n0)


def evaluation_table(case: ReductionCase, z_values,
                     ctl: SeriesControl | None = None) -> str:
    """CSV with columns z, u, u', u'', residual, terms_used.

    The residual column is the homogeneous-equation residual; it is nan at
    points that coincide with a singular location. Floats are emitted with
    repr so output is byte-deterministic.
    """
    lines = ["z,u,du,ddu,residual,terms_used"]
    for z in z_values:
        ev = evaluate(case, z, ctl)
        lines.append(f"{ev.z!r},{ev.u!r},{ev.du!r},{ev.ddu!r},"
                     f"{homogeneous_residual(case, ev)!r},{ev.terms_used}")
    return "\n".join(lines) + "\n"
