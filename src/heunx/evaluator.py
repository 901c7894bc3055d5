"""Evaluation of the hypergeometric expansion and equation-level diagnostics.

u(z) = sum_n c_n 2F1(alpha, beta; g+n; z), g = gamma+epsilon, is read from
its closed rational form. Swapping the n and m sums splits each c_n into
falling-factorial pieces, and as g = alpha+beta-1-N each sums to a binomial
series: with v = 1/(1-z), K = Gamma(g) / (Gamma(alpha) Gamma(beta)) and d_i
the falling-factorial coefficients of prod_k (1 + n/e_k),
u = sum_{k=1..N+1} B_k v^k with B_{N+1-i} = K d_i (g-alpha)_i (g-beta)_i (N-i)!,
and u', u'' follow from dv/dz = v^2: the form is the series resummed in
closed form. A call builds the B_k once and runs one Horner pass over all of
its points. The tail-resummed summation of the series (`_sum_all`) is the
tests' term-by-term route the form is checked against, one point at a time:
one prefix and one f21_with_derivs call per direct-sum length.

Against a two-term stream the operator telescopes term by term, so the sum
solves z(z-1)(z-a) Heun[u] = -C, C = Gamma(g) / (Gamma(g-alpha) Gamma(g-beta)
prod_k e_k): the homogeneous equation exactly when C = 0, i.e. when the
stream terminates. `forced_residual` is the residual that certifies it at a
point. `form_certificate`, which `verify` reports, checks the same equation
on the B_k themselves, with no z and no summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, NumericalError, SingularPointError
from .recurrence import NO_TERMINATION, termination_index
from .reduction import ReductionCase
from .special import EvalResult, EvalStatus, SeriesControl

MAX_ABS_Z = 0.95        # guard margin inside the unit disk of the term functions
SINGULAR_GUARD = 1e-8
# The m-sum stops once the next tail term is below eps: by m = 13 at M = 128
# on |z| <= 0.9 for the N = 0 anchor, the N = 2 case (2, 2.5, 1.7, 0.6) and
# the tests' 100 random cases. _MCAP sizes the weight arrays with room for
# larger alpha, beta; a tail still above the tolerance doubles M.
_MCAP = 24
_M_START = 128          # direct-sum length to start from; tail terms fall like (|z| m / M)^m
_U = 2.0 ** -53         # unit roundoff
# math.gamma is within 8.3 u of 40-digit mpmath on 100,000 points of [-170, 170]
_GAMMA_ERR = 10.0 * _U


def check_disk(z: float) -> None:
    """The evaluation domain: |z| within the guard margin of the unit disk."""
    if abs(z) > MAX_ABS_Z:
        raise DomainError(f"|z| = {abs(z)!r} is outside the safe disk "
                          f"(margin {MAX_ABS_Z})")


def _is_singular(z: float, a: float) -> bool:
    return min(abs(z), abs(z - 1.0), abs(z - a)) <= SINGULAR_GUARD


def check_interior(z: float, a: float) -> None:
    """The equation's own domain: z away from the singular points 0, 1, a."""
    if _is_singular(z, a):
        raise SingularPointError(f"z = {z!r} coincides with a singular point")


@dataclass(frozen=True)
class Evaluation:
    """u, u', u'' at z from the closed form, read by every residual;
    terms_used = N+1, the number of B_k. Per order, `tails` bounds the error of
    rounding and of a residual of alpha+beta-g = N+1; `status`: within rel_tol."""

    z: float
    u: float
    du: float
    ddu: float
    terms_used: int
    tails: tuple
    status: tuple

    def result(self, order: int) -> EvalResult:
        return EvalResult((self.u, self.du, self.ddu)[order], self.terms_used,
                          self.tails[order], self.status[order])


def _gamma_n(n: int) -> float:
    return n * _U / (1.0 - n * _U)  # Higham's bound on n roundings


def _gamma_ratio(g: float, x: float, y: float):
    """Gamma(g) / (Gamma(x) Gamma(y)) and its relative error bound: by math.gamma
    while factors and quotient are normal floats, else by lgamma_signed, within
    14 u (1 + |log|) of 40-digit mpmath on 35,000 points of [-400, 400]."""
    if max(abs(g), abs(x), abs(y)) < 170.0:
        den = math.gamma(x) * math.gamma(y)
        k = math.gamma(g) / den if 1e-300 < abs(den) < math.inf else 0.0
        if 1e-300 < abs(k) < math.inf:
            return k, 3.0 * _GAMMA_ERR + 2.0 * _U
    (lg, sg), (lx, sx), (ly, sy) = map(_kernels.lgamma_signed, (g, x, y))
    logs = abs(lg) + abs(lx) + abs(ly)  # the three logs, two subtractions, exp
    try:
        return (sg * sx * sy * math.exp(lg - lx - ly),
                math.expm1(16.0 * _U * (3.0 + logs) + 2.0 * _U * logs) + 2.0 * _U)
    except OverflowError:
        raise NumericalError("a gamma factor of the form leaves the floats") from None


def _form(case: ReductionCase):
    """B_1..B_{N+1} (B_k at index k-1) from case.params and case.e_list,
    bounds on their absolute errors from every rounding that builds them,
    and the residual r = alpha+beta-g-N-1 of the relation the form assumes."""
    p = case.params
    n = len(case.e_list)
    g = float(p.gamma + p.epsilon)
    t = g - p.gamma
    g_err = abs((p.gamma - (g - t)) + (p.epsilon - t))  # exact, by TwoSum
    k, k_rel = _gamma_ratio(g, p.alpha, p.beta)
    # g_err moves Gamma(g) by |psi(g)| g_err relative: |psi(x)| < |log x| + 1/x
    # for x > 0, and psi(x) = psi(1-x) - pi cot(pi x)
    h = g if g > 0.0 else 1.0 - g
    psi = abs(math.log(h)) + 1.0 / h
    if g < 0.0:
        psi += math.pi / abs(math.tan(math.pi * g))
    k_wide = abs(k) * (1.0 + k_rel + g_err * psi)
    # row 0: the d_i, one linear factor at a time by n n^(i) = n^(i+1) + i n^(i);
    # row 1: the same on the |e_k|, a bound on every path of 4 roundings a factor
    d = [[1.0] + [0.0] * n] * 2
    for e in map(float, case.e_list):
        d = [[x * (1.0 + i / f) + y / f for i, (x, y) in enumerate(zip(r, [0.0] + r))]
             for r, f in zip(d, (e, abs(e)))]
    # (g-alpha)_i (g-beta)_i, and the same over factors widened by their error
    x1, x2 = g - p.alpha, g - p.beta
    prod, wide = [1.0], [1.0]
    for f1, f2 in ((x1 + j, x2 + j) for j in range(n)):
        prod.append(prod[-1] * f1 * f2)
        wide.append(wide[-1] * (abs(f1) + g_err + _U * (abs(x1) + abs(f1)))
                    * (abs(f2) + g_err + _U * (abs(x2) + abs(f2))))
    # |B - B^| <= prod(|X^| + err X) - prod |X^| over the factors X of B
    b, err = [], []
    for i in range(n + 1):
        fact = float(math.factorial(n - i))
        b.append(float(k * d[0][i] * prod[i] * fact))
        b_wide = k_wide * (abs(d[0][i]) + _gamma_n(4 * n) * d[1][i]) * wide[i] * fact
        err.append(float(b_wide - abs(b[-1]) + _gamma_n(4 * n + 8) * b_wide))
    return b[::-1], err[::-1], math.fsum((p.alpha, p.beta, -p.gamma, -p.epsilon, -1.0 - n))


def evaluate_points(case: ReductionCase, zs, ctl: SeriesControl | None = None,
                    form: tuple | None = None) -> list[Evaluation]:
    """(u, u', u'') at each z of zs by Horner's rule in v = 1/(1-z), the B_k
    built once (or taken from form, the caller's _form(case)) and every point
    stepped at once; each tail is the Horner bound gamma_m sum_k |c_k| |v|^k
    plus the B_k's error bounds."""
    ctl = ctl or SeriesControl()
    zs = [float(z) for z in zs]
    for z in zs:
        check_disk(z)
    b, b_err, r = form or _form(case)
    n = len(b)
    vs = [1.0 / (1.0 - z) for z in zs]
    # 4N + 12 roundings (v, its powers, the steps); the series has Gamma(k+r) v^(k+r),
    # k+r, k+1+r for (k-1)! v^k, k, k+1: |r| (|log v| + log k + 0.58 + 1.5) relative
    gm0, log_n = _gamma_n(4 * n + 8), math.log(n)
    gm = np.array([gm0 + abs(r) * (abs(math.log(v)) + log_n + 2.2) for v in vs])
    v = np.array(vs)
    av = np.abs(v)
    # the weights 1, k, k(k+1) of B_k v^k in u, u'/v, u''/v^2 as rows, k = 1..N+1
    w = np.array([(1.0, float(k), k * (k + 1.0)) for k in range(1, n + 1)]).T
    with np.errstate(all="ignore"):  # a non-finite value raises below
        wb = w * np.array(b)
        wt = w[:, :, None] * (gm * np.abs(b)[:, None] + np.array(b_err)[:, None])
        acc = bound = np.zeros((3, len(vs)))
        for j in range(n - 1, -1, -1):
            acc = acc * v + wb[:, j, None]
            bound = bound * av + wt[:, j]
        values = np.array((acc[0] * v, acc[1] * v * v, acc[2] * v * v * v))
        # |v|^(order+1) by Python's float power: numpy's |v| ** 3 rounds differently
        tails = bound * np.array([(x, x ** 2, x ** 3) for x in map(abs, vs)]).T
    if not np.isfinite(values).all():
        raise NumericalError("the rational form produced a non-finite value")
    status = [tuple(EvalStatus.CONVERGED if ok else EvalStatus.MAX_TERMS_REACHED
                    for ok in row)
              for row in _kernels.settled(tails, values, ctl.rel_tol).T.tolist()]
    return [Evaluation(z, *x, n, tuple(t), st) for z, x, t, st
            in zip(zs, values.T.tolist(), tails.T.tolist(), status)]


def evaluate(case: ReductionCase, z: float,
             ctl: SeriesControl | None = None) -> Evaluation:
    """evaluate_points at the one point z."""
    return evaluate_points(case, (z,), ctl)[0]


def _sum_all(case: ReductionCase, z: float, ctl: SeriesControl):
    """(u, u', u'', terms_used, tails, doublings) at z, summed to length M
    with the tail resummed (expansion_core): one prefix and one kernel call
    per M, M doubling while a tail has not settled, until M + 1 reaches
    ctl.max_terms. perfbench's tracer reads its z and [3]."""
    p = case.params
    g = p.gamma + p.epsilon
    es = np.asarray(case.e_list, dtype=np.float64)
    n0 = termination_index(p)
    # the direct sum c_0..c_M takes M + 1 of the max_terms terms
    top = ctl.max_terms - 1
    big_m = min(_M_START if n0 >= _M_START else max(n0, 8), top)
    doublings = 0
    while True:
        cs, wt, wle = _kernels.expansion_prefix(
            g, g - p.alpha, g - p.beta, es, big_m, _MCAP, n0)
        u, du, ddu, terms, *tails = _kernels.expansion_core(
            p.a, p.q, p.alpha, p.beta, p.gamma, p.delta, p.epsilon, es,
            float(z), big_m, cs, wt, wle, ctl.rel_tol / 10.0, ctl.max_terms,
            _kernels.CONSECUTIVE_SMALL)
        if not all(map(math.isfinite, (u, du, ddu))):
            raise NumericalError("expansion summation produced a non-finite value")
        if big_m >= top or big_m >= n0 or all(
                _kernels.settled(t, x, ctl.rel_tol) for t, x in zip(tails, (u, du, ddu))):
            return u, du, ddu, terms, tuple(tails), doublings
        big_m = min(2 * big_m, top)
        doublings += 1


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


def forcing_constant(case: ReductionCase) -> float:
    """The constant C the cleared-denominator operator maps the sum onto.

    C = Gamma(g) / (Gamma(g-alpha) Gamma(g-beta) prod_k e_k) with
    g = gamma+epsilon; exactly 0 when the stream terminates
    (termination_index), where a reciprocal gamma factor sits at a pole and
    the sum is a rational, genuine solution.
    """
    p = case.params
    if termination_index(p) < NO_TERMINATION:
        return 0.0
    g = p.gamma + p.epsilon
    value = _gamma_ratio(g, g - p.alpha, g - p.beta)[0]
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


def form_certificate(case: ReductionCase, b=None) -> float:
    """The z-free check of the closed form against forcing_constant: with
    t = 1 - z, u = sum_k B_k t^-k, and t^(N+3) times forced_residual's
    operator w u'' + wp u' + wq u + C is a polynomial in t whose every
    coefficient must vanish. Returns the largest coefficient over the largest
    sum of the magnitudes of the terms that form one coefficient. A ratio per
    coefficient would read noise in a terminating case, whose top coefficient
    holds only B_1 and C, both 0 up to rounding. b: the B_k of _form(case),
    when the caller already holds them."""
    if b is None:
        b = _form(case)[0]
    p = case.params
    c = forcing_constant(case)
    k = np.arange(1.0, len(b) + 1.0)
    polys = []
    for f in (np.positive, np.abs):  # the signed terms, then their magnitudes
        # z, z - 1 and z - a as coefficients of t^0, t^1
        z, z1, za = [1.0, f(-1.0)], [0.0, f(-1.0)], [f(1.0 - p.a), f(-1.0)]
        w = np.convolve(np.convolve(z, z1), za)
        wp = (f(p.gamma) * np.convolve(z1, za) + f(p.delta) * np.convolve(z, za)
              + f(p.epsilon) * np.convolve(z, z1))
        wq = [f(p.alpha * p.beta) + f(-p.q), f(-p.alpha * p.beta)]
        bk = f(np.array(b))
        # t^(N+3) u'', u', u: k(k+1) B_k, k B_k, B_k at t^(N+1-k), t^(N+2-k), t^(N+3-k)
        poly = (np.convolve((k * (k + 1.0) * bk)[::-1], w)
                + np.convolve(np.concatenate(([0.0], (k * bk)[::-1])), wp)
                + np.convolve(np.concatenate(([0.0, 0.0], bk[::-1])), wq))
        poly[-1] += f(c)
        polys.append(poly)
    num, den = polys
    return float(np.max(np.abs(num)) / np.maximum(np.max(den), _kernels.TINY))


def certified_points(case: ReductionCase, zs) -> tuple[list[Evaluation], float]:
    """evaluate_points at zs and the form_certificate of the same B_k, from
    one _form pass."""
    form = _form(case)
    return evaluate_points(case, zs, form=form), form_certificate(case, form[0])


def evaluation_table(case: ReductionCase, z_values) -> str:
    """CSV with columns z, u, u', u'', residual, terms_used: the residual is
    the homogeneous one, nan at a singular point; floats go out as repr."""
    lines = ["z,u,du,ddu,residual,terms_used"]
    for ev in evaluate_points(case, z_values):
        lines.append(f"{ev.z!r},{ev.u!r},{ev.du!r},{ev.ddu!r},"
                     f"{homogeneous_residual(case, ev)!r},{ev.terms_used}")
    return "\n".join(lines) + "\n"
