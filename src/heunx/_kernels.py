"""Numeric cores behind the public API, in plain numpy.

Every function here is side-effect free. A failure raises the typed error
where it happens: PoleError, DivisionByZeroError, NonConvergenceError or
NumericalError. The integer-proximity rule is params.is_nonpos_int.
"""

import math

import numpy as np

from .errors import (DivisionByZeroError, NonConvergenceError, NumericalError,
                     PoleError)
from .params import INT_SNAP, is_nonpos_int

TINY = 1e-300
VALUE_FLOOR = 1e-280  # below this a value has no relative tail
EPS = 2.0 ** -52
# closer to 0 a series in z equals its origin value to the last bit, and
# the 1/z^2 of a second derivative overflows; such a z is taken as 0
NEAR_ORIGIN = 1e-150


def poch(x, n):
    """Rising factorial (x)_n as a finite product; exact 1 for n = 0."""
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


def lgamma_signed(x):
    """log|Gamma(x)| and the sign of Gamma(x); sign 0 flags a pole."""
    if x > 0.0:
        return math.lgamma(x), 1.0
    r = np.rint(x)
    if abs(x - r) < 1e-12:
        return np.inf, 0.0
    # Gamma alternates sign on (-k-1, -k): negative on (-1,0), positive on (-2,-1), ...
    k = int(math.floor(-x))
    sign = -1.0 if k % 2 == 0 else 1.0
    return math.lgamma(x), sign


def gauss_2f1_at_one(a, b, c):
    """2F1(a,b;c;1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)).

    Valid for c-a-b > 0; a reciprocal gamma pole gives an exact 0. Only the
    tail weights use it, and its errors say so.
    """
    ln, sn = lgamma_signed(c)
    lm, sm = lgamma_signed(c - a - b)
    lp, sp = lgamma_signed(c - a)
    lq, sq = lgamma_signed(c - b)
    if sp == 0.0 or sq == 0.0:
        return 0.0
    if sn == 0.0 or sm == 0.0:
        raise PoleError("gamma-factor pole in the tail weights")
    logv = ln + lm - lp - lq
    if logv > 700.0:
        raise NumericalError("tail weights failed")
    return sn * sm * sp * sq * math.exp(logv)


def f21_with_derivs(a, b, c, z, rel_tol, max_terms, consec):
    """2F1 and its first two z-derivatives in one pass over the series;
    stops after `consec` successive terms small in the value and in u''.

    Returns (f, f', f'', terms_used, last_term).
    """
    if abs(z) < NEAR_ORIGIN:
        f1 = a * b / c
        f2 = a * b * (a + 1.0) * (b + 1.0) / (c * (c + 1.0))
        return 1.0, f1, f2, 1, 0.0
    zi = 1.0 / z
    zi2 = zi * zi
    s0 = 1.0
    s1 = 0.0
    s2 = 0.0
    term = 1.0
    small = 0
    m = 0
    while m < max_terms:
        term *= (a + m) * (b + m) * z / ((c + m) * (m + 1.0))
        fm = m + 1.0
        s0 += term
        s1 += term * fm * zi
        s2 += term * fm * (fm - 1.0) * zi2
        m += 1
        t0 = abs(term)
        # derivative series decay slowest; gate on both ends
        ok0 = t0 <= rel_tol * (abs(s0) + TINY)
        ok2 = t0 * fm * (fm - 1.0) * zi2 <= rel_tol * (abs(s2) + TINY) + TINY
        if ok0 and ok2:
            small += 1
            if small >= consec:
                return s0, s1, s2, m + 1, t0
        else:
            small = 0
    raise NonConvergenceError("an inner hypergeometric series did not settle")


def two_term_ratio_stream(g, x1, x2, es, nmax, n0):
    """Coefficients via the iterated two-term ratio; exact zeros from n0 on.

    x1 = gamma+eps-alpha, x2 = gamma+eps-beta; n0 is the termination index
    (already snapped by the caller) or a value > nmax when none exists.
    Multiplied up in order, so c_n is the product a row-by-row loop gives.
    Each shifted factor is x + (n - 1) with the integer part exact: x - 1 + n
    would leave a small x (an e_k near 0) at n = 1 with an absolute error
    of eps, a large relative one.
    """
    c = np.zeros(nmax + 1)
    c[0] = 1.0
    top = min(nmax, n0 - 1)  # remaining entries stay exactly 0
    n = np.arange(1.0, top + 1.0)
    r = (x1 + (n - 1.0)) * (x2 + (n - 1.0)) / ((g + (n - 1.0)) * n)
    for k in range(len(es)):
        r *= (es[k] + n) / (es[k] + (n - 1.0))
    c[1:top + 1] = np.cumprod(r)
    return c


def closed_form_stream(g, x1, x2, es, nmax, n0):
    """Coefficients from the gamma closed form, kept as paired Pochhammer
    ratios (x1)_n/n! and (x2)_n/(g)_n so nothing overflows for n up to 1e4."""
    c = np.zeros(nmax + 1)
    c[0] = 1.0
    top = min(nmax, n0 - 1)  # remaining entries stay exactly 0
    n = np.arange(1.0, top + 1.0)
    an = np.cumprod((x1 + (n - 1.0)) / n)  # (x1)_n / n!
    bn = np.cumprod((x2 + (n - 1.0)) / (g + (n - 1.0)))  # (x2)_n / (g)_n
    ep = 1.0
    for k in range(len(es)):
        ep *= (es[k] + n) / es[k]
    c[1:top + 1] = an * bn * ep
    return c


def coeff_r(n, a, ga, ep):
    return (1.0 - a) * n * (ep + ga + n - 1.0)


def coeff_q(n, a, q, al, be, ga, de, ep):
    return -coeff_r(n, a, ga, ep) + a * (1.0 + n - de) * (n + ep) + (a * al * be - q)


def coeff_p(n, a, q, al, be, ga, de, ep):
    g = ep + ga
    f1 = n + g - al
    f2 = n + g - be
    # these factors own the structural zeros behind stream termination;
    # the integer-proximity rule must make them exact zeros, not O(1e-16)
    if abs(f1) < INT_SNAP:
        f1 = 0.0
    if abs(f2) < INT_SNAP:
        f2 = 0.0
    if abs(n + g) < 1e-12:
        raise DivisionByZeroError(f"n+epsilon+gamma vanishes at n = {n!r}")
    return -a / (n + g) * (n + ep) * f1 * f2


def recurrence_residual_rows(a, q, al, be, ga, de, ep, values):
    """Scale-free residual of the three-term relation at each n >= 2: all
    rows at once, each in the arithmetic order of coeff_r, coeff_q, coeff_p."""
    nmax = len(values) - 1
    rows = np.zeros(nmax + 1)
    n = np.arange(2.0, nmax + 1.0)
    m = n - 2.0
    g = ep + ga
    f1 = m + g - al
    f2 = m + g - be
    f1[np.abs(f1) < INT_SNAP] = 0.0  # the snap of coeff_p
    f2[np.abs(f2) < INT_SNAP] = 0.0
    t1 = coeff_r(n, a, ga, ep) * values[2:]
    t2 = coeff_q(n - 1.0, a, q, al, be, ga, de, ep) * values[1:nmax]
    t3 = -a / (m + g) * (m + ep) * f1 * f2 * values[:nmax - 1]
    rows[2:] = np.abs(t1 + t2 + t3) / (np.abs(t1) + np.abs(t2) + np.abs(t3) + TINY)
    return rows


_PIVOT = "a recurrence pivot R_n or P_n vanished"
_FAILED = "three-term stream generation failed"


def three_term_stream(a, q, al, be, ga, de, ep, nmax, n0, rho_switch):
    """Coefficients from the three-term relation with c_0 = 1, c_1 = -Q_0/R_1.

    Forward recursion is stable only while the parasitic solution mode
    |a/(a-1)|^n does not dominate; past rho_switch the stream is built by
    backward recursion (seeded at the termination index when one exists)
    and normalized to c_0 = 1. The relation at n = 1 is re-checked at the
    end as a convergence certificate.
    """
    c = np.zeros(nmax + 1)
    c[0] = 1.0
    if nmax == 0:
        return c
    rho = abs(a / (a - 1.0))

    if n0 <= nmax:
        # terminating stream: entries from n0 on are exactly zero
        if rho <= rho_switch:
            _forward_fill(a, q, al, be, ga, de, ep, c, min(nmax, n0 - 1))
        else:
            work = np.zeros(n0 + 1)
            work[n0 - 1] = 1.0
            _backward_fill(a, q, al, be, ga, de, ep, work, n0 - 2, -1)
            if work[0] == 0.0:
                raise NumericalError(_FAILED)
            for j in range(1, min(nmax, n0 - 1) + 1):
                c[j] = work[j] / work[0]
        return _certify_init(a, q, al, be, ga, de, ep, c)

    if rho <= rho_switch:
        _forward_fill(a, q, al, be, ga, de, ep, c, nmax)
        return _certify_init(a, q, al, be, ga, de, ep, c)

    # backward (minimal-solution) recursion with a safety buffer
    buf = int(math.ceil(52.0 / math.log(rho)))
    if buf < 40:
        buf = 40
    if buf > 2000:
        buf = 2000
    top = nmax + buf

    # an interior P zero (epsilon a non-positive integer) blocks backward
    # propagation below it; fill that lower block forward instead
    jstar = -1
    if is_nonpos_int(ep) and -round(ep) <= top:
        jstar = -round(ep)

    work = np.zeros(top + 2)
    work[top] = 1.0
    _backward_fill(a, q, al, be, ga, de, ep, work, top - 1, jstar)

    if jstar < 0:
        if work[0] == 0.0:
            raise NumericalError(_FAILED)
        for j in range(1, nmax + 1):
            c[j] = work[j] / work[0]
    else:
        low = np.zeros(jstar + 2)
        low[0] = 1.0
        _forward_fill(a, q, al, be, ga, de, ep, low, jstar + 1)
        if abs(work[jstar + 1]) < TINY:
            raise NumericalError(_FAILED)
        sc = low[jstar + 1] / work[jstar + 1]
        for j in range(1, nmax + 1):
            if j <= jstar + 1:
                c[j] = low[j]
            else:
                c[j] = work[j] * sc
    return _certify_init(a, q, al, be, ga, de, ep, c)


def _forward_fill(a, q, al, be, ga, de, ep, c, upto):
    if upto >= 1:
        r1 = coeff_r(1.0, a, ga, ep)
        if abs(r1) < TINY:
            raise DivisionByZeroError(_PIVOT)
        c[1] = -coeff_q(0.0, a, q, al, be, ga, de, ep) * c[0] / r1
    for n in range(2, upto + 1):
        rn = coeff_r(float(n), a, ga, ep)
        if abs(rn) < TINY:
            raise DivisionByZeroError(_PIVOT)
        c[n] = -(coeff_q(n - 1.0, a, q, al, be, ga, de, ep) * c[n - 1]
                 + coeff_p(n - 2.0, a, q, al, be, ga, de, ep) * c[n - 2]) / rn


def _backward_fill(a, q, al, be, ga, de, ep, work, start, stop):
    """work[j] for j = start down to stop+1 from work[j+1], work[j+2]."""
    for j in range(start, stop, -1):
        pj = coeff_p(j, a, q, al, be, ga, de, ep)
        if abs(pj) < TINY:
            raise DivisionByZeroError(_PIVOT)
        work[j] = -(coeff_r(j + 2.0, a, ga, ep) * work[j + 2]
                    + coeff_q(j + 1.0, a, q, al, be, ga, de, ep) * work[j + 1]) / pj


def _certify_init(a, q, al, be, ga, de, ep, c):
    t1 = coeff_r(1.0, a, ga, ep) * c[1]
    t2 = coeff_q(0.0, a, q, al, be, ga, de, ep) * c[0]
    if abs(t1 + t2) > 1e-7 * (abs(t1) + abs(t2) + TINY):
        raise NonConvergenceError("backward recursion failed the n = 1 certificate")
    return c


def identity_terms(a, q, al, be, ga, de, ep, es, n):
    """The three summands of the collocation identity at n, a real number
    or an array of them (element by element the same arithmetic)."""
    g = ga + ep
    p1 = 1.0
    p2 = 1.0
    p3 = 1.0
    for k in range(len(es)):
        p1 *= es[k] + n
        p2 *= es[k] - 1.0 + n
        p3 *= es[k] - 2.0 + n
    t1 = (1.0 - a) * (g - al - 1.0 + n) * (g - be - 1.0 + n) * p1
    t2 = coeff_q(n - 1.0, a, q, al, be, ga, de, ep) * p2
    t3 = -a * (ep + n - 2.0) * (n - 1.0) * p3
    return t1, t2, t3


def colloc_residual(a, al, be, ga, n_case, q, es):
    """Identity values at n = 1..N+1, the square residual map solved for
    (q, e_1..e_N); delta and epsilon are pinned by the reduction."""
    t1, t2, t3 = _colloc_terms(a, al, be, ga, n_case, q, es)
    return t1 + t2 + t3


def colloc_scale(a, al, be, ga, n_case, q, es):
    t1, t2, t3 = _colloc_terms(a, al, be, ga, n_case, q, es)
    return np.max(np.abs(t1) + np.abs(t2) + np.abs(t3))


def _colloc_terms(a, al, be, ga, n_case, q, es):
    de = n_case + 2.0
    ep = 1.0 + al + be - ga - de
    return identity_terms(a, q, al, be, ga, de, ep, es, np.arange(1.0, n_case + 2.0))


def colloc_jacobian(a, al, be, ga, n_case, q, es):
    """Exact Jacobian of colloc_residual in (q, e_1..e_N): q enters only
    through -q P(n-1), and e_k through each summand's e-product."""
    n = np.arange(1.0, n_case + 2.0)
    # the summands' factors in front of P(n), P(n-1) and P(n-2)
    f1, f2, f3 = _colloc_terms(a, al, be, ga, n_case, q, es[:0])
    jac = np.zeros((n_case + 1, n_case + 1))
    jac[:, 0] = -1.0
    for k in range(n_case):
        jac[:, 0] *= es[k] - 1.0 + n
        d1 = d2 = d3 = 1.0
        for j in range(n_case):
            if j != k:
                d1 *= es[j] + n
                d2 *= es[j] - 1.0 + n
                d3 *= es[j] - 2.0 + n
        jac[:, k + 1] = f1 * d1 + f2 * d2 + f3 * d3
    return jac


def newton_general(a, al, be, ga, n_case, q0, es0, tol, maxit):
    """Newton polish of a reduction (q, e_1..e_N) on the collocation map,
    with the exact Jacobian; a step is kept only while it lowers the largest
    residual, for at most maxit steps.

    Returns (q, es, scaled_residual, converged).
    """
    x = np.concatenate(([q0], es0))
    f = colloc_residual(a, al, be, ga, n_case, x[0], x[1:])
    for _ in range(maxit):
        try:
            xt = x - np.linalg.solve(colloc_jacobian(a, al, be, ga, n_case, x[0], x[1:]), f)
        except np.linalg.LinAlgError:
            break  # singular Jacobian: keep the last point
        ft = colloc_residual(a, al, be, ga, n_case, xt[0], xt[1:])
        if not np.max(np.abs(ft)) < np.max(np.abs(f)):
            break
        x, f = xt, ft
    fn = np.max(np.abs(f))
    sc = colloc_scale(a, al, be, ga, n_case, x[0], x[1:]) + 1.0
    return x[0], x[1:], fn / sc, fn <= tol * sc


def frobenius_fill(a, q, al, be, ga, de, ep, nmax):
    """Power-series coefficients about the origin from the collected-power
    identity of the differential equation; b_0 = 1.

    Returns (b, radius): the radius of convergence is the distance from the
    origin to the nearer of the singular points 1 and a.
    """
    b = np.zeros(nmax + 1)
    b[0] = 1.0
    gde = ga + de + ep
    c1 = ga * (1.0 + a) + a * de + ep
    for m in range(nmax):
        den = a * (m + 1.0) * (m + ga)
        if abs(den) < TINY:
            raise PoleError("power-series denominator vanished")
        t = ((1.0 + a) * m * (m - 1.0) + c1 * m + q) * b[m]
        if m >= 1:
            t -= ((m - 1.0) * (m - 2.0) + gde * (m - 1.0) + al * be) * b[m - 1]
        b[m + 1] = t / den
    return b, min(1.0, abs(a))


def horner_eval(coefs, z):
    """Horner value of the truncated series plus a last-three-terms tail bound."""
    n = len(coefs) - 1
    acc = 0.0
    for k in range(n, -1, -1):
        acc = acc * z + coefs[k]
    tail = 0.0
    zp = 1.0
    for k in range(n + 1):
        if k > n - 3:
            tail += abs(coefs[k]) * abs(zp)
        zp *= z
    return acc, tail


def expansion_weights(g, x1, x2, es, mcap):
    """Closed-form tail weights W_m = sum_n c_n / (g+n)_m for m = 0..mcap.

    The e-product polynomial is expanded in falling factorials (forward
    differences), each piece summing to a ratio of gammas at unit argument.
    """
    nn = len(es)
    pv = np.zeros(nn + 1)
    for i in range(nn + 1):
        p = 1.0
        for k in range(nn):
            p *= (es[k] + i) / es[k]
        pv[i] = p
    d = np.zeros(nn + 1)
    fact = 1.0
    for lvl in range(nn + 1):
        if lvl > 0:
            fact *= lvl
            for j in range(nn - lvl + 1):
                pv[j] = pv[j + 1] - pv[j]
        d[lvl] = pv[0] / fact
    w = np.zeros(mcap + 1)
    for m in range(mcap + 1):
        acc = 0.0
        for i in range(nn + 1):
            if d[i] == 0.0:
                continue
            gv = gauss_2f1_at_one(x1 + i, x2 + i, g + i + m)
            acc += d[i] * poch(x1, i) * poch(x2, i) / (poch(g, i) * poch(g + i, m)) * gv
        w[m] = acc
    return w


def expansion_prefix(g, x1, x2, es, big_m, mcap, n0):
    """The z-independent pieces of a summation with direct-sum length big_m:
    c_0..c_mstop with mstop = min(big_m, n0 - 1), the closed weights W_m
    and the partial weights W_m^{<=mstop} = sum_{n<=mstop} c_n / (g+n)_m
    for m = 0..mcap. Every point of one case shares them.

    Returns (cs, wt, wle).
    """
    wt = expansion_weights(g, x1, x2, es, mcap)
    mstop = big_m
    if n0 - 1 < mstop:
        mstop = n0 - 1
    cs = two_term_ratio_stream(g, x1, x2, es, mstop, n0)
    wle = np.zeros(mcap + 1)
    for n in range(mstop + 1):
        rr = cs[n]
        wle[0] += rr
        for m in range(1, mcap + 1):
            rr /= g + n + m - 1.0
            wle[m] += rr
    return cs, wt, wle


def settled(tail, value, tol):
    """The one convergence test: a tail within tol of its value, or a value
    too small to measure a tail against."""
    return tail <= tol * abs(value) or abs(value) < VALUE_FLOOR


def expansion_core(a, q, al, be, ga, de, ep, es, z, big_m, cs, wt, wle,
                   inner_tol, max_terms_inner, consec):
    """Value and first two derivatives of the summed expansion at z.

    Takes the case parameters in the kernels' common order; the
    coefficients c_0..c_mstop and the weights W_m, W_m^{<=mstop} come
    precomputed from expansion_prefix at direct-sum length big_m. Direct
    sum over n <= mstop plus the exact tail: swapping the n/m double sum
    leaves sum_m h_m z^m s_m with h_m = (al)_m (be)_m / m! and
    s_m = W_m - W_m^{<=mstop} = sum_{n>mstop} c_n / (g+n)_m.

    That difference is rounding noise once s_m falls below eps W_m, so the
    tails are estimated without it: every accepted reduction has
    g = al + be - 1 - N, hence c_n ~ n^-2 and
    s_m ~ |c_M| M / ((m+1) (g+M+1)_m) at M = big_m, exactly 0 when the
    stream ends by M. The m-sum stops at the first m >= 1 where the next
    term's estimate, per derivative order, is below eps of the running
    value in all three orders; those estimates are the returned tails.

    Returns (u, du, ddu, terms_used, tail0, tail1, tail2).
    """
    g = ga + ep
    if abs(z) < NEAR_ORIGIN:
        # every term function is 1 at the origin; the weights are exact sums
        u = wt[0]
        du = al * be * wt[1]
        ddu = al * be * (al + 1.0) * (be + 1.0) * wt[2]
        return u, du, ddu, 1, 0.0, 0.0, 0.0

    mstop = len(cs) - 1
    u = 0.0
    du = 0.0
    ddu = 0.0
    for n in range(mstop + 1):
        f0, f1, f2, _, _ = f21_with_derivs(al, be, g + n, z, inner_tol,
                                           max_terms_inner, consec)
        cn = cs[n]
        u += cn * f0
        du += cn * f1
        ddu += cn * f2

    # |c_M| M; the stream ended by M when mstop < big_m
    base = 0.0
    if mstop == big_m:
        base = abs(cs[mstop]) * big_m
    tail0 = 0.0
    tail1 = 0.0
    tail2 = 0.0
    hm = 1.0
    zp = 1.0  # z^m
    zi = 1.0 / z
    az = abs(z)
    pm = 1.0  # (g+M+1)_m
    for m in range(len(wt)):
        s = wt[m] - wle[m]
        fm = float(m)
        u += hm * zp * s
        du += hm * fm * zp * zi * s
        ddu += hm * fm * (fm - 1.0) * zp * zi * zi * s
        hm *= (al + m) * (be + m) / (m + 1.0)
        zp *= z
        pm *= g + big_m + 1.0 + m
        # the next term, m+1, estimates each order's remainder; not at m = 0,
        # where term 1 carries no u'' though term 2 does
        fn = fm + 1.0
        tail0 = abs(hm * zp) * base / ((fn + 1.0) * abs(pm))
        tail1 = tail0 * fn / az
        tail2 = tail1 * fm / az
        if (m >= 1 and settled(tail0, u, EPS) and settled(tail1, du, EPS)
                and settled(tail2, ddu, EPS)):
            break
    return u, du, ddu, mstop + 1, tail0, tail1, tail2
