"""Numeric cores behind the public API.

Every function here is numba-compatible and side-effect free; the jitted and
plain backends share this source (see _jit). Failures surface as status
codes rather than exceptions so the kernels compile under nopython mode;
wrappers translate the codes into typed errors.
"""

import math

import numpy as np

from ._jit import maybe_njit

STATUS_OK = 0
STATUS_MAX_TERMS = 1
STATUS_DOMAIN = 2
STATUS_POLE = 3
STATUS_DIV_ZERO = 4
STATUS_NO_CONVERGE = 5
STATUS_NUMERICAL = 6

TINY = 1e-300
VALUE_FLOOR = 1e-280  # below this a value has no relative tail
EPS = 2.0 ** -52
INT_SNAP = 1e-9  # integer-proximity rule shared with parameter validation


@maybe_njit
def poch(x, n):
    """Rising factorial (x)_n as a finite product; exact 1 for n = 0."""
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


@maybe_njit
def nonpos_int_snap(x):
    """Round x to the nearest non-positive integer if within INT_SNAP, else return 1.

    Returns (is_snapped, snapped_value); snapped_value is meaningful only
    when is_snapped.
    """
    r = np.rint(x)
    if abs(x - r) < INT_SNAP and r <= 0.0:
        return True, r
    return False, 1.0


@maybe_njit
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


@maybe_njit
def gauss_2f1_at_one(a, b, c):
    """2F1(a,b;c;1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)).

    Valid for c-a-b > 0; a reciprocal gamma pole gives an exact 0.
    """
    ln, sn = lgamma_signed(c)
    lm, sm = lgamma_signed(c - a - b)
    lp, sp = lgamma_signed(c - a)
    lq, sq = lgamma_signed(c - b)
    if sp == 0.0 or sq == 0.0:
        return 0.0, STATUS_OK
    if sn == 0.0 or sm == 0.0:
        return 0.0, STATUS_POLE
    logv = ln + lm - lp - lq
    if logv > 700.0:
        return 0.0, STATUS_NUMERICAL
    return sn * sm * sp * sq * math.exp(logv), STATUS_OK


@maybe_njit
def f21_value(a, b, c, z, rel_tol, max_terms, consec):
    """Plain 2F1 series sum; stops after `consec` successive small terms."""
    s = 1.0
    term = 1.0
    small = 0
    m = 0
    while m < max_terms:
        term *= (a + m) * (b + m) * z / ((c + m) * (m + 1.0))
        s += term
        m += 1
        if abs(term) <= rel_tol * (abs(s) + TINY):
            small += 1
            if small >= consec:
                return s, m + 1, abs(term), STATUS_OK
        else:
            small = 0
    return s, m + 1, abs(term), STATUS_MAX_TERMS


@maybe_njit
def f21_with_derivs(a, b, c, z, rel_tol, max_terms, consec):
    """2F1 and its first two z-derivatives in one pass over the series."""
    if z == 0.0:
        f1 = a * b / c
        f2 = a * b * (a + 1.0) * (b + 1.0) / (c * (c + 1.0))
        return 1.0, f1, f2, 1, 0.0, STATUS_OK
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
                return s0, s1, s2, m + 1, t0, STATUS_OK
        else:
            small = 0
    return s0, s1, s2, m + 1, abs(term), STATUS_MAX_TERMS


@maybe_njit
def two_term_ratio_stream(g, x1, x2, es, nmax, n0):
    """Coefficients via the iterated two-term ratio; exact zeros from n0 on.

    x1 = gamma+eps-alpha, x2 = gamma+eps-beta; n0 is the termination index
    (already snapped by the caller) or a value > nmax when none exists.
    """
    c = np.zeros(nmax + 1)
    c[0] = 1.0
    for n in range(1, nmax + 1):
        if n >= n0:
            break  # remaining entries stay exactly 0
        r = (x1 - 1.0 + n) * (x2 - 1.0 + n) / ((g - 1.0 + n) * n)
        for k in range(len(es)):
            r *= (es[k] + n) / (es[k] - 1.0 + n)
        c[n] = c[n - 1] * r
    return c


@maybe_njit
def closed_form_stream(g, x1, x2, es, nmax, n0):
    """Coefficients from the gamma closed form, kept as paired Pochhammer
    ratios (x1)_n/n! and (x2)_n/(g)_n so nothing overflows for n up to 1e4."""
    c = np.zeros(nmax + 1)
    c[0] = 1.0
    an = 1.0  # (x1)_n / n!
    bn = 1.0  # (x2)_n / (g)_n
    for n in range(1, nmax + 1):
        if n >= n0:
            break
        an *= (x1 + n - 1.0) / n
        bn *= (x2 + n - 1.0) / (g + n - 1.0)
        ep = 1.0
        for k in range(len(es)):
            ep *= (es[k] + n) / es[k]
        c[n] = an * bn * ep
    return c


@maybe_njit
def coeff_r(n, a, ga, ep):
    return (1.0 - a) * n * (ep + ga + n - 1.0)


@maybe_njit
def coeff_q(n, a, q, al, be, ga, de, ep):
    return -coeff_r(n, a, ga, ep) + a * (1.0 + n - de) * (n + ep) + (a * al * be - q)


@maybe_njit
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
    return -a / (n + g) * (n + ep) * f1 * f2


@maybe_njit
def recurrence_residual_rows(a, q, al, be, ga, de, ep, values):
    """Scale-free residual of the three-term relation at each n >= 2."""
    nmax = len(values) - 1
    rows = np.zeros(nmax + 1)
    for n in range(2, nmax + 1):
        t1 = coeff_r(n, a, ga, ep) * values[n]
        t2 = coeff_q(n - 1, a, q, al, be, ga, de, ep) * values[n - 1]
        t3 = coeff_p(n - 2, a, q, al, be, ga, de, ep) * values[n - 2]
        rows[n] = abs(t1 + t2 + t3) / (abs(t1) + abs(t2) + abs(t3) + TINY)
    return rows


@maybe_njit
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
        return c, STATUS_OK
    rho = abs(a / (a - 1.0))

    if n0 <= nmax:
        # terminating stream: entries from n0 on are exactly zero
        if rho <= rho_switch:
            st = _forward_fill(a, q, al, be, ga, de, ep, c, min(nmax, n0 - 1))
            if st != STATUS_OK:
                return c, st
        else:
            work = np.zeros(n0 + 1)
            work[n0 - 1] = 1.0
            for j in range(n0 - 2, -1, -1):
                pj = coeff_p(j, a, q, al, be, ga, de, ep)
                if abs(pj) < TINY:
                    return c, STATUS_DIV_ZERO
                work[j] = -(coeff_r(j + 2.0, a, ga, ep) * work[j + 2]
                            + coeff_q(j + 1.0, a, q, al, be, ga, de, ep) * work[j + 1]) / pj
            if work[0] == 0.0:
                return c, STATUS_NUMERICAL
            for j in range(1, min(nmax, n0 - 1) + 1):
                c[j] = work[j] / work[0]
        return _certify_init(a, q, al, be, ga, de, ep, c)

    if rho <= rho_switch:
        st = _forward_fill(a, q, al, be, ga, de, ep, c, nmax)
        if st != STATUS_OK:
            return c, st
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
    snapped, r = nonpos_int_snap(ep)
    if snapped and -r <= top:
        jstar = int(-r)

    work = np.zeros(top + 2)
    work[top] = 1.0
    for j in range(top - 1, jstar, -1):
        pj = coeff_p(j, a, q, al, be, ga, de, ep)
        if abs(pj) < TINY:
            return c, STATUS_DIV_ZERO
        work[j] = -(coeff_r(j + 2.0, a, ga, ep) * work[j + 2]
                    + coeff_q(j + 1.0, a, q, al, be, ga, de, ep) * work[j + 1]) / pj

    if jstar < 0:
        if work[0] == 0.0:
            return c, STATUS_NUMERICAL
        for j in range(1, nmax + 1):
            c[j] = work[j] / work[0]
    else:
        low = np.zeros(jstar + 2)
        low[0] = 1.0
        st = _forward_fill(a, q, al, be, ga, de, ep, low, jstar + 1)
        if st != STATUS_OK:
            return c, st
        if abs(work[jstar + 1]) < TINY:
            return c, STATUS_NUMERICAL
        sc = low[jstar + 1] / work[jstar + 1]
        for j in range(1, nmax + 1):
            if j <= jstar + 1:
                c[j] = low[j]
            else:
                c[j] = work[j] * sc
    return _certify_init(a, q, al, be, ga, de, ep, c)


@maybe_njit
def _forward_fill(a, q, al, be, ga, de, ep, c, upto):
    if upto >= 1:
        r1 = coeff_r(1.0, a, ga, ep)
        if abs(r1) < TINY:
            return STATUS_DIV_ZERO
        c[1] = -coeff_q(0.0, a, q, al, be, ga, de, ep) * c[0] / r1
    for n in range(2, upto + 1):
        rn = coeff_r(float(n), a, ga, ep)
        if abs(rn) < TINY:
            return STATUS_DIV_ZERO
        c[n] = -(coeff_q(n - 1.0, a, q, al, be, ga, de, ep) * c[n - 1]
                 + coeff_p(n - 2.0, a, q, al, be, ga, de, ep) * c[n - 2]) / rn
    return STATUS_OK


@maybe_njit
def _certify_init(a, q, al, be, ga, de, ep, c):
    t1 = coeff_r(1.0, a, ga, ep) * c[1]
    t2 = coeff_q(0.0, a, q, al, be, ga, de, ep) * c[0]
    if abs(t1 + t2) > 1e-7 * (abs(t1) + abs(t2) + TINY):
        return c, STATUS_NO_CONVERGE
    return c, STATUS_OK


@maybe_njit
def identity_terms(a, q, al, be, ga, de, ep, es, n):
    """The three summands of the collocation identity at (possibly real) n."""
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


@maybe_njit
def identity_lhs_k(a, q, al, be, ga, de, ep, es, n):
    t1, t2, t3 = identity_terms(a, q, al, be, ga, de, ep, es, n)
    return t1 + t2 + t3


@maybe_njit
def colloc_residual(a, al, be, ga, n_case, q, es):
    """Identity values at n = 1..N+1, the square residual map solved for
    (q, e_1..e_N); delta and epsilon are pinned by the reduction."""
    de = n_case + 2.0
    ep = 1.0 + al + be - ga - de
    out = np.zeros(n_case + 1)
    for i in range(n_case + 1):
        out[i] = identity_lhs_k(a, q, al, be, ga, de, ep, es, i + 1.0)
    return out


@maybe_njit
def colloc_scale(a, al, be, ga, n_case, q, es):
    de = n_case + 2.0
    ep = 1.0 + al + be - ga - de
    sc = 0.0
    for i in range(n_case + 1):
        t1, t2, t3 = identity_terms(a, q, al, be, ga, de, ep, es, i + 1.0)
        s = abs(t1) + abs(t2) + abs(t3)
        if s > sc:
            sc = s
    return sc


@maybe_njit
def solve_small(mat, rhs):
    """Gaussian elimination with partial pivoting for the tiny Newton systems."""
    n = len(rhs)
    a = mat.copy()
    b = rhs.copy()
    for col in range(n):
        piv = col
        best = abs(a[col, col])
        for r in range(col + 1, n):
            if abs(a[r, col]) > best:
                best = abs(a[r, col])
                piv = r
        if best < 1e-200:
            return b, False
        if piv != col:
            for cc in range(n):
                tmp = a[col, cc]
                a[col, cc] = a[piv, cc]
                a[piv, cc] = tmp
            tmp = b[col]
            b[col] = b[piv]
            b[piv] = tmp
        for r in range(col + 1, n):
            f = a[r, col] / a[col, col]
            for cc in range(col, n):
                a[r, cc] -= f * a[col, cc]
            b[r] -= f * b[col]
    x = np.zeros(n)
    for r in range(n - 1, -1, -1):
        s = b[r]
        for cc in range(r + 1, n):
            s -= a[r, cc] * x[cc]
        x[r] = s / a[r, r]
    return x, True


@maybe_njit
def newton_general(a, al, be, ga, n_case, q0, es0, tol, maxit):
    """Damped Newton with finite-difference Jacobian on the collocation map.

    Returns (q, es, scaled_residual, converged).
    """
    dim = n_case + 1
    x = np.zeros(dim)
    x[0] = q0
    for k in range(n_case):
        x[k + 1] = es0[k]
    f = colloc_residual(a, al, be, ga, n_case, x[0], x[1:])
    fn = np.max(np.abs(f))
    for _ in range(maxit):
        sc = colloc_scale(a, al, be, ga, n_case, x[0], x[1:])
        if fn <= tol * (sc + 1.0):
            return x[0], x[1:].copy(), fn / (sc + 1.0), True
        jac = np.zeros((dim, dim))
        for j in range(dim):
            h = 1e-7 * (1.0 + abs(x[j]))
            xp = x.copy()
            xp[j] += h
            fp = colloc_residual(a, al, be, ga, n_case, xp[0], xp[1:])
            for i in range(dim):
                jac[i, j] = (fp[i] - f[i]) / h
        step, ok = solve_small(jac, f)
        if not ok:
            return x[0], x[1:].copy(), fn / (sc + 1.0), False
        lam = 1.0
        improved = False
        for _ in range(25):
            xt = x - lam * step
            ft = colloc_residual(a, al, be, ga, n_case, xt[0], xt[1:])
            ftn = np.max(np.abs(ft))
            if ftn < fn:
                x = xt
                f = ft
                fn = ftn
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    sc = colloc_scale(a, al, be, ga, n_case, x[0], x[1:])
    conv = fn <= tol * (sc + 1.0)
    return x[0], x[1:].copy(), fn / (sc + 1.0), conv


@maybe_njit
def frobenius_fill(a, q, al, be, ga, de, ep, nmax):
    """Power-series coefficients about the origin from the collected-power
    identity of the differential equation; b_0 = 1."""
    b = np.zeros(nmax + 1)
    b[0] = 1.0
    gde = ga + de + ep
    c1 = ga * (1.0 + a) + a * de + ep
    for m in range(nmax):
        den = a * (m + 1.0) * (m + ga)
        if abs(den) < TINY:
            return b, STATUS_POLE
        t = ((1.0 + a) * m * (m - 1.0) + c1 * m + q) * b[m]
        if m >= 1:
            t -= ((m - 1.0) * (m - 2.0) + gde * (m - 1.0) + al * be) * b[m - 1]
        b[m + 1] = t / den
    return b, STATUS_OK


@maybe_njit
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


@maybe_njit
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
            gv, st = gauss_2f1_at_one(x1 + i, x2 + i, g + i + m)
            if st != STATUS_OK:
                return w, st
            acc += d[i] * poch(x1, i) * poch(x2, i) / (poch(g, i) * poch(g + i, m)) * gv
        w[m] = acc
    return w, STATUS_OK


@maybe_njit
def expansion_prefix(g, x1, x2, es, big_m, mcap, n0):
    """The z-independent pieces of a summation with direct-sum length big_m:
    c_0..c_mstop with mstop = min(big_m, n0 - 1), the closed weights W_m
    and the partial weights W_m^{<=mstop} = sum_{n<=mstop} c_n / (g+n)_m
    for m = 0..mcap. Every point of one case shares them.

    Returns (cs, wt, wle, status).
    """
    wt, st = expansion_weights(g, x1, x2, es, mcap)
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
    return cs, wt, wle, st


@maybe_njit
def settled(tail, value, tol):
    """The one convergence test: a tail within tol of its value, or a value
    too small to measure a tail against."""
    return tail <= tol * abs(value) or abs(value) < VALUE_FLOOR


@maybe_njit
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

    Returns (u, du, ddu, terms_used, tail0, tail1, tail2, status).
    """
    g = ga + ep
    if z == 0.0:
        # every term function is 1 at the origin; the weights are exact sums
        u = wt[0]
        du = al * be * wt[1]
        ddu = al * be * (al + 1.0) * (be + 1.0) * wt[2]
        return u, du, ddu, 1, 0.0, 0.0, 0.0, STATUS_OK

    mstop = len(cs) - 1
    u = 0.0
    du = 0.0
    ddu = 0.0
    worst = STATUS_OK
    for n in range(mstop + 1):
        f0, f1, f2, _, _, st = f21_with_derivs(al, be, g + n, z, inner_tol,
                                               max_terms_inner, consec)
        if st != STATUS_OK and worst == STATUS_OK:
            worst = st
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
    return u, du, ddu, mstop + 1, tail0, tail1, tail2, worst
