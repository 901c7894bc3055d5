"""Numeric cores behind the public API, in plain numpy and Python floats.

Every function here is side-effect free. A failure raises the typed error
where it happens: PoleError, DivisionByZeroError, NonConvergenceError or
NumericalError. The integer-proximity rule is params.is_nonpos_int.

Where an array kernel replaces a scalar loop it keeps the loop's bits:
elementwise numpy arithmetic rounds each operation as a Python float does,
so each expression keeps the loop's operation order, and a running product
or sum is a ufunc accumulate, which, unlike a reduction, runs strictly left
to right. The three-term fills take R_n, Q_n and P_n as arrays over the
indices their loop visits, raise where the loop would first raise, and run
the recurrence itself over Python floats, as the loop did. Each inner 2F1
series is one scalar loop (_f21_series), which f21_with_derivs runs over
the n of expansion_core's one point. Where the arrays would be small, a
scalar loop replaces the array kernels and keeps their bits:
stream_defect runs two_term_ratio_stream and recurrence_residual_rows
row by row for the reduction certificate's 50 rows, mapping a NaN row
(which np.max propagates and Python's max drops) and a division by zero
to inf. tests/test_kernels.py holds the scalar loops as references, and
tests/conftest.py the scalar P_n they take.
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
# successive small terms that stop an inner 2F1 series: the non-monotone
# terms of negative parameters make a single small term an unsafe signal
CONSECUTIVE_SMALL = 3
NEWTON_TOL = 1e-12  # newton_general's convergence bound and step cap
POLISH_STEPS = 6


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
    if is_nonpos_int(x):
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


def _f21_series(a, b, c, z, rel_tol, max_terms, consec):
    """(f, f', f'', terms, last): 2F1(a, b; c; z) and its first two
    z-derivatives by one series, the terms used (1 at the origin, m + 1 after
    m terms) and the last term's magnitude.

    Term m+1 is term m times (a+m)(b+m)z / ((c+m)(m+1)); the series stops
    after `consec` successive terms small in the value and in u'', and raises
    NonConvergenceError if still live after max_terms terms. A z with
    |z| < NEAR_ORIGIN takes the values at z = 0.
    """
    if abs(z) < NEAR_ORIGIN:
        return (1.0, a * b / c, a * b * (a + 1.0) * (b + 1.0) / (c * (c + 1.0)),
                1, 0.0)
    zi = 1.0 / z
    zi2 = zi * zi
    term = s0 = 1.0
    s1 = s2 = 0.0
    small = m = 0
    while m < max_terms:
        term *= (a + m) * (b + m) * z / ((c + m) * (m + 1.0))
        m += 1
        fm = float(m)
        s0 += term
        s1 += term * fm * zi
        s2 += term * fm * (fm - 1.0) * zi2
        t0 = abs(term)
        # derivative series decay slowest; gate on both ends
        if (t0 <= rel_tol * (abs(s0) + TINY)
                and t0 * fm * (fm - 1.0) * zi2 <= rel_tol * (abs(s2) + TINY) + TINY):
            small += 1
            if small >= consec:
                return s0, s1, s2, m + 1, t0
        else:
            small = 0
    raise NonConvergenceError("an inner hypergeometric series did not settle")


def f21_with_derivs(a, b, c, z, rel_tol, max_terms, consec):
    """_f21_series at every element of c and z broadcast together, as flat
    arrays in row-major order; `terms` is the Python int total of the
    per-element term counts."""
    a, b = float(a), float(b)
    grid = np.array(np.broadcast_arrays(c, z), dtype=np.float64).reshape(2, -1)
    rows = [_f21_series(a, b, ci, zi, rel_tol, max_terms, consec)
            for ci, zi in zip(*grid.tolist())]
    f, f1, f2, _, last = np.array(rows, dtype=np.float64).reshape(-1, 5).T
    return f, f1, f2, sum(r[3] for r in rows), last


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


def _relation_rows(n, a, q, al, be, ga, de, ep):
    """R_n, Q_{n-1} and P_{n-2} of the relation at each entry of the float
    array n, and the mask where P's denominator n-2+epsilon+gamma vanishes.
    P's factors m+g-alpha and m+g-beta own the structural zeros behind stream
    termination; the integer-proximity rule makes them exact zeros, not
    O(1e-16). Overflow passes silently, as in floats."""
    m = n - 2.0
    g = ep + ga
    with np.errstate(all="ignore"):
        f1 = m + g - al
        f2 = m + g - be
        f1[np.abs(f1) < INT_SNAP] = 0.0
        f2[np.abs(f2) < INT_SNAP] = 0.0
        return (coeff_r(n, a, ga, ep), coeff_q(n - 1.0, a, q, al, be, ga, de, ep),
                -a / (m + g) * (m + ep) * f1 * f2, np.abs(m + g) < 1e-12)


def recurrence_residual_rows(a, q, al, be, ga, de, ep, values):
    """Scale-free residual of the three-term relation at each n >= 2, all rows
    at once, from the R, Q and P of _relation_rows. A row whose term scale
    overflows (a warning unless the caller's np.errstate ignores it) is taken
    again with c times 2^-64, exact for normal terms."""
    nmax = len(values) - 1
    rows = np.zeros(nmax + 1)
    r, qn, p, _ = _relation_rows(np.arange(2.0, nmax + 1.0), a, q, al, be, ga, de, ep)
    c2, c1, c0 = values[2:], values[1:nmax], values[:nmax - 1]
    t1, t2, t3 = r * c2, qn * c1, p * c0
    scale = np.abs(t1) + np.abs(t2) + np.abs(t3)
    rows[2:] = np.abs(t1 + t2 + t3) / (scale + TINY)
    big = np.isinf(scale)
    if big.any():
        s = 2.0 ** -64
        t1, t2, t3 = r[big] * (c2[big] * s), qn[big] * (c1[big] * s), p[big] * (c0[big] * s)
        rows[2:][big] = np.abs(t1 + t2 + t3) / (np.abs(t1) + np.abs(t2) + np.abs(t3) + TINY)
    return rows


def stream_defect(a, q, al, be, ga, de, ep, es, nmax, n0):
    """max(recurrence_residual_rows(two_term_ratio_stream(...))[2:]) with the
    ratio stream of (ga+ep, ga+ep-al, ga+ep-be, es) to nmax >= 2, run row by
    row over Python floats with the bits of those two kernels; inf where
    that max is NaN or inf, as it is wherever a division by zero would put
    one into the stream or a row."""
    g = ga + ep
    x1, x2 = g - al, g - be
    c = [1.0]
    worst = 0.0
    try:
        for k in range(1, nmax + 1):
            n = float(k)
            if k < n0:
                ratio = (x1 + (n - 1.0)) * (x2 + (n - 1.0)) / ((g + (n - 1.0)) * n)
                for e in es:
                    ratio *= (e + n) / (e + (n - 1.0))
                c.append(c[-1] * ratio)
            else:
                c.append(0.0)
            if k < 2:
                continue
            m = n - 2.0
            f1, f2 = m + g - al, m + g - be
            f1 = 0.0 if abs(f1) < INT_SNAP else f1
            f2 = 0.0 if abs(f2) < INT_SNAP else f2
            r = coeff_r(n, a, ga, ep)
            qn = coeff_q(n - 1.0, a, q, al, be, ga, de, ep)
            p = -a / (m + g) * (m + ep) * f1 * f2
            t1, t2, t3 = r * c[k], qn * c[k - 1], p * c[k - 2]
            scale = abs(t1) + abs(t2) + abs(t3)
            if scale == math.inf:
                s = 2.0 ** -64
                t1, t2, t3 = r * (c[k] * s), qn * (c[k - 1] * s), p * (c[k - 2] * s)
                scale = abs(t1) + abs(t2) + abs(t3)
            row = abs(t1 + t2 + t3) / (scale + TINY)
            if row > worst:
                worst = row
            elif row != row:
                return math.inf
    except ZeroDivisionError:
        return math.inf
    return worst


_PIVOT = "a recurrence pivot R_n or P_n vanished"
_VANISHES = "n+epsilon+gamma vanishes at n = {!r}"
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

    if rho <= rho_switch:
        # entries from n0 on are exactly zero
        _forward_fill(a, q, al, be, ga, de, ep, c, min(nmax, n0 - 1))
        return _certify_init(a, q, al, be, ga, de, ep, c)

    # backward (minimal-solution) recursion, seeded at the termination index
    # when the stream terminates by nmax, else past nmax by a safety buffer
    buf = int(math.ceil(52.0 / math.log(rho)))
    if buf < 40:
        buf = 40
    if buf > 2000:
        buf = 2000
    top = n0 - 1 if n0 <= nmax else nmax + buf

    # an interior P zero (epsilon a non-positive integer) below the seed
    # blocks backward propagation; fill that lower block forward instead
    jstar = -1
    if is_nonpos_int(ep) and -round(ep) < top:
        jstar = -round(ep)

    work = np.zeros(top + 2)
    work[top] = 1.0
    _backward_fill(a, q, al, be, ga, de, ep, work, top - 1, jstar)

    k = min(nmax, top)
    if jstar < 0:
        if work[0] == 0.0:
            raise NumericalError(_FAILED)
        work[1:k + 1] /= work[0]
    else:
        low = np.zeros(jstar + 2)
        low[0] = 1.0
        _forward_fill(a, q, al, be, ga, de, ep, low, jstar + 1)
        if abs(work[jstar + 1]) < TINY:
            raise NumericalError(_FAILED)
        work[jstar + 2:k + 1] *= low[jstar + 1] / work[jstar + 1]
        work[:jstar + 2] = low
    c[1:k + 1] = work[1:k + 1]
    return _certify_init(a, q, al, be, ga, de, ep, c)


def _forward_fill(a, q, al, be, ga, de, ep, c, upto):
    """c[1..upto] from c[0] by the forward relation."""
    if upto < 1:
        return
    r, qn, p, gone = _relation_rows(np.arange(1.0, upto + 1.0), a, q, al, be, ga, de, ep)
    # step n = k + 1 checks the pivot R_n, then evaluates P_{n-2} (n >= 2)
    pivot = np.abs(r) < TINY
    gone[0] = False
    bad = np.flatnonzero(pivot | gone)
    if bad.size:
        k = int(bad[0])
        raise DivisionByZeroError(_PIVOT if pivot[k] else _VANISHES.format(k - 1.0))
    r, qn, p = r.tolist(), qn.tolist(), p.tolist()
    out = [float(c[0])]
    out.append(-qn[0] * out[0] / r[0])
    for rv, qv, pv in zip(r[1:], qn[1:], p[1:]):
        out.append(-(qv * out[-1] + pv * out[-2]) / rv)
    c[1:upto + 1] = out[1:]


def _backward_fill(a, q, al, be, ga, de, ep, work, start, stop):
    """work[j] for j = start down to stop+1 from work[j+1], work[j+2]."""
    r, qj, p, gone = _relation_rows(np.arange(start + 2.0, stop + 2.0, -1.0),
                                    a, q, al, be, ga, de, ep)
    # step j = start - k evaluates P_j (which may raise), then checks its pivot
    bad = np.flatnonzero(gone | (np.abs(p) < TINY))
    if bad.size:
        k = int(bad[0])
        raise DivisionByZeroError(_VANISHES.format(start - k) if gone[k] else _PIVOT)
    out = [float(work[start + 2]), float(work[start + 1])]
    for rv, qv, pv in zip(r.tolist(), qj.tolist(), p.tolist()):
        out.append(-(rv * out[-2] + qv * out[-1]) / pv)
    work[stop + 1:start + 1] = out[:1:-1]


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


def _colloc_state(a, al, be, ga, n_case, q, es):
    """(residual, scale, jacobian) of the collocation map at (q, e_1..e_N):
    the identity values at n = 1..N+1, the largest summed summand magnitude,
    and the exact Jacobian in (q, e_1..e_N). delta and epsilon are pinned by
    the reduction. The q-dependent factors in front of P(n), P(n-1) and
    P(n-2) come from one identity_terms call; q enters only through
    -q P(n-1), and e_k through each summand's e-product. The factors
    e_j + n, e_j - 1 + n, e_j - 2 + n form one (3, N, N+1) array; the
    products over j, and those without row k, are each one multiply-reduce,
    which runs in order of j as the scalar loop does (times 1.0 at j = k)."""
    n = np.arange(1.0, n_case + 2.0)
    de = n_case + 2.0
    ep = 1.0 + al + be - ga - de
    f = np.array(identity_terms(a, q, al, be, ga, de, ep, es[:0], n))
    x = (np.asarray(es, dtype=np.float64)[None, :, None]
         - np.array([0.0, 1.0, 2.0])[:, None, None]) + n
    p = np.prod(x, axis=1, initial=1.0)
    t = f * p
    without = np.repeat(x[:, None], n_case, axis=1)
    k = np.arange(n_case)
    without[:, k, k] = 1.0
    d = f[:, None] * np.prod(without, axis=2, initial=1.0)
    jac = np.empty((n_case + 1, n_case + 1))
    jac[:, 0] = -p[1]
    jac[:, 1:] = (d[0] + d[1] + d[2]).T
    return t[0] + t[1] + t[2], np.max(np.abs(t[0]) + np.abs(t[1]) + np.abs(t[2])), jac


def companion_roots(rows):
    """np.roots of each row of polynomial coefficients (highest first), the
    companion matrices of all rows in one np.linalg.eigvals call. A row with
    an exact zero at either end goes through np.roots, which strips it."""
    rows = np.asarray(rows, dtype=np.float64)
    deg = rows.shape[1] - 1
    plain = (rows[:, 0] != 0.0) & (rows[:, -1] != 0.0)
    comp = np.zeros((int(plain.sum()), deg, deg))
    comp[:, :1] = (-rows[plain, 1:] / rows[plain, :1])[:, None]  # the first row
    comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    eig = iter(np.linalg.eigvals(comp))
    return [next(eig) if ok else np.roots(row) for row, ok in zip(rows, plain)]


def newton_general(a, al, be, ga, n_case, q0, es0):
    """Newton polish of a reduction (q, e_1..e_N) on the collocation map,
    with the exact Jacobian; a step is kept only while it lowers the largest
    residual, for at most POLISH_STEPS steps. Each step evaluates the
    identity once (_colloc_state).

    Returns (q, es, scaled_residual, converged), converged meaning the
    scaled residual is within NEWTON_TOL.
    """
    x = np.concatenate(([q0], es0))
    f, sc, jac = _colloc_state(a, al, be, ga, n_case, x[0], x[1:])
    for _ in range(POLISH_STEPS):
        try:
            xt = x - np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            break  # singular Jacobian: keep the last point
        ft, st, jt = _colloc_state(a, al, be, ga, n_case, xt[0], xt[1:])
        if not np.max(np.abs(ft)) < np.max(np.abs(f)):
            break
        x, f, sc, jac = xt, ft, st, jt
    fn = np.max(np.abs(f))
    sc += 1.0
    return x[0], x[1:], fn / sc, fn <= NEWTON_TOL * sc


def frobenius_fill(a, q, al, be, ga, de, ep, nmax):
    """Power-series coefficients about the origin from the collected-power
    identity of the differential equation; b_0 = 1.

    Returns (b, radius): the radius of convergence is the distance from the
    origin to the nearer of the singular points 1 and a. Run over Python
    floats, b_k ~ radius^-k passes into inf and nan without a warning.
    """
    a, q, al, be, ga, de, ep = map(float, (a, q, al, be, ga, de, ep))
    b = [1.0]
    gde = ga + de + ep
    c1 = ga * (1.0 + a) + a * de + ep
    for m in range(nmax):
        den = a * (m + 1.0) * (m + ga)
        if abs(den) < TINY:
            raise PoleError("power-series denominator vanished")
        t = ((1.0 + a) * m * (m - 1.0) + c1 * m + q) * b[m]
        if m >= 1:
            t -= ((m - 1.0) * (m - 2.0) + gde * (m - 1.0) + al * be) * b[m - 1]
        b.append(t / den)
    return np.array(b), min(1.0, abs(a))


def expansion_weights(g, x1, x2, es, mcap):
    """Closed-form tail weights W_m = sum_n c_n / (g+n)_m for m = 0..mcap.

    The e-product polynomial is expanded in falling factorials, its d_i by
    forward differences. Piece i is d_i (x1)_i (x2)_i / (g)_i times
    2F1(a, b; c; 1) / (g+i)_m, a = x1+i, b = x2+i, c = g+i+m: Gauss's sum at
    m = 0, then per step in m a factor (c-a-b) / ((c-a)(c-b)), the ratio
    c (c-a-b) / ((c-a)(c-b)) of Gauss's sums over the c that (g+i)_m gains.
    A weight past the floats raises NumericalError.
    """
    nn = len(es)
    pv = np.ones(nn + 1)  # prod_k (e_k + i) / e_k at i = 0..N
    for e in es:
        pv *= (e + np.arange(nn + 1.0)) / e
    d = [np.diff(pv, k)[0] / math.factorial(k) for k in range(nn + 1)]
    m = np.arange(float(mcap))
    w = np.zeros(mcap + 1)
    with np.errstate(all="ignore"):  # a weight past the floats raises below
        for i in range(nn + 1):
            if d[i] == 0.0:
                continue
            a, b, c = x1 + i, x2 + i, (g + i) + m
            w0 = (d[i] * poch(x1, i) * poch(x2, i) / poch(g, i)
                  * gauss_2f1_at_one(a, b, g + i))
            w += np.cumprod(np.concatenate(([w0], (c - a - b) / ((c - a) * (c - b)))))
    if not np.isfinite(w).all():
        raise NumericalError("tail weights failed")
    return w


def expansion_prefix(g, x1, x2, es, big_m, mcap, n0):
    """The z-independent pieces of a summation with direct-sum length big_m:
    c_0..c_mstop with mstop = min(big_m, n0 - 1), the closed weights W_m
    and the partial weights W_m^{<=mstop} = sum_{n<=mstop} c_n / (g+n)_m
    for m = 0..mcap.

    Returns (cs, wt, wle).
    """
    wt = expansion_weights(g, x1, x2, es, mcap)
    mstop = min(big_m, n0 - 1)
    cs = two_term_ratio_stream(g, x1, x2, es, mstop, n0)
    # row n runs c_n / (g+n)_m along m, dividing by ((g+n)+m)-1 as a loop
    # over n and m would; the rows are then summed in order of n
    n = np.arange(mstop + 1.0)[:, None]
    rows = np.concatenate((cs[:, None], (g + n) + np.arange(1.0, mcap + 1.0) - 1.0),
                          axis=1)
    wle = np.add.accumulate(np.divide.accumulate(rows, axis=1), axis=0)[-1]
    return cs, wt, wle


def settled(tail, value, tol):
    """The one convergence test: a tail within tol of its value, or a value
    too small to measure a tail against; elementwise on arrays."""
    return (tail <= tol * abs(value)) | (abs(value) < VALUE_FLOOR)


def expansion_core(a, q, al, be, ga, de, ep, es, z, big_m, cs, wt, wle,
                   inner_tol, max_terms_inner, consec):
    """Value and first two derivatives of the summed expansion at z.

    Takes the case parameters in the kernels' common order; the
    coefficients c_0..c_mstop and the weights W_m, W_m^{<=mstop} come
    precomputed from expansion_prefix at direct-sum length big_m. Direct
    sum over n <= mstop plus the exact tail: swapping the n/m double sum
    leaves sum_m h_m z^m s_m with h_m = (al)_m (be)_m / m! and
    s_m = W_m - W_m^{<=mstop} = sum_{n>mstop} c_n / (g+n)_m. The inner
    2F1 series go through one f21_with_derivs call over n, and the tail is
    summed over Python floats.

    That difference is rounding noise once s_m falls below eps W_m, so the
    tails are estimated without it: every accepted reduction has
    g = al + be - 1 - N, hence c_n ~ n^-2 and
    s_m ~ |c_M| M / ((m+1) (g+M+1)_m) at M = big_m, exactly 0 when the
    stream ends by M. The m-sum stops at the first m >= 1 where the next
    term's estimate, per derivative order, is below eps of the running
    value in all three orders; those estimates are the returned tails.

    Returns (u, du, ddu, terms, tail0, tail1, tail2), terms the number of
    terms used: mstop + 1, or 1 at the origin.
    """
    g = ga + ep
    mstop = len(cs) - 1
    wt, wle = wt.tolist(), wle.tolist()
    if abs(z) < NEAR_ORIGIN:
        # every term function is 1 at the origin; the weights are exact sums
        return (wt[0], al * be * wt[1], al * be * (al + 1.0) * (be + 1.0) * wt[2],
                1, 0.0, 0.0, 0.0)
    f = f21_with_derivs(al, be, g + np.arange(mstop + 1.0), z, inner_tol,
                        max_terms_inner, consec)
    # the running sums over n, left to right; c_0 F_0 is never -0.0, so
    # starting from it gives the bits a sum from 0.0 gives
    u, du, ddu = np.add.accumulate(cs * np.array(f[:3]), axis=1)[:, -1].tolist()
    # |c_M| M; the stream ended by M when mstop < big_m
    base = abs(float(cs[mstop])) * big_m if mstop == big_m else 0.0
    tail0 = tail1 = tail2 = 0.0
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
