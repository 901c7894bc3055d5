"""The array kernels against the scalar loops they replace: same arithmetic
in the same order, so the results must be equal to the bit."""

import math

import numpy as np
import pytest

from conftest import coeff_p
from heunx import (DivisionByZeroError, NonConvergenceError, NumericalError,
                   _kernels, q_candidates_N0, q_candidates_N1, q_candidates_N2,
                   solve_reduction_general)
from heunx._kernels import RHO_SWITCH
from heunx.params import is_nonpos_int
from heunx.recurrence import NO_TERMINATION, termination_index
from heunx.reduction import _draw


def _f21_by_terms(a, b, c, z, rel_tol, max_terms, consec):
    """One series, one term at a time: the reference the array kernel must
    reproduce to the bit. Returns (f, f', f'', terms_used, last_term)."""
    if abs(z) < _kernels.NEAR_ORIGIN:
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
        ok0 = t0 <= rel_tol * (abs(s0) + _kernels.TINY)
        ok2 = (t0 * fm * (fm - 1.0) * zi2
               <= rel_tol * (abs(s2) + _kernels.TINY) + _kernels.TINY)
        if ok0 and ok2:
            small += 1
            if small >= consec:
                return s0, s1, s2, m + 1, t0
        else:
            small = 0
    raise NonConvergenceError("an inner hypergeometric series did not settle")


KERNEL_C = np.concatenate((np.linspace(0.5, 130.0, 27), [1.0, 2.5, 129.75]))
KERNEL_Z = (-0.95, -0.9, -0.5, -1e-3, 0.0, 1e-200, 0.3, 0.75, 0.95)


@pytest.mark.parametrize("a, b", [(3.0, 2.0), (2.5, 1.7), (-3.0, 1.3),
                                  (-0.7, 4.2)])
@pytest.mark.parametrize("consec", [1, 3])
def test_array_kernel_matches_scalar_loop(a, b, consec):
    # same arithmetic per element in the same order, so equal to the bit;
    # a = -3 terminates; every c at one z runs in one call, whose results
    # come in the order of c
    for z in KERNEL_Z:
        got = _kernels.f21_with_derivs(a, b, KERNEL_C, z, 1e-15, 10000, consec)
        want = [_f21_by_terms(a, b, c, z, 1e-15, 10000, consec)
                for c in KERNEL_C]
        for slot in (0, 1, 2, 4):
            assert np.array_equal(got[slot], [w[slot] for w in want])
        # slot 3 totals the per-element term counts as a Python int
        assert type(got[3]) is int and got[3] == sum(w[3] for w in want)
        for c, w in zip(KERNEL_C, want):
            assert _kernels.f21_with_derivs(a, b, [c], z, 1e-15, 10000,
                                            consec)[3] == w[3]


def test_array_kernel_stops_at_max_terms():
    # a series that stops after m terms reports m + 1 and needs max_terms >= m
    a, b, c, z = 2.5, 1.7, 3.0, -0.95
    used = _f21_by_terms(a, b, c, z, 1e-15, 10000, 3)[3]
    got = _kernels.f21_with_derivs(a, b, [c], z, 1e-15, used - 1, 3)
    assert got[3] == used
    with pytest.raises(NonConvergenceError, match="did not settle"):
        _kernels.f21_with_derivs(a, b, [c, 2.0 * c], z, 1e-15, used - 2, 3)
    with pytest.raises(NonConvergenceError, match="did not settle"):
        _kernels.f21_with_derivs(1.0, 1.0, [2.0, 3.0], 0.9, 1e-15, 5, 3)


def test_expansion_sums_over_n_in_order():
    # with W_m = W_m^{<=M} every tail term adds an exact 0, so the core's
    # values are its direct sum, which must be the running sum over n at
    # the point of each call
    case = q_candidates_N2(2.0, 2.5, 1.7, 0.6)[0]
    p = case.params
    g = p.gamma + p.epsilon
    es = np.asarray(case.e_list, dtype=np.float64)
    cs, _, _ = _kernels.expansion_prefix(g, g - p.alpha, g - p.beta, es, 128,
                                         4, termination_index(p))
    w = np.ones(5)
    for z in (-0.9, 0.35):
        got = _kernels.expansion_core(p.a, p.q, p.alpha, p.beta, p.gamma,
                                      p.delta, p.epsilon, es, z, 128, cs, w, w,
                                      1e-15, 10000, 3)
        want = [0.0, 0.0, 0.0]
        for n, cn in enumerate(cs):
            f = _f21_by_terms(p.alpha, p.beta, g + n, z, 1e-15, 10000, 3)
            for k in range(3):
                want[k] += cn * f[k]
        assert list(got[:3]) == want
        assert got[3] == len(cs)


def _partial_weights_by_rows(g, cs, mcap):
    """W_m^{<=mstop} = sum_n c_n / (g+n)_m, one n and one m at a time: the
    reference the accumulates of expansion_prefix must reproduce to the bit."""
    wle = np.zeros(mcap + 1)
    for n in range(len(cs)):
        rr = cs[n]
        wle[0] += rr
        for m in range(1, mcap + 1):
            rr /= g + n + m - 1.0
            wle[m] += rr
    return wle


def _weight_args(case):
    p = case.params
    g = p.gamma + p.epsilon
    return g, g - p.alpha, g - p.beta, np.asarray(case.e_list, dtype=np.float64)


@pytest.mark.parametrize("big_m", [128, 256])
def test_partial_weights_match_scalar_loop(form_cases, big_m):
    # N = 0..6, and streams that end at n0 = 1, 1, 2, 4
    for case in form_cases:
        g, x1, x2, es = _weight_args(case)
        cs, _, wle = _kernels.expansion_prefix(g, x1, x2, es, big_m, 24,
                                               termination_index(case.params))
        assert np.array_equal(wle, _partial_weights_by_rows(g, cs, 24))


def test_closed_weights_match_mpmath(form_cases):
    # W_m = sum_i of the pieces d_i (x1)_i (x2)_i / (g)_i 2F1(x1+i, x2+i;
    # g+i+m; 1) / (g+i)_m in 50 digits, the d_i one linear factor at a time.
    # The error is measured against the sum of the pieces' magnitudes: where
    # they cancel (by 1e3 at an N = 3 case) the forward-difference d_i lose
    # that much; relative to W_m the worst is 1.5e-11, at m = 0
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    for case in form_cases:
        g, x1, x2, es = _weight_args(case)
        got = _kernels.expansion_weights(g, x1, x2, es, 24)
        with mp.workdps(50):
            g, x1, x2 = map(mp.mpf, (g, x1, x2))
            d = [mp.mpf(1)]
            for e in map(mp.mpf, es):
                d = [x * (1 + i / e) + y / e
                     for i, (x, y) in enumerate(zip(d + [0], [0] + d))]
            for m, w in enumerate(got):
                pieces = [di * mp.rf(x1, i) * mp.rf(x2, i) / mp.rf(g, i)
                          * mp.hyp2f1(x1 + i, x2 + i, g + i + m, 1) / mp.rf(g + i, m)
                          for i, di in enumerate(d)]
                worst = max(worst, float(abs(w - mp.fsum(pieces))
                                         / mp.fsum(map(abs, pieces))))
    assert worst <= 1e-12


def _colloc_terms(a, q, al, be, ga, de, ep, es):
    return _kernels.identity_terms(a, q, al, be, ga, de, ep, es,
                                   np.arange(1.0, len(es) + 2.0))


def _colloc_residual(a, q, al, be, ga, de, ep, es):
    """Identity values at n = 1..N+1, summed from the full identity_terms."""
    t1, t2, t3 = _colloc_terms(a, q, al, be, ga, de, ep, es)
    return t1 + t2 + t3


def _colloc_scale(a, q, al, be, ga, de, ep, es):
    t1, t2, t3 = _colloc_terms(a, q, al, be, ga, de, ep, es)
    return np.max(np.abs(t1) + np.abs(t2) + np.abs(t3))


def _colloc_jacobian(a, q, al, be, ga, de, ep, es):
    """Exact Jacobian in (q, e_1..e_N), its own identity_terms call."""
    n_case = len(es)
    n = np.arange(1.0, n_case + 2.0)
    f1, f2, f3 = _kernels.identity_terms(a, q, al, be, ga, de, ep, es[:0], n)
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


@pytest.mark.parametrize("n_case", range(9))
def test_colloc_state_matches_separate_evaluations(n_case):
    # one identity evaluation gives the residual, scale and Jacobian that
    # three separate evaluations give, to the bit, at the draw's delta and
    # epsilon
    rng = np.random.default_rng(n_case)
    for _ in range(20):
        a, al, be, ga = rng.uniform(-3.0, 3.0, size=4)
        q = rng.uniform(-30.0, 30.0)
        es = rng.uniform(-4.0, 4.0, size=n_case)
        draw = _draw(a, al, be, ga, n_case)
        args = (a, q, al, be, ga, draw.delta, draw.epsilon, es)
        res, scale, jac = _kernels._colloc_state(*args)
        assert np.array_equal(res, _colloc_residual(*args))
        assert scale == _colloc_scale(*args)
        assert np.array_equal(jac, _colloc_jacobian(*args))


@pytest.mark.parametrize("deg", range(9))
def test_companion_roots_match_np_roots(deg):
    # one eigvals call over the stacked companion matrices gives each row the
    # bits np.roots gives it, and a row with an exact zero at either end
    # keeps np.roots's stripping: fewer roots, or a root 0.0 appended
    rows = np.random.default_rng(deg).normal(size=(30, deg + 1))
    rows[1::3, 0] = 0.0
    rows[2::3, -1] = 0.0
    got = _kernels.companion_roots(rows)
    assert len(got) == len(rows)
    for row, roots in zip(rows, got):
        want = np.roots(row)
        assert roots.shape == want.shape
        assert np.array_equal(roots.real, want.real)
        assert np.array_equal(roots.imag, np.imag(want))


def _forward_by_rows(a, q, al, be, ga, de, ep, c, upto):
    if upto >= 1:
        r1 = _kernels.coeff_r(1.0, a, ga, ep)
        if abs(r1) < _kernels.TINY:
            raise DivisionByZeroError(_kernels._PIVOT)
        c[1] = -_kernels.coeff_q(0.0, a, q, al, be, ga, de, ep) * c[0] / r1
    for n in range(2, upto + 1):
        rn = _kernels.coeff_r(float(n), a, ga, ep)
        if abs(rn) < _kernels.TINY:
            raise DivisionByZeroError(_kernels._PIVOT)
        c[n] = -(_kernels.coeff_q(n - 1.0, a, q, al, be, ga, de, ep) * c[n - 1]
                 + coeff_p(n - 2.0, a, q, al, be, ga, de, ep) * c[n - 2]) / rn


def _backward_by_rows(a, q, al, be, ga, de, ep, work, start, stop):
    for j in range(start, stop, -1):
        pj = coeff_p(j, a, q, al, be, ga, de, ep)
        if abs(pj) < _kernels.TINY:
            raise DivisionByZeroError(_kernels._PIVOT)
        work[j] = -(_kernels.coeff_r(j + 2.0, a, ga, ep) * work[j + 2]
                    + _kernels.coeff_q(j + 1.0, a, q, al, be, ga, de, ep) * work[j + 1]) / pj


def _three_term_by_rows(a, q, al, be, ga, de, ep, nmax, n0):
    """three_term_stream with every fill and copy a loop over scalars: the
    reference the array fills must reproduce to the bit."""
    c = np.zeros(nmax + 1)
    c[0] = 1.0
    if nmax == 0:
        return c
    rho = abs(a / (a - 1.0))
    if rho <= RHO_SWITCH:
        _forward_by_rows(a, q, al, be, ga, de, ep, c, min(nmax, n0 - 1))
        if n0 <= nmax and _kernels._relation_fails(a, q, al, be, ga, de, ep, c, n0):
            _forward_by_rows(a, q, al, be, ga, de, ep, c, nmax)
        return _kernels._certify_init(a, q, al, be, ga, de, ep, c)
    buf = min(max(int(math.ceil(52.0 / math.log(rho))), 40), 2000)
    top = min(n0 - 1, nmax + buf)
    jstar = -1
    if is_nonpos_int(ep) and -round(ep) < top:
        jstar = -round(ep)
    work = np.zeros(top + 2)
    work[top] = 1.0
    _backward_by_rows(a, q, al, be, ga, de, ep, work, top - 1, jstar)
    if jstar < 0:
        if work[0] == 0.0:
            raise NumericalError(_kernels._FAILED)
        for j in range(1, min(nmax, top) + 1):
            c[j] = work[j] / work[0]
    else:
        low = np.zeros(jstar + 2)
        low[0] = 1.0
        _forward_by_rows(a, q, al, be, ga, de, ep, low, jstar + 1)
        if abs(work[jstar + 1]) < _kernels.TINY:
            raise NumericalError(_kernels._FAILED)
        sc = low[jstar + 1] / work[jstar + 1]
        for j in range(1, min(nmax, top) + 1):
            if j <= jstar + 1:
                c[j] = low[j]
            else:
                c[j] = work[j] * sc
    return _kernels._certify_init(a, q, al, be, ga, de, ep, c)


def _outcome(fill, args):
    """The stream, or the type and text of what the fill raised."""
    try:
        return fill(*args)
    except (DivisionByZeroError, NumericalError, NonConvergenceError) as exc:
        return type(exc), str(exc)


def _same_outcome(args):
    got = _outcome(_kernels.three_term_stream, args)
    want = _outcome(_three_term_by_rows, args)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)
    return want


def _stream_args(p, nmax):
    return (p.a, p.q, p.alpha, p.beta, p.gamma, p.delta, p.epsilon, nmax,
            termination_index(p))


def _n3_terminating():
    cases = solve_reduction_general(3.0, 2.5, 1.0, 0.5, 3)
    case, = [c for c in cases if abs(c.params.q - 8.802775637731992) < 1e-9]
    return case.params


@pytest.fixture(scope="module")
def fill_paths():
    return {
        "forward": q_candidates_N1(-1.5, 0.5, 1.7, 0.6)[0].params,
        "backward": q_candidates_N2(2.0, 2.5, 1.7, 0.6)[0].params,
        # epsilon = -1 zeroes P_1 below the backward seed
        "split": q_candidates_N0(3.0, 0.5, 0.8, 1.3)[0].params,
        # n0 = 4, epsilon = -1
        "terminating": _n3_terminating(),
    }


@pytest.mark.parametrize("nmax", [0, 1, 2, 50, 5000])
@pytest.mark.parametrize("path", ["forward", "backward", "split",
                                  "terminating"])
def test_fills_match_scalar_loops(fill_paths, path, nmax):
    # the fills take R, Q and P as arrays and run the recurrence over
    # Python floats: the same arithmetic in the same order as the loops
    p = fill_paths[path]
    rho = abs(p.a / (p.a - 1.0))
    assert (rho <= RHO_SWITCH) == (path == "forward")
    assert is_nonpos_int(p.epsilon) == (path in ("split", "terminating"))
    assert (termination_index(p) < NO_TERMINATION) == (path == "terminating")
    want = _same_outcome(_stream_args(p, nmax))
    assert not isinstance(want, tuple)
    assert len(want) == nmax + 1


def test_fills_short_of_a_termination_seed_at_it_like_the_loops():
    # for nmax < n0 = 4 the backward seed sits at n0 - 1, as from nmax = n0
    # on, so each shorter stream is the head of the nmax = 4 one
    p = _n3_terminating()
    assert termination_index(p) == 4
    full = _same_outcome(_stream_args(p, 4))
    assert full[4] == 0.0 and np.all(full[1:4] != 0.0)
    for nmax in (1, 2, 3):
        assert np.array_equal(_same_outcome(_stream_args(p, nmax)), full[:nmax + 1])


@pytest.mark.parametrize("a, ga, ep, text", [
    # forward: R_3 = 0 (g = -2) comes before P_2's vanishing n + g
    (-1.0, 0.5, -2.5, _kernels._PIVOT),
    # forward: n + g = 1e-13 at n = 3 (checked at step 5), R never tiny
    (-1.0, 0.5, -3.5 + 1e-13, "n+epsilon+gamma vanishes at n = 3.0"),
    # backward: n + g vanishes at j = 3 on the way down
    (3.0, 0.5, -3.5 + 1e-13, "n+epsilon+gamma vanishes at n = 3"),
])
def test_fill_errors_match_scalar_loops(a, ga, ep, text):
    al, be, q = 0.3, 1.45, 2.0
    de = 1.0 + al + be - ga - ep
    for nmax in (5, 50):
        args = (a, q, al, be, ga, de, ep, nmax, NO_TERMINATION)
        assert _same_outcome(args) == (DivisionByZeroError, text)
