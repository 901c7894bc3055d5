"""The array kernels against the scalar loops they replace: same arithmetic
in the same order, so the results must be equal to the bit."""

import numpy as np
import pytest

from heunx import NonConvergenceError, _kernels, q_candidates_N2
from heunx.recurrence import termination_index


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
    # a = -3 terminates; every (c, z) pair runs in one call, so series that
    # stop in different passes share each pass
    c, z = np.meshgrid(KERNEL_C, KERNEL_Z, indexing="ij")
    got = _kernels.f21_with_derivs(a, b, c, z, 1e-15, 10000, consec)
    want = [_f21_by_terms(a, b, ci, zi, 1e-15, 10000, consec)
            for ci, zi in zip(c.ravel(), z.ravel())]
    for slot in (0, 1, 2, 4):
        assert np.array_equal(got[slot], [w[slot] for w in want])
    # slot 3 totals the per-element term counts as a Python int
    assert type(got[3]) is int and got[3] == sum(w[3] for w in want)
    for ci, zi, w in zip(c.ravel(), z.ravel(), want):
        assert _kernels.f21_with_derivs(a, b, ci, zi, 1e-15, 10000,
                                        consec)[3] == w[3]


def test_array_kernel_stops_at_max_terms():
    # a series that stops after m terms reports m + 1 and needs max_terms >= m
    a, b, c, z = 2.5, 1.7, 3.0, -0.95
    used = _f21_by_terms(a, b, c, z, 1e-15, 10000, 3)[3]
    assert _kernels.f21_with_derivs(a, b, c, z, 1e-15, used - 1, 3)[3] == used
    with pytest.raises(NonConvergenceError, match="did not settle"):
        _kernels.f21_with_derivs(a, b, [c, 2.0 * c], z, 1e-15, used - 2, 3)
    with pytest.raises(NonConvergenceError, match="did not settle"):
        _kernels.f21_with_derivs(1.0, 1.0, [2.0, 3.0], 0.9, 1e-15, 5, 3)


def test_expansion_sums_over_n_in_order():
    # with W_m = W_m^{<=M} every tail term adds an exact 0, so the core's
    # values are its direct sum, which must be the running sum over n
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


def _colloc_terms(a, al, be, ga, n_case, q, es):
    de = n_case + 2.0
    ep = 1.0 + al + be - ga - de
    return _kernels.identity_terms(a, q, al, be, ga, de, ep, es,
                                   np.arange(1.0, n_case + 2.0))


def _colloc_residual(a, al, be, ga, n_case, q, es):
    """Identity values at n = 1..N+1, summed from the full identity_terms."""
    t1, t2, t3 = _colloc_terms(a, al, be, ga, n_case, q, es)
    return t1 + t2 + t3


def _colloc_scale(a, al, be, ga, n_case, q, es):
    t1, t2, t3 = _colloc_terms(a, al, be, ga, n_case, q, es)
    return np.max(np.abs(t1) + np.abs(t2) + np.abs(t3))


def _colloc_jacobian(a, al, be, ga, n_case, q, es):
    """Exact Jacobian in (q, e_1..e_N), its own identity_terms call."""
    n = np.arange(1.0, n_case + 2.0)
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


@pytest.mark.parametrize("n_case", range(6))
def test_colloc_state_matches_separate_evaluations(n_case):
    # one identity evaluation gives the residual, scale and Jacobian that
    # three separate evaluations give, to the bit
    rng = np.random.default_rng(n_case)
    for _ in range(20):
        a, al, be, ga = rng.uniform(-3.0, 3.0, size=4)
        q = rng.uniform(-30.0, 30.0)
        es = rng.uniform(-4.0, 4.0, size=n_case)
        args = (a, al, be, ga, n_case, q, es)
        res, scale, jac = _kernels._colloc_state(*args)
        assert np.array_equal(res, _colloc_residual(*args))
        assert scale == _colloc_scale(*args)
        assert np.array_equal(jac, _colloc_jacobian(*args))
