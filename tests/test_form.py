"""The closed rational form against a 50-digit mpmath evaluation of the
series the case's parameters define, and the honesty of the status it
reports."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import solve_draw, summation_gaps
from heunx import (DomainError, EvalStatus, NumericalError, ReductionCase,
                   SeriesControl, evaluate_points)
from heunx._kernels import VALUE_FLOOR
from heunx.evaluator import Evaluation, _form, _gamma_n, check_disk

mp = pytest.importorskip("mpmath")
from direct_sum import direct_series  # noqa: E402  (needs mpmath)

Z_POINTS = (-0.95, -0.9, -0.5, 0.3, 0.9, 0.95)


def mp_series(case, z):
    """u, u', u'' of sum_n c_n 2F1(alpha, beta; g+n; z) for the case's floats,
    in 50 digits. Swapping the n and m sums and Gauss's sum at 1 give
    u = sum_i K d_i (g-alpha)_i (g-beta)_i Gamma(s-i) (1-z)^-(s-i) with
    s = alpha+beta-g, which the closed form takes to be N+1."""
    with mp.workdps(50):
        p = case.params
        f = mp.mpf
        g = f(p.gamma) + f(p.epsilon)
        s = f(p.alpha) + f(p.beta) - g
        k = mp.gamma(g) / (mp.gamma(f(p.alpha)) * mp.gamma(f(p.beta)))
        d = [f(1)]
        for e in map(f, case.e_list):
            d = [x * (1 + i / e) + y / e
                 for i, (x, y) in enumerate(zip(d + [0], [0] + d))]
        v = 1 / (1 - f(z))
        out = [f(0)] * 3
        for i, di in enumerate(d):
            m = s - i
            b = (k * di * mp.rf(g - f(p.alpha), i) * mp.rf(g - f(p.beta), i)
                 * mp.gamma(m))
            out[0] += b * v ** m
            out[1] += m * b * v ** (m + 1)
            out[2] += m * (m + 1) * b * v ** (m + 2)
        return out


def _errors(case, z, ev):
    want = mp_series(case, z)
    return [float(abs((mp.mpf(x) - w) / w))
            for x, w in zip((ev.u, ev.du, ev.ddu), want)]


def test_form_matches_mpmath(form_cases):
    assert {c.N for c in form_cases} == set(range(7))
    for case in form_cases:
        for z in Z_POINTS:
            assert max(_errors(case, z, evaluate_points(case, [z])[0])) <= 1e-9


def test_form_matches_the_direct_sum(form_cases):
    # the paper's series itself, summed term by term in 50 digits, on the
    # first case of each N at z = 0.3 (about 1 s a case); the direct sum
    # also agrees with mp_series, a second 50-digit route
    z = 0.3
    for n_case in range(7):
        case = next(c for c in form_cases if c.N == n_case)
        want = direct_series(case, z)
        ev = evaluate_points(case, [z])[0]
        assert max(float(abs((mp.mpf(x) - w) / w))
                   for x, w in zip((ev.u, ev.du, ev.ddu), want)) <= 1e-9
        assert max(float(abs((x - w) / w))
                   for x, w in zip(mp_series(case, z), want)) <= 1e-40


@pytest.mark.parametrize("rel_tol", [1e-14, 1e-10])
def test_converged_status_is_true(form_cases, rel_tol):
    ctl = SeriesControl(rel_tol=rel_tol)
    for case in form_cases:
        for z in Z_POINTS:
            ev = evaluate_points(case, [z], ctl)[0]
            for status, err in zip(ev.status, _errors(case, z, ev)):
                assert status is EvalStatus.MAX_TERMS_REACHED or err <= rel_tol


def test_form_matches_summation(form_cases):
    # the closed form against the independent tail-resummed summation; the
    # largest gap, 4.9e-11 in u' of an N = 2 case at z = -0.5, is the
    # summation's own error: the form is within 8e-13 of mpmath there
    for case in form_cases:
        if case.N <= 2:
            for z in (-0.5, -0.2, 0.25, 0.5):
                assert summation_gaps(case, evaluate_points(case, [z]))[0] <= 1e-9


def _assert_honest(case, zs, rel_tols):
    for rel_tol in rel_tols:
        for z in zs:
            ev = evaluate_points(case, [z], SeriesControl(rel_tol=rel_tol))[0]
            for status, err in zip(ev.status, _errors(case, z, ev)):
                assert err <= 1e-9
                assert status is EvalStatus.MAX_TERMS_REACHED or err <= rel_tol


@pytest.mark.parametrize("point, n_case", [
    ((2.0, 90.0, 90.0, 0.5), 0), ((2.5, 95.5, 90.25, 0.7), 2),
    # alpha ~ 4.6e4: the draw's epsilon is one unit of roundoff off the
    # exponent sum, 7.3e-12, which validation admits at that scale
    ((2.6630978947709836, 46292.47763090493, -2.1614799190726655,
      -0.31856641595004476), 2)])
def test_form_with_large_parameters(point, n_case):
    # Gamma(g) overflows a float (g > 171.6) though K and u do not
    case = solve_draw(point, n_case)[0]
    assert case.params.gamma + case.params.epsilon > 172.0
    _assert_honest(case, (-0.5, -0.2, 0.1, 0.3), (1e-14, 1e-10))


def test_relation_residual_is_in_the_bound():
    # delta and epsilon each 9e-13 off, within validation, put alpha+beta-g
    # 1.8e-12 off N+1; the series then leaves the form by a few 1e-12
    case = solve_draw((2.0, 2.5, 1.7, 0.6), 2)[0]
    p = case.params
    off = ReductionCase(dataclasses.replace(
        p, delta=p.delta + 9e-13, epsilon=p.epsilon - 9e-13), case.e_list)
    zs = (-0.95, -0.5, 0.3, 0.9)
    assert max(max(_errors(off, z, evaluate_points(off, [z])[0])) for z in zs) > 1e-12
    _assert_honest(off, zs, (1e-14, 1e-12, 1e-11, 1e-10))


def _evaluate_reference(case, z, ctl=None):
    """The one-point Horner loop evaluate_points replaced, as it was."""
    ctl = ctl or SeriesControl()
    z = float(z)
    check_disk(z)
    b, b_err, r = _form(case)
    n = len(b)
    v = 1.0 / (1.0 - z)
    gm = _gamma_n(4 * n + 8) + abs(r) * (abs(math.log(v)) + math.log(n) + 2.2)
    acc, bound = [0.0] * 3, [0.0] * 3
    for k in range(n, 0, -1):
        for order, w in enumerate((1.0, float(k), k * (k + 1.0))):
            acc[order] = acc[order] * v + w * b[k - 1]
            bound[order] = bound[order] * abs(v) + w * (gm * abs(b[k - 1]) + b_err[k - 1])
    values = [acc[0] * v, acc[1] * v * v, acc[2] * v * v * v]
    tails = tuple(t * abs(v) ** (order + 1) for order, t in enumerate(bound))
    if not all(map(math.isfinite, values)):
        raise NumericalError("the rational form produced a non-finite value")
    status = tuple(EvalStatus.CONVERGED
                   if t <= ctl.rel_tol * abs(x) or abs(x) < VALUE_FLOOR
                   else EvalStatus.MAX_TERMS_REACHED for t, x in zip(tails, values))
    return Evaluation(z, *values, n, tails, status)


EDGES = (0.0, 0.95, -0.95, -0.9)
GRIDS = ([(z,) for z in EDGES] + [EDGES[:3], EDGES[1:]]
         + [EDGES[:3] + tuple(np.linspace(-0.9, 0.9, 38).tolist())])


@pytest.mark.parametrize("rel_tol", [1e-14, 1e-16])
def test_points_match_the_one_point_loop(form_cases, rel_tol):
    # every field to the bit, repr telling -0.0 and numpy floats apart
    ctl = SeriesControl(rel_tol=rel_tol)
    assert {len(zs) for zs in GRIDS} == {1, 3, 41}
    for case in form_cases:
        for zs in GRIDS:
            want = [repr(_evaluate_reference(case, z, ctl)) for z in zs]
            assert [repr(ev) for ev in evaluate_points(case, zs, ctl)] == want
            assert [repr(evaluate_points(case, [z], ctl)[0]) for z in zs] == want


def test_points_out_of_disk_raise_as_one_point(form_cases):
    case = form_cases[0]
    with pytest.raises(DomainError) as one:
        evaluate_points(case, [-0.97])
    for zs in ((-0.97,), (0.3, -0.97, 0.99), (0.95, 0.0, -0.97)):
        with pytest.raises(DomainError) as many:
            evaluate_points(case, zs)
        assert str(many.value) == str(one.value)
