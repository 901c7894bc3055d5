"""Evaluation of the expansion and its derivatives from the closed form, the
tail-resummed summation it is checked against, and the equation residuals."""

import dataclasses

import numpy as np
import pytest

from conftest import f21, summation_gaps
from heunx import (DomainError, EvalStatus, NonConvergenceError,
                   NumericalError, SeriesControl, SingularPointError,
                   _kernels, evaluate_points, forced_residual, forcing_constant,
                   homogeneous_residual, q_candidates_N0, q_candidates_N2,
                   solve_reduction_general)
from heunx.evaluator import (_M_START, _MCAP, _U, _sum_all,
                             certified_points, check_interior,
                             evaluate_points, form_certificate)
from heunx.recurrence import NO_TERMINATION, termination_index


@pytest.fixture(scope="module")
def single_term_case():
    # beta = 1 at order 0 truncates after c_0: the sum is one 2F1
    return q_candidates_N0(2.0, 2.3, 1.0, 0.9)[0]


@pytest.fixture(scope="module")
def rational_case():
    # alpha = 1 at order 0: the surviving terms sum to 1/(1-z)
    return q_candidates_N0(2.0, 1.0, 2.4, 0.8)[0]


def test_anchor_values(anchor_case):
    # c_n = 6/((n+2)(n+3)) telescopes to 3 at the origin
    assert evaluate_points(anchor_case, [0.0])[0].u == pytest.approx(3.0, rel=1e-13)
    assert evaluate_points(anchor_case, [0.25])[0].u == pytest.approx(4.0, rel=1e-11)


def test_result_convergence_invariant(anchor_case):
    ctl = SeriesControl()
    ev = evaluate_points(anchor_case, [0.25], ctl)[0]
    assert ev.status[0] is EvalStatus.CONVERGED
    assert ev.tails[0] <= ctl.rel_tol * abs(ev.u)
    assert ev.terms_used > 0


def test_domain_guard(anchor_case):
    with pytest.raises(DomainError):
        evaluate_points(anchor_case, [0.96])


def test_single_term_case_matches_gauss(single_term_case):
    p = single_term_case.params
    g = p.gamma + p.epsilon
    for z in (0.0, 0.2, 0.45, -0.3):
        want = f21(p.alpha, p.beta, g, z)[0]
        got = evaluate_points(single_term_case, [z])[0].u
        assert got == pytest.approx(want, rel=1e-12)
    dwant = f21(p.alpha, p.beta, g, 0.3)[1]
    dgot = evaluate_points(single_term_case, [0.3])[0].du
    assert dgot == pytest.approx(dwant, rel=1e-12)


def test_rational_case_sums_to_geometric(rational_case):
    for z in (0.3, -0.4):
        got = evaluate_points(rational_case, [z])[0].u
        scale = evaluate_points(rational_case, [0.0])[0].u
        assert got / scale == pytest.approx(1.0 / (1.0 - z), rel=1e-12)


def test_derivatives_match_finite_differences(anchor_case):
    z, h = 0.3, 1e-5
    u = lambda x: evaluate_points(anchor_case, [x])[0].u
    du = evaluate_points(anchor_case, [z])[0].du
    ddu = evaluate_points(anchor_case, [z])[0].ddu
    fd1 = (u(z + h) - u(z - h)) / (2.0 * h)
    fd2 = (u(z + h) - 2.0 * u(z) + u(z - h)) / (h * h)
    assert du == pytest.approx(fd1, rel=1e-6)
    assert ddu == pytest.approx(fd2, rel=1e-4)


def test_truncated_control_matches_default(anchor_case):
    tight = evaluate_points(anchor_case, [0.4], SeriesControl())[0]
    loose = evaluate_points(anchor_case, [0.4], SeriesControl(rel_tol=1e-10))[0]
    assert loose.u == pytest.approx(tight.u, rel=1e-13)


def test_stopping_rule_at_the_anchor(anchor_case):
    # the resummed tail is exact, so z = -0.9 needs no long direct sum
    ctl = SeriesControl()
    u, du, ddu, terms, tails, doublings = _sum_all(anchor_case, -0.9, ctl)
    assert terms <= 256
    assert doublings == 0
    assert all(_kernels.settled(t, x, ctl.rel_tol)
               for t, x in zip(tails, (u, du, ddu)))
    w = 1.0 + 0.9
    assert u == pytest.approx(3.0 / w, rel=1e-14)
    assert du == pytest.approx(3.0 / w ** 2, rel=1e-13)
    assert ddu == pytest.approx(6.0 / w ** 3, rel=1e-12)


def _core_at(case, z, big_m, mcap, inner_tol=1e-15, max_terms=10000):
    """z summed at direct-sum length big_m:
    (u, du, ddu, terms, tail0, tail1, tail2)."""
    p = case.params
    g = p.gamma + p.epsilon
    es = np.asarray(case.e_list, dtype=np.float64)
    cs, wt, wle = _kernels.expansion_prefix(
        g, g - p.alpha, g - p.beta, es, big_m, mcap, termination_index(p))
    return _kernels.expansion_core(
        p.a, p.q, p.alpha, p.beta, p.gamma, p.delta, p.epsilon, es, z, big_m,
        cs, wt, wle, inner_tol, max_terms, 3)


def test_tail_estimate_measures_truncation():
    case = q_candidates_N2(2.0, 2.5, 1.7, 0.6)[0]
    # full m-sum: it stops once the next term is below eps in every order
    for big_m in (128, 256):
        out = _core_at(case, -0.9, big_m, 24)
        for value, tail in zip(out[:3], out[4:7]):
            assert tail <= _kernels.EPS * abs(value)
    # an m-sum cut at m = 4: what is left is truncation, falling like M^-6
    short = [_core_at(case, -0.9, big_m, 4)[4:7] for big_m in (128, 256)]
    for t128, t256 in zip(*short):
        assert 0.0 < t256 < t128 / 16.0


def test_inner_series_run_once_per_point(anchor_case, monkeypatch):
    # every inner 2F1 of a point goes through one kernel call
    calls = []
    kernel = _kernels.f21_with_derivs

    def counted(*args):
        calls.append(np.size(args[2]))    # c = g + n, n = 0..M
        return kernel(*args)

    monkeypatch.setattr(_kernels, "f21_with_derivs", counted)
    sums = [_sum_all(anchor_case, z, SeriesControl()) for z in (-0.7, 0.15, 0.45)]
    assert [s[5] for s in sums] == [0, 0, 0]
    assert calls == [s[3] for s in sums]


@pytest.mark.parametrize("rel_tol, max_terms", [(1e-14, 100), (1e-17, 300)])
def test_direct_sum_keeps_within_max_terms(anchor_case, rel_tol, max_terms):
    # M + 1 terms for the direct sum c_0..c_M: at 100 the first M = 128 is
    # cut to 99; at rel_tol 1e-17, M doubles 128 -> 256 and is cut to 299
    summed = _sum_all(anchor_case, 0.5,
                      SeriesControl(rel_tol=rel_tol, max_terms=max_terms))
    assert summed[3] == max_terms


def test_inner_series_cap_raises(anchor_case):
    with pytest.raises(NonConvergenceError):
        _sum_all(anchor_case, 0.5, SeriesControl(max_terms=5))


def test_non_finite_sum_raises(anchor_case, monkeypatch):
    core = _kernels.expansion_core

    def overflowed(*args):
        return (np.inf, *core(*args)[1:])

    monkeypatch.setattr(_kernels, "expansion_core", overflowed)
    with pytest.raises(NumericalError, match="summation produced a non-finite"):
        _sum_all(anchor_case, 0.5, SeriesControl())


def test_point_next_to_the_origin(anchor_case):
    # 1/z^2 overflows below 1e-154; the series there equals its origin value
    near, origin = evaluate_points(anchor_case, [1e-200, 0.0])
    assert (near.u, near.du, near.ddu) == (origin.u, origin.du, origin.ddu)
    assert near.status == (EvalStatus.CONVERGED,) * 3
    ctl = SeriesControl()
    assert _sum_all(anchor_case, 1e-200, ctl)[:3] == _sum_all(anchor_case, 0.0, ctl)[:3]


def _sum_alone(case, z, ctl):
    """z summed by the doubling loop written out: one prefix and one kernel
    call per direct-sum length, M doubled until its tails settle; the
    reference _sum_all must reproduce to the bit."""
    n0 = termination_index(case.params)
    top = ctl.max_terms - 1
    big_m = min(_M_START if n0 >= _M_START else max(n0, 8), top)
    doublings = 0
    while True:
        u, du, ddu, terms, *tails = _core_at(case, z, big_m, _MCAP,
                                             ctl.rel_tol / 10.0, ctl.max_terms)
        if big_m >= top or big_m >= n0 or all(
                _kernels.settled(t, x, ctl.rel_tol) for t, x in zip(tails, (u, du, ddu))):
            return u, du, ddu, terms, tuple(tails), doublings
        big_m = min(2 * big_m, top)
        doublings += 1


def test_one_pass_summation_keeps_the_bits(random_cases, anchor_case):
    # every _sum_all call gets the bits of the loop written out
    zs = (-0.9, -0.5, -0.2, 0.1, 0.25, 0.4, 0.6, 0.85)
    ctl = SeriesControl()
    for case in random_cases:
        want = [_sum_alone(case, z, ctl) for z in zs]
        assert repr([_sum_all(case, z, ctl) for z in zs]) == repr(want)
    # at rel_tol 1e-17 the anchor doubles M at 0.3 and 0.5 but not at 0.1,
    # and the origin takes the weights
    ctl = SeriesControl(rel_tol=1e-17, max_terms=300)
    zs = (0.1, 0.5, 0.0, 0.3, -0.2)
    got = [_sum_all(anchor_case, z, ctl) for z in zs]
    assert [row[5] for row in got] == [0, 2, 0, 1, 2]
    assert repr(got) == repr([_sum_alone(anchor_case, z, ctl) for z in zs])


@pytest.mark.parametrize("z", [0.0, 1.0, 2.0, 1e-12])
def test_residual_rejects_singular_points(anchor_case, z):
    with pytest.raises(SingularPointError):
        check_interior(z, anchor_case.params.a)


def test_detect_truncation(anchor_case, single_term_case):
    assert termination_index(anchor_case.params) == NO_TERMINATION
    assert termination_index(single_term_case.params) == 1
    cases = q_candidates_N2(2.0, 2.5, 2.0, 0.6)
    assert termination_index(cases[0].params) == 2


def test_terminating_cases_solve_the_equation(rational_case):
    # a zero forcing constant leaves the genuine homogeneous solution
    assert forcing_constant(rational_case) == 0.0
    for ev in evaluate_points(rational_case, [0.25, 0.4, -0.35]):
        assert homogeneous_residual(rational_case, ev) < 1e-10


def test_forcing_constant_anchor(anchor_case):
    # Gamma(4)/(Gamma(1)Gamma(2)) = 6
    assert forcing_constant(anchor_case) == pytest.approx(6.0, rel=1e-12)


def test_forcing_defect_certifies_every_case(anchor_case, single_term_case,
                                             rational_case):
    for case in (anchor_case, single_term_case, rational_case):
        for z in (0.1, 0.25, 0.4):
            assert forced_residual(case, evaluate_points(case, [z])[0]) < 1e-10


def test_form_certificate_holds_on_form_cases(form_cases):
    # the B_k against forcing_constant with no z: worst 1.5e-14 (N = 6),
    # 1.1e-14 at N = 3 and 3.5e-16 at N <= 2, terminating cases included
    for case in form_cases:
        assert form_certificate(case) <= 1e-13


def _moved_cases(case, rel):
    """case with q, then with each e_k in turn, moved by rel relative; the
    report is carried over, so nothing re-certifies the moved case."""
    p = case.params
    yield dataclasses.replace(case, params=dataclasses.replace(p, q=p.q * (1.0 + rel)))
    for k in range(case.N):
        es = list(case.e_list)
        es[k] *= 1.0 + rel
        yield dataclasses.replace(case, e_list=tuple(es))


def test_form_certificate_sees_a_moved_q_or_e(form_cases):
    # 1e-8 relative on q or one e_k lifts the value 2.1e4 times or more
    # (the least: q of an N = 6 case); a value below the unit roundoff
    # counts as the unit roundoff
    for case in form_cases:
        floor = 1e3 * max(form_certificate(case), _U)
        for moved in _moved_cases(case, 1e-8):
            assert form_certificate(moved) >= floor


def test_certified_points_share_one_form(form_cases):
    zs = (0.0, -0.5, 0.3)
    for case in form_cases:
        evs, value = certified_points(case, zs)
        assert repr(evs) == repr(evaluate_points(case, zs))
        assert value == form_certificate(case)


@pytest.mark.xfail(strict=True, reason="the generic two-term sum solves the "
                   "constant-forced equation, not the homogeneous one")
def test_generic_case_homogeneous_residual(anchor_case):
    ev, = evaluate_points(anchor_case, [0.25])
    assert homogeneous_residual(anchor_case, ev) < 1e-7


def forced_power_series(p, u0, c, n_max):
    """Collected-power coefficients of the constant-forced equation.

    Identical to the homogeneous recurrence except at order zero, where the
    constant enters: a*gamma*w_1 - q*w_0 = -c. Implemented with plain floats
    as an independent check on the kernel path.
    """
    w = [float(u0), (p.q * u0 - c) / (p.a * p.gamma)]
    gde = p.gamma + p.delta + p.epsilon
    for m in range(1, n_max):
        lead = p.a * (m + 1.0) * (m + p.gamma)
        mid = ((1.0 + p.a) * m * (m - 1.0)
               + (p.gamma * (1.0 + p.a) + p.a * p.delta + p.epsilon) * m
               + p.q) * w[m]
        low = ((m - 1.0) * (m - 2.0) + gde * (m - 1.0)
               + p.alpha * p.beta) * w[m - 1]
        w.append((mid - low) / lead)
    return w


def test_forced_series_oracle_matches_sum(anchor_case):
    p = anchor_case.params
    u0 = evaluate_points(anchor_case, [0.0])[0].u
    c = forcing_constant(anchor_case)
    w = forced_power_series(p, u0, c, 120)
    for z in (0.1, 0.25, -0.2):
        want = 0.0
        for coeff in reversed(w):
            want = want * z + coeff
        got = evaluate_points(anchor_case, [z])[0].u
        assert got == pytest.approx(want, rel=1e-9)


def test_cancelling_point_is_not_converged():
    # the N = 4 point where the B_k v^k of u'' cancel: the summation is
    # off there by 4.4e-4 in u'', and the form's bound admits 2.6e-9
    cases = solve_reduction_general(-2.2157617138542234, 1.9988239570986703,
                                    -2.879264292524635, 0.3413028641900162, 4)
    case = next(c for c in cases if c.q_root_index == 0)
    ev = evaluate_points(case, [-0.95])[0]
    assert ev.status[2] is EvalStatus.MAX_TERMS_REACHED
    assert ev.tails[2] < 1e-8 * abs(ev.ddu)
    assert summation_gaps(case, [ev])[0] > 1e-4
