"""Independent power-series oracle and the expansion cross-check."""

import math

import numpy as np
import pytest

from heunx import (DomainError, EvalStatus, HeunParams, PoleError,
                   cross_check, evaluate, evaluate_points,
                   frobenius_coefficients, frobenius_eval, q_candidates_N0,
                   q_candidates_N1)
from heunx.oracle import CROSS_CHECK_TERMS, SAFE_RADIUS_FACTOR

Z_GRID = (0.1, 0.25, 0.4)  # the acceptance grid


def horner_by_points(coefs, z):
    """The scalar Horner loop the oracle's np.polyval pass must match bit for
    bit, and the last-three-terms tail it took alongside."""
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


def test_first_coefficients_anchor(anchor_case):
    series = frobenius_coefficients(anchor_case.params, 5)
    b = series.coefficients
    assert b[0] == 1.0
    assert b[1] == 2.0   # q/(a*gamma)
    assert series.radius_hint == 1.0


def test_constant_solution():
    # q = 0 with alpha*beta = 0 makes u = 1 an exact solution; the series
    # sees it: every coefficient beyond b_0 vanishes
    p = HeunParams(a=2.0, q=0.0, alpha=0.0, beta=1.3, gamma=0.9,
                   delta=0.4, epsilon=1.0)
    series = frobenius_coefficients(p, 30)
    assert series.coefficients[0] == 1.0
    assert all(c == 0.0 for c in series.coefficients[1:])


def test_gamma_pole_rejected():
    p = HeunParams(a=2.0, q=1.0, alpha=1.5, beta=0.5, gamma=-1.0,
                   delta=2.0, epsilon=2.0)
    with pytest.raises(PoleError):
        frobenius_coefficients(p, 10)


def test_series_satisfies_collected_powers(anchor_case):
    # multiply the series back through the variable-coefficient operator
    # with plain polynomial convolutions; every power must cancel
    p = anchor_case.params
    n_max = 80
    w = np.array(frobenius_coefficients(p, n_max).coefficients)
    k = np.arange(len(w))
    w1 = (w * k)[1:]
    w2 = (w * k * (k - 1.0))[2:]
    poly3 = np.array([0.0, p.a, -(1.0 + p.a), 1.0])
    poly1 = (p.gamma * np.array([p.a, -(1.0 + p.a), 1.0])
             + p.delta * np.array([0.0, -p.a, 1.0])
             + p.epsilon * np.array([0.0, -1.0, 1.0]))
    poly0 = np.array([-p.q, p.alpha * p.beta])

    def padded(conv, m):
        out = np.zeros(m)
        out[:min(m, len(conv))] = conv[:m]
        return out

    m = n_max - 1   # powers whose coefficients are complete
    num = (padded(np.convolve(poly3, w2), m)
           + padded(np.convolve(poly1, w1), m)
           + padded(np.convolve(poly0, w), m))
    den = (padded(np.convolve(np.abs(poly3), np.abs(w2)), m)
           + padded(np.convolve(np.abs(poly1), np.abs(w1)), m)
           + padded(np.convolve(np.abs(poly0), np.abs(w)), m))
    assert np.max(np.abs(num) / (den + 1.0)) < 1e-12


def test_growth_matches_radius():
    # |b_k|^(1/k) approaches 1/min(1, |a|); windowed median over k in
    # [160, 200] sits within 20 percent for well-separated draws
    cases = [
        q_candidates_N0(2.0, 3.0, 2.0, 1.0)[0],
        q_candidates_N0(0.7, 2.2, 1.3, 0.8)[0],
        q_candidates_N1(-0.5, 2.1, 0.7, 1.4)[0],
    ]
    for case in cases:
        p = case.params
        radius = min(1.0, abs(p.a))
        b = np.abs(frobenius_coefficients(p, 200).coefficients)
        ks = np.arange(160, 201)
        ests = b[ks] ** (1.0 / ks)
        med = float(np.median(ests[ests > 0.0]))
        assert 0.8 < med * radius < 1.2


def test_eval_basics(anchor_case):
    series = frobenius_coefficients(anchor_case.params, 60)
    out = frobenius_eval(series, 0.0)
    assert out.value == 1.0
    assert frobenius_eval(series, 0.25).status is EvalStatus.CONVERGED
    with pytest.raises(DomainError):
        frobenius_eval(series, 0.9)


def test_cross_check_trivial_at_origin(anchor_case):
    origin = evaluate(anchor_case, 0.0)
    assert cross_check(anchor_case, [origin], origin.u) == 0.0


def test_cross_check_terminating_case():
    # a terminating stream is a genuine solution; the two expansions agree
    case = q_candidates_N0(2.0, 1.0, 2.4, 0.8)[0]
    assert cross_check(case, [evaluate(case, z) for z in (0.1, 0.25, 0.4)],
                       evaluate(case, 0.0).u) < 1e-7


def test_cross_check_generic_gap_is_real(anchor_case):
    # the generic two-term sum and the homogeneous series differ by a
    # particular-solution part of order one
    assert cross_check(anchor_case, [evaluate(anchor_case, 0.25)],
                       evaluate(anchor_case, 0.0).u) > 0.1


@pytest.mark.xfail(strict=True, reason="the generic two-term sum solves the "
                   "constant-forced equation, not the homogeneous one")
def test_generic_case_matches_homogeneous_series(anchor_case):
    assert cross_check(anchor_case, [evaluate(anchor_case, z)
                                      for z in (0.1, 0.25, 0.4)],
                       evaluate(anchor_case, 0.0).u) < 1e-7


def test_array_pass_matches_scalar_horner(random_cases):
    # one np.polyval over the points takes the loop's multiply-then-add
    # steps in its order; the deviations are then the loop's to the bit
    for case in random_cases:
        series = frobenius_coefficients(case.params, CROSS_CHECK_TERMS)
        b = series.coefficients
        safe = SAFE_RADIUS_FACTOR * series.radius_hint
        origin, *evs = evaluate_points(case, (0.0, *Z_GRID))
        outside = [z for z in Z_GRID if abs(z) >= safe]
        if outside:
            with pytest.raises(DomainError, match=repr(outside[0])):
                cross_check(case, evs, origin.u)
            continue
        want = [abs(ev.u - origin.u * horner_by_points(b, ev.z)[0])
                / (abs(ev.u) + 1e-300) for ev in evs]
        np.testing.assert_array_equal(cross_check(case, evs, origin.u),
                                      np.max(want, initial=0.0))
        for z in Z_GRID:
            got = frobenius_eval(series, z)
            value, tail = horner_by_points(b, z)
            np.testing.assert_array_equal(got.value, value)
            assert got.tail_estimate == pytest.approx(tail, rel=1e-13, nan_ok=True)


def test_overflowing_series_fails_cross_check():
    # b_k grows like |a|^-k: at a = 0.05 b_0..b_400 leave the floats from
    # k = 249 on, and the deviation at every point is not finite, where the
    # scalar pass's max dropped it and reported 0.0; a RuntimeWarning on the
    # way fails the test (pyproject.toml)
    case = q_candidates_N0(0.05, 2.3, 1.0, 0.9)[0]
    b = frobenius_coefficients(case.params, CROSS_CHECK_TERMS).coefficients
    origin, ev = evaluate_points(case, (0.0, 0.02))
    value = cross_check(case, [ev], origin.u)
    assert np.isfinite(b[:249]).all() and not np.isfinite(b[249:]).any()
    assert not math.isfinite(value)
