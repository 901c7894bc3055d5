"""Hypergeometric series, derivatives, and Pochhammer products."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from heunx import (DomainError, EvalStatus, NonConvergenceError, PoleError,
                   PreconditionError, SeriesControl, gauss_2f1, gauss_2f1_deriv)
from heunx._kernels import poch


def test_pochhammer_examples():
    assert poch(3.0, 2) == 12.0
    assert poch(-1.7, 0) == 1.0
    assert poch(-2.0, 3) == 0.0


def test_gauss_at_origin_is_one():
    out = gauss_2f1(1.3, -0.7, 2.1, 0.0)
    assert out.value == 1.0
    assert out.status is EvalStatus.CONVERGED


def test_gauss_binomial_value():
    # 2F1(a, b; b; z) = (1-z)^(-a)
    out = gauss_2f1(2.0, 1.5, 1.5, 0.5)
    assert out.value == pytest.approx(4.0, rel=1e-14)


def test_gauss_log_value():
    # 2F1(1, 1; 2; z) = -log(1-z)/z
    out = gauss_2f1(1.0, 1.0, 2.0, 0.5)
    assert out.value == pytest.approx(2.0 * math.log(2.0), rel=1e-14)


def test_gauss_rejects_unit_disk_boundary():
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 2.0, -1.5)


@pytest.mark.parametrize("c", [0.0, -1.0, -5.0 + 1e-10])
def test_gauss_rejects_pole_parameter(c):
    with pytest.raises(PoleError):
        gauss_2f1(1.0, 1.0, c, 0.3)


def test_gauss_term_cap_raises():
    ctl = SeriesControl(max_terms=5)
    with pytest.raises(NonConvergenceError):
        gauss_2f1(1.0, 1.0, 2.0, 0.9, ctl)


def test_series_control_rejects_bad_fields():
    for rel_tol in (0.0, math.inf, math.nan):
        with pytest.raises(PreconditionError):
            SeriesControl(rel_tol=rel_tol)
    with pytest.raises(PreconditionError):
        SeriesControl(max_terms=0)


def test_deriv_at_origin_is_ab_over_c():
    assert gauss_2f1_deriv(1.3, 2.5, 1.7, 0.0, 1) == pytest.approx(
        1.3 * 2.5 / 1.7, rel=1e-14)


def test_deriv_binomial_values():
    # d/dz (1-z)^(-2) = 2(1-z)^(-3); second derivative 6(1-z)^(-4)
    assert gauss_2f1_deriv(2.0, 1.5, 1.5, 0.5, 1) == pytest.approx(16.0, rel=1e-13)
    assert gauss_2f1_deriv(2.0, 1.5, 1.5, 0.5, 2) == pytest.approx(96.0, rel=1e-13)


def test_deriv_matches_parameter_shift_identity():
    # d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z) and its second-order
    # iterate, in mpmath at 40 digits: an oracle the term-wise sums share
    # nothing with
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    for _ in range(400):
        a, b = map(float, rng.uniform(-3.0, 3.0, 2))
        c = float(rng.uniform(0.5, 4.0))
        z = float(rng.uniform(-0.5, 0.5))
        with mp.workdps(40):
            x, y, w = map(mp.mpf, (a, b, c))
            f = abs(float(mp.hyp2f1(x, y, w, z)))
            first = x * y / w
            second = first * (x + 1) * (y + 1) / (w + 1)
            want = [float(factor * mp.hyp2f1(x + order, y + order, w + order, z))
                    for order, factor in ((1, first), (2, second))]
        for order, exact in enumerate(want, start=1):
            got = gauss_2f1_deriv(a, b, c, z, order)
            assert abs(got - exact) <= 1e-12 * max(abs(exact), f, 1.0)


def test_deriv_rejects_bad_order():
    with pytest.raises(PreconditionError):
        gauss_2f1_deriv(1.0, 1.0, 2.0, 0.1, 3)


@given(a=st.floats(-3.0, 3.0), z=st.floats(-0.9, 0.9))
def test_binomial_identity_property(a, z):
    got = gauss_2f1(a, 1.7, 1.7, z).value
    assert got == pytest.approx((1.0 - z) ** (-a), rel=1e-12, abs=1e-12)


@given(a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0),
       c=st.floats(0.3, 5.0), z=st.floats(-0.8, 0.8))
def test_argument_symmetry_property(a, b, c, z):
    assume(abs(c - round(c)) > 1e-6 or round(c) > 0)
    lhs = gauss_2f1(a, b, c, z).value
    rhs = gauss_2f1(b, a, c, z).value
    assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)


@given(x=st.floats(-5.0, 5.0), m=st.integers(0, 20), n=st.integers(0, 20))
def test_pochhammer_composition_property(x, m, n):
    whole = poch(x, m + n)
    split = poch(x, m) * poch(x + m, n)
    assert whole == pytest.approx(split, rel=1e-13, abs=1e-290)
