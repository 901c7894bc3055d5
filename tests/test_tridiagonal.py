"""The search against its tridiagonal oracle (tests/tridiagonal.py): every
returned q is an eigenvalue of T, every case's e_k are the roots of P from
the minors of qI - T, the q-roots are real where T is similar to a
symmetric matrix, the forcing constant is T's t^0 row, and the exact count
of real q matches the solver's notes."""

import random

import mpmath
import numpy as np
import pytest

import tridiagonal
from heunx import forcing_constant, solve, termination_index
from heunx.evaluator import _form
from heunx.recurrence import NO_TERMINATION


def _box_draw(rng):
    """(a, alpha, beta, gamma): a in +-[1.5, 3], the rest in [-3, 3]."""
    a = rng.choice((-1.0, 1.0)) * rng.uniform(1.5, 3.0)
    return (a, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))


def _complex_notes(notes):
    return sum("dropped: q is complex" in note for note in notes)


@pytest.mark.parametrize("n_case", range(9))
def test_every_returned_q_is_an_eigenvalue_of_T(n_case):
    # draws until 10 cases; few N = 8 draws in the box give one
    rng = random.Random(100 + n_case)
    found = 0
    for _ in range(300):
        draw = _box_draw(rng)
        eig = np.linalg.eigvals(tridiagonal.matrix(*draw, n_case))
        for case in solve(*draw, n_case)[0]:
            q = case.params.q
            assert np.min(np.abs(eig - q)) <= 1e-11 * max(1.0, abs(q)), (draw, q)
            found += 1
        if found >= 10:
            break
    assert found >= 10


@pytest.mark.parametrize("n_case", range(9))
def test_e_k_are_the_roots_of_P_from_the_minors(n_case):
    # the e_k of every case are the negated roots of the exact
    # P(n) = sum_m (-1)^m D_m(q) / m! n(n-1)...(n-N+m+1) at its q: the
    # closed forms' route at N <= 2, and a check of the pencil's e_k at N >= 3.
    # On 200 draws per order from these seeds the worst relative gap read
    # 1.1e-13 at N <= 2 and 9.8e-11 at N = 3..8
    bound = 1e-12 if n_case <= 2 else 1e-9
    rng = random.Random(400 + n_case)
    found = 0
    with mpmath.workdps(40):
        for _ in range(300):
            draw = _box_draw(rng)
            for case in solve(*draw, n_case)[0]:
                p = tridiagonal.p_polynomial(*draw, n_case, case.params.q)
                roots = (mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                           for c in p[::-1]], maxsteps=200, extraprec=200)
                         if n_case else [])
                exact = sorted(-mpmath.re(r) for r in roots)
                assert len(case.e_list) == len(exact)
                for e, x in zip(case.e_list, exact):
                    assert abs(e - x) <= bound * max(1, abs(x)), (draw, case.e_list)
                found += 1
            if found >= 10:
                break
    assert found >= 10


@pytest.mark.parametrize("n_case", range(1, 9))
def test_no_complex_q_where_T_is_symmetrizable(n_case):
    # with every T[m, m+1] T[m+1, m] > 0, T is similar to a symmetric
    # matrix, so its N+1 eigenvalues are real: a > 1 with alpha, beta < 2
    rng = random.Random(200 + n_case)
    for _ in range(10):
        draw = (rng.uniform(1.2, 3.0), rng.uniform(-3.0, 1.9), rng.uniform(-3.0, 1.9),
                rng.uniform(-3.0, 3.0))
        _, upper, lower = tridiagonal.entries(*draw, n_case)
        assert all(u * l > 0.0 for u, l in zip(upper, lower))
        assert _complex_notes(solve(*draw, n_case)[1]) == 0, draw


def test_forcing_constant_is_the_t0_coefficient(form_cases):
    # the t^0 coefficient of the forced operator on the form: C = (1-alpha)(1-beta) B_1
    for case in form_cases:
        p = case.params
        c = forcing_constant(case)
        b = _form(case)[0]
        t0 = (1.0 - p.alpha) * (1.0 - p.beta) * b[0]
        if termination_index(p) < NO_TERMINATION:
            # C is 0 where the stream terminates, and B_1 up to the B_k's rounding
            assert c == 0.0 and abs(t0) <= 1e-12 * max(map(abs, b)), (p, t0)
        else:
            assert abs(c - t0) <= 1e-12 * max(abs(c), abs(t0)), (p, case.e_list)


def test_form_is_an_eigenvector_of_T(form_cases):
    # the rows t^-1 .. t^-(N+1) of the same operator: (T - q I) B = 0
    for case in form_cases:
        p = case.params
        b = np.array(_form(case)[0])
        t = tridiagonal.matrix(p.a, p.alpha, p.beta, p.gamma, case.N)
        scale = np.max((np.abs(t) + abs(p.q)) @ np.abs(b))
        assert np.max(np.abs(t @ b - p.q * b)) <= 1e-11 * scale, (p, case.e_list)


def test_exact_count_of_real_q():
    # Sturm's count of the distinct real roots of det(qI - T), in exact
    # arithmetic, against the q-roots the solver did not call complex
    rng = random.Random(3)
    for _ in range(30):
        draw = _box_draw(rng)
        for n_case in range(9):
            notes = solve(*draw, n_case)[1]
            count = tridiagonal.sturm_count(tridiagonal.char_poly(*draw, n_case))
            assert count == n_case + 1 - _complex_notes(notes), (draw, n_case)
