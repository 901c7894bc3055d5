"""Reduction identity, closed-form q-conditions, and the general solver."""

import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import tridiagonal
from conftest import case_gap, degree_claim_defect, identity_at
from heunx import (HeunParams, PreconditionError, ReductionCase,
                   ValidatedHeunParams, ValidationError, case_to_dict,
                   collect_issues, params_to_dict, q_candidates_N0, q_candidates_N1,
                   q_candidates_N2, residual_rows, solve, solve_reduction_general,
                   termination_index, two_term_coefficients, verify_reduction)
from heunx import HeunxError, _kernels
from heunx.reduction import (_PROBE_POINT, GENERAL_TOL, _accept, _draw, _drop,
                             _forward_difference, _pencil, _polish, _q_polynomial,
                             _tridiagonal)

ANCHOR = ValidatedHeunParams(a=2.0, q=4.0, alpha=3.0, beta=2.0, gamma=1.0,
                             delta=2.0, epsilon=3.0)

# order-1 draw whose q-condition has two real roots
N1_DRAW = (2.0, 0.5, 1.7, 0.6)
# order-1 draw with a negative discriminant: no real reduction exists
N1_NO_ROOT = (-0.5, 0.2, 0.1, 2.0)
# order-1 draw whose discriminant is exactly 0: the two roots merge
N1_REPEAT = (-3.0, -1.75, -1.75, -1.5)
# order-2 draw with a root at q = T[3, 3] = 4.25, where the bottom end of the
# minors divides by zero (once the K = 1 root of the e-product relation)
N2_DRAW = (2.0, 2.5, 1.7, 0.6)
# order-2 draw whose cubic has a complex pair of q-roots
N2_COMPLEX = (0.750572799628002, 2.383282805817453, 1.6541141414711609,
              -1.6487568600564488)


def scaled(p, es, n):
    return max(identity_at(p, es, n)[1], 1.0)


def _with_notes(solver, *args):
    notes = []
    return solver(*args, notes), notes


def test_identity_vanishes_for_anchor_everywhere():
    # the reduction identity holds for all n, integer or not
    for n in (1.0, 2.0, 3.0, 7.3):
        assert abs(identity_at(ANCHOR, (), n)[0]) <= 1e-12 * scaled(ANCHOR, (), n)


def test_identity_detects_wrong_q():
    p = HeunParams(**{**params_to_dict(ANCHOR), "q": 5.0})
    assert abs(verify_reduction(p, ()).identity_values[0]) > 1e-3


def test_delta_for_reduction():
    # every order-N case carries delta = N+2; a negative order is rejected
    draw = (2.0, 2.5, 1.7, 0.6)
    assert [c.params.delta for n in (0, 1, 2) for c in solve(*draw, n)[0]] == [
        2.0, 3.0, 3.0, 4.0, 4.0]
    with pytest.raises(PreconditionError):
        solve(*draw, -1)


def test_q_for_N0_values():
    # the order-0 case sits at q = a*gamma + (alpha-1)(beta-1)
    assert q_candidates_N0(2.0, 3.0, 2.0, 1.0)[0].params.q == 4.0
    assert q_candidates_N0(0.5, 1.0, 1.0, 0.0)[0].params.q == 0.0
    assert q_candidates_N0(-2.0, 1.0, 3.0, 1.0)[0].params.q == -2.0


def test_N0_case_matches_anchor():
    case, = q_candidates_N0(2.0, 3.0, 2.0, 1.0)
    assert case.N == 0 and case.e_list == ()
    assert case.params == ANCHOR
    assert case.report.passed


def _exact_q_polynomial(draw, n_case):
    """det(qI - T) of the draw's exact doubles (tests/tridiagonal.py), in
    Fraction, highest degree first."""
    return tridiagonal.char_poly(*draw, n_case)[::-1]


def _exact_value(coeffs, q):
    """The exact polynomial at the double q, rounded once to a float."""
    acc, x = Fraction(0), Fraction(q)
    for c in coeffs:
        acc = acc * x + c
    return float(acc)


def test_N1_roots_satisfy_quadratic():
    cases = q_candidates_N1(*N1_DRAW)
    assert len(cases) == 2
    coeffs = _exact_q_polynomial(N1_DRAW, 1)
    qs = [c.params.q for c in cases]
    assert qs == sorted(qs)
    assert [c.q_root_index for c in cases] == [0, 1]
    for case in cases:
        q = case.params.q
        resid = abs(_exact_value(coeffs, q))
        scale = max(1.0, abs(float(coeffs[1]) * q), abs(float(coeffs[2])))
        assert resid <= 1e-10 * scale
        a, alpha, beta, gamma = N1_DRAW
        e1 = -q + a * (1.0 + gamma) - 1.0 + (alpha - 1.0) * (beta - 1.0)
        assert case.e_list == pytest.approx((e1,), rel=1e-12)


def _polish_by_polyval(coeffs, x):
    """_polish's Newton step by np.polyval and np.polyder."""
    val = np.polyval(coeffs, x)
    der = np.polyval(np.polyder(coeffs), x)
    return x if der == 0.0 else float(x - val / der)


def test_polish_matches_polyval_step():
    # Horner's rule over floats from 0.0 is np.polyval's arithmetic, and
    # the derivative's coefficients are np.polyder's products
    draws = [N1_DRAW, N1_REPEAT, N2_DRAW, N2_COMPLEX] + [_box_draw(s) for s in range(60)]
    for draw in draws:
        for n_case in (1, 2):
            coeffs = _q_polynomial(*_tridiagonal(_draw(*draw, n_case), n_case))
            for root in np.roots(coeffs).real.tolist():
                for x in (root, root * (1.0 + 1e-9), root + 1e-3):
                    assert (repr(_polish(coeffs, x))
                            == repr(_polish_by_polyval(np.array(coeffs), x)))
    # at a zero derivative the point comes back unchanged
    assert _polish((1.0, -2.0, 1.0), 1.0) == 1.0


def test_N1_negative_discriminant_notes_empty():
    cases, notes = _with_notes(q_candidates_N1, *N1_NO_ROOT)
    assert cases == []
    assert any("dropped: q is complex" in note for note in notes)


def test_perturbed_q_fails_verification():
    case = q_candidates_N1(*N1_DRAW)[0]
    p = HeunParams(**{**params_to_dict(case.params), "q": case.params.q + 1e-3})
    report = verify_reduction(p, case.e_list)
    assert not report.passed
    # the identity and the 50-row defect fail, the A_top gap (free of q)
    # holds, and the certificate error names the two that failed
    failed = ("identity values", "50-row defect 6.14e-04")
    assert report.failed == failed
    with pytest.raises(PreconditionError, match=re.escape(f"({', '.join(failed)})")):
        ReductionCase(p, case.e_list)


def test_infinite_identity_value_fails_verification(monkeypatch):
    # an inf summand makes the bound inf too, which inf <= inf would pass
    case = q_candidates_N2(*N2_DRAW)[0]
    terms = _kernels.identity_terms

    def inf_at_probe(*args):
        return (np.inf, 0.0, 0.0) if args[-1] == _PROBE_POINT else terms(*args)

    monkeypatch.setattr(_kernels, "identity_terms", inf_at_probe)
    report = verify_reduction(case.params, case.e_list)
    assert report.identity_values[-1] == np.inf
    assert report.failed == ("identity values",)


def test_N2_roots_satisfy_cubic_and_e_relations():
    # P(n) = (n + e_1)(n + e_2) = n^2 - (1 + D_1) n + D_2 / 2, with D_1 and
    # D_2 the exact leading principal minors of qI - T at the double q
    cases, notes = _with_notes(q_candidates_N2, *N2_DRAW)
    assert len(cases) == 2
    assert notes == ["root q = 3.2499999999999942 dropped: the e_k include a complex pair"]
    coeffs = _exact_q_polynomial(N2_DRAW, 2)
    diag, upper, lower = tridiagonal.entries(*N2_DRAW, 2, Fraction)
    for case in cases:
        q = case.params.q
        resid = abs(_exact_value(coeffs, q))
        scale = max(abs(float(c)) * abs(q) ** (3 - i) for i, c in enumerate(coeffs))
        assert resid <= 1e-9 * max(scale, 1.0)
        e1, e2 = case.e_list
        d1 = Fraction(q) - diag[0]
        d2 = (Fraction(q) - diag[1]) * d1 - upper[0] * lower[0]
        assert e1 + e2 == pytest.approx(float(-1 - d1), rel=1e-10, abs=1e-10)
        assert e1 * e2 == pytest.approx(float(d2 / 2), rel=1e-10)


def _cube_draw(seed):
    """(a, alpha, beta, gamma), each in [-3, 3]."""
    rng = random.Random(seed)
    return tuple(rng.uniform(-3.0, 3.0) for _ in range(4))


@pytest.mark.parametrize("n_case, bound", [(1, 3e-16), (2, 4.5e-16)])
def test_closed_form_q_is_near_the_exact_root(n_case, bound):
    # each returned q against the root q* of the exact det(qI - T) that a
    # 40-digit findroot reaches from it. The median of |q - q*| / max(|q*|, 1)
    # over 150 draws from the benchmark's box and 150 from [-3, 3]^4 reads
    # 1.1e-16 at N = 1 and 2.4e-16 at N = 2; the N = 2 bound rejects the
    # 5.8e-16 of the cubic expanded by hand in monomials of a, alpha, beta, gamma
    solver = (q_candidates_N1, q_candidates_N2)[n_case - 1]
    errors = []
    with mpmath.workdps(40):
        for draw in [_box_draw(s) for s in range(150)] + [_cube_draw(s) for s in range(150)]:
            try:
                cases = solver(*draw)
            except HeunxError:
                continue
            coeffs = [mpmath.mpf(c.numerator) / c.denominator
                      for c in _exact_q_polynomial(draw, n_case)]
            for case in cases:
                q = case.params.q
                root = mpmath.findroot(lambda x: mpmath.polyval(coeffs, x), mpmath.mpf(q))
                errors.append(float(abs(q - root) / max(abs(root), 1)))
    assert len(errors) >= 300
    assert np.median(errors) <= bound, np.median(errors)


def _matches_general(solver, draw, n_case):
    """Assert that the closed form returns the eigen solver's cases, within
    1e-9, and drops each other root for the same reason; its (cases, notes)."""
    closed, closed_notes = _with_notes(solver, *draw)
    general, general_notes = _with_notes(solve_reduction_general, *draw, n_case)
    assert len(closed) == len(general)
    for c, g in zip(closed, general):
        assert case_gap(c, g) <= 1e-9
    assert ([note.split(" dropped: ")[1] for note in closed_notes]
            == [note.split(" dropped: ")[1] for note in general_notes])
    return closed, closed_notes


@pytest.mark.parametrize("args", [
    ((2.0, 3.0, 1.7, 0.6), None),                # alpha = 3
    ((2.0, 2.5, 3.0, 0.6), None),                # beta = 3
    ((1.0, 2.5, 1.7, 0.6), ValidationError),     # a = 1: the draw is invalid
])
def test_N2_closed_form_preconditions(args):
    # alpha or beta = 3 is no precondition: the closed form returns the
    # eigen solver's cases and drops each other root for the same reason
    draw, error = args
    if error is None:
        _matches_general(q_candidates_N2, draw, 2)
    else:
        with pytest.raises(error):
            q_candidates_N2(*draw)


@pytest.mark.parametrize("solver, draw, n_case, q", [
    # q = T[2, 2]: the bottom end would divide by zero
    (q_candidates_N1, (2.0, 2.0, 1.7, 0.6), 1, 2.4),
    # q = T[1, 1]: D_1 = 0, which the bottom end would divide by
    (q_candidates_N2, (2.0, 2.0, -2.5, 2.5), 2, 3.5),
])
def test_closed_form_where_a_root_is_a_diagonal_entry(solver, draw, n_case, q):
    # alpha = 2 zeroes T[1, 2] T[2, 1], so a q-root lands exactly on a
    # diagonal entry of T; the closed form still gives the eigen solver's
    # cases and drops each other root for the same reason
    closed, notes = _matches_general(solver, draw, n_case)
    assert q in [c.params.q for c in closed] + [float(note.split()[3]) for note in notes]


def test_verify_report_anchor():
    report = verify_reduction(ANCHOR, ())
    assert report.passed
    assert report.collocation_points[:3] == (1.0, 2.0, 3.0)
    probe = report.collocation_points[-1]
    assert abs(probe - round(probe)) > 1e-3
    # N = 0: the identity is A_0 + A_1 n with both near zero
    assert abs(report.a_top) < 1e-12
    assert report.a_top_gap < 1e-12
    # the probe point is reproducible
    assert verify_reduction(ANCHOR, ()).collocation_points == report.collocation_points


def test_leading_coefficient_tracks_delta():
    # delta moved off N+2 while epsilon keeps the exponent sum closed:
    # the leading coefficient becomes 2+N-delta = -0.01 and the case fails
    p = HeunParams(a=2.0, q=4.0, alpha=3.0, beta=2.0, gamma=1.0,
                   delta=2.01, epsilon=2.99)
    report = verify_reduction(p, ())
    assert not report.passed
    assert report.a_top == pytest.approx(-0.01, abs=1e-9)
    assert report.a_top_gap < 1e-9


def test_certificate_defect_edge_rows():
    terminating = q_candidates_N0(2.0, 2.3, 1.0, 0.9)[0].params
    assert termination_index(terminating) == 1
    # alpha 3e-13 off: P_0's factor g - alpha is snapped to an exact zero
    near = HeunParams(**{**params_to_dict(terminating), "alpha": 2.3 + 3e-13})
    n2 = q_candidates_N2(*N2_DRAW)[0]

    def params(a, q, al, be, ga, ep):
        return HeunParams(a=a, q=q, alpha=al, beta=be, gamma=ga,
                          delta=1.0 + al + be - ga - ep, epsilon=ep)

    defect = {
        "terminating": verify_reduction(terminating, ()).stream_defect,
        "near termination": verify_reduction(near, ()).stream_defect,
        # e_1 = -2 divides by zero in the ratio at n = 3
        "pole e": verify_reduction(n2.params, (-2.0, n2.e_list[1])).stream_defect,
        # a tiny e_1 takes c_n near 1e305: |t1| + |t2| + |t3| overflows at
        # rows 3 to 5, and the largest defect is one of those rows taken again
        "overflow": verify_reduction(params(2.68, -0.14, -1.42, 2.67, -0.59, -0.32),
                                     (1e-305,)).stream_defect,
        # a generic stream growing like n^40, taken past the floats at n = 29
        # by a tiny e_1: the NaN rows come after finite ones
        "late nan": verify_reduction(params(2.0, 1.5, -20.0, -20.5, 0.5, 0.5),
                                     (1e-280,)).stream_defect,
    }
    assert defect == {"terminating": 0.0, "near termination": 0.0,
                      "pole e": math.inf, "overflow": 0.1949951615223444,
                      "late nan": math.inf}


def test_report_is_the_array_identity(random_cases):
    # verify_reduction evaluates the identity node by node over Python
    # floats; one identity_terms call over the node array gives the same bits,
    # on the certified point and with q moved off it
    for case in random_cases:
        p, es = case.params, case.e_list
        moved = HeunParams(**{**params_to_dict(p), "q": p.q * (1.0 + 1e-7)})
        for report, params in ((case.report, p), (verify_reduction(moved, es), moved)):
            nodes = np.array(report.collocation_points)
            assert report.identity_values == tuple(
                identity_at(params, es, nodes)[0].tolist())
            head = identity_at(params, es, np.arange(case.N + 2.0))[0]
            assert report.a_top == _forward_difference(head, case.N + 1)


def test_leading_coefficient_closed_form_property():
    # A_top = 2+N-delta whenever the exponent-sum relation is closed,
    # independently of q and the e values
    rng = np.random.default_rng(42)
    for _ in range(50):
        n_case = int(rng.integers(0, 3))
        a, q, alpha, beta, gamma, delta = rng.uniform(-3.0, 3.0, size=6)
        epsilon = 1.0 + alpha + beta - gamma - delta
        p = HeunParams(a=a, q=q, alpha=alpha, beta=beta, gamma=gamma,
                       delta=delta, epsilon=epsilon)
        es = tuple(rng.uniform(0.2, 3.0, size=n_case))
        a_top = verify_reduction(p, es).a_top
        scale = max(max(identity_at(p, es, float(k))[1]
                        for k in range(n_case + 2)), 1.0)
        assert abs(a_top - (2.0 + n_case - delta)) <= 1e-7 * scale


def test_degree_claim_defect_even_off_relation():
    # the degree-(N+2) coefficient vanishes identically, Fuchsian or not
    for p, es in [
        (ANCHOR, ()),
        (HeunParams(a=-1.3, q=0.7, alpha=2.2, beta=-0.4, gamma=1.9,
                    delta=0.3, epsilon=2.6), (0.8, 1.7)),
    ]:
        defect, scale = degree_claim_defect(p, es)
        assert defect <= 1e-8 * max(scale, 1.0)


def test_case_build_rejects_wrong_delta():
    p = HeunParams(a=2.0, q=4.0, alpha=3.0, beta=2.0, gamma=1.0,
                   delta=2.5, epsilon=2.5)
    with pytest.raises(PreconditionError, match="delta"):
        ReductionCase(p, ())


def test_case_build_rejects_failed_collocation():
    p = HeunParams(**{**params_to_dict(ANCHOR), "q": 5.0})
    with pytest.raises(PreconditionError, match="verification"):
        ReductionCase(p, ())


def test_case_to_dict_shape():
    case = q_candidates_N1(*N1_DRAW)[0]
    d = case_to_dict(case)
    assert d["N"] == 1 and d["q"] == case.params.q
    assert d["e"] == list(case.e_list)
    assert d["report"]["passed"] is True
    assert len(d["report"]["points"]) == len(d["report"]["values"])


def test_general_solver_matches_N0_closed_form():
    case, = solve_reduction_general(2.0, 3.0, 2.0, 1.0, 0)
    assert case.params.q == pytest.approx(4.0, abs=1e-9)


def test_general_solver_matches_N1_closed_form():
    for draw in (N1_DRAW, N1_REPEAT):
        closed = q_candidates_N1(*draw)
        general = solve_reduction_general(*draw, 1)
        assert len(general) == len(closed), draw
        for c, g in zip(closed, general):
            assert g.params.q == pytest.approx(c.params.q, abs=1e-9)
            assert g.e_list == pytest.approx(c.e_list, abs=1e-9)


def test_both_solvers_write_the_acceptance_notes():
    # _accept decides every real root of both solvers: the double root of
    # N1_REPEAT is one case and one near-repeat note, whichever solver
    closed, closed_notes = _with_notes(q_candidates_N1, *N1_REPEAT)
    general, general_notes = _with_notes(solve_reduction_general, *N1_REPEAT, 1)
    assert closed_notes == general_notes == [
        "root q = 15.5625 dropped: a near-repeat of root q = 15.5625"]
    (c,), (g,) = closed, general
    assert (c.params.q, c.q_root_index) == (g.params.q, g.q_root_index) == (15.5625, 0)
    assert g.e_list == pytest.approx(c.e_list, abs=1e-12)
    # the eigen solver's complex e-pair note
    cases, notes = _with_notes(solve_reduction_general, *N2_DRAW, 3)
    assert [c.q_root_index for c in cases] == [1, 2, 3]
    assert notes == ["root q = 3.900959604987482 dropped: the e_k include a complex pair"]


def test_general_solver_recovers_degenerate_N2_root():
    # the root q = T[3, 3] = 4.25, where the bottom end of the minors (once
    # the K relation) divides by zero, is a case of both solvers
    closed, _ = _matches_general(q_candidates_N2, N2_DRAW, 2)
    assert len(closed) == 2
    assert min(abs(c.params.q - 4.25) for c in closed) < 1e-9


def test_general_solver_no_solution():
    cases, notes = _with_notes(solve_reduction_general, *N1_NO_ROOT, 1)
    assert cases == []
    assert len(notes) == 2


def test_general_solver_rejects_invalid_draw():
    # gamma+epsilon = alpha+beta-1-N lands on 0: forbidden for every q
    with pytest.raises(ValidationError):
        solve_reduction_general(2.0, 0.5, 1.5, 0.7, 1)


def _guard_draw(rng):
    """(a, alpha, beta, gamma) in [-3, 3], with one of: a on 0 or 1, alpha
    or beta on a non-positive integer, or alpha+beta on an integer, which
    puts gamma+epsilon = alpha+beta-N-1 on a non-positive integer at every
    N >= alpha+beta-1."""
    a, alpha, beta, gamma = (rng.uniform(-3.0, 3.0) for _ in range(4))
    kind = rng.randrange(5)
    if kind == 0:
        a = float(rng.randrange(2))
    elif kind == 1:
        alpha = float(-rng.randrange(4))
    elif kind == 2:
        beta = float(-rng.randrange(4))
    elif kind == 3:
        beta = rng.randrange(-2, 5) - alpha
    return a, alpha, beta, gamma


def test_every_order_validates_its_draw():
    # validity is a property of the order-N draw, not of q: solve raises
    # ValidationError exactly where the draw has an issue, whatever its
    # q-roots, and otherwise accounts for every root
    rng = random.Random(31)
    for _ in range(200):
        a, alpha, beta, gamma = draw = _guard_draw(rng)
        for n_case in range(5):
            de = n_case + 2.0
            p = HeunParams(a=a, q=0.0, alpha=alpha, beta=beta, gamma=gamma, delta=de,
                           epsilon=1.0 + alpha + beta - gamma - de)
            if collect_issues(p):
                with pytest.raises(ValidationError):
                    solve(*draw, n_case)
            else:
                cases, notes = solve(*draw, n_case)
                assert len(cases) + len(notes) == n_case + 1, (draw, n_case)


# the reduce-sweep benchmark's panel draw at seed 1
PANEL_DRAW = (2.1539588706302815, -0.07290833992181946, -1.4725033248918347,
              1.5176724071367766)


def _fifty_row_defect(case):
    p = case.params
    return residual_rows(p, two_term_coefficients(p, case.e_list, 50))[2:].max()


@pytest.mark.parametrize("n_case", range(9))
def test_general_solver_accounts_for_every_root(n_case):
    # one eigen solve: each of the N+1 roots is a case or one note
    cases, notes = _with_notes(solve_reduction_general, *N2_DRAW, n_case)
    assert len(cases) + len(notes) == n_case + 1
    assert all(" dropped: " in note for note in notes)
    qs = [c.params.q for c in cases]
    assert qs == sorted(qs)
    for case in cases:
        assert _fifty_row_defect(case) <= GENERAL_TOL
    if n_case == 2:
        assert min(abs(q - 4.25) for q in qs) < 1e-9   # q = T[3, 3]
    if n_case == 4:
        assert min(abs(q - 20.084068) for q in qs) < 1e-5


@pytest.mark.parametrize("solver, draw, n_case, complex_notes", [
    (q_candidates_N1, N1_DRAW, 1, 0),
    (q_candidates_N1, N1_NO_ROOT, 1, 2),
    (q_candidates_N1, N1_REPEAT, 1, 0),
    (q_candidates_N2, N2_DRAW, 2, 0),
    (q_candidates_N2, N2_COMPLEX, 2, 2),
], ids=["N1_DRAW", "N1_NO_ROOT", "N1_REPEAT", "N2_DRAW", "N2_COMPLEX"])
def test_closed_forms_account_for_every_root(solver, draw, n_case, complex_notes):
    # each of the N+1 roots is a case or one note, as in the eigen solver
    cases, notes = _with_notes(solver, *draw)
    assert len(cases) + len(notes) == n_case + 1
    assert all(" dropped: " in note for note in notes)
    assert sum("dropped: q is complex" in note for note in notes) == complex_notes


def test_general_solver_on_the_panel_draw():
    cases, _ = solve(*PANEL_DRAW, 3)
    assert [round(c.params.q, 3) for c in cases] == [26.871, 41.8]
    for case in cases:
        assert _fifty_row_defect(case) <= GENERAL_TOL

    cases, reasons = solve(*PANEL_DRAW, 6)
    assert cases == []
    assert len(reasons) == 7
    ill = [r for r in reasons if "ill-conditioned" in r]
    assert len(ill) == 2
    for reason in ill:
        defect = float(re.search(r"defect (\S+) >", reason).group(1))
        assert defect > GENERAL_TOL


def _solve_root_by_root(a, alpha, beta, gamma, n_case, notes):
    """solve_reduction_general with one np.roots call per real q-root: the
    reference the batched companion eigvals must reproduce to the bit."""
    draw = _draw(a, alpha, beta, gamma, n_case)
    big_a, big_b = _pencil(draw, n_case)
    qs, vecs = np.linalg.eig(np.linalg.solve(big_b, big_a))
    cases = []
    real = np.abs(qs.imag) <= 1e-9 * (1.0 + np.abs(qs.real))
    for j in np.flatnonzero(~real):
        _drop(notes, complex(qs[j]), "q is complex")
    for idx, j in enumerate(sorted(np.flatnonzero(real), key=lambda j: qs[j].real)):
        q = float(qs[j].real)
        x = vecs[:, j] / vecs[np.argmax(np.abs(vecs[:, j])), j]
        es = -(np.roots(x.real[::-1]) + (n_case + 2) / 2.0)
        if len(es) < n_case:
            _drop(notes, q, "an e_k is infinite")
            continue
        if not np.any(np.abs(es.imag) > 1e-9 * (1.0 + np.abs(es.real))):
            q, es, _, _ = _kernels.newton_general(a, alpha, beta, gamma, n_case, q, es.real)
        _accept(draw, float(q), es, idx, GENERAL_TOL, cases, notes)
    return cases


def _box_draw(seed):
    """(a, alpha, beta, gamma) from the benchmark's box: a in +-[1.5, 3],
    the rest in [-3, 3]."""
    rng = random.Random(seed)
    a = rng.choice((-1.0, 1.0)) * rng.uniform(1.5, 3.0)
    return (a, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))


def _outcome(solver, draw, n_case):
    notes = []
    try:
        cases = solver(*draw, n_case, notes)
    except HeunxError as exc:
        return repr(exc), notes
    return repr([(c.params.q, c.e_list, c.report) for c in cases]), notes


@pytest.mark.parametrize("n_case", range(9))
def test_general_solver_matches_root_by_root_reference(n_case):
    # every case (q, e_list, report) and every note, to the bit
    for draw in [PANEL_DRAW, N2_DRAW] + [_box_draw(seed) for seed in range(100)]:
        assert (_outcome(solve_reduction_general, draw, n_case)
                == _outcome(_solve_root_by_root, draw, n_case))
