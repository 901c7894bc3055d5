"""Reduction identity, closed-form q-conditions, and the general solver."""

import random
import re

import numpy as np
import pytest

from conftest import degree_claim_defect, identity_at
from heunx import (HeunParams, PreconditionError, ReductionCase,
                   ValidatedHeunParams, ValidationError, case_to_dict,
                   params_to_dict, q_candidates_N0, q_candidates_N1,
                   q_candidates_N2, residual_rows, solve, solve_reduction_general,
                   two_term_coefficients, verify_reduction)
from heunx import HeunxError, _kernels
from heunx.reduction import (_PROBE_POINT, GENERAL_TOL, _accept, _build_params,
                             _cubic_q_coeffs, _drop, _forward_difference, _pencil,
                             _polish, _quadratic_q_coeffs)

ANCHOR = ValidatedHeunParams(a=2.0, q=4.0, alpha=3.0, beta=2.0, gamma=1.0,
                             delta=2.0, epsilon=3.0)

# order-1 draw whose q-condition has two real roots
N1_DRAW = (2.0, 0.5, 1.7, 0.6)
# order-1 draw with a negative discriminant: no real reduction exists
N1_NO_ROOT = (-0.5, 0.2, 0.1, 2.0)
# order-1 draw whose discriminant is exactly 0: the two roots merge
N1_REPEAT = (-3.0, -1.75, -1.75, -1.5)
# order-2 draw where one root hits the degenerate e-product relation (K = 1)
N2_DRAW = (2.0, 2.5, 1.7, 0.6)
DEGENERATE = "dropped: the e-product relation degenerates (K = 1)"
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
        2.0, 3.0, 3.0, 4.0]
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


def test_N1_roots_satisfy_quadratic():
    cases = q_candidates_N1(*N1_DRAW)
    assert len(cases) == 2
    coeffs = _quadratic_q_coeffs(*N1_DRAW)
    qs = [c.params.q for c in cases]
    assert qs == sorted(qs)
    assert [c.q_root_index for c in cases] == [0, 1]
    for case in cases:
        q = case.params.q
        resid = abs(np.polyval(coeffs, q))
        scale = max(1.0, abs(coeffs[1] * q), abs(coeffs[2]))
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
        for coeffs in (_quadratic_q_coeffs(*draw), _cubic_q_coeffs(*draw)):
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
        ReductionCase.build(p, case.e_list)


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
    a, alpha, beta, gamma = N2_DRAW
    cases, notes = _with_notes(q_candidates_N2, *N2_DRAW)
    assert any(DEGENERATE in note for note in notes)
    assert 1 <= len(cases) <= 3
    coeffs = _cubic_q_coeffs(*N2_DRAW)
    for case in cases:
        q = case.params.q
        resid = abs(np.polyval(coeffs, q))
        scale = max(abs(c) * abs(q) ** (3 - i) for i, c in enumerate(coeffs))
        assert resid <= 1e-9 * max(scale, 1.0)
        e1, e2 = case.e_list
        s = -q + a * (2.0 + gamma) - 3.0 + (alpha - 1.0) * (beta - 1.0)
        k = ((-q + a * (alpha - 3.0) * (beta - 3.0) + 3.0 * a * gamma)
             / ((a - 1.0) * (alpha - 3.0) * (beta - 3.0)))
        assert e1 + e2 == pytest.approx(s, rel=1e-10, abs=1e-10)
        assert (e1 + 1.0) * (e2 + 1.0) / (e1 * e2) == pytest.approx(k, rel=1e-10)


@pytest.mark.parametrize("args", [
    (2.0, 3.0, 1.7, 0.6),   # alpha = 3
    (2.0, 2.5, 3.0, 0.6),   # beta = 3
    (1.0, 2.5, 1.7, 0.6),   # a = 1
])
def test_N2_closed_form_preconditions(args):
    with pytest.raises(PreconditionError):
        q_candidates_N2(*args)


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
        ReductionCase.build(p, ())


def test_case_build_rejects_failed_collocation():
    p = HeunParams(**{**params_to_dict(ANCHOR), "q": 5.0})
    with pytest.raises(PreconditionError, match="verification"):
        ReductionCase.build(p, ())


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
    closed = q_candidates_N1(*N1_DRAW)
    general = solve_reduction_general(*N1_DRAW, 1)
    assert len(general) == len(closed)
    for c, g in zip(closed, general):
        assert g.params.q == pytest.approx(c.params.q, abs=1e-9)
        assert g.e_list == pytest.approx(c.e_list, abs=1e-9)


def test_general_solver_recovers_degenerate_N2_root():
    # the closed form skips the K = 1 root; collocation has no such blind spot
    closed, notes = _with_notes(q_candidates_N2, *N2_DRAW)
    assert any(DEGENERATE in note for note in notes)
    general = solve_reduction_general(*N2_DRAW, 2)
    assert len(general) > len(closed)
    closed_qs = [c.params.q for c in closed]
    general_qs = [c.params.q for c in general]
    for q in closed_qs:
        assert min(abs(q - g) for g in general_qs) < 1e-9
    assert all(c.report.passed for c in general)


def test_general_solver_no_solution():
    cases, notes = _with_notes(solve_reduction_general, *N1_NO_ROOT, 1)
    assert cases == []
    assert len(notes) == 2


def test_general_solver_rejects_invalid_draw():
    # gamma+epsilon = alpha+beta-1-N lands on 0: forbidden for every q
    with pytest.raises(ValidationError):
        solve_reduction_general(2.0, 0.5, 1.5, 0.7, 1)


# the reduce-sweep benchmark's panel draw at seed 1
PANEL_DRAW = (2.1539588706302815, -0.07290833992181946, -1.4725033248918347,
              1.5176724071367766)


def _fifty_row_defect(case):
    return residual_rows(two_term_coefficients(case.params, case.e_list, 50))[2:].max()


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
        assert min(abs(q - 4.25) for q in qs) < 1e-9   # the K = 1 root
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
    big_a, big_b = _pencil(_build_params(a, 0.0, alpha, beta, gamma, n_case), n_case)
    qs, vecs = np.linalg.eig(np.linalg.solve(big_b, big_a))
    cases = []
    real = np.abs(qs.imag) <= 1e-9 * (1.0 + np.abs(qs.real))
    for j in np.flatnonzero(~real):
        _drop(notes, complex(qs[j]), "q is complex")
    for idx, j in enumerate(sorted(np.flatnonzero(real), key=lambda j: qs[j].real)):
        q = float(qs[j].real)
        x = vecs[:, j] / vecs[np.argmax(np.abs(vecs[:, j])), j]
        roots = np.roots(x.real[::-1]) + (n_case + 2) / 2.0
        if len(roots) < n_case:
            _drop(notes, q, "an e_k is infinite")
            continue
        if np.any(np.abs(roots.imag) > 1e-9 * (1.0 + np.abs(roots.real))):
            _drop(notes, q, "the e_k include a complex pair")
            continue
        q, es, _, _ = _kernels.newton_general(a, alpha, beta, gamma, n_case, q, -roots.real)
        q, es = float(q), tuple(sorted(float(e) for e in es))
        cases += _accept(_build_params(a, q, alpha, beta, gamma, n_case), es, idx,
                         GENERAL_TOL, notes)
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
