"""Three-term recurrence coefficients and the two generation routes."""

import json

import numpy as np
import pytest

import heunx._kernels
import heunx.cli
from conftest import coeff_p
from heunx import (CoefficientSource, CoefficientStream, DivisionByZeroError,
                   HeunParams, PoleError, PreconditionError, ValidatedHeunParams,
                   params_to_dict, q_candidates_N0, q_candidates_N2,
                   residual_rows, solve_reduction_general,
                   stream_to_csv, termination_index, three_term_coefficients,
                   two_term_coefficients)
from heunx._kernels import _relation_rows, coeff_q, coeff_r
from heunx.recurrence import NO_TERMINATION

ANCHOR = ValidatedHeunParams(a=2.0, q=4.0, alpha=3.0, beta=2.0, gamma=1.0,
                             delta=2.0, epsilon=3.0)


def _args(p):
    """The parameters of p in the order the coefficient kernels take them."""
    return tuple(params_to_dict(p).values())


def test_coefficient_values_at_anchor():
    a, ga, ep = ANCHOR.a, ANCHOR.gamma, ANCHOR.epsilon
    assert [coeff_r(n, a, ga, ep) for n in (0.0, 1.0, 2.0)] == [0.0, -4.0, -10.0]
    assert [coeff_q(n, *_args(ANCHOR)) for n in (0.0, 1.0)] == [2.0, 12.0]
    # rows n = 2 and 3 of the relation carry P_0 and P_1
    _, _, p, gone = _relation_rows(np.array([2.0, 3.0]), *_args(ANCHOR))
    assert p[0] == -3.0
    assert p[1] == pytest.approx(-9.6, rel=1e-15)
    assert not gone.any()


def test_coeff_P_vanishing_denominator():
    # raw record: gamma+epsilon = -2 makes the P denominator vanish at n = 2
    raw = HeunParams(a=2.0, q=1.0, alpha=1.5, beta=0.5, gamma=0.5,
                     delta=5.5, epsilon=-2.5)
    _, _, _, gone = _relation_rows(np.arange(2.0, 7.0), *_args(raw))
    assert gone.tolist() == [False, False, True, False, False]


def test_three_term_stream_vanishing_denominator():
    # raw record: gamma+epsilon = -1 makes P_1 divide by zero in the stream
    raw = HeunParams(a=2.0, q=1.0, alpha=1.5, beta=0.5, gamma=0.5,
                     delta=4.5, epsilon=-1.5)
    with pytest.raises(DivisionByZeroError):
        three_term_coefficients(raw, 10)


def test_three_term_anchor_stream():
    stream = three_term_coefficients(ANCHOR, 5)
    want = [1.0, 0.5, 0.3, 0.2, 1.0 / 7.0, 3.0 / 28.0]
    assert stream.values == pytest.approx(want, rel=1e-13)
    assert stream.source is CoefficientSource.THREE_TERM


def test_three_term_zero_length():
    stream = three_term_coefficients(ANCHOR, 0)
    assert list(stream.values) == [1.0]


def test_three_term_rejects_negative_length():
    with pytest.raises(PreconditionError):
        three_term_coefficients(ANCHOR, -1)


def test_two_term_routes_agree_deep():
    ratio = two_term_coefficients(ANCHOR, (), 200)
    closed = two_term_coefficients(ANCHOR, (), 200,
                                   CoefficientSource.GAMMA_CLOSED_FORM)
    assert ratio.values == pytest.approx(closed.values, rel=1e-12)


def test_two_term_matches_three_term():
    direct = three_term_coefficients(ANCHOR, 50).values
    factored = two_term_coefficients(ANCHOR, (), 50).values
    assert factored == pytest.approx(direct, rel=1e-12)


def test_two_term_routes_agree_with_e_near_zero():
    # e_2 = -1.35e-4: forming e - 1 + n instead of e + (n - 1) loses 8e-13
    # of e_2 at n = 1, and the two routes then disagree past 1e-13
    case = [c for c in q_candidates_N2(0.6317536469329017, 2.943804914661989,
                                       2.7004071345721563, -2.745901025658621)
            if abs(c.e_list[1]) < 1e-3][0]
    assert case.e_list[1] == pytest.approx(-1.35e-4, rel=0.01)
    two_term_coefficients(case.params, case.e_list, 50)   # checks the routes agree


def test_two_term_rejects_pole_e():
    with pytest.raises(PoleError):
        two_term_coefficients(ANCHOR, (-1.0,), 5)


def test_two_term_rejects_three_term_source():
    with pytest.raises(PreconditionError):
        two_term_coefficients(ANCHOR, (), 5, CoefficientSource.THREE_TERM)


def test_recurrence_residual_small_for_generated_streams():
    assert residual_rows(three_term_coefficients(ANCHOR, 50))[2:].max() < 1e-13
    assert residual_rows(two_term_coefficients(ANCHOR, (), 50))[2:].max() < 1e-12


def test_recurrence_residual_detects_perturbation():
    stream = three_term_coefficients(ANCHOR, 10)
    values = np.array(stream.values, copy=True)
    values[3] *= 1.0 + 1e-3
    bad = CoefficientStream(values, stream.source, stream.params)
    assert residual_rows(bad)[2:].max() > 1e-5


def test_residual_rows_shape_and_padding():
    rows = residual_rows(three_term_coefficients(ANCHOR, 6))
    assert rows.shape == (7,)
    assert rows[0] == 0.0 and rows[1] == 0.0


def test_anchor_stream_decays():
    values = three_term_coefficients(ANCHOR, 50).values
    assert abs(values[50]) < abs(values[5])


def test_backward_direction_region():
    # a = 1.2 puts the parasitic ratio at 6, forcing the normalized backward run
    case = q_candidates_N0(1.2, 2.2, 1.3, 0.7)[0]
    direct = three_term_coefficients(case.params, 50).values
    factored = two_term_coefficients(case.params, (), 50).values
    assert direct == pytest.approx(factored, rel=1e-11)
    assert residual_rows(three_term_coefficients(case.params, 50))[2:].max() < 1e-11


def test_terminating_stream_has_exact_zeros():
    # beta = 2 at order 2 zeroes the ratio factor from n = 2 onward
    cases = q_candidates_N2(2.0, 2.5, 2.0, 0.6)
    assert cases
    p = cases[0].params
    assert termination_index(p) == 2
    for stream in (three_term_coefficients(p, 10),
                   two_term_coefficients(p, cases[0].e_list, 10)):
        assert all(v == 0.0 for v in stream.values[2:])
        assert stream.values[1] != 0.0


def test_terminating_backward_stream_splits_at_interior_P_zero():
    # a = 3 runs the backward recursion; the stream ends at n0 = 4 and
    # epsilon = -1 zeroes P_1 below the seed, so the lower block is forward
    cases = solve_reduction_general(3.0, 2.5, 1.0, 0.5, 3)
    case, = [c for c in cases if abs(c.params.q - 8.802775637731992) < 1e-9]
    p = case.params
    assert (termination_index(p), p.epsilon) == (4, -1.0)
    direct = three_term_coefficients(p, 50).values
    factored = two_term_coefficients(p, case.e_list, 50).values
    assert np.max(np.abs(direct - factored)) <= 1e-12 * np.max(np.abs(factored))
    assert all(v == 0.0 for v in direct[4:])


def test_no_termination_for_anchor():
    assert termination_index(ANCHOR) == NO_TERMINATION


def test_stream_csv_shape():
    text = stream_to_csv(three_term_coefficients(ANCHOR, 4))
    lines = text.strip().split("\n")
    assert lines[0] == "n,c_n,ratio,residual"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1.0"
    assert first[2] == "nan" and first[3] == "nan"
    row2 = lines[3].split(",")
    assert float(row2[2]) == pytest.approx(0.6, rel=1e-13)


def _ratio_stream_by_rows(g, x1, x2, es, nmax, n0):
    c = np.zeros(nmax + 1)
    c[0] = 1.0
    for n in range(1, min(nmax, n0 - 1) + 1):
        r = (x1 + (n - 1.0)) * (x2 + (n - 1.0)) / ((g + (n - 1.0)) * n)
        for e in es:
            r *= (e + n) / (e + (n - 1.0))
        c[n] = c[n - 1] * r
    return c


def _residual_rows_by_rows(p, values):
    rows = np.zeros(len(values))
    for n in range(2, len(values)):
        t1 = coeff_r(float(n), p.a, p.gamma, p.epsilon) * values[n]
        t2 = coeff_q(n - 1.0, *_args(p)) * values[n - 1]
        t3 = coeff_p(n - 2.0, *_args(p)) * values[n - 2]
        rows[n] = abs(t1 + t2 + t3) / (abs(t1) + abs(t2) + abs(t3) + 1e-300)
    return rows


def test_residual_rows_past_the_float_range(tmp_path, capsys):
    # forward recursion (|a/(a-1)| = 12/11) takes c_n to 1.3e299 at n = 8079;
    # from n = 8072 on |t1|+|t2|+|t3| leaves the floats and the plain formula
    # reads 0.0, so those rows must be the ones with c times 2^-64; a
    # RuntimeWarning on the way fails the test (pyproject.toml)
    full = {"a": 12.0, "q": 0.5, "alpha": 0.3, "beta": 0.7, "gamma": 1.2,
            "delta": 0.4, "epsilon": 0.4}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(full))
    code = heunx.cli.main(["coeffs", "--params", str(path), "--source",
                           "three-term", "--n-max", "8079"])
    lines = capsys.readouterr().out.splitlines()[1:]
    rows = np.array([float(line.split(",")[3]) for line in lines])
    p = HeunParams(**full)
    values = three_term_coefficients(p, 8079).values.tolist()
    plain = _residual_rows_by_rows(p, values)
    scaled = _residual_rows_by_rows(p, [c * 2.0 ** -64 for c in values])
    assert code == 0 and len(rows) == 8080
    assert np.array_equal(rows[2:8072], plain[2:8072])
    assert not plain[8072:].any()
    assert np.array_equal(rows[8072:], scaled[8072:])
    assert (rows[8074], rows[8079]) == (4.3195369138962623e-17, 2.795032353709283e-17)


def test_vectorised_stream_kernels_match_row_loops():
    # same arithmetic per row, so equal to the bit; includes a terminating
    # case, whose P factor is snapped to an exact zero
    terminating = q_candidates_N0(2.0, 1.0, 2.4, 0.8)[0]
    cases = [terminating] + q_candidates_N2(2.0, 2.5, 1.7, 0.6)[:1] + [
        q_candidates_N0(*draw)[0] for draw in
        np.random.default_rng(5).uniform(-3.0, 3.0, size=(20, 4))
        if abs(draw[0] - 1.0) > 0.05]
    for case in cases:
        p, es = case.params, np.asarray(case.e_list, dtype=np.float64)
        g = p.gamma + p.epsilon
        args = (g, g - p.alpha, g - p.beta, es, 60, termination_index(p))
        stream = heunx._kernels.two_term_ratio_stream(*args)
        assert np.array_equal(stream, _ratio_stream_by_rows(*args))
        rows = heunx._kernels.recurrence_residual_rows(
            p.a, p.q, p.alpha, p.beta, p.gamma, p.delta, p.epsilon, stream)
        assert np.array_equal(rows, _residual_rows_by_rows(p, stream))
