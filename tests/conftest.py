"""Shared fixtures, the case-draw helpers, and the acceptance
summary hook that prints one pass/fail line per criterion after the run."""

import itertools
import math

import numpy as np
import pytest

try:
    from hypothesis import settings
    settings.register_profile("pkg", deadline=None)
    settings.load_profile("pkg")
except ImportError:
    pass

from heunx import (DivisionByZeroError, PreconditionError, SeriesControl,
                   ValidationError, q_candidates_N0, q_candidates_N1,
                   q_candidates_N2, solve)
from heunx import _kernels
from heunx.evaluator import _sum_all
from heunx.params import INT_SNAP
from heunx.reduction import _forward_difference

ACCEPTANCE_DESCRIPTIONS = {
    1: "N=0 anchor: q=4, c_1=0.5, c_2=0.3 from both routes within 1e-13, < 0.1 s",
    2: "100 random accepted reductions: stream agreement 1e-11 up to n=50, < 5 s",
    3: "degree claim: (N+2)-th difference vanishes; A_top = 2+N-delta within 1e-7",
    4: "ODE residual / oracle cross-check < 1e-7 at interior z; q-sensitivity > 1e-4",
    5: "general solver reproduces N=1,2 closed forms; N=3 self-certified, < 60 s",
    6: "rational degeneration: truncation index found, finite-sum residual < 1e-10",
    7: "kernel sanity: binomial identity, derivative vs FD, Pochhammer composition",
}

_VERDICT_RANK = {"PASS": 0, "FAIL (expected)": 1, "FAIL": 2}
_RESULTS = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    mark = item.get_closest_marker("acceptance")
    if mark is None or rep.when != "call":
        return
    num = mark.args[0]
    if rep.passed:
        status = "PASS"
    elif rep.skipped and hasattr(rep, "wasxfail"):
        status = "FAIL (expected)"
    else:
        status = "FAIL"
    prev = _RESULTS.get(num)
    if prev is None or _VERDICT_RANK[status] > _VERDICT_RANK[prev]:
        _RESULTS[num] = status


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_DESCRIPTIONS):
        if num in _RESULTS:
            terminalreporter.write_line(
                f"criterion {num}: {_RESULTS[num]} - {ACCEPTANCE_DESCRIPTIONS[num]}")


def coeff_p(n, a, q, al, be, ga, de, ep):
    """P_n of the three-term relation for one float n: the scalar reference
    the by-rows fills use, whose bits the P column of
    _kernels._relation_rows must reproduce."""
    g = ep + ga
    f1 = n + g - al
    f2 = n + g - be
    if abs(f1) < INT_SNAP:
        f1 = 0.0
    if abs(f2) < INT_SNAP:
        f2 = 0.0
    if abs(n + g) < 1e-12:
        raise DivisionByZeroError(_kernels._VANISHES.format(n))
    return -a / (n + g) * (n + ep) * f1 * f2


def identity_at(p, es, n):
    """(value, scale) of the reduction identity at n, a real number or an
    array of them: the sum of its three summands (_kernels.identity_terms)
    and the sum of their magnitudes. verify_reduction takes the same at its
    nodes; this reaches any n."""
    t1, t2, t3 = _kernels.identity_terms(p.a, p.q, p.alpha, p.beta, p.gamma,
                                         p.delta, p.epsilon,
                                         np.asarray(es, dtype=np.float64), n)
    return t1 + t2 + t3, abs(t1) + abs(t2) + abs(t3)


def degree_claim_defect(p, es):
    """(|Delta^{N+2} identity(0)|, largest node scale) over n = 0..N+2: the
    n^{N+2} coefficient vanishes identically, so the first entry is float
    noise for any params."""
    order = len(es) + 2
    value, scale = identity_at(p, es, np.arange(order + 1.0))
    defect = abs(_forward_difference(value, order)) * math.factorial(order)
    return defect, float(np.max(scale))


def summation_gaps(case, evs):
    """Per ev of evs, the largest relative gap over u, u', u'' of ev to the
    tail-resummed summation at ev.z, one _sum_all call per point at the
    default SeriesControl: the term-by-term route the closed form is checked
    against. The summation's own cancellation sets its floor (README), and
    with W_m exact to the last bit the largest gaps barely move."""
    ctl = SeriesControl()
    return [float(max(abs(s - x) / max(abs(x), _kernels.TINY)
                      for s, x in zip(_sum_all(case, ev.z, ctl)[:3],
                                      (ev.u, ev.du, ev.ddu))))
            for ev in evs]


def draw_accepted_cases(total, seed=2024, orders=(0, 1, 2)):
    """Deterministic stream of accepted reduction cases with parameters drawn
    uniformly from [-3, 3], skipping draws the validator rejects. The mild
    |a| and |a-1| floors keep the recursion-direction switch well posed."""
    rng = np.random.default_rng(seed)
    cycle = itertools.cycle(orders)
    builders = {0: q_candidates_N0, 1: q_candidates_N1, 2: q_candidates_N2}
    cases = []
    while len(cases) < total:
        n_case = next(cycle)
        a, al, be, ga = rng.uniform(-3.0, 3.0, size=4)
        if abs(a) < 0.05 or abs(a - 1.0) < 0.05:
            continue
        try:
            got = builders[n_case](a, al, be, ga)
        except (ValidationError, PreconditionError):
            continue
        cases.extend(got)
    return cases[:total]


def solve_draw(point, n_case):
    """The accepted order-N cases of (a, alpha, beta, gamma), as `reduce`
    finds them; [] where the solver rejects the draw or finds none."""
    try:
        return solve(*point, n_case)[0]
    except (ValidationError, PreconditionError):
        return []


@pytest.fixture(scope="session")
def anchor_case():
    """The hand-checkable order-0 case (a=2, alpha=3, beta=2, gamma=1)."""
    return q_candidates_N0(2.0, 3.0, 2.0, 1.0)[0]


@pytest.fixture(scope="session")
def random_cases():
    """100 accepted reductions shared by the acceptance criteria 2-4."""
    return draw_accepted_cases(100)


@pytest.fixture(scope="session")
def form_cases():
    """Up to three accepted cases per N = 0..6 from seeded draws (a in
    +-[1.5, 3], alpha, beta, gamma in [-3, 3]), and four terminating ones."""
    rng = np.random.default_rng(5)
    cases = []
    for n_case in range(7):
        found = []
        for _ in range(40):
            a = rng.choice((-1.0, 1.0)) * rng.uniform(1.5, 3.0)
            point = (float(a), *map(float, rng.uniform(-3.0, 3.0, 3)))
            found += solve_draw(point, n_case)
            if len(found) >= 3:
                break
        assert found, f"no N = {n_case} case drawn"
        cases += found[:3]
    # g - beta a non-positive integer: the stream ends at n0 = 1, 1, 2, 4
    for point, n_case in (((2.0, 2.3, 1.0, 0.9), 0), ((2.0, 1.0, 2.4, 0.8), 0),
                          ((2.0, 2.5, 2.0, 0.6), 2), ((3.0, 2.5, 1.0, 0.5), 3)):
        cases += solve_draw(point, n_case)[:1]
    return cases
