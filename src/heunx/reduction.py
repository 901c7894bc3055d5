"""Two-term reduction of the three-term recurrence.

Pinning delta = N+2 and placing the accessory parameter q on a root of a
degree-(N+1) polynomial condition lets the coefficient ratio c_n/c_{n-1}
factor through N auxiliary shifts e_1..e_N. The residual of the factored
ansatz against the recurrence is itself a polynomial in the index n of
degree N+1, so vanishing at N+2 collocation points certifies the reduction
without any symbolic algebra. The leading coefficient of that polynomial
is 2+N-delta independently of q and the e_k, which gives a second, free
cross-check.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import NoSolutionError, PreconditionError
from .params import (HeunParams, ValidatedHeunParams, is_nonpos_int,
                     require_valid)

VERIFY_TOL = 1e-9       # collocation pass threshold, relative to summand scale
A_TOP_TOL = 1e-8        # leading-coefficient agreement with 2+N-delta
DEDUP_TOL = 1e-8        # two solutions within this are the same root
NEWTON_TOL = 1e-12
NEWTON_MAXIT = 60
MAX_SEEDS = 200
_PROBE_SEED = 1729      # fixed seed: the off-grid probe point is reproducible


class NoRealRootWarning(UserWarning):
    """The q-condition has fewer real roots than its degree."""


class DegenerateConstraintWarning(UserWarning):
    """The e-product relation degenerates (K = 1); root skipped."""


class DiscardedRootWarning(UserWarning):
    """A real q-root was dropped: complex or forbidden-integer e_k."""


def identity_lhs(p: HeunParams, e_list, n: float) -> float:
    """Residual polynomial of the factored-ratio ansatz at (possibly real) n.

    Zero at n = 1..N+2 (equivalently: identically) exactly when (q, e_list)
    realizes a two-term reduction of the recurrence for p.
    """
    es = np.asarray([float(e) for e in e_list], dtype=np.float64)
    return _kernels.identity_lhs_k(p.a, p.q, p.alpha, p.beta, p.gamma,
                                   p.delta, p.epsilon, es, float(n))


def identity_scale(p: HeunParams, e_list, n: float) -> float:
    """Sum of the magnitudes of the three summands; the natural local scale."""
    es = np.asarray([float(e) for e in e_list], dtype=np.float64)
    t1, t2, t3 = _kernels.identity_terms(p.a, p.q, p.alpha, p.beta, p.gamma,
                                         p.delta, p.epsilon, es, float(n))
    return abs(t1) + abs(t2) + abs(t3)


def delta_for_reduction(n_case: int) -> float:
    """The exponent value delta = N+2 that every order-N reduction requires."""
    if n_case < 0:
        raise PreconditionError("reduction order N must be non-negative")
    return float(n_case + 2)


def leading_difference(p: HeunParams, e_list, order: int) -> float:
    """Forward-difference estimate of the n^order coefficient of identity_lhs.

    Exact for polynomials of degree <= order when sampled at n = 0..order.
    """
    acc = 0.0
    for k in range(order + 1):
        acc += (-1.0) ** (order - k) * math.comb(order, k) * identity_lhs(p, e_list, k)
    return acc / math.factorial(order)


def degree_claim_defect(p: HeunParams, e_list) -> tuple:
    """(|Delta^{N+2} identity_lhs(0)|, node scale): the n^{N+2} coefficient
    vanishes identically, so the first entry is float noise for valid params."""
    order = len(e_list) + 2
    defect = abs(leading_difference(p, e_list, order)) * math.factorial(order)
    scale = max(identity_scale(p, e_list, k) for k in range(order + 1))
    return defect, scale


@dataclass(frozen=True)
class ConstraintReport:
    collocation_points: tuple
    identity_values: tuple
    extracted_A: tuple
    passed: bool
    tolerance_used: float
    a_top_gap: float


def _probe_point() -> float:
    rng = np.random.default_rng(_PROBE_SEED)
    while True:
        x = float(rng.uniform(0.0, 10.0))
        if abs(x - round(x)) > 1e-3:
            return x


def verify_reduction(p: HeunParams, e_list=()) -> ConstraintReport:
    """Collocation check of the reduction identity.

    Evaluates identity_lhs at n = 1..N+3 plus one off-grid non-integer
    point; passes iff every value is below VERIFY_TOL times the local
    summand scale (floored at 1). Also fits the full coefficient vector
    A_0..A_{N+1} on integer nodes and reports how far the forward-difference
    leading coefficient sits from its closed form 2+N-delta.
    """
    es = tuple(float(e) for e in e_list)
    n_case = len(es)

    points = [float(k) for k in range(1, n_case + 4)]
    points.append(_probe_point())
    values = [identity_lhs(p, es, n) for n in points]
    passed = all(
        abs(v) <= VERIFY_TOL * max(identity_scale(p, es, n), 1.0)
        for v, n in zip(values, points)
    )

    # full coefficient vector from the exact-degree Vandermonde fit
    nodes = np.arange(n_case + 2, dtype=np.float64)
    vand = np.vander(nodes, n_case + 2, increasing=True)
    samples = np.array([identity_lhs(p, es, n) for n in nodes])
    coeffs = np.linalg.solve(vand, samples)

    a_top = leading_difference(p, es, n_case + 1)
    a_top_gap = abs(a_top - (2.0 + n_case - p.delta))

    return ConstraintReport(
        collocation_points=tuple(points),
        identity_values=tuple(float(v) for v in values),
        extracted_A=tuple(float(c) for c in coeffs),
        passed=passed,
        tolerance_used=VERIFY_TOL,
        a_top_gap=float(a_top_gap),
    )


@dataclass(frozen=True)
class ReductionCase:
    """An accepted (q, e_1..e_N) point together with its derived ansatz data.

    Construction re-runs the collocation verifier; an instance existing is
    the certificate that its parameters really collapse the recurrence.
    """

    N: int
    params: ValidatedHeunParams
    e_list: tuple
    ansatz_upper: tuple = field(init=False)
    ansatz_lower: tuple = field(init=False)
    q_root_index: int
    report: ConstraintReport = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        p = self.params
        if abs(p.delta - (self.N + 2)) > 1e-12:
            raise PreconditionError(
                f"delta = {p.delta!r} does not equal N+2 = {self.N + 2}")
        if len(self.e_list) != self.N:
            raise PreconditionError("e_list length must equal N")
        for e in self.e_list:
            if is_nonpos_int(e):
                raise PreconditionError(f"e = {e!r} is a non-positive integer")
        g = p.gamma + p.epsilon
        upper = tuple(1.0 + e for e in self.e_list) + (g - p.alpha, g - p.beta)
        object.__setattr__(self, "ansatz_upper", upper)
        object.__setattr__(self, "ansatz_lower", tuple(self.e_list) + (g,))
        report = verify_reduction(p, self.e_list)
        if not report.passed or report.a_top_gap > A_TOP_TOL:
            raise PreconditionError(
                "collocation verification failed for the proposed reduction")
        object.__setattr__(self, "report", report)

    @classmethod
    def build(cls, params: HeunParams, e_list, q_root_index: int = 0) -> "ReductionCase":
        p = require_valid(params)
        es = tuple(float(e) for e in e_list)
        return cls(N=len(es), params=p, e_list=es, q_root_index=q_root_index)


def case_to_dict(case: ReductionCase) -> dict:
    """JSON-ready view of a case: {N, q, e, q_root_index, report}."""
    rep = case.report
    return {
        "N": case.N,
        "q": case.params.q,
        "e": list(case.e_list),
        "q_root_index": case.q_root_index,
        "report": {
            "points": list(rep.collocation_points),
            "values": list(rep.identity_values),
            "A_top": rep.extracted_A[-1],
            "passed": rep.passed,
        },
    }


def _polish(coeffs, x: float) -> float:
    """One Newton step on the exact polynomial; removes cancellation noise
    left by the root finder on wide-spread coefficients."""
    val = np.polyval(coeffs, x)
    der = np.polyval(np.polyder(coeffs), x)
    if der == 0.0:
        return x
    return float(x - val / der)


def _build_params(a, q, alpha, beta, gamma, n_case) -> ValidatedHeunParams:
    de = delta_for_reduction(n_case)
    ep = 1.0 + alpha + beta - gamma - de
    return require_valid(HeunParams(a=a, q=q, alpha=alpha, beta=beta,
                                    gamma=gamma, delta=de, epsilon=ep))


def _e_sum_rule(a, alpha, beta, gamma, n_case, q) -> float:
    """Sum of the e values of an accepted order-N case, linear in q.

    Specializes to the order-0 q pin (empty sum), the order-1 e_1 value and
    the order-2 sum relation; self-certified order-3 solutions satisfy it too.
    """
    return (-q + a * (n_case + gamma) - 0.5 * n_case * (n_case + 1.0)
            + (alpha - 1.0) * (beta - 1.0))


def q_for_N0(a: float, alpha: float, beta: float, gamma: float) -> float:
    """The single order-0 accessory value q = a*gamma + (alpha-1)(beta-1)."""
    return a * gamma + (alpha - 1.0) * (beta - 1.0)


def q_candidates_N0(a: float, alpha: float, beta: float, gamma: float) -> list:
    """The order-0 reduction as a verified case (always exactly one)."""
    q = q_for_N0(a, alpha, beta, gamma)
    params = _build_params(a, q, alpha, beta, gamma, 0)
    return [ReductionCase.build(params, (), q_root_index=0)]


def _quadratic_q_coeffs(a, alpha, beta, gamma):
    """Monic quadratic satisfied by q at order 1 (coefficients highest first)."""
    b1 = -(4.0 + a - 3.0 * alpha - 3.0 * beta + 2.0 * alpha * beta + 3.0 * a * gamma)
    b0 = ((alpha - 2.0) * (alpha - 1.0) * (beta - 2.0) * (beta - 1.0)
          + a * (4.0 + 2.0 * a - 4.0 * alpha - 4.0 * beta + 3.0 * alpha * beta) * gamma
          + 2.0 * a * a * gamma * gamma)
    return np.array([1.0, b1, b0])


def _real_quadratic_roots(coeffs) -> list:
    """Ascending real roots of a monic quadratic, computed cancellation-free."""
    _, b, c = coeffs
    disc = b * b - 4.0 * c
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    if b >= 0.0:
        r1 = (-b - s) / 2.0
    else:
        r1 = (-b + s) / 2.0
    r2 = c / r1 if r1 != 0.0 else -b - r1
    roots = sorted((r1, r2))
    if abs(roots[1] - roots[0]) <= 1e-12 * (1.0 + abs(roots[0])):
        return [roots[0]]
    return roots


def q_candidates_N1(a: float, alpha: float, beta: float, gamma: float) -> list:
    """Order-1 reductions: quadratic in q, then e_1 linear in q.

    Roots whose e_1 lands on a non-positive integer are discarded with a
    warning; a negative discriminant is reported as a warning and yields an
    empty list rather than an error.
    """
    coeffs = _quadratic_q_coeffs(a, alpha, beta, gamma)
    roots = _real_quadratic_roots(coeffs)
    if not roots:
        warnings.warn("order-1 q-condition has no real root", NoRealRootWarning)
        return []
    cases = []
    for idx, q0 in enumerate(roots):
        q = _polish(coeffs, q0)
        e1 = _e_sum_rule(a, alpha, beta, gamma, 1, q)
        if is_nonpos_int(e1):
            warnings.warn(f"root q = {q!r} discarded: e_1 = {e1!r} is a "
                          "non-positive integer", DiscardedRootWarning)
            continue
        params = _build_params(a, q, alpha, beta, gamma, 1)
        cases.append(ReductionCase.build(params, (e1,), q_root_index=idx))
    return cases


def _cubic_q_coeffs(a, alpha, beta, gamma):
    """Monic cubic satisfied by q at order 2 (coefficients highest first)."""
    al, be, ga = alpha, beta, gamma
    c2 = -(10.0 + 3.0 * al * (be - 2.0) - 6.0 * be + a * (4.0 + 6.0 * ga))
    c1 = (33.0 - 2.0 * al * (2.0 * be - 5.0) * (3.0 * be - 4.0)
          + be * (11.0 * be - 40.0) + al * al * (11.0 + 3.0 * (be - 4.0) * be)
          + a * a * (4.0 + ga * (18.0 + 11.0 * ga))
          + 2.0 * a * (6.0 - 4.0 * be + 15.0 * ga - 11.0 * be * ga
                       + al * (2.0 * be + 6.0 * be * ga - 11.0 * ga - 4.0)))
    g_inner = (18.0 + 6.0 * a * a + 9.0 * (al - 3.0) * al - 27.0 * be
               + (37.0 - 11.0 * al) * al * be
               + (9.0 + al * (3.0 * al - 11.0)) * be * be
               + a * (9.0 - 9.0 * al - 9.0 * be + 5.0 * al * be))
    c0 = (-(al - 1.0) * (al - 2.0) * (al - 3.0) * (be - 1.0) * (be - 2.0) * (be - 3.0)
          - 2.0 * a * g_inner * ga
          + a * a * (18.0 * al + 18.0 * be - 18.0 - 18.0 * a - 11.0 * al * be) * ga * ga
          - 6.0 * a ** 3 * ga ** 3)
    return np.array([1.0, c2, c1, c0])


def q_candidates_N2(a: float, alpha: float, beta: float, gamma: float) -> list:
    """Order-2 reductions: cubic in q, e_1, e_2 from their sum and the
    ratio relation (e_1+1)(e_2+1)/(e_1 e_2).

    Requires alpha != 3, beta != 3 and a != 1 (the ratio relation divides
    by (a-1)(alpha-3)(beta-3)). Complex q-roots and complex or
    forbidden-integer e-pairs are reported and skipped, never returned.
    """
    if abs(alpha - 3.0) < 1e-12 or abs(beta - 3.0) < 1e-12:
        raise PreconditionError("order-2 closed form requires alpha != 3 and beta != 3")
    if abs(a - 1.0) < 1e-12:
        raise PreconditionError("order-2 closed form requires a != 1")
    coeffs = _cubic_q_coeffs(a, alpha, beta, gamma)
    raw = np.roots(coeffs)
    real_roots = sorted(float(r.real) for r in raw
                        if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real)))
    if len(real_roots) < len(raw):
        warnings.warn(f"{len(raw) - len(real_roots)} complex q-root(s) of the "
                      "order-2 condition skipped", NoRealRootWarning)
    if not real_roots:
        return []
    dedup = [real_roots[0]]
    for r in real_roots[1:]:
        if abs(r - dedup[-1]) > 1e-10 * (1.0 + abs(r)):
            dedup.append(r)

    cases = []
    for idx, q0 in enumerate(dedup):
        q = _polish(coeffs, q0)
        s = _e_sum_rule(a, alpha, beta, gamma, 2, q)
        k_num = -q + a * (alpha - 3.0) * (beta - 3.0) + 3.0 * a * gamma
        k_den = (a - 1.0) * (alpha - 3.0) * (beta - 3.0)
        k = k_num / k_den
        if abs(k - 1.0) <= 1e-12:
            warnings.warn(f"root q = {q!r} skipped: e-product relation "
                          "degenerates (K = 1)", DegenerateConstraintWarning)
            continue
        prod = (s + 1.0) / (k - 1.0)
        disc = s * s - 4.0 * prod
        if disc < 0.0:
            warnings.warn(f"root q = {q!r} skipped: e_1, e_2 form a complex "
                          "pair", DiscardedRootWarning)
            continue
        sq = math.sqrt(disc)
        e1 = (s - sq) / 2.0
        e2 = (s + sq) / 2.0
        if is_nonpos_int(e1) or is_nonpos_int(e2):
            warnings.warn(f"root q = {q!r} skipped: an e_k is a non-positive "
                          "integer", DiscardedRootWarning)
            continue
        params = _build_params(a, q, alpha, beta, gamma, 2)
        cases.append(ReductionCase.build(params, (e1, e2), q_root_index=idx))
    return cases


def _default_seeds(a, alpha, beta, gamma, n_case):
    """Deterministic multi-start grid along the e-sum line.

    Every accepted solution sits on the _e_sum_rule line, so the e seeds are
    symmetric spreads around its center per coarse q; the q offsets are the
    only real exploration axis. A few positive half-integer permutations are
    kept as insurance for basins the centered spreads miss."""
    coeffs = _quadratic_q_coeffs(a, alpha, beta, gamma)
    raw = np.roots(coeffs)
    base_qs = sorted({float(r.real) for r in raw})
    offsets = (0.0, -1.0, 1.0, -3.0, 3.0, -8.0, 8.0)
    spreads = (0.5, 1.5, 3.0)
    seeds = []
    for off in offsets:
        for q0 in base_qs:
            q = q0 + off
            center = _e_sum_rule(a, alpha, beta, gamma, n_case, q) / max(n_case, 1)
            for d in spreads:
                es = tuple(center + d * (i - 0.5 * (n_case - 1))
                           for i in range(n_case))
                seeds.append((q, es))
                if n_case <= 1:
                    break  # a single e is pinned by the sum, spreads repeat it
    half_ints = [k + 0.5 for k in range(n_case + 1)]
    for ep in itertools.permutations(half_ints, n_case):
        for q0 in base_qs:
            seeds.append((q0, ep))
    return seeds[:MAX_SEEDS]


def solve_reduction_general(a: float, alpha: float, beta: float, gamma: float,
                            n_case: int, seed_grid=None) -> list:
    """Order-N reductions by damped Newton on the collocation residuals.

    The unknowns (q, e_1..e_N) must zero identity_lhs at n = 1..N+1; the
    remaining node n = N+2 and the leading coefficient come for free, which
    verify_reduction confirms per survivor. Seeds are deterministic, results
    are deduplicated at 1e-8 and sorted by q, and the search stops once N+1
    distinct solutions (the degree of the q-condition) are in hand.
    """
    if n_case < 0:
        raise PreconditionError("reduction order N must be non-negative")
    _build_params(a, 0.0, alpha, beta, gamma, n_case)  # fail fast on bad draw
    seeds = list(seed_grid) if seed_grid is not None else _default_seeds(
        a, alpha, beta, gamma, n_case)

    found = []  # (q, es_sorted)
    best_resid = math.inf
    for q0, e0 in seeds:
        q, es, resid, ok = _kernels.newton_general(
            a, alpha, beta, gamma, n_case, float(q0),
            np.asarray(e0, dtype=np.float64), NEWTON_TOL, NEWTON_MAXIT)
        best_resid = min(best_resid, resid)
        if not ok:
            continue
        es_sorted = tuple(sorted(float(e) for e in es))
        if any(is_nonpos_int(e) for e in es_sorted):
            continue
        duplicate = False
        for q_seen, es_seen in found:
            gap = abs(q - q_seen)
            for x, y in zip(es_sorted, es_seen):
                gap = max(gap, abs(x - y))
            if gap <= DEDUP_TOL * (1.0 + abs(q_seen)):
                duplicate = True
                break
        if duplicate:
            continue
        report = verify_reduction(
            _build_params(a, q, alpha, beta, gamma, n_case), es_sorted)
        if not report.passed or report.a_top_gap > A_TOP_TOL:
            continue
        found.append((float(q), es_sorted))
        if len(found) >= n_case + 1:
            break

    if not found:
        raise NoSolutionError(
            f"no order-{n_case} reduction found from {len(seeds)} seeds "
            f"(best scaled residual {best_resid:.3e})")
    found.sort(key=lambda item: item[0])
    cases = []
    for idx, (q, es_sorted) in enumerate(found):
        params = _build_params(a, q, alpha, beta, gamma, n_case)
        cases.append(ReductionCase.build(params, es_sorted, q_root_index=idx))
    return cases
