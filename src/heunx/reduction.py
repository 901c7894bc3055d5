"""Two-term reduction of the three-term recurrence.

Pinning delta = N+2 and placing the accessory parameter q on a root of a
degree-(N+1) polynomial condition lets the coefficient ratio c_n/c_{n-1}
factor through N auxiliary shifts e_1..e_N. The residual of the factored
ansatz against the recurrence is itself a polynomial in the index n of
degree N+1, so vanishing at N+2 collocation points certifies the reduction
without any symbolic algebra. The leading coefficient of that polynomial
is 2+N-delta independently of q and the e_k, which gives a second, free
cross-check: verify_reduction reports it as a_top and gates its gap at
A_TOP_TOL. That the n^(N+2) coefficient vanishes (the degree claim) is a
fact of the algebra, not a check of a case, so only the tests take that
difference (acceptance criterion 3).

The identity is bilinear in q and in the coefficients of
P(n) = prod_k (e_k + n), so solve_reduction_general takes every q-root from
one eigen solve. Roots of larger N are ill-conditioned in double, so the
certificate also checks the three-term relation on the first 50 coefficients.
The closed forms of N <= 2 and the eigen solver hand every real root to one
acceptance routine, _accept, so each of the N+1 roots comes back as a case
or as one "root q = ... dropped: <reason>" note. solve picks the solver for
an order and returns both lists.

verify_reduction runs once per accepted root and once per case a command
builds, on a handful of nodes and 50 rows, where a numpy call costs more
than its arithmetic. So it runs over Python floats, with the bits of the
array kernels: identity_terms once per node, and the stream defect as one
scalar kernel (_kernels.stream_defect). _polish is Horner's rule over
floats, with np.polyval's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import PreconditionError
from .params import (HeunParams, ValidatedHeunParams, check_order,
                     is_nonpos_int, require_valid)
from .recurrence import termination_index

VERIFY_TOL = 1e-9       # collocation pass threshold, relative to summand scale
A_TOP_TOL = 1e-8        # leading-coefficient agreement with 2+N-delta
STREAM_ROWS = 50        # ratio-stream rows c_0..c_50 the certificate checks
# the general solver returns a root only two decades inside VERIFY_TOL:
# rounding alone moves an ill-conditioned root's defect by a decade, so at
# VERIFY_TOL the returned set would change with the last bit of the input
GENERAL_TOL = VERIFY_TOL * 1e-2
_PROBE_POINT = 0.3074202960516803  # off-grid, non-integer collocation point


def _forward_difference(values, order: int) -> float:
    """Delta^order values[0] / order!: the n^order coefficient of a
    polynomial sampled at n = 0..order."""
    acc = 0.0
    for k in range(order + 1):
        acc += (-1.0) ** (order - k) * math.comb(order, k) * values[k]
    return float(acc / math.factorial(order))


@dataclass(frozen=True)
class ConstraintReport:
    collocation_points: tuple
    identity_values: tuple
    a_top: float
    a_top_gap: float
    stream_defect: float
    failed: tuple       # each failed check as the certificate error names it

    @property
    def passed(self) -> bool:
        return not self.failed


def verify_reduction(p: HeunParams, e_list=()) -> ConstraintReport:
    """The reduction certificate.

    Evaluates the identity once, at n = 0..N+3 plus one off-grid
    non-integer point. The values at n = 1..N+3 and at that point are each
    checked against VERIFY_TOL times the local summand scale (floored at
    1). The values at n = 0..N+1 give the forward-difference leading
    coefficient a_top, reported with how far it sits from its closed form
    2+N-delta. Also takes the largest scale-free three-term defect of the
    ratio stream c_0..c_50 (_kernels.stream_defect), the quantity `verify`
    reports as its recurrence residual; inf when the stream leaves the
    floats, as it does at a non-positive integer e_k.
    Passes iff all three hold: every identity value finite and within its
    bound, the gap within A_TOP_TOL and the defect within VERIFY_TOL;
    `failed` names the others.
    """
    es = tuple(float(e) for e in e_list)
    n_case = len(es)

    # Python floats pass into inf and nan without a warning; an identity
    # past the floats fails below
    nodes = [float(n) for n in range(n_case + 4)] + [_PROBE_POINT]
    terms = [_kernels.identity_terms(p.a, p.q, p.alpha, p.beta, p.gamma,
                                     p.delta, p.epsilon, es, n) for n in nodes]
    lhs = [t1 + t2 + t3 for t1, t2, t3 in terms]
    # an inf value passes the bound when its scale is inf too
    colloc_ok = all(math.isfinite(v)
                    and abs(v) <= VERIFY_TOL * max(abs(t1) + abs(t2) + abs(t3), 1.0)
                    for v, (t1, t2, t3) in zip(lhs[1:], terms[1:]))
    a_top = _forward_difference(lhs, n_case + 1)
    a_top_gap = abs(a_top - (2.0 + n_case - p.delta))
    defect = _kernels.stream_defect(p.a, p.q, p.alpha, p.beta, p.gamma, p.delta,
                                    p.epsilon, es, STREAM_ROWS, termination_index(p))
    # a name is formatted only for a check that fails
    checks = (("identity values", colloc_ok),
              ("A_top gap {0:.2e}", a_top_gap <= A_TOP_TOL),
              ("{2}-row defect {1:.2e}", defect <= VERIFY_TOL))

    return ConstraintReport(
        collocation_points=tuple(nodes[1:]),
        identity_values=tuple(lhs[1:]),
        a_top=a_top,
        a_top_gap=a_top_gap,
        stream_defect=defect,
        failed=tuple(name.format(a_top_gap, defect, STREAM_ROWS)
                     for name, ok in checks if not ok),
    )


@dataclass(frozen=True)
class ReductionCase:
    """An accepted (q, e_1..e_N) point together with its certificate report.

    Construction runs verify_reduction, or takes the report of a run the
    caller already made (which must be verify_reduction(params, e_list));
    an instance existing is the certificate that its parameters really
    collapse the recurrence.
    """

    N: int
    params: ValidatedHeunParams
    e_list: tuple
    q_root_index: int
    report: ConstraintReport = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        p = self.params
        check_order(p, self.N)
        if len(self.e_list) != self.N:
            raise PreconditionError("e_list length must equal N")
        for e in self.e_list:
            if is_nonpos_int(e):
                raise PreconditionError(f"e = {e!r} is a non-positive integer")
        report = self.report or verify_reduction(p, self.e_list)
        if not report.passed:
            raise PreconditionError("verification failed for the proposed "
                                    f"reduction ({', '.join(report.failed)})")
        object.__setattr__(self, "report", report)

    @classmethod
    def build(cls, params: HeunParams, e_list, q_root_index: int = 0,
              report: ConstraintReport = None) -> "ReductionCase":
        p = require_valid(params)
        es = tuple(float(e) for e in e_list)
        return cls(N=len(es), params=p, e_list=es, q_root_index=q_root_index,
                   report=report)


def _drop(notes: list, q, why: str) -> None:
    """Append the one note of a q-root that yields no case."""
    notes.append(f"root q = {q!r} dropped: {why}")


def _accept(params: HeunParams, es: tuple, idx: int, tol: float,
            notes: list) -> list:
    """[the case at (params, es)] when no e_k is a non-positive integer and
    the certificate passes with a 50-row defect of at most tol; else [] and
    one _drop note with the reason."""
    if any(is_nonpos_int(e) for e in es):
        _drop(notes, params.q, "an e_k is a non-positive integer")
        return []
    report = verify_reduction(params, es)
    if report.passed and report.stream_defect <= tol:
        return [ReductionCase.build(params, es, idx, report=report)]
    _drop(notes, params.q, f"ill-conditioned in double ({STREAM_ROWS}-row three-term "
                           f"defect {report.stream_defect:.2e} > {tol:.0e})")
    return []


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
            "A_top": rep.a_top,
            "passed": rep.passed,
        },
    }


def _polish(coeffs, x: float) -> float:
    """One Newton step on the exact polynomial; removes cancellation noise
    left by the root finder on wide-spread coefficients. The value and the
    derivative are each Horner's rule over floats from 0.0, the bits of
    np.polyval and np.polyder."""
    deg = len(coeffs) - 1
    val = der = 0.0
    for k, c in enumerate(coeffs):
        val = val * x + c
        if k < deg:
            der = der * x + c * (deg - k)
    if der == 0.0:
        return x
    return float(x - val / der)


def _build_params(a, q, alpha, beta, gamma, n_case) -> ValidatedHeunParams:
    de = float(n_case + 2)
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


def q_candidates_N0(a: float, alpha: float, beta: float, gamma: float,
                    notes: list | None = None) -> list:
    """The order-0 reduction as a verified case (exactly one, unless it
    fails the certificate and leaves a note in notes)."""
    q = a * gamma + (alpha - 1.0) * (beta - 1.0)
    return _accept(_build_params(a, q, alpha, beta, gamma, 0), (), 0, VERIFY_TOL,
                   [] if notes is None else notes)


def _quadratic_q_coeffs(a, alpha, beta, gamma):
    """Monic quadratic satisfied by q at order 1 (coefficients highest first)."""
    b1 = -(4.0 + a - 3.0 * alpha - 3.0 * beta + 2.0 * alpha * beta + 3.0 * a * gamma)
    b0 = ((alpha - 2.0) * (alpha - 1.0) * (beta - 2.0) * (beta - 1.0)
          + a * (4.0 + 2.0 * a - 4.0 * alpha - 4.0 * beta + 3.0 * alpha * beta) * gamma
          + 2.0 * a * a * gamma * gamma)
    return (1.0, b1, b0)


def _real_quadratic_roots(coeffs, notes: list) -> list:
    """Ascending real roots of a monic quadratic, computed cancellation-free.
    A complex pair, or the upper root of a near-repeat, gets _drop notes."""
    _, b, c = map(float, coeffs)
    disc = b * b - 4.0 * c
    if disc < 0.0:
        for im in (-0.5, 0.5):
            _drop(notes, complex(-b / 2.0, im * math.sqrt(-disc)), "q is complex")
        return []
    s = math.sqrt(disc)
    if b >= 0.0:
        r1 = (-b - s) / 2.0
    else:
        r1 = (-b + s) / 2.0
    r2 = c / r1 if r1 != 0.0 else -b - r1
    roots = sorted((r1, r2))
    if abs(roots[1] - roots[0]) <= 1e-12 * (1.0 + abs(roots[0])):
        _drop(notes, roots[1], f"a near-repeat of root q = {roots[0]!r}")
        return roots[:1]
    return roots


def q_candidates_N1(a: float, alpha: float, beta: float, gamma: float,
                    notes: list | None = None) -> list:
    """Order-1 reductions: quadratic in q, then e_1 linear in q.

    Each of the two q-roots is a case or one note appended to notes
    (_accept, _drop); a draw with no case gives an empty list.
    """
    notes = [] if notes is None else notes
    coeffs = _quadratic_q_coeffs(a, alpha, beta, gamma)
    cases = []
    for idx, q0 in enumerate(_real_quadratic_roots(coeffs, notes)):
        q = _polish(coeffs, q0)
        e1 = _e_sum_rule(a, alpha, beta, gamma, 1, q)
        cases += _accept(_build_params(a, q, alpha, beta, gamma, 1), (e1,), idx,
                         VERIFY_TOL, notes)
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
    return (1.0, c2, c1, c0)


def n2_ratio_divides_by_zero(alpha: float, beta: float) -> bool:
    """True where the order-2 ratio relation divides by (alpha-3)(beta-3) = 0,
    so q_candidates_N2 cannot run and solve_reduction_general must."""
    return abs(alpha - 3.0) < 1e-12 or abs(beta - 3.0) < 1e-12


def q_candidates_N2(a: float, alpha: float, beta: float, gamma: float,
                    notes: list | None = None) -> list:
    """Order-2 reductions: cubic in q, e_1, e_2 from their sum and the
    ratio relation (e_1+1)(e_2+1)/(e_1 e_2).

    Requires alpha != 3, beta != 3 and a != 1 (the ratio relation divides
    by (a-1)(alpha-3)(beta-3)). Each of the three q-roots is a case or one
    note appended to notes (_accept, _drop): a degenerate relation (K = 1)
    is one more reason the closed form cannot certify.
    """
    if n2_ratio_divides_by_zero(alpha, beta):
        raise PreconditionError("order-2 closed form requires alpha != 3 and beta != 3")
    if abs(a - 1.0) < 1e-12:
        raise PreconditionError("order-2 closed form requires a != 1")
    notes = [] if notes is None else notes
    coeffs = _cubic_q_coeffs(a, alpha, beta, gamma)
    raw = np.roots(coeffs)
    real = np.abs(raw.imag) <= 1e-9 * (1.0 + np.abs(raw.real))
    cases, dedup = [], []
    for r in raw[~real]:
        _drop(notes, complex(r), "q is complex")
    for r in sorted(float(r.real) for r in raw[real]):
        if dedup and abs(r - dedup[-1]) <= 1e-10 * (1.0 + abs(r)):
            _drop(notes, r, f"a near-repeat of root q = {dedup[-1]!r}")
        else:
            dedup.append(r)

    for idx, q0 in enumerate(dedup):
        q = _polish(coeffs, q0)
        s = _e_sum_rule(a, alpha, beta, gamma, 2, q)
        k_num = -q + a * (alpha - 3.0) * (beta - 3.0) + 3.0 * a * gamma
        k_den = (a - 1.0) * (alpha - 3.0) * (beta - 3.0)
        k = k_num / k_den
        if abs(k - 1.0) <= 1e-12:
            _drop(notes, q, "the e-product relation degenerates (K = 1)")
            continue
        prod = (s + 1.0) / (k - 1.0)
        disc = s * s - 4.0 * prod
        if disc < 0.0:
            _drop(notes, q, "the e_k include a complex pair")
            continue
        sq = math.sqrt(disc)
        es = ((s - sq) / 2.0, (s + sq) / 2.0)
        cases += _accept(_build_params(a, q, alpha, beta, gamma, 2), es, idx,
                         VERIFY_TOL, notes)
    return cases


def _pencil(p: HeunParams, n_case: int):
    """(A, B) with the collocation identity at n = 1..N+1 equal to (A - q B) x,
    x the coefficients of P(n) = prod_k (e_k + n) in the basis (n - (N+2)/2)^j,
    centred on the nodes. B, the Vandermonde matrix of P(n-1), is nonsingular."""
    nodes = np.arange(1.0, n_case + 2.0)
    # the factors in front of P(n), P(n-1) (at q = 0) and P(n-2)
    factors = _kernels.identity_terms(p.a, p.q, p.alpha, p.beta, p.gamma, p.delta,
                                      p.epsilon, np.empty(0), nodes)
    t = nodes - (n_case + 2) / 2.0
    blocks = [np.vander(t - k, n_case + 1, increasing=True) for k in range(3)]
    return sum(factors[k][:, None] * blocks[k] for k in range(3)), blocks[1]


def solve_reduction_general(a: float, alpha: float, beta: float, gamma: float,
                            n_case: int, notes: list | None = None) -> list:
    """Every order-N reduction, from one generalized eigenproblem.

    The N+1 eigenvalues of the pencil (_pencil) are the q-roots. The e_k of
    a real one are the negated roots of its eigenvector's polynomial, those
    of all real roots from one _kernels.companion_roots call, then (q, e)
    is polished by _kernels.newton_general. Returns, sorted by q, the
    cases whose certificate passes with a 50-row defect of at most
    GENERAL_TOL. Every other root gets one note in notes with its reason:
    complex q, a complex e-pair, a non-positive integer e_k, or
    ill-conditioned in double with its defect.
    """
    if n_case < 0:
        raise PreconditionError("reduction order N must be non-negative")
    notes = [] if notes is None else notes
    big_a, big_b = _pencil(_build_params(a, 0.0, alpha, beta, gamma, n_case), n_case)
    qs, vecs = np.linalg.eig(np.linalg.solve(big_b, big_a))
    cases = []
    real = np.abs(qs.imag) <= 1e-9 * (1.0 + np.abs(qs.real))
    for j in np.flatnonzero(~real):
        _drop(notes, complex(qs[j]), "q is complex")
    order = sorted(np.flatnonzero(real), key=lambda j: qs[j].real)
    # each eigenvector scaled by its largest entry, all columns at once
    xs = vecs[:, order] / vecs[np.argmax(np.abs(vecs[:, order]), axis=0), order]
    e_roots = _kernels.companion_roots(xs.real[::-1].T)
    for idx, (j, roots) in enumerate(zip(order, e_roots)):
        q = float(qs[j].real)
        roots = roots + (n_case + 2) / 2.0
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


def solve(a: float, alpha: float, beta: float, gamma: float, n_case: int) -> tuple:
    """(cases, notes): every order-N reduction of the draw and one note per
    q-root that gave none, so len(cases) + len(notes) == N + 1.

    N <= 2 takes its closed form unless the order-2 ratio relation divides
    by zero; every other order takes solve_reduction_general. The solvers
    are looked up when called, so a wrapper bound over their names sees the
    call.
    """
    notes = []
    if n_case in (0, 1) or (n_case == 2 and not n2_ratio_divides_by_zero(alpha, beta)):
        closed = (q_candidates_N0, q_candidates_N1, q_candidates_N2)[n_case]
        return closed(a, alpha, beta, gamma, notes), notes
    return solve_reduction_general(a, alpha, beta, gamma, n_case, notes), notes
