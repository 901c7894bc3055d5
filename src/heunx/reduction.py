"""Two-term reduction of the three-term recurrence.

Pinning delta = N+2 and placing the accessory parameter q on a root of the
degree-(N+1) condition det(qI - T), for an explicit tridiagonal T built from
the ODE (tests/tridiagonal.py), lets the coefficient ratio c_n/c_{n-1}
factor through N auxiliary shifts e_1..e_N. The residual of the factored
ansatz against the recurrence is itself a polynomial in the index n of
degree N+1, so vanishing at N+2 collocation points certifies the reduction
without any symbolic algebra. That its leading coefficient is 2+N-delta,
independently of q and the e_k, and that its n^(N+2) coefficient vanishes
(the degree claim) are facts of the algebra, not checks of a case, so only
the tests take those differences (acceptance criterion 3).

The closed form of N <= 2 (_closed_form) takes q from the roots of
det(qI - T) and the e_k from the minors of qI - T (_p_polynomial). The
identity is bilinear in q and in the coefficients of P(n) = prod_k (e_k + n),
so solve_reduction_general, for larger N, takes every q-root from one eigen
solve, independently of T. Roots of larger N are ill-conditioned in double,
so the certificate also checks the three-term relation on 50 coefficients.
Every solver first validates its draw once (_draw), before any root is
sought: no invariant reads q, so an invalid draw raises ValidationError at
every N, and each root's params are the draw with its q. The closed forms of
N <= 2 and the eigen solver hand every real root, with its e_k, to one
acceptance routine, _accept, which alone drops a complex e-pair and a
near-repeat, so each of the N+1 roots comes back as a case or as one
"root q = ... dropped: <reason>" note. solve picks the solver for an order.

verify_reduction runs once per accepted root and once per case a command
builds. On its handful of nodes a numpy call costs more than its
arithmetic, so it takes identity_terms once per node over Python floats.
Its 50-row stream defect comes from the kernels behind the residual column
of `coeffs` (_kernels.two_term_ratio_stream, _kernels.recurrence_residual_rows),
both under the one np.errstate of the certificate.
_polish is Horner's rule over floats, with np.polyval's bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import NumericalError, PreconditionError
from .params import (HeunParams, ValidatedHeunParams, check_order,
                     is_nonpos_int, require_valid)
from .recurrence import termination_index

VERIFY_TOL = 1e-10      # identity values (over summand scale) and 50-row defect
STREAM_ROWS = 50        # ratio-stream rows c_0..c_50 the certificate checks
# from N = 3 on, _accept returns a root only a decade inside VERIFY_TOL:
# rounding alone moves an ill-conditioned root's defect by a decade, so at
# VERIFY_TOL the returned set would change with the last bit of the input
GENERAL_TOL = VERIFY_TOL * 0.1
_PROBE_POINT = 0.3074202960516803  # off-grid, non-integer collocation point


@dataclass(frozen=True)
class ConstraintReport:
    collocation_points: tuple
    identity_values: tuple
    stream_defect: float
    failed: tuple       # each failed check as the certificate error names it

    @property
    def passed(self) -> bool:
        return not self.failed


def verify_reduction(p: HeunParams, e_list=()) -> ConstraintReport:
    """The reduction certificate.

    Evaluates the identity once, at n = 1..N+3 plus one off-grid
    non-integer point, and checks each value against VERIFY_TOL times the
    local summand scale (floored at 1). Also takes the largest scale-free
    three-term defect of the ratio stream c_0..c_50
    (_kernels.two_term_ratio_stream and _kernels.recurrence_residual_rows,
    as `coeffs` takes its residual column), the quantity `verify` reports as
    its recurrence residual; inf when a row is NaN or inf, as it is where
    the stream leaves the floats or divides by zero at a non-positive
    integer e_k.
    Passes iff both hold: every identity value finite and within its bound,
    and the defect within VERIFY_TOL; `failed` names each that fails.
    """
    es = tuple(float(e) for e in e_list)
    n_case = len(es)

    # Python floats pass into inf and nan without a warning; an identity
    # past the floats fails below
    nodes = [float(n) for n in range(1, n_case + 4)] + [_PROBE_POINT]
    terms = [_kernels.identity_terms(p.a, p.q, p.alpha, p.beta, p.gamma,
                                     p.delta, p.epsilon, es, n) for n in nodes]
    lhs = [t1 + t2 + t3 for t1, t2, t3 in terms]
    # an inf value passes the bound when its scale is inf too
    colloc_ok = all(math.isfinite(v)
                    and abs(v) <= VERIFY_TOL * max(abs(t1) + abs(t2) + abs(t3), 1.0)
                    for v, (t1, t2, t3) in zip(lhs, terms))
    g = p.gamma + p.epsilon
    with np.errstate(all="ignore"):  # a row past the floats reads as inf below
        c = _kernels.two_term_ratio_stream(g, g - p.alpha, g - p.beta, es,
                                           STREAM_ROWS, termination_index(p))
        rows = _kernels.recurrence_residual_rows(p.a, p.q, p.alpha, p.beta, p.gamma,
                                                 p.delta, p.epsilon, c)
        defect = float(np.max(rows[2:]))  # np.max propagates a NaN
    defect = defect if math.isfinite(defect) else math.inf
    failed = [] if colloc_ok else ["identity values"]
    if defect > VERIFY_TOL:
        failed.append(f"{STREAM_ROWS}-row defect {defect:.2e}")

    return ConstraintReport(
        collocation_points=tuple(nodes),
        identity_values=tuple(lhs),
        stream_defect=defect,
        failed=tuple(failed),
    )


@dataclass(frozen=True)
class ReductionCase:
    """An accepted (q, e_1..e_N) point together with its certificate report.

    Construction validates params (require_valid), stores e_list as a tuple
    of floats and runs verify_reduction, or takes the report of a run the
    caller already made (which must be verify_reduction(params, e_list));
    an instance existing is the certificate that its parameters really
    collapse the recurrence. N is len(e_list).
    """

    params: ValidatedHeunParams
    e_list: tuple
    q_root_index: int = 0
    report: ConstraintReport = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        p = require_valid(self.params)
        es = tuple(float(e) for e in self.e_list)
        check_order(p, len(es))
        for e in es:
            if is_nonpos_int(e):
                raise PreconditionError(f"e = {e!r} is a non-positive integer")
        report = self.report or verify_reduction(p, es)
        if not report.passed:
            raise PreconditionError("verification failed for the proposed "
                                    f"reduction ({', '.join(report.failed)})")
        for name, value in (("params", p), ("e_list", es), ("report", report)):
            object.__setattr__(self, name, value)

    @property
    def N(self) -> int:
        return len(self.e_list)


def _drop(notes: list, q, why: str) -> None:
    """Append the one note of a q-root that yields no case."""
    notes.append(f"root q = {q!r} dropped: {why}")


def _real(es) -> bool:
    """Whether no e_k has an imaginary part above 1e-9 (1 + |its real part|)."""
    return all(abs(e.imag) <= 1e-9 * (1.0 + abs(e.real)) for e in es)


def _accept(draw: ValidatedHeunParams, q: float, es, idx: int,
            cases: list, notes: list) -> None:
    """The one decision on the real q-root q, number idx, with the e_k es
    (complex values allowed). Appends the case at (replace(draw, q=q), es)
    to cases, or one _drop note with the first reason that holds: the e_k
    include a complex pair, q is within 1e-12 of the last case's q (a
    near-repeat), an e_k is a non-positive integer, the 50-row defect exceeds
    the margin of N = len(es) (VERIFY_TOL to N = 2, GENERAL_TOL beyond), or
    another check of the certificate failed."""
    tol = VERIFY_TOL if len(es) <= 2 else GENERAL_TOL
    prev = cases[-1].params.q if cases else None
    if not _real(es):
        _drop(notes, q, "the e_k include a complex pair")
    elif prev is not None and abs(q - prev) <= 1e-12 * (1.0 + abs(prev)):
        _drop(notes, q, f"a near-repeat of root q = {prev!r}")
    elif any(is_nonpos_int(e.real) for e in es):
        _drop(notes, q, "an e_k is a non-positive integer")
    else:
        params, es = replace(draw, q=q), tuple(sorted(float(e.real) for e in es))
        report = verify_reduction(params, es)
        if report.passed and report.stream_defect <= tol:
            cases.append(ReductionCase(params, es, idx, report=report))
        elif report.stream_defect > tol:
            _drop(notes, q, f"ill-conditioned in double ({STREAM_ROWS}-row three-term "
                            f"defect {report.stream_defect:.2e} > {tol:.0e})")
        else:
            _drop(notes, q, f"the certificate failed ({', '.join(report.failed)})")


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


def _draw(a, alpha, beta, gamma, n_case) -> ValidatedHeunParams:
    """The order-N draw at q = 0, the one source of its delta = N+2 and its
    epsilon from the exponent sum; validated, and no invariant reads q."""
    de = float(n_case + 2)
    ep = 1.0 + alpha + beta - gamma - de
    return require_valid(HeunParams(a=a, q=0.0, alpha=alpha, beta=beta,
                                    gamma=gamma, delta=de, epsilon=ep))


def _tridiagonal(draw: HeunParams, n_case: int) -> tuple:
    """The draw's T (tests/tridiagonal.py) over Python floats: T[m, m] for
    m = 1..N+1, at N = 0 a gamma + (alpha-1)(beta-1) to the bit, and
    T[m, m+1] T[m+1, m] for m = 1..N."""
    a, al, be, ga = draw.a, draw.alpha, draw.beta, draw.gamma
    diag = [(al - m) * (be - m) + a * m * ga + m * (m - 1 - n_case) * (1.0 - a)
            for m in range(1, n_case + 2)]
    off = [-(m + 1 - al) * (m + 1 - be) * (m * (1.0 - a) * (n_case + 1 - m))
           for m in range(1, n_case + 1)]
    return diag, off


def _q_polynomial(diag: list, off: list) -> list:
    """The q-condition det(qI - T), monic, coefficients highest first, over
    Python floats by D_m = (q - T[m, m]) D_{m-1} - T[m-1, m] T[m, m-1] D_{m-2};
    NumericalError when a coefficient leaves the floats."""
    prev, cur = [], [1.0]
    for m, d in enumerate(diag):
        nxt = cur + [0.0]
        for k, c in enumerate(cur):
            nxt[k + 1] -= d * c
        for k, c in enumerate(prev):
            nxt[k + 2] -= off[m - 1] * c
        prev, cur = cur, nxt
    if not all(map(math.isfinite, cur)):
        raise NumericalError(f"the order-{len(off)} q-polynomial leaves the floats")
    return cur


def _roots(coeffs: list, name: str) -> tuple:
    """(real, complex): the roots of a monic polynomial of degree at most 3,
    coefficients highest first, the real ones ascending. Up to degree 2 over
    Python floats, the quadratic cancellation-free; the cubic by np.roots.
    NumericalError when a quadratic's discriminant leaves the floats."""
    if len(coeffs) < 3:
        return [-c for c in coeffs[1:]], []
    if len(coeffs) == 4:
        raw = np.roots(coeffs)
        real = np.abs(raw.imag) <= 1e-9 * (1.0 + np.abs(raw.real))
        return sorted(raw.real[real].tolist()), raw[~real].tolist()
    _, b, c = coeffs
    disc = b * b - 4.0 * c
    if not math.isfinite(disc):
        raise NumericalError(f"the {name}-discriminant leaves the floats")
    if disc < 0.0:
        half = math.sqrt(-disc) / 2.0
        return [], [complex(-b / 2.0, -half), complex(-b / 2.0, half)]
    r1 = (-b - math.copysign(math.sqrt(disc), b)) / 2.0
    return sorted((r1, c / r1 if r1 != 0.0 else -b - r1)), []


def _p_polynomial(diag: list, off: list, q: float) -> list:
    """P(n) = prod_k (n + e_k) at the q-root q, highest degree first, from
    the leading principal minors D_m of qI - T: P(n) = sum_m (-1)^m D_m / m!
    n(n-1)...(n-N+m+1). D_N is the top recurrence's, or the bottom end's
    T[N, N+1] T[N+1, N] D_{N-1} / (q - T[N+1, N+1]) from D_{N+1}(q) = 0,
    whichever has the smaller relative first-order rounding bound A_m / |D_m|,
    A_m the minor of |q| I + |T|."""
    n_case = len(off)
    if not n_case:
        return [1.0]
    dets, bounds = [1.0, q - diag[0]], [1.0, abs(q) + abs(diag[0])]
    for m in range(1, n_case):
        dets.append((q - diag[m]) * dets[m] - off[m - 1] * dets[m - 1])
        bounds.append((abs(q) + abs(diag[m])) * bounds[m]
                      + abs(off[m - 1]) * bounds[m - 1])
    gap, below = q - diag[n_case], dets[n_case - 1]
    if gap and below:
        top = bounds[n_case] / abs(dets[n_case]) if dets[n_case] else math.inf
        bottom = (bounds[n_case - 1] / abs(below)
                  + (abs(q) + abs(diag[n_case])) / abs(gap))
        if bottom < top:
            dets[n_case] = off[n_case - 1] * below / gap
    # Horner's rule in the falling factorials: p <- p (n - N + m) + (-1)^m D_m / m!
    p = [1.0]
    for m in range(1, n_case + 1):
        p = [x - (n_case - m) * y for x, y in zip(p + [0.0], [0.0] + p)]
        p[-1] += (-1) ** m * dets[m] / math.factorial(m)
    return p


def _closed_form(a: float, alpha: float, beta: float, gamma: float, n_case: int,
                 notes: list | None = None) -> list:
    """Order-N reductions, N <= 2: q on each root of det(qI - T), polished by
    one Newton step; the e_k the negated roots of P (_p_polynomial). Each of
    the N+1 q-roots is a case within VERIFY_TOL or one note (_accept, _drop)."""
    draw = _draw(a, alpha, beta, gamma, n_case)
    notes = [] if notes is None else notes
    diag, off = _tridiagonal(draw, n_case)
    coeffs = _q_polynomial(diag, off)
    real, pairs = _roots(coeffs, f"order-{n_case} q")
    for r in pairs:
        _drop(notes, complex(r), "q is complex")
    cases = []
    for idx, q in enumerate(_polish(coeffs, r) for r in real):
        roots, pairs = _roots(_p_polynomial(diag, off, q), f"order-{n_case} e")
        _accept(draw, q, [-r for r in roots + pairs], idx, cases, notes)
    return cases


def q_candidates_N0(a: float, alpha: float, beta: float, gamma: float,
                    notes: list | None = None) -> list:
    """The order-0 reduction at q = a gamma + (alpha-1)(beta-1) (_closed_form)."""
    return _closed_form(a, alpha, beta, gamma, 0, notes)


def q_candidates_N1(a: float, alpha: float, beta: float, gamma: float,
                    notes: list | None = None) -> list:
    """Order-1 reductions, q on a root of a quadratic (_closed_form)."""
    return _closed_form(a, alpha, beta, gamma, 1, notes)


def q_candidates_N2(a: float, alpha: float, beta: float, gamma: float,
                    notes: list | None = None) -> list:
    """Order-2 reductions, q on a root of a cubic (_closed_form)."""
    return _closed_form(a, alpha, beta, gamma, 2, notes)


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


@np.errstate(over="ignore", invalid="ignore")   # checked pencil, certified roots
def solve_reduction_general(a: float, alpha: float, beta: float, gamma: float,
                            n_case: int, notes: list | None = None) -> list:
    """Every order-N reduction, from one generalized eigenproblem.

    The N+1 eigenvalues of the pencil (_pencil) are the q-roots. The e_k of
    a real one are the negated roots of its eigenvector's polynomial, those
    of all real roots from one _kernels.companion_roots call; when they are
    real, _kernels.newton_general polishes (q, e). Each real root with N
    finite e_k goes to _accept, at its margin for N. Returns the cases,
    sorted by q; every other root gets one note in notes with its reason:
    complex q, an infinite e_k, or the one _accept gives. A pencil past the
    floats raises NumericalError, from N = 162 on before it is built.
    """
    if n_case < 0:
        raise PreconditionError("reduction order N must be non-negative")
    draw = _draw(a, alpha, beta, gamma, n_case)
    notes = [] if notes is None else notes
    leaves = f"the order-{n_case} pencil leaves the floats"
    # B holds (N/2 + 1)^N, past the floats from N = 162 on for every draw:
    # such an order raises before its three (N+1)^2 blocks are allocated
    if n_case * math.log1p(n_case / 2.0) > math.log(sys.float_info.max):
        raise NumericalError(leaves)
    big_a, big_b = _pencil(draw, n_case)
    if not (np.isfinite(big_a).all() and np.isfinite(big_b).all()):
        raise NumericalError(leaves)
    qs, vecs = np.linalg.eig(np.linalg.solve(big_b, big_a))
    real = np.abs(qs.imag) <= 1e-9 * (1.0 + np.abs(qs.real))
    for j in np.flatnonzero(~real):
        _drop(notes, complex(qs[j]), "q is complex")
    order = sorted(np.flatnonzero(real), key=lambda j: qs[j].real)
    # each eigenvector scaled by its largest entry, all columns at once
    xs = vecs[:, order] / vecs[np.argmax(np.abs(vecs[:, order]), axis=0), order]
    after_q = (draw.alpha, draw.beta, draw.gamma, draw.delta, draw.epsilon)
    cases = []
    for idx, (j, roots) in enumerate(zip(order, _kernels.companion_roots(xs.real[::-1].T))):
        q, es = float(qs[j].real), (-(roots + (n_case + 2) / 2.0)).tolist()
        if len(es) < n_case:
            _drop(notes, q, "an e_k is infinite")
            continue
        if _real(es):
            q, es, _, _ = _kernels.newton_general(draw.a, q, *after_q,
                                                  [e.real for e in es])
            es = es.tolist()
        _accept(draw, float(q), es, idx, cases, notes)
    return cases


def solve(a: float, alpha: float, beta: float, gamma: float, n_case: int) -> tuple:
    """(cases, notes): every order-N reduction of the draw and one note per
    q-root that gave none, so len(cases) + len(notes) == N + 1.

    N <= 2 takes its closed form, every other order
    solve_reduction_general. The solvers are looked up when called, so a
    wrapper bound over their names sees the call.
    """
    notes = []
    if n_case in (0, 1, 2):
        closed = (q_candidates_N0, q_candidates_N1, q_candidates_N2)[n_case]
        return closed(a, alpha, beta, gamma, notes), notes
    return solve_reduction_general(a, alpha, beta, gamma, n_case, notes), notes
