"""The search as a tridiagonal eigenproblem: a test oracle built from the
ODE, not from the recurrence collocation of the N >= 3 eigen solver.

With delta = N+2, t = 1 - z and u = sum_{k=1..N+1} B_k t^-k, the
coefficient of t^-m in w u'' + wp u' + (alpha beta z - q) u + C reads
(T - q I) B = 0 for m = 1..N+1, with the (N+1)x(N+1) tridiagonal T

    T[m, m]   = (2-a) m(m+1) - m (gamma(1-a) + delta(2-a) + epsilon) + alpha beta
    T[m, m+1] = -(m+1-alpha)(m+1-beta)
    T[m+1, m] = m (1-a)(delta-m-1)

so every q-root of the order-N search is an eigenvalue of T, and the t^0
coefficient gives C = (1-alpha)(1-beta) B_1. The leading principal minors
D_m(q) of qI - T also give the e_k, as the negated roots of
P(n) = prod_k (n + e_k) = sum_m (-1)^m D_m(q) / m! n(n-1)...(n-N+m+1).
The entries are built in floats or, from the exact doubles, in
fractions.Fraction; det(qI - T) and the D_m follow from the three-term
determinant recurrence, and sturm_count counts the distinct real roots of
det(qI - T) exactly.

The N <= 2 closed forms take both q and the e_k from the same T in floats
(reduction._closed_form), so for them T is no independent oracle: there
the independent checks are the reduction certificate and criterion 5, the
eigen solver, which works on the recurrence collocation, reproducing every
closed-form case.
"""

import math
from fractions import Fraction

import numpy as np


def entries(a, alpha, beta, gamma, n_case, num=float):
    """(diag, upper, lower) of T: T[m, m] for m = 1..N+1, then T[m, m+1] and
    T[m+1, m] for m = 1..N, in the number type num (float or Fraction)."""
    a, alpha, beta, gamma = map(num, (a, alpha, beta, gamma))
    delta = num(n_case + 2)
    epsilon = 1 + alpha + beta - gamma - delta
    ms = range(1, n_case + 2)
    diag = [(2 - a) * m * (m + 1)
            - m * (gamma * (1 - a) + delta * (2 - a) + epsilon) + alpha * beta
            for m in ms]
    upper = [-(m + 1 - alpha) * (m + 1 - beta) for m in ms[:-1]]
    lower = [m * (1 - a) * (delta - m - 1) for m in ms[:-1]]
    return diag, upper, lower


def matrix(a, alpha, beta, gamma, n_case) -> np.ndarray:
    """T in floats."""
    diag, upper, lower = entries(a, alpha, beta, gamma, n_case)
    return np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)


def _mul_linear(p, c):
    """(q - c) p(q), coefficients lowest degree first."""
    return [-c * p[0]] + [p[k - 1] - c * p[k] for k in range(1, len(p))] + [p[-1]]


def char_poly(a, alpha, beta, gamma, n_case) -> list:
    """det(qI - T) in Fraction, lowest degree first, by
    D_k = (q - T[k, k]) D_{k-1} - T[k-1, k] T[k, k-1] D_{k-2}."""
    diag, upper, lower = entries(a, alpha, beta, gamma, n_case, Fraction)
    prev, cur = [Fraction(1)], _mul_linear([Fraction(1)], diag[0])
    for d, u, l in zip(diag[1:], upper, lower):
        nxt = _mul_linear(cur, d)
        for k, c in enumerate(prev):
            nxt[k] -= u * l * c
        prev, cur = cur, nxt
    return cur


def p_polynomial(a, alpha, beta, gamma, n_case, q) -> list:
    """P(n) = prod_k (n + e_k) of the order-N case at the double q, in
    Fraction, lowest degree first:

        P(n) = sum_m (-1)^m D_m(q) / m! n(n-1)...(n-N+m+1)

    with D_m(q) the leading principal minors of qI - T, by the recurrence of
    char_poly at the exact q."""
    diag, upper, lower = entries(a, alpha, beta, gamma, n_case, Fraction)
    q = Fraction(q)
    dets = [Fraction(1), q - diag[0]]
    for d, u, l in zip(diag[1:], upper, lower):
        dets.append((q - d) * dets[-1] - u * l * dets[-2])
    p, falling = [Fraction(0)] * (n_case + 1), [Fraction(1)]
    for k in range(n_case + 1):     # falling = n(n-1)...(n-k+1)
        m = n_case - k
        for i, c in enumerate(falling):
            p[i] += (-1) ** m * dets[m] / math.factorial(m) * c
        falling = _mul_linear(falling, k)
    return p


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _primitive_rem(p, d):
    """The remainder by d of |lead(d)|^k p, k one per division step, over
    the integers and divided by the gcd of its coefficients: a positive
    multiple of the remainder of p by d."""
    lead = abs(d[-1])
    sign = 1 if d[-1] > 0 else -1
    p = list(p)
    while len(p) >= len(d):
        f, shift = sign * p[-1], len(p) - len(d)
        p = [lead * c for c in p]
        for k, c in enumerate(d):
            p[shift + k] -= f * c
        p = _trim(p[:-1])
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def sturm_count(p) -> int:
    """The number of distinct real roots of the exact polynomial p (lowest
    degree first, Fraction or int coefficients): sign changes of its Sturm
    sequence at -inf minus those at +inf. The sequence is kept over the
    integers; every member is a positive multiple of the textbook one,
    which keeps its signs."""
    den = math.lcm(*(Fraction(c).denominator for c in p))
    p = _trim([int(c * den) for c in p])
    seq = [p, [k * c for k, c in enumerate(p)][1:]]
    while seq[-1]:
        seq.append([-c for c in _primitive_rem(seq[-2], seq[-1])])
    seq = seq[:-1]

    def changes(signs):
        return sum(x != y for x, y in zip(signs, signs[1:]))

    at_plus = [1 if s[-1] > 0 else -1 for s in seq]
    at_minus = [s * (-1) ** (len(poly) - 1) for s, poly in zip(at_plus, seq)]
    return changes(at_minus) - changes(at_plus)
