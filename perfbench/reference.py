"""Independent 40-digit references for the benchmark's correctness checks.

Nothing here imports heunx. Every quantity is rebuilt in mpmath from the
float parameters the program receives, so a check compares the program with
the mathematics, never with itself:

- `closed_coefficients`: the two-term stream c_n of an accepted reduction,
  as the running product of its factored ratio.
- `three_term_rows`: the scale-free defect of R_n c_n + Q_{n-1} c_{n-1}
  + P_{n-2} c_{n-2}, which vanishes exactly when (q, e) really reduce the
  recurrence.
- `PowerSeries`: u = sum_m b_m z^m about the origin for the constant-forced
  equation that the summed expansion satisfies, with b_0 the (N+2)F(N+1)
  value at 1, b_1 = (q b_0 - C)/(a gamma) and b_{m+1} from the
  collected-power recurrence.

`self_check` runs all three on the exact anchor u = 3/(1-z) before anything
is timed, so a broken reference stops the benchmark instead of being read
as a program error.

Run as a script, the module is a one-shot worker: it reads a pickled list of
(function name, args) from stdin, and writes the pickled list of results to
stdout.
"""

from __future__ import annotations

import math
import pickle
import sys
from dataclasses import dataclass

import mpmath as mp

DPS = 50                # working precision; the references are good to 40
SERIES_TERMS = 1800     # enough for 42 digits of u'' at |z| = 0.9 when N <= 2
ANCHOR_TOL = 1e-35


@dataclass(frozen=True)
class Case:
    """One accepted reduction, in the float values the program sees."""

    a: float
    q: float
    alpha: float
    beta: float
    gamma: float
    e: tuple

    @property
    def n(self) -> int:
        return len(self.e)

    @property
    def delta(self) -> float:
        return float(self.n + 2)

    @property
    def epsilon(self) -> float:
        return 1.0 + self.alpha + self.beta - self.gamma - self.delta

    def params(self) -> dict:
        return {"a": self.a, "q": self.q, "alpha": self.alpha,
                "beta": self.beta, "gamma": self.gamma, "delta": self.delta,
                "epsilon": self.epsilon}


# the exact order-0 reduction a=2, alpha=3, beta=2, gamma=1, q=4: u = 3/(1-z)
ANCHOR = Case(a=2.0, q=4.0, alpha=3.0, beta=2.0, gamma=1.0, e=())


class ReferenceFailure(RuntimeError):
    """The reference failed its own self-check; no program output is judged."""


def _mp_params(case: Case):
    f = mp.mpf
    return (f(case.a), f(case.q), f(case.alpha), f(case.beta), f(case.gamma),
            f(case.delta), f(case.epsilon), [f(e) for e in case.e])


def closed_coefficients(case: Case, n_max: int) -> list:
    """c_0 = 1 and c_n = c_{n-1} (x1-1+n)(x2-1+n)/((g-1+n) n) prod_k (e_k+n)/(e_k-1+n)."""
    with mp.workdps(DPS):
        a, q, al, be, ga, de, ep, es = _mp_params(case)
        g = ga + ep
        x1, x2 = g - al, g - be
        c = [mp.mpf(1)]
        for n in range(1, n_max + 1):
            r = (x1 - 1 + n) * (x2 - 1 + n) / ((g - 1 + n) * n)
            for e in es:
                r *= (e + n) / (e - 1 + n)
            c.append(c[-1] * r)
        return c


def three_term_rows(case: Case, n_max: int) -> list:
    """|R_n c_n + Q_{n-1} c_{n-1} + P_{n-2} c_{n-2}| over the summand scale, n = 2..n_max."""
    c = closed_coefficients(case, n_max)
    with mp.workdps(DPS):
        a, q, al, be, ga, de, ep, _ = _mp_params(case)
        g = ga + ep

        def big_r(n):
            return (1 - a) * n * (ep + ga + n - 1)

        def big_q(n):
            return -big_r(n) + a * (1 + n - de) * (n + ep) + (a * al * be - q)

        def big_p(n):
            return -a / (n + g) * (n + ep) * (n + g - al) * (n + g - be)

        rows = []
        for n in range(2, n_max + 1):
            t1 = big_r(n) * c[n]
            t2 = big_q(n - 1) * c[n - 1]
            t3 = big_p(n - 2) * c[n - 2]
            scale = abs(t1) + abs(t2) + abs(t3)
            rows.append(float(abs(t1 + t2 + t3) / scale) if scale else 0.0)
        return rows


class PowerSeries:
    """Power series about 0 of the constant-forced equation of one case."""

    def __init__(self, case: Case, terms: int = SERIES_TERMS):
        with mp.workdps(DPS):
            a, q, al, be, ga, de, ep, es = _mp_params(case)
            g = ga + ep
            x1, x2 = g - al, g - be
            b0 = mp.hyper([x1, x2] + [e + 1 for e in es], [g] + es, 1)
            _check_b0(b0, x1, x2, g, es)
            forcing = mp.gamma(g) * mp.rgamma(x1) * mp.rgamma(x2)
            for e in es:
                forcing /= e
            b = [b0, (q * b0 - forcing) / (a * ga)]
            c1 = ga * (1 + a) + a * de + ep
            gde = ga + de + ep
            for m in range(1, terms):
                t = ((1 + a) * m * (m - 1) + c1 * m + q) * b[m]
                t -= ((m - 1) * (m - 2) + gde * (m - 1) + al * be) * b[m - 1]
                b.append(t / (a * (m + 1) * (m + ga)))
            self.b = b

    def values(self, z: float) -> tuple:
        """(u, u', u'') at z as mpf, by Horner; raises if not converged."""
        with mp.workdps(DPS):
            zz = mp.mpf(z)
            u = du = half_ddu = mp.mpf(0)
            for bm in reversed(self.b):
                half_ddu = half_ddu * zz + du
                du = du * zz + u
                u = u * zz + bm
            m = len(self.b) - 1
            last = abs(self.b[m]) * m * m * abs(zz) ** (m - 2)
            if last > mp.mpf(10) ** -42 * (abs(u) + abs(du) + abs(half_ddu)):
                raise ReferenceFailure(f"power series not converged at z = {z!r}")
            return u, du, 2 * half_ddu


def _check_b0(b0, x1, x2, g, es) -> None:
    """Re-derive b_0 through Gauss sums: prod_k (1 + n/e_k) expanded in falling
    factorials n(n-1)..(n-j+1), each summing to a 2F1 value at 1."""
    nn = len(es)
    pv = []
    for i in range(nn + 1):
        p = mp.mpf(1)
        for e in es:
            p *= 1 + i / e
        pv.append(p)
    total = mp.mpf(0)
    fact = 1
    for j in range(nn + 1):
        if j:
            fact *= j
            pv = [pv[k + 1] - pv[k] for k in range(len(pv) - 1)]
        d = pv[0] / fact
        total += d * mp.rf(x1, j) * mp.rf(x2, j) / mp.rf(g, j) * mp.hyp2f1(x1 + j, x2 + j, g + j, 1)
    if abs(total - b0) > mp.mpf(10) ** -40 * abs(b0):
        raise ReferenceFailure(f"b_0 by hyper ({mp.nstr(b0, 20)}) and by Gauss sums "
                               f"({mp.nstr(total, 20)}) disagree")


def self_check(grid) -> None:
    """The anchor's series must reproduce u = 3/(1-z) and its derivatives, and
    its coefficients must satisfy the three-term relation."""
    series = PowerSeries(ANCHOR)
    with mp.workdps(DPS):
        for z in grid:
            zz = mp.mpf(z)
            exact = (3 / (1 - zz), 3 / (1 - zz) ** 2, 6 / (1 - zz) ** 3)
            for got, want in zip(series.values(z), exact):
                if abs(got - want) > ANCHOR_TOL * abs(want):
                    raise ReferenceFailure(f"anchor reference off at z = {z!r}")
    if max(three_term_rows(ANCHOR, 50)) > ANCHOR_TOL:
        raise ReferenceFailure("anchor coefficients fail the three-term relation")


def digits(error: float) -> float:
    """-log10 of a relative error, capped at 17 digits."""
    return -math.log10(max(error, 1e-17))


def floored_rel_errors(got, ref, floor_share: float) -> list:
    """|got - ref| / max(|ref|, floor_share * max|ref|) per point, as floats."""
    with mp.workdps(DPS):
        floor = floor_share * max(abs(r) for r in ref)
        return [float(abs(mp.mpf(x) - r) / max(abs(r), floor)) for x, r in zip(got, ref)]


def grid_values(case: Case, grid) -> list:
    """[u, u', u''] of the case's power series, each at every grid point."""
    series = PowerSeries(case)
    return list(zip(*(series.values(z) for z in grid)))


def coefficient_floats(case: Case, n_max: int) -> list:
    """The closed-form c_0..c_{n_max} as floats."""
    return [float(c) for c in closed_coefficients(case, n_max)]


def serve() -> None:
    tasks = pickle.load(sys.stdin.buffer)
    results = [globals()[name](*args) for name, args in tasks]
    pickle.dump(results, sys.stdout.buffer)


if __name__ == "__main__":
    import reference    # pickles name reference.Case, not __main__.Case
    reference.serve()
