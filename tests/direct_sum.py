"""The paper's series summed term by term in 50 digits: a reference for the
closed form that shares none of its derivation and calls no heunx kernel."""

import math

import mpmath as mp


def direct_series(case, z):
    """u, u', u'' of u = sum_n c_n 2F1(alpha, beta; g+n; z), g = gamma+epsilon,
    for the case's floats, as mpf values of 50 digits.

    c_0 = 1 and c_n = c_{n-1} (x1-1+n)(x2-1+n)/((g-1+n) n) prod_k
    (e_k+n)/(e_k-1+n) with x1 = g-alpha, x2 = g-beta: the running product of
    the factored ratio. The k-th derivative sums c_n (alpha)_k (beta)_k /
    (g+n)_k 2F1(alpha+k, beta+k; g+n+k; z). The terms fall off only like
    n^-2, so each sum is accelerated by Levin's u-transform (mpmath.nsum,
    method "levin"). The transform assumes terms that have settled into
    that decay, so the head, up to where every e_k-1+n is positive, is
    summed directly. The first Levin estimate is taken 40 terms past the
    head, then one every 10 until two agree to 1e-40. On the form_cases of
    N <= 6 the sums agree with the closed-form derivation (mp_series in
    test_form.py) to 7e-45 at z = 0.3 and 1.3e-41 at z = -0.5. Near z = 1
    the sums slow down and are less sure, so the tests keep z <= 0.3.
    """
    with mp.workdps(50):
        p = case.params
        al, be = mp.mpf(p.alpha), mp.mpf(p.beta)
        g = mp.mpf(p.gamma) + mp.mpf(p.epsilon)
        es = [mp.mpf(e) for e in case.e_list]
        z = mp.mpf(z)
        c = [mp.mpf(1)]

        def coeff(n):
            while len(c) <= n:
                k = len(c)
                r = (g - al - 1 + k) * (g - be - 1 + k) / ((g - 1 + k) * k)
                for e in es:
                    r *= (e + k) / (e - 1 + k)
                c.append(c[-1] * r)
            return c[n]

        head = max(2, 2 - math.floor(min(case.e_list, default=0.0)))

        def series(k):
            def term(n):
                n = int(n)
                return (coeff(n) * mp.rf(al, k) * mp.rf(be, k) / mp.rf(g + n, k)
                        * mp.hyp2f1(al + k, be + k, g + n + k, z))
            # nsum works at about four times the precision; so does the head
            with mp.extraprec(3 * mp.mp.prec):
                first = mp.fsum(term(n) for n in range(head))
            return +(first + mp.nsum(term, [head, mp.inf], method="levin",
                                     steps=[40, 10], tol=mp.mpf(10) ** -40))

        return [series(k) for k in range(3)]
