"""Command-line surface: reduce, coeffs, eval, verify, residual.

Exit codes: 0 success, 2 invalid input, 3 no solution or failed
verification, 4 internal numerical failure. Output is byte-deterministic
for a fixed input file and argument list: JSON is emitted with sorted keys,
floats carry full repr precision, and a float that is not finite is null.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .errors import (DivisionByZeroError, DomainError, NonConvergenceError,
                     NumericalError, PoleError, PreconditionError,
                     SingularPointError, ValidationError)
from .evaluator import (certified_points, check_disk, check_interior,
                        evaluate_points, evaluation_table, forced_residual,
                        homogeneous_residual)
from .oracle import cross_check
from .params import (check_order, load_params_file, params_to_dict,
                     require_valid)
from .recurrence import (CoefficientSource, json_float, recurrence_residual,
                         stream_to_csv, stream_to_json,
                         three_term_coefficients, two_term_coefficients)
from .reduction import (A_TOP_TOL, STREAM_ROWS, VERIFY_TOL, ReductionCase,
                        case_to_dict, solve, verify_reduction)
from .special import EvalStatus, SeriesControl

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_SOLUTION = 3
EXIT_NUMERICAL = 4

# verify's gates; each is printed as its check's "tol"
RECURRENCE_TOL = 1e-10
ODE_TOL = 1e-7
CROSS_TOL = 1e-7

_SOURCES = {
    "closed": CoefficientSource.GAMMA_CLOSED_FORM,
    "ratio": CoefficientSource.TWO_TERM_RATIO,
    "three-term": CoefficientSource.THREE_TERM,
}


def _null_non_finite(obj):
    if isinstance(obj, dict):
        return {k: _null_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(_null_non_finite(obj), sort_keys=True, indent=2,
                                allow_nan=False) + "\n")


def _parse_floats(text: str) -> list:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(float(tok))
        except ValueError:
            raise PreconditionError(f"not a number: {tok!r}") from None
        if not math.isfinite(out[-1]):
            raise PreconditionError(f"not a finite number: {tok!r}")
    return out


def _z_points(ns, a: float, *, interior: bool) -> list:
    """The --z list, each point checked by the evaluator's domain rules."""
    zs = _parse_floats(ns.z)
    if not zs:
        raise PreconditionError("--z must list at least one point")
    for z in zs:
        check_disk(z)
        if interior:
            check_interior(z, a)
    return zs


def cmd_reduce(ns) -> int:
    n_case = ns.n
    if n_case < 0:
        raise PreconditionError("--n must be non-negative")
    de = float(n_case + 2)
    # q is solved for; a file without delta takes the one N implies
    p0 = load_params_file(ns.params, optional={"q": 0.0, "delta": de})
    check_order(p0, n_case)
    ep_expected = 1.0 + p0.alpha + p0.beta - p0.gamma - de
    if abs(p0.epsilon - ep_expected) > 1e-9:
        raise PreconditionError(
            f"epsilon = {p0.epsilon!r} violates the exponent-sum relation at "
            f"delta = {de!r} (expected {ep_expected!r})")

    cases, notes = solve(p0.a, p0.alpha, p0.beta, p0.gamma, n_case)

    if ns.format == "csv":
        lines = ["N,q_root_index,q,e,passed"]
        for case in cases:
            e_txt = ";".join(repr(e) for e in case.e_list)
            lines.append(f"{case.N},{case.q_root_index},{case.params.q!r},"
                         f"{e_txt},{case.report.passed}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        payload = {
            "cases": [case_to_dict(c) for c in cases],
            "notes": notes,
            "tolerances": {"verify_tol": VERIFY_TOL, "a_top_tol": A_TOP_TOL},
        }
        _print_json(payload)
    return EXIT_OK if cases else EXIT_NO_SOLUTION


def cmd_coeffs(ns) -> int:
    p = require_valid(load_params_file(ns.params))
    es = _parse_floats(ns.e)
    if ns.n_max < 0:
        raise PreconditionError("--n-max must be non-negative")
    source = _SOURCES[ns.source]
    if source == CoefficientSource.THREE_TERM:
        if es:
            raise PreconditionError("--e does not apply to the three-term source")
        stream = three_term_coefficients(p, ns.n_max)
    else:
        stream = two_term_coefficients(p, es, ns.n_max, source=source)
    writer = stream_to_json if ns.format == "json" else stream_to_csv
    sys.stdout.write(writer(stream))
    return EXIT_OK


def _build_case(ns) -> ReductionCase:
    p = load_params_file(ns.params)
    es = _parse_floats(ns.e)
    return ReductionCase.build(p, es)


def _joint_status(status) -> str:
    """One status for a row of u, u' and u'': Converged when all three are."""
    if all(s == EvalStatus.CONVERGED for s in status):
        return EvalStatus.CONVERGED.value
    return EvalStatus.MAX_TERMS_REACHED.value


def cmd_eval(ns) -> int:
    case = _build_case(ns)
    zs = _z_points(ns, case.params.a, interior=False)
    ctl = SeriesControl(rel_tol=ns.rel_tol)   # checked for CSV too; only JSON reads it
    if ns.format == "json":
        # the bytes of json.dumps({"rows": [...], "tolerances": {...}},
        # sort_keys=True, indent=2) + "\n" from one row template: with an
        # indent the stdlib json runs its pure-Python encoder, not the C one
        row = ('    {\n      "ddu": %r,\n      "du": %r,\n      "residual": %s,\n'
               '      "status": "%s",\n      "terms_used": %d,\n      "u": %r,\n'
               '      "z": %r\n    }')
        rows = ",\n".join(
            row % (ev.ddu, ev.du, json_float(homogeneous_residual(case, ev)),
                   _joint_status(ev.status), ev.terms_used, ev.u, ev.z)
            for ev in evaluate_points(case, zs, ctl))
        sys.stdout.write('{\n  "rows": [\n' + rows + '\n  ],\n  "tolerances": {\n'
                         '    "rel_tol": ' + json.dumps(ctl.rel_tol) + "\n  }\n}\n")
    else:
        sys.stdout.write(evaluation_table(case, zs))
    return EXIT_OK


def cmd_residual(ns) -> int:
    case = _build_case(ns)
    zs = _z_points(ns, case.params.a, interior=True)
    rows = [(ev.z, homogeneous_residual(case, ev), forced_residual(case, ev))
            for ev in evaluate_points(case, zs)]
    if ns.format == "json":
        _print_json({"rows": [{"z": z, "residual": r, "forced_residual": f}
                              for z, r, f in rows]})
    else:
        sys.stdout.write("z,residual,forced_residual\n" + "".join(
            f"{z!r},{r!r},{f!r}\n" for z, r, f in rows))
    return EXIT_OK


def cmd_verify(ns) -> int:
    p = require_valid(load_params_file(ns.params))
    es = _parse_floats(ns.e)
    zs = _z_points(ns, p.a, interior=True)

    rec_value = recurrence_residual(two_term_coefficients(p, es, STREAM_ROWS))
    rec_ok = rec_value <= RECURRENCE_TOL

    report = verify_reduction(p, es)
    checks = {
        "recurrence_residual": {"value": rec_value, "tol": RECURRENCE_TOL,
                                "passed": rec_ok},
        "collocation": {"passed": report.passed, "tol": VERIFY_TOL,
                        "a_top_gap": report.a_top_gap,
                        "stream_defect": report.stream_defect,
                        "values": list(report.identity_values)},
    }

    if report.passed:
        case = ReductionCase.build(p, es, report=report)
        # one form pass for the points, the origin (its u normalises
        # cross_check) and the form's z-free certificate
        (origin, *evs), certificate = certified_points(case, (0.0, *zs))
        ode_values = [homogeneous_residual(case, ev) for ev in evs]
        cross_value = cross_check(case, evs, origin.u)
        forced = [forced_residual(case, ev) for ev in evs]
        checks["ode_residual"] = {"values": ode_values, "tol": ODE_TOL,
                                  "passed": max(ode_values) <= ODE_TOL}
        checks["cross_check"] = {"value": cross_value, "tol": CROSS_TOL,
                                 "passed": cross_value <= CROSS_TOL}
        checks["forced_residual"] = {"values": forced, "gating": False}
        checks["form_certificate"] = {"value": certificate, "gating": False}
    else:
        checks["ode_residual"] = {"values": [], "tol": ODE_TOL,
                                  "passed": False, "skipped": True}
        checks["cross_check"] = {"value": None, "tol": CROSS_TOL,
                                 "passed": False, "skipped": True}

    passed = bool(rec_ok and report.passed and checks["ode_residual"]["passed"]
                  and checks["cross_check"]["passed"])
    _print_json({"passed": passed, "checks": checks,
                 "z": zs, "e": es,
                 "params": params_to_dict(p)})
    return EXIT_OK if passed else EXIT_NO_SOLUTION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heunx",
        description="Two-term reductions of the general Heun recurrence: "
                    "search, coefficient tables, evaluation, certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--params", required=True,
                        help="JSON file with the equation parameters")
        sp.add_argument("--e", default="",
                        help="comma-separated e_1..e_N (empty for N=0)")

    sp = sub.add_parser("reduce", help="find (q, e_1..e_N) reduction cases")
    sp.add_argument("--params", required=True)
    sp.add_argument("--n", type=int, required=True, help="reduction order N")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("coeffs", help="coefficient table c_0..c_nmax")
    common(sp)
    sp.add_argument("--n-max", type=int, default=50)
    sp.add_argument("--source", choices=tuple(_SOURCES), default="closed")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_coeffs)

    sp = sub.add_parser("eval", help="u, u', u'' and residual on a z grid")
    common(sp)
    sp.add_argument("--rel-tol", type=float, default=1e-14,
                    help="relative bound a row's rounding bounds must meet "
                         "for its JSON status to read Converged; no effect "
                         "under --format csv, which has no status column")
    sp.add_argument("--z", required=True, help="comma-separated evaluation points")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("verify", help="full certification of a reduction")
    common(sp)
    sp.add_argument("--z", default="0.1,0.25,0.4")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("residual", help="equation residuals on a z grid")
    common(sp)
    sp.add_argument("--z", required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_residual)
    return parser


def _attach_negative_lists(argv) -> list:
    """`--z -0.5,0.25` as `--z=-0.5,0.25`: argparse reads a token that starts
    with '-' as an option unless the whole token is one number."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--z", "--e") and re.match(r"-\.?\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(_attach_negative_lists(
        sys.argv[1:] if argv is None else argv))
    try:
        return ns.func(ns)
    except (ValidationError, PreconditionError, DomainError, PoleError,
            SingularPointError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except (NonConvergenceError, DivisionByZeroError, NumericalError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
