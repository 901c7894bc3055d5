"""Command-line surface: reduce, coeffs, eval, verify, residual.

Exit codes: 0 success, 2 invalid input, 3 no solution or failed
verification, 4 internal numerical failure. Output is byte-deterministic
for a fixed input file and argument list: JSON is emitted with sorted keys,
floats carry full repr precision, and a float that is not finite is null.

Every table (`reduce --format csv`, `coeffs`, `eval`, `residual`) goes out
through _write_table in one `%` pass: the row template, repeated once per
row, takes every cell from one row-major list. For JSON that gives the
bytes of json.dumps(..., sort_keys=True, indent=2), whose stdlib encoder
walks a dict per row in pure Python whenever indent is set. CSV prints a
non-finite float as its repr (nan).

`main` builds only the subparser its first word names (all five for any
other first word, so top-level help and errors keep their bytes). All five
took about half of an in-process closed-form `reduce` call, one takes about
a quarter of that; the parser is still built on every call, not cached.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .errors import (DivisionByZeroError, DomainError, NonConvergenceError,
                     NumericalError, PoleError, PreconditionError,
                     SingularPointError, ValidationError)
from .evaluator import (EvalStatus, SeriesControl, certified_points,
                        check_disk, check_interior, evaluate_points,
                        forced_residual, homogeneous_residual)
from .oracle import cross_check
from .params import (check_order, load_params_file, params_to_dict,
                     require_valid)
from .recurrence import (CoefficientSource, stream_columns,
                         three_term_coefficients, two_term_coefficients)
from .reduction import (STREAM_ROWS, VERIFY_TOL, ReductionCase,
                        case_to_dict, solve, verify_reduction)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_SOLUTION = 3
EXIT_NUMERICAL = 4

# verify's gates besides VERIFY_TOL; each is printed as its check's "tol"
ODE_TOL = 1e-7
CROSS_TOL = 1e-7

# in the order of `heunx -h`
COMMANDS = ("reduce", "coeffs", "eval", "verify", "residual")

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


def _write_table(fmt: str, cols: dict, **extra) -> None:
    """Print cols, column name -> a float array or a list of ints or strings.
    CSV keeps the given column order. JSON prints the bytes of
    json.dumps({"rows": [{name: cell, ...}, ...], **extra}, sort_keys=True,
    indent=2) + "\n", with null for a non-finite float; CSV has no place
    for extra. A JSON table has at least one row."""
    names = sorted(cols) if fmt == "json" else list(cols)
    size = len(cols[names[0]])
    table = np.column_stack([cols[k] if isinstance(cols[k], np.ndarray)
                             else np.zeros(size) for k in names])
    flat = table.ravel().tolist()   # "%s" of a float is its repr
    for j, k in enumerate(names):   # ints print as 3, not 3.0
        if not isinstance(cols[k], np.ndarray):
            flat[j::len(names)] = cols[k]
    if fmt == "csv":
        text = ",".join(names) + "\n" + (",".join(["%s"] * len(names)) + "\n") * size
    else:
        for i in np.flatnonzero(~np.isfinite(table)).tolist():
            flat[i] = "null"
        row = "    {\n" + ",\n".join(
            '      "%s": %s' % (k, '"%s"' if isinstance(cols[k][0], str) else "%s")
            for k in names) + "\n    }"
        rows = '"rows": [\n' + ",\n".join([row] * size) + "\n  ]"
        doc = json.dumps({"rows": None, **extra}, sort_keys=True, indent=2)
        text = doc.replace('"rows": null', rows, 1) + "\n"
    sys.stdout.write(text % tuple(flat))


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
    # q is solved for; a file without delta takes the one N implies
    p0 = load_params_file(ns.params, optional={"q": 0.0, "delta": n_case + 2.0})
    check_order(p0, n_case)
    require_valid(p0)   # as every full file of its cases is validated

    cases, notes = solve(p0.a, p0.alpha, p0.beta, p0.gamma, n_case)

    if ns.format == "csv":
        _write_table("csv", {"N": [c.N for c in cases],
                             "q_root_index": [c.q_root_index for c in cases],
                             "q": np.array([c.params.q for c in cases]),
                             "e": [";".join(map(repr, c.e_list)) for c in cases],
                             "passed": [c.report.passed for c in cases]})
    else:
        payload = {
            "cases": [case_to_dict(c) for c in cases],
            "notes": notes,
            "tolerances": {"verify_tol": VERIFY_TOL},
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
        values = three_term_coefficients(p, ns.n_max)
    else:
        values = two_term_coefficients(p, es, ns.n_max, source=source)
    c, ratio, resid = stream_columns(p, values)
    _write_table(ns.format, {"n": range(len(c)), "c_n": c, "ratio": ratio,
                             "residual": resid}, source=source.value)
    return EXIT_OK


def cmd_eval(ns) -> int:
    case = ReductionCase(load_params_file(ns.params), _parse_floats(ns.e))
    zs = _z_points(ns, case.params.a, interior=False)
    ctl = SeriesControl(rel_tol=ns.rel_tol)   # checked for CSV too; only JSON reads it
    evs = evaluate_points(case, zs, ctl)
    cols = dict(zip(("z", "u", "du", "ddu", "residual"), np.array(
        [(ev.z, ev.u, ev.du, ev.ddu, homogeneous_residual(case, ev)) for ev in evs]).T))
    cols["terms_used"] = [ev.terms_used for ev in evs]
    if ns.format == "json":   # a row is Converged when u, u' and u'' all are
        done, short = EvalStatus.CONVERGED.value, EvalStatus.MAX_TERMS_REACHED
        cols["status"] = [short.value if short in ev.status else done for ev in evs]
    _write_table(ns.format, cols, tolerances={"rel_tol": ctl.rel_tol})
    return EXIT_OK


def cmd_residual(ns) -> int:
    case = ReductionCase(load_params_file(ns.params), _parse_floats(ns.e))
    zs = _z_points(ns, case.params.a, interior=True)
    evs = evaluate_points(case, zs)
    _write_table(ns.format, {
        "z": np.array([ev.z for ev in evs]),
        "residual": np.array([homogeneous_residual(case, ev) for ev in evs]),
        "forced_residual": np.array([forced_residual(case, ev) for ev in evs])})
    return EXIT_OK


def cmd_verify(ns) -> int:
    p = require_valid(load_params_file(ns.params))
    es = _parse_floats(ns.e)
    zs = _z_points(ns, p.a, interior=True)

    # built first for its checks alone (a pole or order failure exits 2, a
    # ratio/closed-form disagreement 4); the report holds these rows' defect
    two_term_coefficients(p, es, STREAM_ROWS)
    report = verify_reduction(p, es)
    checks = {
        "recurrence_residual": {"value": report.stream_defect, "tol": VERIFY_TOL,
                                "passed": report.stream_defect <= VERIFY_TOL},
        "collocation": {"passed": report.passed, "tol": VERIFY_TOL,
                        "stream_defect": report.stream_defect,
                        "values": list(report.identity_values)},
    }

    if report.passed:
        case = ReductionCase(p, es, report=report)
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

    passed = bool(report.passed and checks["ode_residual"]["passed"]
                  and checks["cross_check"]["passed"])
    _print_json({"passed": passed, "checks": checks,
                 "z": zs, "e": es,
                 "params": params_to_dict(p)})
    return EXIT_OK if passed else EXIT_NO_SOLUTION


def build_parser(command=None) -> argparse.ArgumentParser:
    """heunx's parser, with only `command`'s subparser when it names one of
    COMMANDS, else all five. One subparser takes the metavar listing all
    five, so usage lines keep their bytes; the full build leaves it unset,
    as its errors name the action "command". Each func is the cmd_* bound
    now, so perfbench/tracer.py's rebound wrappers are the ones called."""
    parser = argparse.ArgumentParser(
        prog="heunx",
        description="Two-term reductions of the general Heun recurrence: "
                    "search, coefficient tables, evaluation, certification.")
    names, metavar = COMMANDS, None
    if command in COMMANDS:
        names, metavar = (command,), "{%s}" % ",".join(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def common(sp):
        sp.add_argument("--params", required=True,
                        help="JSON file with the equation parameters")
        sp.add_argument("--e", default="",
                        help="comma-separated e_1..e_N (empty for N=0)")

    if "reduce" in names:
        sp = sub.add_parser("reduce", help="find (q, e_1..e_N) reduction cases")
        sp.add_argument("--params", required=True)
        sp.add_argument("--n", type=int, required=True, help="reduction order N")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.set_defaults(func=cmd_reduce)

    if "coeffs" in names:
        sp = sub.add_parser("coeffs", help="coefficient table c_0..c_nmax")
        common(sp)
        sp.add_argument("--n-max", type=int, default=50)
        sp.add_argument("--source", choices=tuple(_SOURCES), default="closed")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.set_defaults(func=cmd_coeffs)

    if "eval" in names:
        sp = sub.add_parser("eval", help="u, u', u'' and residual on a z grid")
        common(sp)
        sp.add_argument("--rel-tol", type=float, default=1e-14,
                        help="relative bound a row's rounding bounds must meet "
                             "for its JSON status to read Converged; no effect "
                             "under --format csv, which has no status column")
        sp.add_argument("--z", required=True, help="comma-separated evaluation points")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.set_defaults(func=cmd_eval)

    if "verify" in names:
        sp = sub.add_parser("verify", help="full certification of a reduction")
        common(sp)
        sp.add_argument("--z", default="0.1,0.25,0.4")
        sp.set_defaults(func=cmd_verify)

    if "residual" in names:
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
    argv = _attach_negative_lists(sys.argv[1:] if argv is None else argv)
    ns = build_parser(argv[0] if argv else None).parse_args(argv)
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
