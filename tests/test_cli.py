"""Black-box checks of the command-line interface via subprocess, plus one
in-process count of the summations each command makes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heunx._kernels
import heunx.cli
import heunx.evaluator
import heunx.reduction
from heunx import (DivisionByZeroError, EvalStatus, ReductionCase,
                   SeriesControl, evaluate, homogeneous_residual,
                   load_params_file, params_to_dict, q_candidates_N0,
                   q_candidates_N2, residual_rows, solve_reduction_general,
                   stream_to_csv, stream_to_json, three_term_coefficients,
                   two_term_coefficients)

CLI = [sys.executable, "-m", "heunx.cli"]
# the child imports the same heunx as this process, also when pytest put
# src/ on sys.path itself
SRC = os.path.dirname(os.path.dirname(heunx.cli.__file__))

# reduce-style input: q and delta left for the solver
ANCHOR_SEARCH = {"a": 2.0, "alpha": 3.0, "beta": 2.0, "gamma": 1.0, "epsilon": 3.0}
# full record of the anchor reduction
ANCHOR_FULL = {"a": 2.0, "q": 4.0, "alpha": 3.0, "beta": 2.0, "gamma": 1.0,
               "delta": 2.0, "epsilon": 3.0}
# terminating order-0 case (alpha = 1): a genuine homogeneous solution
TERMINATING_FULL = {"a": 2.0, "q": 1.6, "alpha": 1.0, "beta": 2.4, "gamma": 0.8,
                    "delta": 2.0, "epsilon": 1.6}
# the N = 2 bench case, whose e list starts with a minus
N2_FULL = {"a": 2.0, "q": 5.250000000000018, "alpha": 2.5, "beta": 1.7,
           "gamma": 0.6, "delta": 4.0, "epsilon": 0.6000000000000005}
N2_E = "-1.591607978309986,-0.40839202169003186"
# order-1 draw whose q-condition has no real root
NO_ROOT_SEARCH = {"a": -0.5, "alpha": 0.2, "beta": 0.1, "gamma": 2.0,
                  "epsilon": -3.7}
# terminating order-0 case at |a| < 0.17: the oracle's b_0..b_400 leave
# the floats, so its cross-check has no finite value; safe radius 0.045
SMALL_A_FULL = {"a": 0.05, "q": 0.045, "alpha": 2.3, "beta": 1.0, "gamma": 0.9,
                "delta": 2.0, "epsilon": 1.4}
# the anchor at delta = 4 with both e_k at 1e160: the identity overflows
OVERFLOW_E_FULL = {"a": 2.0, "q": 4.0, "alpha": 3.0, "beta": 2.0, "gamma": 1.0,
                   "delta": 4.0, "epsilon": 1.0}
OVERFLOW_E = "1e160,1e160"


def run_cli(*args, env=None, command=CLI):
    merged = dict(os.environ)
    merged["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    if env:
        merged.update(env)
    return subprocess.run(command + list(args), capture_output=True, text=True,
                          env=merged)


def test_import_loads_no_numpy_polynomial():
    # numpy imports numpy.polynomial lazily, in about 12 ms: a heunx module
    # that imported it would add that to the start-up of every command
    code = "import json, sys, heunx.cli; print(json.dumps(list(sys.modules)))"
    out = run_cli("-c", code, command=[sys.executable])
    assert out.returncode == 0, out.stderr
    modules = json.loads(out.stdout)
    assert "heunx.cli" in modules
    assert not [m for m in modules if m.startswith("numpy.polynomial")]


@pytest.fixture
def write_params(tmp_path):
    def write(data, name="p.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


def test_reduce_anchor(write_params):
    path = write_params(ANCHOR_SEARCH)
    out = run_cli("reduce", "--params", path, "--n", "0")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert len(payload["cases"]) == 1
    case = payload["cases"][0]
    assert case["q"] == pytest.approx(4.0, abs=1e-12)
    assert case["report"]["passed"] is True
    assert "verify_tol" in payload["tolerances"]


def test_reduce_is_deterministic(write_params):
    path = write_params(ANCHOR_SEARCH)
    first = run_cli("reduce", "--params", path, "--n", "0")
    second = run_cli("reduce", "--params", path, "--n", "0")
    assert first.stdout == second.stdout


def test_reduce_no_real_root_exits_3(write_params):
    path = write_params(NO_ROOT_SEARCH)
    out = run_cli("reduce", "--params", path, "--n", "1")
    assert out.returncode == 3
    payload = json.loads(out.stdout)
    assert payload["cases"] == []
    assert len(payload["notes"]) == 2
    assert all("q is complex" in note for note in payload["notes"])


@pytest.mark.parametrize("draw, code, notes", [
    # alpha = 3: the eigen solver certifies one case
    ({"a": -1.5, "alpha": 3.0, "beta": 0.4, "gamma": 1.3, "epsilon": -0.9}, 0, 2),
    # the README's search draw at N = 2: every root is noted
    (dict(ANCHOR_SEARCH, epsilon=1.0), 3, 3),
])
def test_reduce_n2_takes_alpha_or_beta_3(write_params, draw, code, notes):
    # the order-2 closed form divides by (alpha-3)(beta-3); these draws go
    # to the eigen solver, as every N >= 3 does
    out = run_cli("reduce", "--params", write_params(draw), "--n", "2")
    assert out.returncode == code
    payload = json.loads(out.stdout)
    assert len(payload["notes"]) == notes
    if code == 0:
        case, = payload["cases"]
        assert case["q"] == pytest.approx(-5.85, rel=1e-12)
        assert case["e"] == pytest.approx([-2.8226039399558567,
                                           -0.47739606004414653], rel=1e-10)
        assert case["report"]["passed"]
    else:
        assert payload["cases"] == []


@pytest.mark.parametrize("draw, n, rows", [
    ({k: v for k, v in N2_FULL.items() if k not in ("q", "delta")}, "2",
     ["2,2,5.250000000000018,-1.591607978309986;-0.40839202169003186,True"]),
    (NO_ROOT_SEARCH, "1", []),
])
def test_reduce_csv_matches_json(write_params, capsys, draw, n, rows):
    # one row per case of the JSON output, e joined by ';'; no case exits 3
    path = write_params(draw)
    code = heunx.cli.main(["reduce", "--params", path, "--n", n, "--format", "csv"])
    assert capsys.readouterr().out == "\n".join(["N,q_root_index,q,e,passed", *rows]) + "\n"
    assert code == (0 if rows else 3)
    assert heunx.cli.main(["reduce", "--params", path, "--n", n]) == code
    cases = json.loads(capsys.readouterr().out)["cases"]
    assert [f"{c['N']},{c['q_root_index']},{c['q']!r},"
            f"{';'.join(map(repr, c['e']))},{c['report']['passed']}"
            for c in cases] == rows


def test_reduce_rejects_unknown_key(write_params):
    path = write_params(dict(ANCHOR_SEARCH, zeta=1.0))
    out = run_cli("reduce", "--params", path, "--n", "0")
    assert out.returncode == 2
    assert "unknown" in out.stderr


def test_reduce_rejects_inconsistent_delta(write_params):
    path = write_params(dict(ANCHOR_SEARCH, delta=2.5))
    out = run_cli("reduce", "--params", path, "--n", "0")
    assert out.returncode == 2
    assert "delta" in out.stderr


def test_coeffs_anchor_table(write_params):
    path = write_params(ANCHOR_FULL)
    out = run_cli("coeffs", "--params", path, "--n-max", "4")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "n,c_n,ratio,residual"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([1.0, 0.5, 0.3, 0.2, 1.0 / 7.0], rel=1e-12)


def test_coeffs_with_e_near_zero(write_params):
    # an N = 2 case with e_2 = -1.35e-4: the two coefficient routes must
    # still agree within 1e-13
    path = write_params({"a": 0.6317536469329017, "q": 0.7199344146470956,
                         "alpha": 2.943804914661989, "beta": 2.7004071345721563,
                         "gamma": -2.745901025658621, "delta": 4.0,
                         "epsilon": 5.390113074892767})
    out = run_cli("coeffs", "--params", path,
                  "--e=-0.8857651725971746,-0.0001351901530796118")
    assert out.returncode == 0, out.stderr


def test_coeffs_pole_e_text(write_params, capsys):
    argv = ["coeffs", "--params", write_params(ANCHOR_FULL), "--e=0"]
    assert heunx.cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: e = 0.0 is a non-positive integer (zero denominator)\n")


@pytest.mark.parametrize("source", ["closed", "ratio"])
def test_coeffs_rejects_e_list_of_another_order(write_params, capsys, source):
    # one e_k makes N = 1, which needs delta = 3; the anchor has delta = 2
    argv = ["coeffs", "--params", write_params(ANCHOR_FULL), "--e", "1.5",
            "--source", source]
    assert heunx.cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: delta = 2.0 does not equal N+2 = 3\n"


def test_coeffs_three_term_rejects_e(write_params):
    path = write_params(ANCHOR_FULL)
    out = run_cli("coeffs", "--params", path, "--source", "three-term",
                  "--e", "0.5")
    assert out.returncode == 2


def test_eval_anchor(write_params):
    path = write_params(ANCHOR_FULL)
    out = run_cli("eval", "--params", path, "--z", "0.25")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "z,u,du,ddu,residual,terms_used"
    assert float(lines[1].split(",")[1]) == pytest.approx(4.0, rel=1e-11)


def test_eval_json_format(write_params):
    path = write_params(ANCHOR_FULL)
    out = run_cli("eval", "--params", path, "--z", "0.1,0.25", "--format", "json")
    payload = json.loads(out.stdout)
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["status"] == "Converged"


def test_eval_json_status_covers_every_order(write_params, monkeypatch, capsys):
    real = heunx.cli.evaluate_points
    worst = (EvalStatus.CONVERGED, EvalStatus.CONVERGED,
             EvalStatus.MAX_TERMS_REACHED)

    def u2_unsettled(*args):
        return [dataclasses.replace(ev, status=worst) for ev in real(*args)]

    path = write_params(ANCHOR_FULL)
    args = ["eval", "--params", path, "--z=0.1,0.25", "--format", "json"]
    monkeypatch.setattr(heunx.cli, "evaluate_points", u2_unsettled)
    assert heunx.cli.main(args) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["status"] for r in rows] == ["MaxTermsReached"] * 2


def test_eval_form_overflow_exits_4(write_params):
    # the N = 0 case of (a, alpha, beta, gamma) = (2, 600, 600, 1): the
    # form's gamma factor K is past the largest float
    path = write_params({"a": 2.0, "q": 358803.0, "alpha": 600.0,
                         "beta": 600.0, "gamma": 1.0, "delta": 2.0,
                         "epsilon": 1198.0})
    out = run_cli("eval", "--params", path, "--z", "0.5")
    assert out.returncode == 4
    assert out.stdout == ""
    assert out.stderr == "error: a gamma factor of the form leaves the floats\n"


@pytest.mark.parametrize("fmt, rel_tol", [
    pytest.param(fmt, rel_tol, id=rel_tol if fmt == "json" else f"{fmt}-{rel_tol}")
    for fmt in ("json", "csv") for rel_tol in ("inf", "nan", "0", "-1")])
def test_eval_rejects_non_finite_rel_tol(write_params, capsys, fmt, rel_tol):
    # JSON has no Infinity or NaN for the tolerances block to print, and the
    # CSV table, which prints no status, takes the same check at its input
    path = write_params(ANCHOR_FULL)
    args = ["eval", "--params", path, "--z=0.5", "--rel-tol", rel_tol,
            "--format", fmt]
    assert heunx.cli.main(args) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: rel_tol must be positive and finite\n"


def _with_raw(key, text):
    """ANCHOR_FULL as JSON text with the value of key replaced by text."""
    return json.dumps(ANCHOR_FULL).replace(
        f'"{key}": {ANCHOR_FULL[key]!r}', f'"{key}": {text}')


@pytest.mark.parametrize("raw, args", [
    (_with_raw("a", "1e400"), ["coeffs"]),
    (_with_raw("a", "NaN"), ["coeffs"]),
    (_with_raw("alpha", "NaN"), ["coeffs"]),
    (_with_raw("q", "-Infinity"), ["coeffs"]),
    (_with_raw("a", "1" + "0" * 400), ["coeffs"]),
    (_with_raw("alpha", "NaN"), ["reduce", "--n", "0"]),
    (json.dumps(N2_FULL), ["coeffs", "--e", "nan,1"]),
    (json.dumps(N2_FULL), ["coeffs", "--e=inf"]),
    (json.dumps(ANCHOR_FULL), ["eval", "--z", "nan"]),
    (json.dumps(ANCHOR_FULL), ["verify", "--z=0.1,nan"]),
], ids=["a-1e400", "a-NaN", "alpha-NaN", "q-Infinity", "a-400-digits",
        "reduce-alpha-NaN", "e-nan", "e-inf", "eval-z-nan", "verify-z-nan"])
def test_non_finite_input_exits_2(tmp_path, raw, args):
    # a value that is not a finite float is invalid input, rejected where
    # the parameter file and the --e/--z lists are read
    path = tmp_path / "p.json"
    path.write_text(raw)
    out = run_cli(args[0], "--params", str(path), *args[1:])
    assert (out.returncode, out.stdout) == (2, "")
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error: ")


def test_import_writes_nothing():
    env = {k: v for k, v in os.environ.items() if not k.startswith("HEUNX")}
    env["PYTHONPATH"] = SRC
    out = subprocess.run([sys.executable, "-c", "import heunx.cli"],
                         capture_output=True, env=env)
    assert out.returncode == 0
    assert (out.stdout, out.stderr) == (b"", b"")


def test_eval_rejects_out_of_disk_point(write_params):
    path = write_params(ANCHOR_FULL)
    out = run_cli("eval", "--params", path, "--z", "0.97")
    assert out.returncode == 2


def test_residual_anchor_certificate(write_params):
    path = write_params(ANCHOR_FULL)
    out = run_cli("residual", "--params", path, "--z", "0.1,0.25")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "z,residual,forced_residual"
    for line in lines[1:]:
        _, resid, forced = (float(tok) for tok in line.split(","))
        assert forced < 1e-12   # certificate of the constant-forced equation
        assert resid > 1e-3     # honest gap against the homogeneous equation


def test_residual_takes_no_series_options(write_params):
    # residual prints no status, so no series tolerance reaches its output
    path = write_params(ANCHOR_FULL)
    out = run_cli("residual", "--params", path, "--z=0.1", "--format", "json")
    assert list(json.loads(out.stdout)) == ["rows"]
    for opt in ("--rel-tol", "--max-terms"):
        out = run_cli("residual", "--params", path, "--z=0.1", opt, "1e-10")
        assert out.returncode == 2 and "unrecognized arguments" in out.stderr


@pytest.mark.parametrize("full, e", [(ANCHOR_FULL, ""), (N2_FULL, N2_E)])
def test_verify_takes_no_tuning_options(write_params, capsys, full, e):
    # verify gates at fixed bounds and prints each as its check's tol
    path = write_params(full)
    for opt in ("--rel-tol", "--max-terms", "--n-stream", "--recurrence-tol",
                "--ode-tol", "--cross-tol"):
        with pytest.raises(SystemExit) as exc:
            heunx.cli.main(["verify", "--params", path, "--e=" + e, opt, "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    heunx.cli.main(["verify", "--params", path, "--e=" + e])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["recurrence_residual"]["tol"] == heunx.cli.RECURRENCE_TOL
    assert checks["collocation"]["tol"] == heunx.reduction.VERIFY_TOL
    assert checks["ode_residual"]["tol"] == heunx.cli.ODE_TOL
    assert checks["cross_check"]["tol"] == heunx.cli.CROSS_TOL
    # the recurrence check and the collocation's stream defect agree to the bit
    assert (checks["recurrence_residual"]["value"]
            == checks["collocation"]["stream_defect"])


def test_residual_rejects_singular_point(write_params):
    path = write_params(ANCHOR_FULL)
    out = run_cli("residual", "--params", path, "--z", "0.0")
    assert out.returncode == 2


def test_verify_terminating_case_passes(write_params):
    path = write_params(TERMINATING_FULL)
    out = run_cli("verify", "--params", path)
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["passed"] is True
    assert payload["checks"]["recurrence_residual"]["passed"] is True
    assert payload["checks"]["ode_residual"]["passed"] is True
    assert payload["checks"]["cross_check"]["passed"] is True


def test_verify_generic_case_reports_forcing(write_params):
    path = write_params(ANCHOR_FULL)
    out = run_cli("verify", "--params", path)
    assert out.returncode == 3
    payload = json.loads(out.stdout)
    assert payload["passed"] is False
    checks = payload["checks"]
    # the reduction itself is sound ...
    assert checks["recurrence_residual"]["passed"] is True
    assert checks["collocation"]["passed"] is True
    # ... but the sum solves the constant-forced equation, not the
    # homogeneous one, and the report shows exactly that
    assert checks["ode_residual"]["passed"] is False
    assert checks["cross_check"]["passed"] is False
    assert all(v < 1e-12 for v in checks["forced_residual"]["values"])
    assert checks["forced_residual"]["gating"] is False
    # the closed form's B_k satisfy that forced equation with no z at all
    assert checks["form_certificate"]["gating"] is False
    assert checks["form_certificate"]["value"] <= 1e-12
    assert "summation" not in checks


def test_verify_overflowing_oracle_fails(write_params):
    path = write_params(SMALL_A_FULL)
    out = run_cli("verify", "--params", path, "--e=", "--z=0.02")
    assert out.returncode == 3
    assert out.stderr == ""  # no RuntimeWarning from the overflow
    payload = json.loads(out.stdout)
    assert payload["passed"] is False
    assert payload["checks"]["cross_check"] == {"passed": False, "tol": 1e-07,
                                                "value": None}


@pytest.mark.parametrize("command", ["eval", "residual"])
def test_certificate_error_names_failed_checks(write_params, command):
    # the identity overflows and its A_top gap is nan; the 50-row defect is
    # 0 and passes, so the error names only the first two
    path = write_params(OVERFLOW_E_FULL)
    out = run_cli(command, "--params", path, f"--e={OVERFLOW_E}", "--z=0.1")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("error: verification failed for the proposed "
                          "reduction (identity values, A_top gap nan)\n")


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command", [
    ("reduce", "--format", "json"),
    ("coeffs", "--format", "json"),
    ("eval", "--format", "json"),
    ("residual", "--format", "json"),
    ("verify",),
], ids=lambda command: command[0])
@pytest.mark.parametrize("full, e, z", [
    (ANCHOR_FULL, "", "0.1,0.25,0.4"),
    (N2_FULL, N2_E, "0.1,0.25,0.4"),
    (SMALL_A_FULL, "", "0.02"),
    (OVERFLOW_E_FULL, OVERFLOW_E, "0.1,0.25,0.4"),
], ids=["anchor", "N2", "small-a", "overflow-e"])
def test_json_output_is_strict(write_params, capsys, command, full, e, z):
    # NaN and Infinity are not JSON; every writer prints null instead, and
    # a RuntimeWarning on the way fails the test (pyproject.toml)
    name, *fmt = command
    if name == "reduce":
        args = ["--n", str(int(full["delta"]) - 2)]  # delta = N + 2
    elif name == "coeffs":
        args = [f"--e={e}"]
    else:
        args = [f"--e={e}", f"--z={z}"]
    code = heunx.cli.main([name, "--params", write_params(full), *args, *fmt])
    out = capsys.readouterr()
    if full is OVERFLOW_E_FULL and name in ("eval", "residual"):
        # the case fails its certificate before any output
        assert (code, out.out) == (2, "") and out.err.startswith("error: ")
        return
    assert code in (0, 3)
    json.loads(out.out, parse_constant=_no_constant)


@pytest.mark.parametrize("args", [
    ("eval", "--z", "-0.5,0.25"),
    ("coeffs", "--e", N2_E),
])
def test_list_may_start_with_a_minus(write_params, args):
    command, option, value = args
    path = write_params(N2_FULL if command == "coeffs" else ANCHOR_FULL)
    spaced = run_cli(command, "--params", path, option, value)
    joined = run_cli(command, "--params", path, f"{option}={value}")
    assert spaced.returncode == 0 and joined.returncode == 0
    assert spaced.stdout == joined.stdout


# eval, residual and verify read the closed form and never sum: verify
# checks the form by its z-free certificate, and the term-by-term summation
# runs only in the tests. reduce and coeffs never reach a series either.
@pytest.mark.parametrize("args, sums", [
    (("eval", "--z=0.1,0.25", "--format", "csv"), 0),
    (("eval", "--z=0.1,0.25", "--format", "json"), 0),
    (("residual", "--z=0.1,0.25"), 0),
    (("verify",), 0),
    (("reduce", "--n", "0"), 0),
    (("coeffs", "--source", "closed"), 0),
    (("coeffs", "--source", "ratio"), 0),
    (("coeffs", "--source", "three-term"), 0),
])
def test_each_point_is_summed_once(write_params, monkeypatch, capsys, args,
                                   sums):
    path = write_params(ANCHOR_FULL)
    calls = []
    series = []
    core = heunx._kernels.expansion_core
    one = heunx._kernels._f21_series

    def counted(*core_args):
        calls.append(core_args[8])    # the point summed
        return core(*core_args)

    def counted_series(*series_args):
        series.append(series_args)
        return one(*series_args)

    monkeypatch.setattr(heunx._kernels, "expansion_core", counted)
    monkeypatch.setattr(heunx._kernels, "_f21_series", counted_series)
    code = heunx.cli.main([args[0], "--params", path, *args[1:]])
    assert code in (0, 3)
    assert capsys.readouterr().out
    assert len(calls) == sums
    assert len(series) == 0    # no inner 2F1 series is summed


# the B_k depend on the case alone: one form per call, verify's taking the
# origin for cross_check with its points and feeding its form_certificate
@pytest.mark.parametrize("args, forms", [
    (("eval", "--format", "csv"), 1),
    (("eval", "--format", "json"), 1),
    (("residual",), 1),
    (("verify",), 1),
])
def test_form_is_built_once_per_call(write_params, monkeypatch, args, forms):
    path = write_params(ANCHOR_FULL)
    calls = []
    form = heunx.evaluator._form

    def counted(case):
        calls.append(case)
        return form(case)

    monkeypatch.setattr(heunx.evaluator, "_form", counted)
    # 41 points, none singular and all in the power series's safe radius, so
    # residual and verify take them too
    zs = (np.linspace(-0.85, 0.85, 41) + 0.01).tolist()
    z_arg = "--z=" + ",".join(repr(z) for z in zs)
    code = heunx.cli.main([args[0], "--params", path, z_arg, *args[1:]])
    assert code in (0, 3)
    assert len(calls) == forms


def test_certificate_runs_once_per_case(write_params, monkeypatch, capsys):
    calls = []
    verify = heunx.reduction.verify_reduction

    def counted(*args):
        calls.append(args)
        return verify(*args)

    for module in (heunx.reduction, heunx.cli):
        monkeypatch.setattr(module, "verify_reduction", counted)
    assert heunx.cli.main(["verify", "--params", write_params(ANCHOR_FULL)]) in (0, 3)
    assert len(calls) == 1

    calls.clear()
    capsys.readouterr()
    bench = {"a": 2.0, "alpha": 2.5, "beta": 1.7, "gamma": 0.6, "epsilon": -0.4}
    assert heunx.cli.main(["reduce", "--params", write_params(bench), "--n", "3"]) == 0
    cases = json.loads(capsys.readouterr().out)["cases"]
    assert len(cases) == 3 and len(calls) == 3


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _table_rows(stream):
    """(n, c_n, ratio, residual) per index as Python floats, one row at a
    time: the code the column writers replaced."""
    rows = residual_rows(stream)
    vals = stream.values
    for n in range(len(vals)):
        if n == 0 or vals[n - 1] == 0.0:
            ratio = float("nan")
        else:
            ratio = float(vals[n] / vals[n - 1])
        resid = float(rows[n]) if n >= 2 else float("nan")
        yield n, float(vals[n]), ratio, resid


def _csv_by_rows(stream):
    lines = ["n,c_n,ratio,residual"]
    lines += [f"{n},{c!r},{ratio!r},{resid!r}"
              for n, c, ratio, resid in _table_rows(stream)]
    return "\n".join(lines) + "\n"


def _json_by_rows(stream):
    rows = [{"n": n, "c_n": _jsonable(c), "ratio": _jsonable(ratio),
             "residual": _jsonable(resid)}
            for n, c, ratio, resid in _table_rows(stream)]
    return json.dumps({"source": stream.source.value, "rows": rows},
                      sort_keys=True, indent=2) + "\n"


def _table_cases():
    n3 = [c for c in solve_reduction_general(3.0, 2.5, 1.0, 0.5, 3)
          if abs(c.params.q - 8.802775637731992) < 1e-9]
    return {"anchor": q_candidates_N0(2.0, 3.0, 2.0, 1.0)[0],
            "N2": q_candidates_N2(2.0, 2.5, 1.7, 0.6)[0],
            # terminates at n0 = 4: the zeros give nan/null ratios
            "N3-terminating": n3[0]}


@pytest.mark.parametrize("name", ["anchor", "N2", "N3-terminating"])
def test_table_writers_match_row_code(name, write_params, capsys):
    case = _table_cases()[name]
    path = write_params(params_to_dict(case.params))
    e_arg = "--e=" + ",".join(repr(e) for e in case.e_list)
    writers = {"csv": (stream_to_csv, _csv_by_rows),
               "json": (stream_to_json, _json_by_rows)}
    for source, flag in heunx.cli._SOURCES.items():
        for n_max in (0, 1, 2, 60, 5000):   # 5000: the benchmark's tables
            try:
                if source == "three-term":
                    stream = three_term_coefficients(case.params, n_max)
                else:
                    stream = two_term_coefficients(case.params, case.e_list,
                                                   n_max, source=flag)
            except DivisionByZeroError:
                # the three-term seed past n0 (see test_kernels)
                assert (name, source, n_max) in (("N3-terminating", "three-term", 1),
                                                 ("N3-terminating", "three-term", 2))
                stream = None
            for fmt, (writer, by_rows) in writers.items():
                argv = ["coeffs", "--params", path, "--n-max", str(n_max),
                        "--source", source, "--format", fmt]
                code = heunx.cli.main(argv + ([] if source == "three-term"
                                              else [e_arg]))
                out = capsys.readouterr().out
                if stream is None:
                    assert (code, out) == (4, "")
                    continue
                want = by_rows(stream)
                assert writer(stream) == want
                assert (code, out) == (0, want)
            if name == "N3-terminating" and n_max == 60:
                assert stream_to_json(stream).count('"ratio": null') == 57


def _eval_csv_by_rows(case, zs):
    """eval's CSV as one evaluate call and one f-string per row."""
    lines = ["z,u,du,ddu,residual,terms_used"]
    for z in zs:
        ev = evaluate(case, z)
        lines.append(f"{ev.z!r},{ev.u!r},{ev.du!r},{ev.ddu!r},"
                     f"{homogeneous_residual(case, ev)!r},{ev.terms_used}")
    return "\n".join(lines) + "\n"


def _eval_json_by_rows(case, zs, rel_tol):
    """eval's JSON as row dicts through json.dumps: the code the template
    replaced."""
    ctl = SeriesControl(rel_tol=rel_tol)
    rows = [{"z": ev.z, "u": ev.u, "du": ev.du, "ddu": ev.ddu,
             "residual": _jsonable(homogeneous_residual(case, ev)),
             "terms_used": ev.terms_used,
             "status": ("Converged" if all(s is EvalStatus.CONVERGED for s in ev.status)
                        else "MaxTermsReached")}
            for ev in (evaluate(case, z, ctl) for z in zs)]
    return json.dumps({"rows": rows, "tolerances": {"rel_tol": ctl.rel_tol}},
                      sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("params, e", [(ANCHOR_FULL, ""), (N2_FULL, N2_E),
                                       (TERMINATING_FULL, "")],
                         ids=["anchor", "N2", "terminating"])
def test_eval_writers_match_row_code(write_params, capsys, params, e):
    path = write_params(params)
    case = ReductionCase.build(load_params_file(path),
                               [float(x) for x in e.split(",") if x])
    grids = ([0.0], [0.0, 0.5, -0.9, 0.95],
             np.linspace(-0.9, 0.9, 41).tolist() + [0.0, -0.95])
    outs = []
    for zs in grids:
        argv = ["eval", "--params", path, "--e=" + e,
                "--z=" + ",".join(map(repr, zs))]
        assert heunx.cli.main(argv) == 0
        assert capsys.readouterr().out == _eval_csv_by_rows(case, zs)
        for rel_tol in (1e-14, 1e-16):
            code = heunx.cli.main(argv + ["--rel-tol", repr(rel_tol), "--format", "json"])
            outs.append(capsys.readouterr().out)
            assert (code, outs[-1]) == (0, _eval_json_by_rows(case, zs, rel_tol))
    # z = 0 is singular: a null residual; 1e-16 is below the tails
    assert all('"residual": null' in out for out in outs)
    assert any('"MaxTermsReached"' in out for out in outs)


def test_readme_coeffs_table(write_params, capsys):
    # the README's one documented table is what the command prints
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    params = readme.split("$ cat full.json\n", 1)[1].split("\n\n", 1)[0]
    command = '$ heunx coeffs --params full.json --e "" --n-max 4 --format csv\n'
    table = readme.split(command, 1)[1].split("\n\n", 1)[0] + "\n"
    path = write_params(json.loads(params))
    argv = ["coeffs", "--params", path, "--e", "", "--n-max", "4",
            "--format", "csv"]
    assert heunx.cli.main(argv) == 0
    assert capsys.readouterr().out == table


def test_readme_eval_table(write_params, capsys):
    # the README's eval example is what the command prints
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    params = readme.split("$ cat full.json\n", 1)[1].split("\n\n", 1)[0]
    command = '$ heunx eval --params full.json --e "" --z 0,0.25\n'
    table = readme.split(command, 1)[1].split("\n\n", 1)[0] + "\n"
    path = write_params(json.loads(params))
    assert heunx.cli.main(["eval", "--params", path, "--e", "", "--z", "0,0.25"]) == 0
    assert capsys.readouterr().out == table
