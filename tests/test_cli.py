"""Black-box checks of the command-line interface via subprocess, plus one
in-process count of the summations each command makes."""

import argparse
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
                   SeriesControl, evaluate_points, forced_residual,
                   homogeneous_residual, load_params_file, params_to_dict,
                   q_candidates_N0, q_candidates_N2, residual_rows,
                   solve_reduction_general, three_term_coefficients,
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
# terminating order-0 case at |a| < 0.17: the oracle's b_k leave the floats
# from k = 249 on, but at z = 0.02 its terms settle after 13; safe radius 0.045
SMALL_A_FULL = {"a": 0.05, "q": 0.045, "alpha": 2.3, "beta": 1.0, "gamma": 0.9,
                "delta": 2.0, "epsilon": 1.4}
# the generic order-0 case of the same a: at z = 0.044 the oracle's b_k leave
# the floats before its terms settle, so its cross-check has no finite value
OVERFLOW_ORACLE_FULL = {"a": 0.05, "q": 0.435, "alpha": 2.3, "beta": 1.3,
                        "gamma": 0.9, "delta": 2.0, "epsilon": 1.7}
# a valid order-0 case at gamma = -1: the oracle has no power series with a
# unit leading term
GAMMA_POLE_FULL = {"a": 2.0, "q": -2.25, "alpha": 1.5, "beta": 0.5, "gamma": -1.0,
                   "delta": 2.0, "epsilon": 2.0}
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


@pytest.mark.parametrize("draw", [
    # both order-1 q-roots complex
    (-1.4695858455634698, -1.0, -0.02738947744835407, -0.303053611267571),
    # the order-1 q-polynomial leaves the floats
    (1e200, -1.0, 0.5, 0.3),
])
def test_reduce_n1_validates_the_draw_first(write_params, capsys, draw):
    # alpha = -1 is invalid for every q: exit 2 before any root is sought
    a, alpha, beta, gamma = draw
    path = write_params({"a": a, "alpha": alpha, "beta": beta, "gamma": gamma,
                         "epsilon": alpha + beta - gamma - 2.0})
    assert heunx.cli.main(["reduce", "--params", path, "--n", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: invalid parameters: alpha = -1.0 is a non-positive "
                   "integer (gamma-factor pole)\n")


@pytest.mark.parametrize("draw, code, notes", [
    # alpha = 3: the closed form certifies one case
    ({"a": -1.5, "alpha": 3.0, "beta": 0.4, "gamma": 1.3, "epsilon": -0.9}, 0, 2),
    # the README's search draw at N = 2: every root is noted
    (dict(ANCHOR_SEARCH, epsilon=1.0), 3, 3),
])
def test_reduce_n2_takes_alpha_or_beta_3(write_params, draw, code, notes):
    # alpha or beta = 3 once divided by zero in the order-2 closed form and
    # went to the eigen solver; the minors of T need no such exception
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
     ["2,1,4.250000000000003,-0.8162277660168413;-0.18377223398316134,True",
      "2,2,5.250000000000006,-1.59160797830997;-0.4083920216900363,True"]),
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


def test_reduce_validates_epsilon_as_every_command(write_params, capsys):
    # the search file's epsilon meets the bound of every full file: 5e-10
    # off the exponent sum exits 2, as verify and eval on its cases would;
    # 3e-13 off is within it, and reduce solves the draw as the exact file
    alpha, beta, gamma = 2.5, 1.7, 0.6
    exact = 1.0 + alpha + beta - gamma - 4.0
    runs = []
    for off in (0.0, 3e-13, 5e-10):
        path = write_params({"a": 2.0, "alpha": alpha, "beta": beta, "gamma": gamma,
                             "epsilon": exact + off})
        runs.append((heunx.cli.main(["reduce", "--params", path, "--n", "2"]),
                     *capsys.readouterr()))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]
    code, out, err = runs[2]
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid parameters: ") and err.count("\n") == 1, err


def test_reduce_cases_pass_with_the_search_files_epsilon(write_params, capsys):
    # a search file passes exactly when the full files of its cases do: each
    # case reduce returns, written with the search file's own epsilon (some
    # a few 1e-13 off the exponent sum, some 5e-10), is one eval accepts
    rng = np.random.default_rng(39)
    found = rejected = 0
    for _ in range(12):
        a = rng.choice((-1.0, 1.0)) * rng.uniform(1.5, 3.0)
        alpha, beta, gamma = rng.uniform(-3.0, 3.0, size=3).tolist()
        for n_case in range(5):
            off = float(rng.choice((0.0, 3e-13, -3e-13, 5e-10)))
            search = {"a": float(a), "alpha": alpha, "beta": beta, "gamma": gamma,
                      "epsilon": 1.0 + alpha + beta - gamma - (n_case + 2.0) + off}
            code = heunx.cli.main(["reduce", "--params", write_params(search),
                                   "--n", str(n_case)])
            out, err = capsys.readouterr()
            rejected += code == 2
            for item in json.loads(out)["cases"] if code == 0 else ():
                full = dict(search, q=item["q"], delta=n_case + 2.0)
                argv = ["eval", "--params", write_params(full, "full.json"),
                        "--e=" + ",".join(map(repr, item["e"])), "--z", "0.3"]
                assert heunx.cli.main(argv) == 0, (search, n_case, capsys.readouterr())
                capsys.readouterr()
                found += 1
    assert found >= 40 and rejected >= 5, (found, rejected)


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


def test_coeffs_csv_shape(write_params, capsys):
    argv = ["coeffs", "--params", write_params(ANCHOR_FULL), "--source",
            "three-term", "--n-max", "4"]
    assert heunx.cli.main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,c_n,ratio,residual"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1.0"
    assert first[2] == "nan" and first[3] == "nan"
    row2 = lines[3].split(",")
    assert float(row2[2]) == pytest.approx(0.6, rel=1e-13)


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


@pytest.mark.parametrize("delta, epsilon, n, c_n", [
    # c_2 = 0 left the relation at n = 2 with a defect of 0.939
    (3.7000000000000006, 0.9, 2, 0.556233633333333),
    # c_1 = 0 failed the n = 1 certificate, which named a backward recursion
    (2.7000000000000006, 1.9, 1, 0.42939999999999967),
], ids=["n0-2", "n0-1"])
def test_three_term_fills_past_a_termination_the_relation_lacks(write_params, capsys,
                                                                delta, epsilon, n, c_n):
    # a forward stream (|a/(a-1)| = 0.75) whose exponents put
    # termination_index at n, with q on no reduction: nothing terminates
    params = {"a": -3.0, "q": 1.234, "alpha": 2.5, "beta": 1.7, "gamma": 0.6,
              "delta": delta, "epsilon": epsilon}
    argv = ["coeffs", "--params", write_params(params), "--source", "three-term",
            "--n-max", "6", "--format", "json"]
    code = heunx.cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert rows[n]["c_n"] == pytest.approx(c_n, rel=1e-13)
    assert all(r["c_n"] > 0.0 for r in rows)
    assert all(r["residual"] <= 1e-16 for r in rows[2:]), rows


def test_eval_anchor(write_params):
    path = write_params(ANCHOR_FULL)
    out = run_cli("eval", "--params", path, "--z", "0.25")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "z,u,du,ddu,residual,terms_used"
    assert float(lines[1].split(",")[1]) == pytest.approx(4.0, rel=1e-11)


def test_eval_csv_shape(write_params, capsys):
    argv = ["eval", "--params", write_params(ANCHOR_FULL), "--e", "",
            "--z", "0,0.25"]
    assert heunx.cli.main(argv) == 0
    text = capsys.readouterr().out
    lines = text.strip().split("\n")
    assert lines[0] == "z,u,du,ddu,residual,terms_used"
    assert len(lines) == 3
    row0 = lines[1].split(",")
    assert row0[0] == "0.0" and float(row0[1]) == pytest.approx(3.0, rel=1e-12)
    assert row0[4] == "nan"  # z = 0 is a singular point of the equation
    assert heunx.cli.main(argv) == 0
    assert capsys.readouterr().out == text


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
    assert checks["recurrence_residual"]["tol"] == heunx.reduction.VERIFY_TOL
    assert checks["collocation"]["tol"] == heunx.reduction.VERIFY_TOL
    assert checks["ode_residual"]["tol"] == heunx.cli.ODE_TOL
    assert checks["cross_check"]["tol"] == heunx.cli.CROSS_TOL
    # the recurrence check and the collocation's stream defect agree to the bit
    assert (checks["recurrence_residual"]["value"]
            == checks["collocation"]["stream_defect"])


@pytest.mark.parametrize("rel", [0.0, 1e-7])
def test_verify_recurrence_residual_is_the_coeffs_residual(write_params, capsys, rel):
    # the certificate's defect is the largest residual column entry of the
    # ratio stream's rows 2..50, on the case and with q moved off it
    path = write_params({**N2_FULL, "q": N2_FULL["q"] * (1.0 + rel)})
    heunx.cli.main(["verify", "--params", path, "--e=" + N2_E])
    value = json.loads(capsys.readouterr().out)["checks"]["recurrence_residual"]["value"]
    assert heunx.cli.main(["coeffs", "--params", path, "--e=" + N2_E, "--source",
                           "ratio", "--n-max", "50", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["n"] for r in rows] == list(range(51))
    assert value == max(r["residual"] for r in rows[2:])
    assert (value > 1e-9) == (rel > 0.0)


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


def test_verify_small_a_cross_checks(write_params):
    path = write_params(SMALL_A_FULL)
    out = run_cli("verify", "--params", path, "--e=", "--z=0.02")
    assert (out.returncode, out.stderr) == (0, "")
    payload = json.loads(out.stdout)
    assert payload["passed"] is True
    assert payload["checks"]["cross_check"] == {"passed": True, "tol": 1e-07,
                                                "value": 0.0}


def test_verify_overflowing_oracle_fails(write_params):
    path = write_params(OVERFLOW_ORACLE_FULL)
    out = run_cli("verify", "--params", path, "--e=", "--z=0.044")
    assert out.returncode == 3
    assert out.stderr == ""  # no RuntimeWarning from the overflow
    payload = json.loads(out.stdout)
    assert payload["passed"] is False
    assert payload["checks"]["cross_check"] == {"passed": False, "tol": 1e-07,
                                                "value": None}


def test_verify_oracle_pole_exits_with_one_error_line(write_params):
    out = run_cli("verify", "--params", write_params(GAMMA_POLE_FULL), "--e=")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("error: gamma = -1.0 is a non-positive integer; "
                          "no power-series solution with unit leading term\n")


@pytest.mark.parametrize("command", ["eval", "residual"])
def test_certificate_error_names_failed_checks(write_params, command):
    # the identity overflows; the 50-row defect is 0 and passes, so the
    # error names only the identity values
    path = write_params(OVERFLOW_E_FULL)
    out = run_cli(command, "--params", path, f"--e={OVERFLOW_E}", "--z=0.1")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("error: verification failed for the proposed "
                          "reduction (identity values)\n")


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


def _parse_exit(parse, capsys, argv):
    """(exit code, stdout, stderr) of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


# main builds the named command's subparser alone; its help and errors, and
# those of every other argv, must read as the full parser's: the usage line
# of one subparser still lists all five commands, and the full parser still
# names the subparsers action "command" in its errors
@pytest.mark.parametrize("argv", [
    (), ("-h",), ("bogus",), ("--params", "x", "reduce"),
    *[(command, "-h") for command in heunx.cli.COMMANDS],
    ("reduce", "--params", "{path}", "--n", "0", "--bogus"),
    ("residual", "--params", "{path}", "--z", "0.1", "--rel-tol", "1e-3"),
    ("coeffs", "--params", "{path}", "--source", "nope"),
    ("reduce", "--params", "x", "--n", "zz"),
])
def test_help_and_errors_read_as_the_full_parser(write_params, capsys, argv):
    path = write_params(ANCHOR_FULL)
    argv = [tok.format(path=path) for tok in argv]
    full = _parse_exit(heunx.cli.build_parser().parse_args, capsys, argv)
    assert _parse_exit(heunx.cli.main, capsys, argv) == full
    assert full[0] in (0, 2) and full[1] + full[2]
    if argv in ([], ["bogus"]):
        assert ("argument command: " if argv else "required: command\n") in full[2]


@pytest.mark.parametrize("argv, built", [
    (("reduce", "--params", "{path}", "--n", "0"), 1),
    *[((command, "-h"), 1) for command in heunx.cli.COMMANDS],
    (("--help",), 5),
    (("bogus",), 5),
])
def test_main_builds_the_named_commands_subparser(write_params, monkeypatch,
                                                  capsys, argv, built):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    argv = [tok.format(path=write_params(ANCHOR_SEARCH)) for tok in argv]
    try:
        heunx.cli.main(argv)
    except SystemExit:
        pass
    assert len(names) == built
    if built == 1:
        assert names == argv[:1]


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


def _table_rows(p, vals):
    """(n, c_n, ratio, residual) per index as Python floats, one row at a
    time: the code the column writers replaced."""
    rows = residual_rows(p, vals)
    for n in range(len(vals)):
        if n == 0 or vals[n - 1] == 0.0:
            ratio = float("nan")
        else:
            ratio = float(vals[n] / vals[n - 1])
        resid = float(rows[n]) if n >= 2 else float("nan")
        yield n, float(vals[n]), ratio, resid


def _csv_by_rows(p, vals, source):
    lines = ["n,c_n,ratio,residual"]
    lines += [f"{n},{c!r},{ratio!r},{resid!r}"
              for n, c, ratio, resid in _table_rows(p, vals)]
    return "\n".join(lines) + "\n"


def _json_by_rows(p, vals, source):
    rows = [{"n": n, "c_n": _jsonable(c), "ratio": _jsonable(ratio),
             "residual": _jsonable(resid)}
            for n, c, ratio, resid in _table_rows(p, vals)]
    return json.dumps({"source": source.value, "rows": rows},
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
    writers = {"csv": _csv_by_rows, "json": _json_by_rows}
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
            for fmt, by_rows in writers.items():
                argv = ["coeffs", "--params", path, "--n-max", str(n_max),
                        "--source", source, "--format", fmt]
                code = heunx.cli.main(argv + ([] if source == "three-term"
                                              else [e_arg]))
                out = capsys.readouterr().out
                if stream is None:
                    assert (code, out) == (4, "")
                    continue
                assert (code, out) == (0, by_rows(case.params, stream, flag))
                if name == "N3-terminating" and n_max == 60 and fmt == "json":
                    assert out.count('"ratio": null') == 57


def _eval_csv_by_rows(case, zs):
    """eval's CSV as one one-point evaluate_points call and one f-string
    per row."""
    lines = ["z,u,du,ddu,residual,terms_used"]
    for z in zs:
        ev = evaluate_points(case, [z])[0]
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
            for ev in (evaluate_points(case, [z], ctl)[0] for z in zs)]
    return json.dumps({"rows": rows, "tolerances": {"rel_tol": ctl.rel_tol}},
                      sort_keys=True, indent=2) + "\n"


def _residual_by_rows(case, zs, fmt):
    """residual's table as one one-point evaluate_points call per point and
    one f-string or row dict per row."""
    rows = [(ev.z, homogeneous_residual(case, ev), forced_residual(case, ev))
            for ev in (evaluate_points(case, [z])[0] for z in zs)]
    if fmt == "csv":
        return "z,residual,forced_residual\n" + "".join(
            f"{z!r},{r!r},{f!r}\n" for z, r, f in rows)
    return json.dumps({"rows": [{"z": z, "residual": _jsonable(r),
                                 "forced_residual": _jsonable(f)}
                                for z, r, f in rows]},
                      sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("params, e", [(ANCHOR_FULL, ""), (N2_FULL, N2_E),
                                       (TERMINATING_FULL, "")],
                         ids=["anchor", "N2", "terminating"])
def test_eval_writers_match_row_code(write_params, capsys, params, e):
    path = write_params(params)
    case = ReductionCase(load_params_file(path),
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
        # residual takes the non-singular points: a = 2 in all three cases,
        # so z = 0 (and linspace's -1.1e-16) is the one singular point here
        interior = [z for z in zs if abs(z) > heunx.evaluator.SINGULAR_GUARD]
        for fmt in ("csv", "json") if interior else ():
            code = heunx.cli.main(["residual", "--params", path, "--e=" + e,
                                   "--z=" + ",".join(map(repr, interior)),
                                   "--format", fmt])
            assert (code, capsys.readouterr().out) == (
                0, _residual_by_rows(case, interior, fmt))
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


def test_readme_python_example():
    # the README's one Python block runs as written: a removed name fails it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```", 1)[0], "README.md", "exec"), {})


def test_readme_eval_table(write_params, capsys):
    # the README's eval example is what the command prints
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    params = readme.split("$ cat full.json\n", 1)[1].split("\n\n", 1)[0]
    command = '$ heunx eval --params full.json --e "" --z 0,0.25\n'
    table = readme.split(command, 1)[1].split("\n\n", 1)[0] + "\n"
    path = write_params(json.loads(params))
    assert heunx.cli.main(["eval", "--params", path, "--e", "", "--z", "0,0.25"]) == 0
    assert capsys.readouterr().out == table


def _reduce_in_process(write_params, capsys, draw, n):
    code = heunx.cli.main(["reduce", "--params", write_params(draw), "--n", str(n)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("draw, n, error", [
    # the a^3 term of the order-2 q-polynomial overflows
    ({"a": 1e150, "alpha": 2.5, "beta": 1.7, "gamma": 0.6, "epsilon": 0.6}, 2,
     "the order-2 q-polynomial leaves the floats"),
    # the draw is invalid, as N = 0, 1 and 3 report, and np.roots saw infs
    ({"a": 2.0, "alpha": 2.5, "beta": -1e150, "gamma": 0.6, "epsilon": -1e150}, 2,
     "invalid parameters: beta = -1e+150 is a non-positive integer (gamma-factor "
     "pole); gamma+epsilon = -1e+150 is a non-positive integer (gamma-factor pole)"),
    ({"a": 2.0, "alpha": 1e150, "beta": 1e150, "gamma": 0.6, "epsilon": 2e150}, 1,
     "the order-1 q-polynomial leaves the floats"),
    ({"a": 2.0, "alpha": 1e150, "beta": 1e150, "gamma": 0.6, "epsilon": 2e150}, 2,
     "the order-2 q-polynomial leaves the floats"),
    # a finite quadratic (its a^2 terms cancel at gamma = -1) whose b^2
    # overflows: no root q = nan note
    ({"a": -1e200, "alpha": 1.5, "beta": 4.0, "gamma": -1.0, "epsilon": 4.5}, 1,
     "the order-1 q-discriminant leaves the floats"),
    # the eigen solver's pencil overflows
    ({"a": 5.419043634070373e+159, "alpha": 1358.9524590020148,
      "beta": 1.3895290940212287e+160, "gamma": 1.0648833986111952e+160,
      "epsilon": 3.2464569541003345e+159}, 3,
     "the order-3 pencil leaves the floats"),
], ids=["cubic-overflow", "invalid-n2", "quadratic-inf", "cubic-inf", "discriminant-inf",
        "pencil-inf"])
def test_reduce_extreme_draw_exits_with_one_error_line(write_params, capsys,
                                                       draw, n, error):
    # each raised OverflowError, LinAlgError or ValueError past main
    assert _reduce_in_process(write_params, capsys, draw, n) == (
        4 if "floats" in error else 2, "", f"error: {error}\n")


def test_reduce_extreme_draw_notes_every_root(write_params, capsys):
    # Newton's steps overflow on every root of this draw; each root is
    # noted, and no RuntimeWarning is printed
    draw = {"a": -7.384171420038464e+299, "alpha": -0.38938299220363426,
            "beta": 1.8389241980134265, "gamma": 1.9101006520103025,
            "epsilon": -4.46055944620051}
    code, out, err = _reduce_in_process(write_params, capsys, draw, 3)
    assert (code, err) == (3, "")
    assert len(json.loads(out)["notes"]) == 4
    cases, notes = heunx.solve(draw["a"], draw["alpha"], draw["beta"], draw["gamma"], 3)
    assert (cases, len(notes)) == ([], 4)


@pytest.mark.parametrize("draw, n, notes", [
    # a = 1e150: each root passes its identity values and its 50-row defect
    # (2.0e-16 to 5.0e-16; 1.7e-16 to 4.9e-16 in 40 digits), so exit 0
    ({"a": 1e150, "alpha": 2.5, "beta": 1.7, "gamma": 0.6, "epsilon": 2.6}, 0, []),
    ({"a": 1e150, "alpha": 2.5, "beta": 1.7, "gamma": 0.6, "epsilon": 1.6}, 1, []),
    # beta ~ 8e78 rounds g - beta to 0, so the stream ends at c_1 = 0 and
    # its defect is 0, while the identity at n = 1 is its whole scale
    ({"a": 1.0502703743933192e+33, "alpha": -0.041969682138935996,
      "beta": 8.149930798739455e+78, "gamma": 110362.22673741786,
      "epsilon": 8.149930798739455e+78}, 0,
     ["root q = -8.491980803816874e+78 dropped: the certificate failed "
      "(identity values)"]),
])
def test_drop_note_names_the_failed_check(write_params, capsys, draw, n, notes):
    code, out, err = _reduce_in_process(write_params, capsys, draw, n)
    payload = json.loads(out)
    assert (code, err, payload["notes"]) == (3 if notes else 0, "", notes)
    assert len(payload["cases"]) + len(notes) == n + 1


# cases that `reduce` returns on large draws, as it prints q and e
LARGE_N1 = ({"a": -0.9566693580893778, "q": -226883.97845637737,
             "alpha": 328.0528716763497, "beta": -690.8956670883008,
             "gamma": 67.99432771135253, "delta": 3.0,
             "epsilon": -432.8371231233036}, "530.5088755215111")
LARGE_ORACLE = {"a": -0.9078540252447835, "q": 162783.39391460922,
                "alpha": 967.4580786058814, "beta": 169.8544758656285,
                "gamma": 448.72675910580733, "delta": 2.0,
                "epsilon": 687.5857953657026}
LARGE_FORM = {"a": 1.0948166389096408, "q": 256575.55324692285,
              "alpha": 517.5071321827925, "beta": 495.8908623520524,
              "gamma": 877.6749967484598, "delta": 2.0,
              "epsilon": 134.72299778638512}


@pytest.mark.parametrize("source", ["closed", "ratio"])
def test_coeffs_overflow_prints_no_warning(write_params, capsys, source):
    # np.cumprod and the closed form's product overflowed with a warning
    params, e = LARGE_N1
    argv = ["coeffs", "--params", write_params(params), "--e=" + e,
            "--n-max", "300", "--source", source]
    assert heunx.cli.main(argv) == 4
    assert capsys.readouterr() == (
        "", "error: two-term ratio stream produced a non-finite entry at n = 291\n")


@pytest.mark.parametrize("params, certificate", [(LARGE_ORACLE, 1.4732869160610312e-13),
                                                 (LARGE_FORM, None)],
                         ids=["oracle-overflow", "form-overflow"])
def test_verify_overflow_prints_no_warning(write_params, capsys, params, certificate):
    # cross_check's u0 * uf overflowed with a warning, and so did the form
    # certificate's magnitudes, which then read a perfect 0.0
    assert heunx.cli.main(["verify", "--params", write_params(params), "--e="]) == 3
    out, err = capsys.readouterr()
    checks = json.loads(out)["checks"]
    assert err == ""
    assert checks["cross_check"]["value"] is None
    assert checks["form_certificate"]["value"] == certificate
