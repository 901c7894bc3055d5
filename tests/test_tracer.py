"""perfbench's tracer wraps heunx functions by module and name. A rename or
removal in src/ must fail here, not only in a traced benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import heunx.cli  # loads every module the tracer looks in
from heunx import ReductionCase, SeriesControl, params_from_dict

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_rebinds_every_wrapped_name():
    tracer = _load_tracer()
    names = [(sys.modules["heunx." + mod], func)
             for mod, func, _ in tracer.SPANS + tracer.COUNTERS]
    originals = [getattr(mod, func) for mod, func in names]
    spans = tracer.Tracer()
    try:
        spans.install()
        for (mod, func), original in zip(names, originals):
            assert getattr(mod, func) is not original, (mod.__name__, func)
    finally:
        spans.uninstall()
    assert [getattr(mod, func) for mod, func in names] == originals


def test_tracer_sees_closed_and_general_reduce(tmp_path):
    # reduction.solve looks its solvers up when called, so the rebound
    # wrappers see the closed form at N = 2 and the eigen solver at N = 3
    spans = _load_tracer().Tracer()
    draw = {"a": 2.0, "alpha": 2.5, "beta": 1.7, "gamma": 0.6}
    spans.install()
    try:
        for n_case, epsilon in ((2, 0.6), (3, -0.4)):
            path = tmp_path / f"n{n_case}.json"
            path.write_text(json.dumps(dict(draw, epsilon=epsilon)))
            argv = ["reduce", "--params", str(path), "--n", str(n_case)]
            assert heunx.cli.main(argv) == 0
    finally:
        spans.uninstall()
    solvers = [rec[2] for rec in spans.spans
               if rec[2] in ("reduction.closed", "reduction.general")]
    assert solvers == ["reduction.closed", "reduction.general"]


# the N = 2 bench case of tests/test_cli.py
N2_FULL = {"a": 2.0, "q": 5.250000000000018, "alpha": 2.5, "beta": 1.7,
           "gamma": 0.6, "delta": 4.0, "epsilon": 0.6000000000000005}
N2_E = "-1.591607978309986,-0.40839202169003186"


def test_tracer_reads_verify_and_three_term_coeffs(tmp_path, capsys):
    # _info reads frobenius_fill's result[0], _sum_all's args[1] and
    # args[2].max_terms, and expansion_core's args[9] and result[3] by
    # position; a signature change that moves one of them must fail here,
    # not only in a traced benchmark run
    tracer = _load_tracer()
    spans = tracer.Tracer()
    path = tmp_path / "n2.json"
    path.write_text(json.dumps(N2_FULL))
    case = ReductionCase.build(params_from_dict(N2_FULL), N2_E.split(","))
    spans.install()
    try:
        # generic case: the homogeneous checks fail, every check runs; verify
        # reads the closed form and sums no series, so the one expansion_core
        # call and the one f21 pass below are this test's own _sum_all
        assert heunx.cli.main(["verify", "--params", str(path), "--e=" + N2_E]) == 3
        assert heunx.cli.main(["coeffs", "--params", str(path),
                               "--source", "three-term"]) == 0
        heunx.evaluator._sum_all(case, 0.25, SeriesControl())
    finally:
        spans.uninstall()
    capsys.readouterr()
    info = {}
    for rec in spans.spans:
        info.setdefault(rec[2], []).append(rec[7])
    assert info["kernels.frobenius_fill"] == [{"terms": 401}]
    assert info["evaluator.sum"] == [{"z": 0.25, "terms": 129, "max_terms": 10000}]
    assert info["kernels.expansion_core"] == [{"big_m": 128, "terms": 129}]
    metrics = tracer.layer_metrics(spans, 1)
    assert metrics["oracle.frobenius.terms"] == 401
    assert metrics["evaluator.sum_calls"] == 1
    assert metrics["evaluator.terms"] == 129
    assert metrics["kernels.f21.calls"] == 1
    assert metrics["kernels.three_term.s"] > 0.0
