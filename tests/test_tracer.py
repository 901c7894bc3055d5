"""perfbench's tracer wraps heunx functions by module and name. A rename or
removal in src/ must fail here, not only in a traced benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import heunx.cli  # loads every module the tracer looks in

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
