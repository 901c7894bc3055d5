"""perfbench's tracer wraps heunx functions by module and name. A rename or
removal in src/ must fail here, not only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import heunx.cli  # noqa: F401  loads every module the tracer looks in

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
