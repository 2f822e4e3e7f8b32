import importlib
import importlib.util
import os
import sys

from leggett_lab import correlations

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py")


def _load_tracing():
    """bench/tracing.py as a module, without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_name_resolves():
    # the tracer patches each (module, attribute) through vars(owner), so a
    # renamed or moved function would silently drop out of the trace
    for where, attr in _load_tracing().TRACED:
        if where == "correlations.CorrelationModel":
            owner = correlations.CorrelationModel
        else:
            owner = importlib.import_module(f"leggett_lab.{where}")
        assert callable(vars(owner).get(attr)), (where, attr)
