"""Names that other code reaches by string: the benchmark tracer's spans and
each module's ``__all__``.  A deletion that leaves either one stale fails
here rather than in a traced benchmark pass.  The module caches the tracer
reads by name must also stay bounded in a process that sweeps precisions."""

import importlib
import pkgutil
import sys
from pathlib import Path

import mpmath as mp

import thetal
from thetal import hyper, lvalues, quadrature
from thetal.context import PrecisionContext

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_spans():
    """SPANS of perfbench/tracer.py, imported without writing bytecode there."""
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import tracer
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
    return tracer.SPANS


def test_traced_functions_and_exports_resolve():
    for module, function, _ in _tracer_spans():
        mod = importlib.import_module(f"thetal.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"

    names = [m.name for m in pkgutil.iter_modules(thetal.__path__)]
    modules = [thetal] + [
        importlib.import_module(f"thetal.{name}")
        for name in names
        if name != "__main__"  # importing it runs the command line
    ]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


def test_module_caches_stay_bounded_across_precisions():
    sweep = range(10, 22)
    for digits in sweep:
        with mp.workdps(digits):
            hyper._ib_coeffs()
            quadrature._nodes(quadrature._FIRST_LEVEL, mp.mp.prec)
        lvalues.l_value("f", 3, "factorized", PrecisionContext(digits=digits))
    assert len(sweep) > hyper._IB_PRECISIONS
    assert len(hyper._IB_CACHE) <= hyper._IB_PRECISIONS
    node_precisions = {bits for bits, _ in quadrature._NODE_CACHE}
    assert len(node_precisions) <= quadrature._NODE_PRECISIONS
    with mp.workdps(sweep[-1]):
        # the newest precision survives; the oldest went first
        assert mp.mp.prec in hyper._IB_CACHE and mp.mp.prec in node_precisions
    with mp.workdps(sweep[0]):
        assert mp.mp.prec not in hyper._IB_CACHE
        assert mp.mp.prec not in node_precisions
    info = lvalues._l_value_cached.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
