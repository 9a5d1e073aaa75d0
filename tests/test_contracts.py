"""Names that other code reaches by string: the benchmark tracer's spans and
each module's ``__all__``.  A deletion that leaves either one stale fails
here rather than in a traced benchmark pass."""

import importlib
import pkgutil
import sys
from pathlib import Path

import thetal

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
