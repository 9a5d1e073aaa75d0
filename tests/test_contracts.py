"""Names that other code reaches by string: the benchmark tracer's spans and
each module's ``__all__``.  A deletion that leaves either one stale fails
here rather than in a traced benchmark pass.  Every theta evaluator the
routes call must be one the tracer times, the module caches the tracer
reads by name must stay bounded in a process that sweeps precisions, and
the scripts must still import what they name.  The registry reaches the
double series and the integral routes only through ``lvalues``."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import thetal
from thetal import hyper, identities, lvalues, quadrature, theta
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


def test_theta_imports_are_traced():
    # a private theta helper imported by a route would move its time out of
    # the tracer's theta spans without any span failing to resolve
    traced = {fn for mod, fn, _ in _tracer_spans() if mod == "theta"}
    for mod in (lvalues, identities):
        for name, val in vars(mod).items():
            if callable(val) and getattr(val, "__module__", None) == theta.__name__:
                assert val.__name__ in traced, f"{mod.__name__}.{name}"


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
    # the weighted double-series memo: one more context than it holds, each
    # a cheap 64 x 64 truncated square
    weighted = lvalues.kdf_weighted_sum
    for extra in range(weighted.cache_info().maxsize + 1):
        ctx = PrecisionContext(digits=15, max_terms=4096 + extra)
        weighted("thm11_1", "double_truncate", ctx)
    info = weighted.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    # the shared-pass memos: one more context than each holds, at 10 digits
    passes = {
        lvalues._u_pass: lambda ctx: lvalues.mellin("f", 3, ctx),
        lvalues._kdf_family: lvalues._kdf_family,
    }
    for memo, fill in passes.items():
        for extra in range(memo.cache_info().maxsize + 1):
            fill(PrecisionContext(digits=10, max_terms=4096 + extra))
        info = memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


def test_registry_reads_l_values_through_lvalues():
    # every L-value the registry compares comes through l_value or the
    # shared weighted sum; a direct route call would bypass both memos
    for name in ("kdf_full", "alpha_integral", "q_integral"):
        assert not hasattr(identities, name), name


def test_scripts_start(tmp_path):
    # the scripts import the package by name; a refactor that breaks one of
    # those imports fails here instead of at the next manual run
    repo = PERFBENCH.parent
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    for script in ("lvalue_table.py", "convergence_scan.py"):
        done = subprocess.run(
            [sys.executable, str(repo / "scripts" / script), "--help"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
        )
        assert done.returncode == 0, (script, done.stderr)
    # one table end to end: its effort column reads every route's result
    done = subprocess.run(
        [sys.executable, str(repo / "scripts" / "lvalue_table.py"),
         "--forms", "f", "--s", "3", "--digits", "10"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "routes agree" in done.stdout, done.stdout


@pytest.mark.parametrize("script,argv,message", [
    ("lvalue_table.py", ("--s", "3,5"), "s must be 3 or 4"),
    ("lvalue_table.py", ("--digits", "5"), "digits must be at least 10"),
    ("convergence_scan.py", ("--digits", "5"), "digits must be at least 10"),
], ids=["lvalue_table-s", "lvalue_table-digits", "convergence_scan-digits"])
def test_lvalue_table_rejects_s_outside_3_4(tmp_path, script, argv, message):
    # values exist at s = 3 and 4 only, and no precision below MIN_DIGITS,
    # so either is a usage error, before any value is computed
    repo = PERFBENCH.parent
    done = subprocess.run(
        [sys.executable, str(repo / "scripts" / script), *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(repo / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2, done.stdout
    assert message in done.stderr
    assert not done.stdout
