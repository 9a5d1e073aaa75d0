"""Outside-in span tracer for one benchmark pass.

Nothing under ``src/`` knows about this module.  ``install`` replaces the
functions named in ``SPANS`` with timing wrappers, in every ``thetal``
module that holds a binding to them: the package imports by name
(``from .quadrature import integrate01``), so patching only the defining
module would miss most calls.  The series kernels are also reached through
``hyper._KERNELS`` and through module-level aliases such as ``_X3``, which
the same rebinding covers.

Spans nest (the 3F2 interpolant build runs ``integrate01`` inside an
integrand), so each span's self time is its duration minus that of its
children, and a span's inclusive time is counted only at its outermost
call.  Time outside every span is what ``trace.coverage`` leaves out.
"""

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span).  A span's layer is the text before the dot.
SPANS = (
    ("identities", "verify", "identities.verify"),
    ("lvalues", "l_value", "lvalues.l_value"),
    ("lvalues", "mellin", "lvalues.mellin"),
    ("lvalues", "alpha_integral", "lvalues.alpha_integral"),
    ("lvalues", "q_integral", "lvalues.q_integral"),
    ("lvalues", "kdf_theorem_rhs", "lvalues.kdf_theorem_rhs"),
    ("lvalues", "dirichlet_sum", "lvalues.dirichlet_sum"),
    ("lvalues", "closed_form", "lvalues.closed_form"),
    ("lvalues", "l_chi4", "lvalues.dirichlet_l"),
    ("lvalues", "l_psi", "lvalues.dirichlet_l"),
    ("hyper", "pfq", "hyper.pfq"),
    ("hyper", "_pfq_unit", "hyper.pfq_unit"),
    ("hyper", "_pfq_alternating", "hyper.pfq_alt"),
    ("hyper", "_pfq_interior", "hyper.pfq_interior"),
    ("hyper", "kdf_full", "hyper.kdf_full"),
    ("hyper", "euler_2f1", "hyper.euler_2f1"),
    ("hyper", "_ib_coeffs", "hyper.ib_coeffs"),
    ("hyper", "_kernel_log", "hyper.kernel"),
    ("hyper", "_kernel_atanh", "hyper.kernel"),
    ("hyper", "_kernel_agm", "hyper.kernel"),
    ("hyper", "_kernel_treble", "hyper.kernel"),
    ("series", "richardson_power", "series.richardson"),
    ("series", "extrapolate_powerlog", "series.extrapolate"),
    ("special", "alternating_sum", "special.alternating_sum"),
    ("special", "gamma", "special.gamma"),
    ("special", "zeta", "special.zeta"),
    ("quadrature", "integrate01", "quadrature.integrate01"),
    ("quadrature", "_nodes", "quadrature.nodes"),
    ("theta", "theta2", "theta.series"),
    ("theta", "theta3", "theta.series"),
    ("theta", "theta4", "theta.series"),
    ("theta", "theta_direct", "theta.series"),
    ("theta", "theta_involution", "theta.series"),
    ("theta", "alpha_pair", "theta.series"),
    ("theta", "alpha", "theta.series"),
    ("theta", "alpha_qderiv", "theta.series"),
    ("theta", "form_f", "theta.series"),
    ("theta", "form_g", "theta.series"),
    ("theta", "eisenstein_M", "theta.series"),
    ("theta", "lambert_series", "theta.lambert"),
    ("theta", "coeffs_convolution", "theta.coeffs_convolution"),
    ("theta", "coeffs_lambert", "theta.coeffs_lambert"),
)


class Tracer:
    """Span and counter totals of one process, kept in memory."""

    def __init__(self):
        self._stack = []  # [span, start, child seconds]
        self._depth = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = defaultdict(float)
        self.covered_s = 0.0
        self.pfq_keys = set()

    def timed(self, fn, span):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append([span, perf_counter(), 0.0])
            self._depth[span] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                _, start, child = self._stack.pop()
                dur = perf_counter() - start
                self._depth[span] -= 1
                self.self_s[span] += dur - child
                if not self._depth[span]:
                    self.incl_s[span] += dur
                self.calls[span] += 1
                if self._stack:
                    self._stack[-1][2] += dur
                else:
                    self.covered_s += dur

        return wrapper


def _rebind(old, new):
    from thetal import hyper

    for name, mod in list(sys.modules.items()):
        if name == "thetal" or name.startswith("thetal."):
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)
    for key, val in list(hyper._KERNELS.items()):
        if val is old:
            hyper._KERNELS[key] = new


def install(tracer: Tracer):
    """Wrap every function in ``SPANS`` for ``tracer``."""
    import importlib

    from thetal import hyper, lvalues, quadrature
    from thetal.context import QuadratureError

    wrappers = {}
    for mod_name, fn_name, span in SPANS:
        fn = getattr(importlib.import_module(f"thetal.{mod_name}"), fn_name)
        wrappers[fn_name] = (fn, tracer.timed(fn, span))

    def cache_growth(fn_name, cache, counter):
        fn, inner = wrappers[fn_name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size, start = len(cache), perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                if len(cache) > size:
                    tracer.counts[counter] += 1
                    tracer.counts[counter + "_s"] += perf_counter() - start

        wrappers[fn_name] = (fn, wrapper)

    cache_growth("_ib_coeffs", hyper._IB_CACHE, "ib_builds")
    cache_growth("_nodes", quadrature._NODE_CACHE, "node_builds")

    integrate, timed_integrate = wrappers["integrate01"]

    @functools.wraps(integrate)
    def integrate01(f, *args, **kwargs):
        try:
            return timed_integrate(
                tracer.timed(f, "quadrature.integrand"), *args, **kwargs
            )
        except QuadratureError:
            tracer.counts["quadrature_failures"] += 1
            raise

    wrappers["integrate01"] = (integrate, integrate01)

    pfq, timed_pfq = wrappers["pfq"]

    @functools.wraps(pfq)
    def pfq_wrapper(spec, z, ctx):
        tracer.pfq_keys.add((spec, str(z), ctx.digits))
        return timed_pfq(spec, z, ctx)

    wrappers["pfq"] = (pfq, pfq_wrapper)

    l_value, timed_l_value = wrappers["l_value"]
    cached = lvalues._l_value_cached

    @functools.wraps(l_value)
    def l_value_wrapper(*args, **kwargs):
        misses = cached.cache_info().misses
        try:
            return timed_l_value(*args, **kwargs)
        finally:
            hit = cached.cache_info().misses == misses
            tracer.counts["l_value_hits" if hit else "l_value_misses"] += 1

    wrappers["l_value"] = (l_value, l_value_wrapper)

    for old, new in wrappers.values():
        _rebind(old, new)
