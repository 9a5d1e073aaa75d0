"""One cold pass of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/one_pass.py WORKLOAD SEED TRACE

``perfbench/run.py`` starts this once per pass, because every ``thetal``
command starts cold: module caches (quadrature nodes, the 3F2 interpolant,
memoized L-values, coefficient streams) would turn a repeat in one process
into cache hits.  The last line of standard output is one JSON object with
the pass's times, its checks and, when TRACE is 1, its per-layer totals.
An untraced pass samples the host's speed as it runs (``speed.py``) and
reports its times both as measured and scaled to reference speed.
"""

import hashlib
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing
from speed import Sampler

HERE = Path(__file__).resolve().parent

REGISTRY_DIGITS = {"registry-20": 20, "registry-40": 40}
WORKLOADS = tuple(REGISTRY_DIGITS) + ("coeffs-1e5",)

# the identities whose checks dominate a registry pass; the rest are summed
HEAVY_IDS = ("I12", "I19", "I20", "I22", "I25", "I26c", "I26d")

COEFF_N = 100000


def grid_for_seed(seed: int) -> tuple:
    """The nome grid of a registry pass.

    Seed 0 is the package's DEFAULT_GRID.  Any other seed draws five points
    in [0.02, 0.3] and keeps e^-pi.  At least one point is 0.05 or more, so
    alpha exceeds 0.55 and the 3F2 interpolant branch is always reached.
    """
    from thetal.identities import DEFAULT_GRID

    if seed == 0:
        return DEFAULT_GRID
    rng = random.Random(seed)
    while True:
        points = sorted(rng.uniform(0.02, 0.3) for _ in range(5))
        if points[-1] >= 0.05:
            return tuple(f"{p:.4f}" for p in points) + ("e-pi",)


def registry_pass(workload: str, seed: int):
    """All registry identities; a check fails unless its status is pass."""
    from thetal import identities

    config = identities.RunConfig(digits=REGISTRY_DIGITS[workload],
                                  grid=grid_for_seed(seed))
    reports = identities.verify_all(config)
    if [r.id for r in reports] != list(identities.IDENTITY_IDS):
        raise RuntimeError("verify_all did not return one report per identity")
    failed = [r.id for r in reports if r.status != "pass"]
    fingerprint = identities.reports_to_json(reports)
    return len(reports), failed, fingerprint, reports


def coeffs_pass():
    """Exact f coefficients against the divisor-sum oracle, then the raw
    Dirichlet series for L(g,3) and L(g,4) against the stored reference,
    each within the error estimate the route reports itself."""
    import mpmath as mp

    from thetal import lvalues, theta
    from thetal.context import PrecisionContext

    reference = json.loads((HERE / "reference.json").read_text())["values"]
    ctx = PrecisionContext(digits=20)
    outcomes = []

    def exact_oracle():
        conv = theta.coeffs_convolution("f", COEFF_N).coeffs
        lam = theta.coeffs_lambert("f", COEFF_N).coeffs
        digest = hashlib.sha256(repr(conv).encode()).hexdigest()
        return conv == lam, digest

    def dirichlet(s):
        def check():
            value, estimate, _ = lvalues.dirichlet_sum("g", s, ctx)
            with mp.workdps(60):
                error = abs(value - mp.mpf(reference[f"L(g,{s})"]["value"]))
                return error <= estimate, mp.nstr(value, 20), mp.nstr(estimate, 6)

        return check

    for name, check in (("f exact oracle", exact_oracle),
                        ("L(g,3) dirichlet", dirichlet(3)),
                        ("L(g,4) dirichlet", dirichlet(4))):
        try:
            ok, *detail = check()
        except Exception:  # a route that raises is a failed check, not a crash
            traceback.print_exc()
            ok, detail = False, ["raised"]
        outcomes.append((name, ok, detail))
    failed = [name for name, ok, _ in outcomes if not ok]
    return len(outcomes), failed, json.dumps(outcomes), []


def layer_metrics(tracer, reports, run_s: float) -> dict:
    """The per-layer metrics of one traced pass, named layer.metric."""
    incl, self_s, calls, counts = (
        tracer.incl_s, tracer.self_s, tracer.calls, tracer.counts)
    check = {r.id: r.wall_time_s for r in reports}
    out = {f"identities.check_s.{i}": check.get(i, 0.0) for i in HEAVY_IDS}
    out["identities.check_s.rest"] = sum(
        t for i, t in check.items() if i not in HEAVY_IDS)
    out["identities.critical_path_s"] = max(check.values(), default=0.0)
    for route in ("mellin", "alpha_integral", "q_integral",
                  "kdf_theorem_rhs", "dirichlet_sum"):
        out[f"lvalues.{route}_s"] = incl.get(f"lvalues.{route}", 0.0)
    looked_up = counts.get("l_value_hits", 0) + counts.get("l_value_misses", 0)
    out["lvalues.l_value_hit_ratio"] = (
        counts.get("l_value_hits", 0) / looked_up if looked_up else 0.0)
    out["hyper.pfq_unit_s"] = incl.get("hyper.pfq_unit", 0.0)
    out["hyper.pfq_unit_calls"] = calls.get("hyper.pfq_unit", 0)
    out["series.richardson_rungs"] = calls.get("series.richardson", 0)
    out["hyper.pfq_alt_s"] = incl.get("hyper.pfq_alt", 0.0)
    out["hyper.pfq_interior_s"] = incl.get("hyper.pfq_interior", 0.0)
    pfq_calls = calls.get("hyper.pfq", 0)
    out["hyper.pfq_distinct_ratio"] = (
        len(tracer.pfq_keys) / pfq_calls if pfq_calls else 0.0)
    out["hyper.kdf_full_s"] = incl.get("hyper.kdf_full", 0.0)
    out["hyper.kernel_s"] = incl.get("hyper.kernel", 0.0)
    out["hyper.ib_builds"] = counts.get("ib_builds", 0)
    out["hyper.ib_build_s"] = counts.get("ib_builds_s", 0.0)
    out["quadrature.engine_s"] = self_s.get("quadrature.integrate01", 0.0)
    out["quadrature.integrand_s"] = self_s.get("quadrature.integrand", 0.0)
    out["quadrature.calls"] = calls.get("quadrature.integrate01", 0)
    out["quadrature.integrand_evals"] = calls.get("quadrature.integrand", 0)
    out["quadrature.failures"] = counts.get("quadrature_failures", 0)
    out["quadrature.node_tables"] = counts.get("node_builds", 0)
    out["quadrature.node_build_s"] = counts.get("node_builds_s", 0.0)
    out["theta.series_s"] = incl.get("theta.series", 0.0)
    out["theta.series_calls"] = calls.get("theta.series", 0)
    out["theta.lambert_s"] = incl.get("theta.lambert", 0.0)
    out["theta.coeffs_convolution_s"] = incl.get("theta.coeffs_convolution", 0.0)
    out["theta.coeffs_lambert_s"] = incl.get("theta.coeffs_lambert", 0.0)
    out["special.alternating_sum_s"] = incl.get("special.alternating_sum", 0.0)
    out["special.alternating_sum_calls"] = calls.get("special.alternating_sum", 0)
    layers = {span.split(".")[0] for _, _, span in tracing.SPANS}
    for layer in sorted(layers):
        out[f"{layer}.self_s"] = sum(
            t for span, t in self_s.items() if span.split(".")[0] == layer)
    out["trace.coverage"] = tracer.covered_s / run_s
    return out


def main(argv) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    import thetal.identities  # noqa: F401  (loads every layer before wrapping)

    tracer, sampler = tracing.Tracer(), Sampler()
    if trace:
        tracing.install(tracer)
    else:  # a traced pass keeps to its spans; its raw time gives the overhead
        sampler.start()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    if workload == "coeffs-1e5":
        attempted, failed, fingerprint, reports = coeffs_pass()
    else:
        try:
            attempted, failed, fingerprint, reports = registry_pass(workload, seed)
        except Exception:  # count the whole pass as failed, keep the timing
            traceback.print_exc()
            attempted, failed, fingerprint, reports = 1, ["verify_all"], "raised", []
    run_s = perf_counter() - start - sampler.wall_s
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (usage.ru_utime + usage.ru_stime - usage0.ru_utime - usage0.ru_stime
             + children.ru_utime + children.ru_stime - sampler.cpu_s)
    if not trace:
        sampler.stop()
    speed = sampler.speed() if sampler.samples else None
    result = {
        "measured_run_s": run_s,
        "measured_cpu_s": cpu_s,
        "speed": speed,
        "run_s": run_s * speed if speed else None,
        "cpu_s": cpu_s * speed if speed else None,
        "peak_rss_mb": max(usage.ru_maxrss, children.ru_maxrss) / 1024,
        "attempted": attempted,
        "failed": failed,
        "fingerprint": hashlib.sha256(fingerprint.encode()).hexdigest(),
    }
    if trace:
        result["layers"] = layer_metrics(tracer, reports, run_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
