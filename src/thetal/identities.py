"""Identity registry and verification driver.

Every registered identity pins two evaluation routes against each other:
theta series against hypergeometric kernels, Lambert sums against theta
products, double-series reductions against independently computed L-values,
and exact integer or rational facts checked in exact arithmetic.  A report
records the worst disagreement, the digits of agreement, and a pass/fail
status against its target.

Registry ids are stable opaque names.  Pointwise entries register a pair
function, which the driver sweeps over the configured nome grid, reporting
the worst sample; value entries compare one or a few pairs of numbers.
Both must agree to two digits short of the requested precision, except the
double-series entries under the coarse strategies (``_STRATEGY_TARGETS``).
Exact entries allow no error at all.
"""

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import mpmath as mp

from .context import MIN_DIGITS, DomainError, Estimate, PrecisionContext, as_real
from .hyper import KDF_STRATEGIES, euler_2f1, kdf_converges, pfq
from .hyper import PFQSpec, series_kernel
from .lvalues import (
    KDF_SPECS,
    LF4_ALT,
    ROUTE_IDS,
    SAMART_5F4,
    kdf_theorem_rhs,
    kdf_weighted_sum,
    l_value,
    lambert_closed,
    lf4_triple,
)
from .theta import (
    alpha_pair,
    alpha_qderiv,
    coeffs_convolution,
    coeffs_lambert,
    eisenstein_M,
    lambert_series,
    theta2,
    theta3,
    theta4,
    theta_direct,
)

__all__ = [
    "DEFAULT_GRID",
    "RunConfig",
    "VerificationReport",
    "IDENTITY_IDS",
    "identity_info",
    "verify",
    "verify_all",
    "report_to_dict",
]

DEFAULT_GRID = ("0.02", "0.05", "0.1", "0.2", "0.3", "e-pi")


@dataclass(frozen=True)
class RunConfig:
    digits: int = 20
    ids: Optional[tuple] = None
    grid: tuple = DEFAULT_GRID
    jobs: int = 1
    kdf_strategy: str = "integral_reduction"
    target_override: Optional[int] = None
    max_terms: Optional[int] = None

    def __post_init__(self):
        if self.digits < MIN_DIGITS:
            raise DomainError(f"digits must be at least {MIN_DIGITS}")
        if self.jobs < 1:
            raise DomainError("parallelism degree must be positive")
        if self.kdf_strategy not in KDF_STRATEGIES:
            raise DomainError(f"unknown strategy {self.kdf_strategy!r}")
        if not self.grid:
            raise DomainError("sample grid is empty")
        # the same parse, at the same precision, as the sweep will use
        with _ctx_for(self).working():
            for s in self.grid:
                if not 0 < _grid_point(s) < 1:
                    raise DomainError(f"grid point {s!r} outside (0,1)")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check, all numerics pre-rendered to strings
    so reports serialize identically regardless of worker process."""

    id: str
    lhs: str
    rhs: str
    abs_err: str
    rel_err: str
    digits_agreed: int
    lhs_method: str
    rhs_method: str
    sample_points: tuple
    wall_time_s: float
    precision_digits: int
    status: str
    target: int


def report_to_dict(report: VerificationReport, timings: bool = False) -> dict:
    """The stable serialization schema: every field but the target, with
    wall time suppressed by default so repeated runs produce identical
    bytes."""
    out = asdict(report)
    del out["target"]
    out["sample_points"] = list(report.sample_points)
    out["wall_time_s"] = f"{report.wall_time_s:.3f}" if timings else "0"
    return out


class EvalOutcome(NamedTuple):
    pairs: tuple
    promised: Optional[int] = None  # a double-series route's own digits


def _ctx_for(config: RunConfig) -> PrecisionContext:
    if config.max_terms is not None:
        return PrecisionContext(digits=config.digits, max_terms=config.max_terms)
    return PrecisionContext(digits=config.digits)


def _grid_point(s):
    # a grid label's nome at the active precision
    return mp.exp(-mp.pi) if s == "e-pi" else as_real(s)


def _grid_values(config: RunConfig, ctx: PrecisionContext):
    with ctx.working():
        return [(s, _grid_point(s)) for s in config.grid]


def _promised_digits(value, err):
    # digits the route's own error bound vouches for
    with mp.workdps(15):
        rel = abs(err) / max(abs(value), mp.mpf(10) ** -30)
        if rel <= 0:
            return 99
        return max(0, int(mp.floor(-mp.log10(rel))))


# ---------------------------------------------------------------------------
# pointwise identities on the nome grid

_K3 = series_kernel(("1/2", "1/2"), (1,))

_EULER_SPEC = PFQSpec(("1/2", 1), ("3/2",))


def _trans1(qv, ctx):
    a, ca = alpha_pair(qv, ctx)
    return theta3(qv, ctx) ** 2, _K3(a, ca)


def _trans2(qv, ctx):
    a, ca = alpha_pair(qv, ctx)
    return alpha_qderiv(qv, ctx), a * ca * theta3(qv, ctx) ** 4


def _inv(qv, ctx):
    # both sides by direct summation; the public functions would reroute
    # one side through the other and collapse the check
    u = -mp.log(qv) / mp.pi
    lhs = mp.sqrt(u) * theta_direct(4, mp.exp(-mp.pi * u), ctx)
    rhs = theta_direct(2, mp.exp(-mp.pi / u), ctx)
    return lhs, rhs


def _lam1(qv, ctx):
    return lambert_series("lam1", qv, ctx), theta2(qv, ctx) ** 2


def _lam2(qv, ctx):
    return lambert_series("lam2", qv, ctx), theta2(qv, ctx) ** 4


def _eis384(qv, ctx):
    q2 = qv * qv
    rhs = theta2(q2, ctx) ** 2 * theta4(q2, ctx) ** 4 / 4
    return lambert_series("eis384", qv, ctx), rhs


def _lambert_closed_pair(name):
    # the raw Lambert sum against its closed form in alpha, as the nome
    # integrals use it above their series cut
    def pair_at(qv, ctx):
        return lambert_series(name, qv, ctx), lambert_closed(name, *alpha_pair(qv, ctx))

    return pair_at


def _doubling_23(qv, ctx):
    q2 = qv * qv
    return 2 * theta2(q2, ctx) * theta3(q2, ctx), theta2(qv, ctx) ** 2


def _cube_m(qv, ctx):
    rhs = (theta2(mp.sqrt(qv), ctx) ** 8 - 8 * theta2(qv, ctx) ** 8) / 256
    return lambert_series("cube", qv, ctx), rhs


def _m_theta28(qv, ctx):
    lhs = theta2(mp.sqrt(qv), ctx) ** 8
    rhs = (eisenstein_M(qv, ctx) - eisenstein_M(qv * qv, ctx)) * 16 / 15
    return lhs, rhs


def _comb_8a(qv, ctx):
    q2 = qv * qv
    lhs = 2 * theta4(q2, ctx) ** 8 - theta4(qv, ctx) ** 8
    a, ca = alpha_pair(qv, ctx)
    return lhs, (1 + a) * ca * theta3(qv, ctx) ** 8


def _comb_8b(qv, ctx):
    q2 = qv * qv
    lhs = 2 * theta4(q2 * q2, ctx) ** 8 - theta4(q2, ctx) ** 8
    a, ca = alpha_pair(qv, ctx)
    rhs = (mp.sqrt(ca) + mp.sqrt(ca) * ca) * theta3(qv, ctx) ** 8 / 2
    return lhs, rhs


def _doubling_33(qv, ctx):
    q2 = qv * qv
    lhs = 2 * theta3(q2, ctx) ** 2
    return lhs, theta3(qv, ctx) ** 2 + theta4(qv, ctx) ** 2


def _doubling_44(qv, ctx):
    return theta3(qv, ctx) * theta4(qv, ctx), theta4(qv * qv, ctx) ** 2


def _euler(zv, ctx):
    # grid points reused as the hypergeometric argument
    return euler_2f1("1/2", 1, "3/2", zv, ctx).value, pfq(_EULER_SPEC, zv, ctx).value


# ---------------------------------------------------------------------------
# value identities

def _ev_theorem(form, n, method):
    # L(form, n)'s double-series side against its value by method
    rhs_id = ROUTE_IDS[form, n][0]

    def ev(config, ctx):
        v, e, _ = kdf_theorem_rhs(rhs_id, ctx, strategy=config.kdf_strategy)
        ref = l_value(form, n, method, ctx)
        label = f"L({form},{n})"
        return EvalOutcome(((label, v, ref.value),), _promised_digits(v, e))

    return ev


def _less(c, res):  # the Estimate of c - res for an exactly known c
    return res._replace(value=c - res.value)


# each corollary scales the weighted double series of L(form, n)'s theorem
# and replaces the L-value by a closed form: label, then (scale, closed
# Estimate) at ctx
_COROLLARY = {
    ("f", 3): ("F(1,1)", lambda ctx: (1, Estimate(3 * mp.pi * mp.log(2), 0))),
    ("g", 3): ("8 F(1,1)", lambda ctx: (8, _less(48 * mp.log(2), pfq(SAMART_5F4, 1, ctx)))),
    ("f", 4): ("pi/24 weighted", lambda ctx: (mp.pi / 24, pfq(LF4_ALT, -1, ctx))),
}


def _ev_corollary(form, n):
    label, sides = _COROLLARY[form, n]
    rhs_id = ROUTE_IDS[form, n][0]

    def ev(config, ctx):
        acc, err, _ = kdf_weighted_sum(rhs_id, config.kdf_strategy, ctx)
        with ctx.working():
            scale, closed = sides(ctx)
            lhs = scale * acc
        promised = _promised_digits(lhs, scale * err + closed.error_estimate)
        return EvalOutcome(((label, lhs, closed.value),), promised)

    return ev


def _ev_factorization(config, ctx):
    pairs = []
    for s in (3, 4):
        a = l_value("f", s, "factorized", ctx)
        b = l_value("f", s, "mellin", ctx)
        pairs.append((f"s={s}", a.value, b.value))
    return EvalOutcome(tuple(pairs))


def _ev_lf4_triple(config, ctx):
    labels = ("alternating", "split", "character-sum")
    variants = tuple(zip(labels, (t.value for t in lf4_triple(ctx))))
    pairs = []
    for i, (la, va) in enumerate(variants):
        for lb, vb in variants[i + 1 :]:
            pairs.append((f"{la}|{lb}", va, vb))
    return EvalOutcome(tuple(pairs))


def _ev_q_route(form, n, method):
    # L(form, n)'s nome integral against its value by method
    q_id = ROUTE_IDS[form, n][1]

    def ev(config, ctx):
        v = l_value(form, n, "q_integral", ctx).value
        ref = l_value(form, n, method, ctx).value
        return EvalOutcome(((f"q:{q_id}", v, ref),))

    return ev


# ---------------------------------------------------------------------------
# exact identities

def _exact_str(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        num, den = x.numerator, x.denominator
        d = den
        while d % 2 == 0:
            d //= 2
        while d % 5 == 0:
            d //= 5
        if d == 1:
            with mp.workdps(30):
                return mp.nstr(mp.mpf(num) / den, 20)
        return f"{num}/{den}"
    return str(x)


def _exact_outcome(headline, checks, size=lambda v: v, flags=()):
    """An exact entry's pairs: the headline totals size(side) over every
    check, then come the first three checks or flags whose sides differ.
    Flags stay out of the totals."""
    checks = tuple(checks)
    totals = (sum(size(p[side]) for p in checks) for side in (1, 2))
    misses = [p for p in checks + tuple(flags) if p[1] != p[2]]
    return EvalOutcome(((headline, *totals), *misses[:3]))


def _ev_pochhammer(config, ctx):
    # closed forms for three Pochhammer quotients, exact over n <= 400
    families = (
        ("(3/2)_n/(1/2)_n", Fraction(3, 2), Fraction(1, 2), 1, lambda n: 2 * n + 1),
        ("(5/4)_n/(1/4)_n", Fraction(5, 4), Fraction(1, 4), 1, lambda n: 4 * n + 1),
        ("3(7/4)_n/(3/4)_n", Fraction(7, 4), Fraction(3, 4), 3, lambda n: 4 * n + 3),
    )
    checks = []
    for name, top, bot, scale, closed in families:
        ratio = Fraction(scale)
        for n in range(401):
            checks.append((f"{name} at n={n}", ratio, Fraction(closed(n))))
            ratio = ratio * (top + n) / (bot + n)
    return _exact_outcome("sum over n<=400, three families", checks)


def _ev_coeff_oracle(config, ctx):
    n = 2000
    conv = coeffs_convolution("f", n).coeffs
    lam = coeffs_lambert("f", n).coeffs
    checks = ((f"a_{m}", a, b) for m, (a, b) in enumerate(zip(conv, lam), start=1))
    return _exact_outcome("sum|a_n| n<=2000", checks, abs)


_EXPECTED_MARGINS = {
    "thm11_1": (Fraction(1, 2),) * 3,
    "thm11_2": (Fraction(1, 2),) * 3,
    "thm12_1a": (Fraction(1),) * 3,
    "thm12_1b": (Fraction(1),) * 3,
    "thm12_2a": (Fraction(1, 2),) * 3,
    "thm12_2b": (Fraction(3, 2),) * 3,
}


def _ev_kdf_margins(config, ctx):
    reports = {n: kdf_converges(KDF_SPECS[n]) for n in sorted(_EXPECTED_MARGINS)}
    checks = (
        (f"{name} m{i + 1}", got, want)
        for name, report in reports.items()
        for i, (got, want) in enumerate(zip(report.margins, _EXPECTED_MARGINS[name]))
    )
    flags = (
        (f"{name} convergent", int(report.convergent_at_unit), 1)
        for name, report in reports.items()
    )
    return _exact_outcome("sum of 18 margins", checks, flags=flags)


# ---------------------------------------------------------------------------
# the registry

@dataclass(frozen=True)
class Identity:
    id: str
    name: str
    kind: str
    description: str
    lhs_method: str
    rhs_method: str
    evaluate: Callable


def _sweep(pair_at):
    # the evaluator of a pointwise entry: its pair function over the grid
    def evaluate(config, ctx):
        pairs = []
        with ctx.working():
            for label, qv in _grid_values(config, ctx):
                lhs, rhs = pair_at(qv, ctx)
                pairs.append((label, lhs, rhs))
        return EvalOutcome(tuple(pairs))

    return evaluate


def _pw(id_, name, desc, lhs, rhs, pair_at):
    return Identity(id_, name, "pointwise", desc, lhs, rhs, _sweep(pair_at))


_REGISTRY_ENTRIES = (
    _pw("I1", "trans-1", "theta3 squared equals the quadratic AGM kernel at alpha",
        "theta3(q)^2 series", "2F1(1/2,1/2;1;alpha) via AGM", _trans1),
    _pw("I2", "trans-2", "q d(alpha)/dq equals alpha(1-alpha) theta3^4",
        "term-differentiated theta series", "alpha(1-alpha) theta3^4(q)", _trans2),
    _pw("I3", "inv", "sqrt(u) theta4 at nome exp(-pi u) equals theta2 at exp(-pi/u)",
        "direct theta4 series", "direct theta2 series at partner nome", _inv),
    _pw("I4", "lam1", "signed odd Lambert sum equals theta2^2",
        "lambert_series(lam1)", "theta2(q)^2 series", _lam1),
    _pw("I5", "lam2", "weighted odd Lambert sum equals theta2^4",
        "lambert_series(lam2)", "theta2(q)^4 series", _lam2),
    _pw("I6", "eis384", "odd square-weighted character sum equals theta product at q^2",
        "lambert_series(eis384)", "theta2^2 theta4^4 at q^2, quartered", _eis384),
    _pw("I7", "lemma22-1", "first weight-3 Lambert kernel equals alpha/16 times the log kernel",
        "lambert_series(lemma22_1)", "alpha/16 * 2F1(1,1;2;alpha)",
        _lambert_closed_pair("lemma22_1")),
    _pw("I8", "lemma22-2", "second weight-3 Lambert kernel equals sqrt(alpha)/4 times the atanh kernel",
        "lambert_series(lemma22_2)", "sqrt(alpha)/4 * 2F1(1/2,1;3/2;alpha)",
        _lambert_closed_pair("lemma22_2")),
    _pw("I9", "doubling-23", "2 theta2 theta3 at q^2 equals theta2^2 at q",
        "2 theta2(q^2) theta3(q^2)", "theta2(q)^2", _doubling_23),
    _pw("I10", "cube-m", "cubic odd Lambert sum equals an eighth-power theta combination",
        "lambert_series(cube)", "(theta2^8(sqrt q) - 8 theta2^8(q))/256", _cube_m),
    _pw("I11", "m-theta28", "theta2^8 at sqrt(q) equals 16/15 of an Eisenstein difference",
        "theta2(sqrt q)^8", "(16/15)(M(q) - M(q^2))", _m_theta28),
    _pw("I12", "ram", "quadratic odd Lambert sum equals sqrt(alpha)/4 times a 3F2/2F1 quotient",
        "lambert_series(ram_lhs)", "sqrt(alpha)/4 * 3F2/2F1 kernels",
        _lambert_closed_pair("ram_lhs")),
    _pw("I13", "comb-8a", "2 theta4^8(q^2) - theta4^8(q) equals (1+alpha)(1-alpha) theta3^8",
        "eighth-power theta combination", "(1+alpha)(1-alpha) theta3^8(q)", _comb_8a),
    _pw("I14", "comb-8b", "2 theta4^8(q^4) - theta4^8(q^2) equals a half-integer power combination",
        "eighth-power theta combination", "((1-a)^(1/2)+(1-a)^(3/2)) theta3^8/2", _comb_8b),
    _pw("I15", "doubling-33", "2 theta3^2 at q^2 equals theta3^2 + theta4^2 at q",
        "2 theta3(q^2)^2", "theta3(q)^2 + theta4(q)^2", _doubling_33),
    _pw("I16", "doubling-44", "theta3 theta4 at q equals theta4^2 at q^2",
        "theta3(q) theta4(q)", "theta4(q^2)^2", _doubling_44),
    Identity("I17", "thm11-1", "value",
             "weight-3 double-series reduction for L(f,3)",
             "pi^2/96 * KdF at (1,1)", "l_psi(1) * l_chi4(3)",
             _ev_theorem("f", 3, "factorized")),
    Identity("I18", "thm11-2", "value",
             "weight-3 double-series reduction for L(g,3)",
             "pi^3/128 * KdF at (1,1)", "Mellin transform of g at s=3",
             _ev_theorem("g", 3, "mellin")),
    Identity("I19", "thm12-1", "value",
             "weight-4 double-series reduction for L(f,4)",
             "pi^3/288 * weighted KdF pair", "l_psi(2) * l_chi4(4)",
             _ev_theorem("f", 4, "factorized")),
    Identity("I20", "thm12-2", "value",
             "weight-4 double-series reduction for L(g,4)",
             "pi^4/768 * weighted KdF pair", "Mellin transform of g at s=4",
             _ev_theorem("g", 4, "mellin")),
    Identity("I21", "cor-1", "value",
             "first reduction corollary: the double series collapses to 3 pi log 2",
             "KdF at (1,1)", "3 pi log 2", _ev_corollary("f", 3)),
    Identity("I22", "cor-2", "value",
             "second reduction corollary against the quadruple-2 5F4",
             "8 * KdF at (1,1)", "48 log 2 - 5F4(3/2,3/2,3/2,1,1;2,2,2,2;1)",
             _ev_corollary("g", 3)),
    Identity("I23", "cor-3", "value",
             "third reduction corollary against the alternating 5F4",
             "pi/24 (3 F_a + F_b)", "5F4(1/2 x4,1;3/2 x4;-1)",
             _ev_corollary("f", 4)),
    Identity("I24", "factorization", "value",
             "Dirichlet factorization of L(f,s) against the Mellin route, s in {3,4}",
             "l_psi(s-2) * l_chi4(s)", "Mellin transform of f", _ev_factorization),
    Identity("I25", "lf4-triple", "value",
             "three series expressions for the weight-4 character sum agree pairwise",
             "alternating 5F4", "positive split 5F4 / character sum", _ev_lf4_triple),
    Identity("I26a", "prop21-1", "value",
             "weight-3 nome-space integral for L(f,3)",
             "q_integral(prop21_1)", "l_psi(1) * l_chi4(3)",
             _ev_q_route("f", 3, "factorized")),
    Identity("I26b", "prop21-2", "value",
             "weight-3 nome-space integral for L(g,3)",
             "q_integral(prop21_2)", "alpha-space integral",
             _ev_q_route("g", 3, "alpha_integral")),
    Identity("I26c", "prop31-1", "value",
             "weight-4 nome-space integral for L(f,4)",
             "q_integral(prop31_1)", "l_psi(2) * l_chi4(4)",
             _ev_q_route("f", 4, "factorized")),
    Identity("I26d", "prop31-2", "value",
             "weight-4 nome-space integral for L(g,4)",
             "q_integral(prop31_2)", "alpha-space integral",
             _ev_q_route("g", 4, "alpha_integral")),
    Identity("I27", "pochhammer", "exact",
             "Pochhammer quotient closed forms 2n+1, 4n+1, 4n+3 in exact rationals",
             "incremental rising-factorial quotient", "linear closed form",
             _ev_pochhammer),
    _pw("I28", "euler-2f1", "Euler integral representation against the series, argument swept over the grid",
        "regularized Beta-kernel quadrature", "2F1(1/2,1;3/2;z) series", _euler),
    Identity("I29", "coeff-oracle", "exact",
             "convolution and character-sum coefficient oracles agree exactly to n = 2000",
             "integer theta-product convolution", "divisor character sums",
             _ev_coeff_oracle),
    Identity("I30", "kdf-margins", "exact",
             "convergence margins of the six double-series parameter sets",
             "exact margin arithmetic", "expected margin table", _ev_kdf_margins),
)

REGISTRY = {e.id: e for e in _REGISTRY_ENTRIES}
IDENTITY_IDS = tuple(e.id for e in _REGISTRY_ENTRIES)


def identity_info(id_: str) -> Identity:
    if id_ not in REGISTRY:
        raise DomainError(f"unknown identity id {id_!r}")
    return REGISTRY[id_]


# ---------------------------------------------------------------------------
# driver

# Targets of the double-series entries I17-I23 under the coarse strategies:
# the iterated sums are held to five digits, and the truncated square to
# the digits its own tail bound vouches for (None).  Every other report
# targets two digits short of the requested precision.
_STRATEGY_TARGETS = {"iterated": 5, "double_truncate": None}


def _target(config, promised):
    if config.target_override is not None:
        return config.target_override
    if promised is not None and config.kdf_strategy in _STRATEGY_TARGETS:
        static = _STRATEGY_TARGETS[config.kdf_strategy]
        return promised if static is None else static
    return config.digits - 2


class _Comparison(NamedTuple):
    lhs: str
    rhs: str
    abs_err: str
    rel_err: str
    digits_agreed: int


def _compare(config, pairs):
    """The worst pair by relative error, compared 15 digits past the run."""
    worst = None
    compare_digits = config.digits + 15
    with mp.workdps(compare_digits):
        for _, lhs, rhs in pairs:
            scale = max(abs(lhs), abs(rhs))
            rel = abs(lhs - rhs) / scale if scale > 0 else mp.mpf(0)
            if worst is None or rel > worst[0]:
                worst = (rel, lhs, rhs)
        rel, lhs, rhs = worst
        if rel > 0:
            digits_agreed = int(mp.floor(-mp.log10(rel)))
        else:
            # exact agreement at the comparison precision beats any near miss
            digits_agreed = compare_digits
        return _Comparison(
            mp.nstr(lhs, config.digits), mp.nstr(rhs, config.digits),
            mp.nstr(abs(lhs - rhs), 3), mp.nstr(rel, 3), digits_agreed,
        )


def _compare_exact(config, pairs):
    """The first mismatch, or the headline pair when every pair matches."""
    mismatches = [(a, b) for _, a, b in pairs if a != b]
    if mismatches:
        lhs, rhs = mismatches[0]
        return _Comparison(
            _exact_str(lhs), _exact_str(rhs), _exact_str(abs(lhs - rhs)), "1", 0
        )
    _, lhs, rhs = pairs[0]
    return _Comparison(_exact_str(lhs), _exact_str(rhs), "0", "0", config.digits)


def verify(id_: str, config: RunConfig) -> VerificationReport:
    """Evaluate both routes of one identity and compare.

    Evaluation failures become fail reports with the exception text in
    sample_points; only an unknown id raises.
    """
    entry = identity_info(id_)
    ctx = _ctx_for(config)
    t0 = time.perf_counter()
    try:
        outcome = entry.evaluate(config, ctx)
    except Exception as exc:
        outcome, samples = None, (f"error: {exc}",)
    elapsed = time.perf_counter() - t0
    if outcome is None:
        target, passed = _target(config, None), False
        comparison = _Comparison("nan", "nan", "nan", "nan", 0)
    else:
        target = _target(config, outcome.promised)
        samples = tuple(p[0] for p in outcome.pairs)
        if entry.kind == "exact":
            comparison = _compare_exact(config, outcome.pairs)
            passed = all(a == b for _, a, b in outcome.pairs)
        else:
            comparison = _compare(config, outcome.pairs)
            passed = comparison.digits_agreed >= target
    return VerificationReport(
        id=entry.id,
        **comparison._asdict(),
        lhs_method=entry.lhs_method,
        rhs_method=entry.rhs_method,
        sample_points=samples,
        wall_time_s=elapsed,
        precision_digits=config.digits,
        status="pass" if passed else "fail",
        target=target,
    )


def _verify_task(args):
    id_, config = args
    return verify(id_, config)


def verify_all(config: RunConfig):
    """Run the selected identities, in registry order, optionally across
    processes.  The arbitrary-precision state is process-global, hence
    processes rather than threads."""
    ids = config.ids if config.ids is not None else IDENTITY_IDS
    for id_ in ids:
        identity_info(id_)
    if config.jobs == 1 or len(ids) <= 1:
        return [verify(id_, config) for id_ in ids]
    # the pool starts all of its workers at once: never more than there are ids
    with ProcessPoolExecutor(max_workers=min(config.jobs, len(ids))) as pool:
        return list(pool.map(_verify_task, [(id_, config) for id_ in ids]))


def reports_to_json(reports, timings: bool = False) -> str:
    return json.dumps(
        [report_to_dict(r, timings=timings) for r in reports], indent=2
    )
