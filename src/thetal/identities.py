"""Identity registry and verification driver.

Every registered identity pins two evaluation routes against each other:
theta series against hypergeometric kernels, Lambert sums against theta
products, double-series reductions against independently computed L-values,
and exact integer or rational facts checked in exact arithmetic.  A report
records the worst disagreement, the digits of agreement, and a pass/fail
status against the entry's target.

Registry ids are stable opaque names.  Pointwise entries sweep the
configured nome grid and report the worst sample; value entries compare a
single pair of numbers; exact entries allow no error at all.
"""

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import mpmath as mp

from .context import MIN_DIGITS, DomainError, PrecisionContext, as_real
from .hyper import KDF_STRATEGIES, euler_2f1, kdf_converges, kdf_full, pfq
from .hyper import PFQSpec, series_kernel
from .lvalues import (
    KDF_SPECS,
    LF4_ALT,
    LF4_POS1,
    LF4_POS3,
    SAMART_5F4,
    alpha_integral,
    kdf_theorem_rhs,
    l_chi4,
    l_value,
    q_integral,
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
    target: int = field(default=0)


def report_to_dict(report: VerificationReport, timings: bool = False) -> dict:
    """The stable serialization schema; wall time is suppressed by default
    so repeated runs produce identical bytes."""
    return {
        "id": report.id,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "abs_err": report.abs_err,
        "rel_err": report.rel_err,
        "digits_agreed": report.digits_agreed,
        "lhs_method": report.lhs_method,
        "rhs_method": report.rhs_method,
        "sample_points": list(report.sample_points),
        "wall_time_s": f"{report.wall_time_s:.3f}" if timings else "0",
        "precision_digits": report.precision_digits,
        "status": report.status,
    }


class EvalOutcome(NamedTuple):
    pairs: tuple
    promised: Optional[int]


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
_K2 = series_kernel(("1/2", 1), ("3/2",))
_KLOG = series_kernel((1, 1), (2,))
_X3 = series_kernel((1, 1, 1), ("3/2", "3/2"))

_EULER_SPEC = PFQSpec(("1/2", 1), ("3/2",))


def _sweep(config, ctx, pair_at):
    pairs = []
    with ctx.working():
        for label, qv in _grid_values(config, ctx):
            lhs, rhs = pair_at(qv, ctx)
            pairs.append((label, lhs, rhs))
    return EvalOutcome(tuple(pairs), None)


def _ev_trans1(config, ctx):
    def at(qv, ctx):
        a, ca = alpha_pair(qv, ctx)
        return theta3(qv, ctx) ** 2, _K3(a, ca)

    return _sweep(config, ctx, at)


def _ev_trans2(config, ctx):
    def at(qv, ctx):
        a, ca = alpha_pair(qv, ctx)
        return alpha_qderiv(qv, ctx), a * ca * theta3(qv, ctx) ** 4

    return _sweep(config, ctx, at)


def _ev_inv(config, ctx):
    # both sides by direct summation; the public functions would reroute
    # one side through the other and collapse the check
    def at(qv, ctx):
        u = -mp.log(qv) / mp.pi
        lhs = mp.sqrt(u) * theta_direct(4, mp.exp(-mp.pi * u), ctx)
        rhs = theta_direct(2, mp.exp(-mp.pi / u), ctx)
        return lhs, rhs

    return _sweep(config, ctx, at)


def _ev_lam1(config, ctx):
    def at(qv, ctx):
        return lambert_series("lam1", qv, ctx), theta2(qv, ctx) ** 2

    return _sweep(config, ctx, at)


def _ev_lam2(config, ctx):
    def at(qv, ctx):
        return lambert_series("lam2", qv, ctx), theta2(qv, ctx) ** 4

    return _sweep(config, ctx, at)


def _ev_eis384(config, ctx):
    def at(qv, ctx):
        q2 = qv * qv
        rhs = theta2(q2, ctx) ** 2 * theta4(q2, ctx) ** 4 / 4
        return lambert_series("eis384", qv, ctx), rhs

    return _sweep(config, ctx, at)


def _ev_lemma22_1(config, ctx):
    def at(qv, ctx):
        a, ca = alpha_pair(qv, ctx)
        return lambert_series("lemma22_1", qv, ctx), a / 16 * _KLOG(a, ca)

    return _sweep(config, ctx, at)


def _ev_lemma22_2(config, ctx):
    def at(qv, ctx):
        a, ca = alpha_pair(qv, ctx)
        return lambert_series("lemma22_2", qv, ctx), mp.sqrt(a) / 4 * _K2(a, ca)

    return _sweep(config, ctx, at)


def _ev_doubling_23(config, ctx):
    def at(qv, ctx):
        q2 = qv * qv
        return 2 * theta2(q2, ctx) * theta3(q2, ctx), theta2(qv, ctx) ** 2

    return _sweep(config, ctx, at)


def _ev_cube_m(config, ctx):
    def at(qv, ctx):
        rhs = (theta2(mp.sqrt(qv), ctx) ** 8 - 8 * theta2(qv, ctx) ** 8) / 256
        return lambert_series("cube", qv, ctx), rhs

    return _sweep(config, ctx, at)


def _ev_m_theta28(config, ctx):
    def at(qv, ctx):
        lhs = theta2(mp.sqrt(qv), ctx) ** 8
        rhs = (eisenstein_M(qv, ctx) - eisenstein_M(qv * qv, ctx)) * 16 / 15
        return lhs, rhs

    return _sweep(config, ctx, at)


def _ev_ram(config, ctx):
    def at(qv, ctx):
        a, ca = alpha_pair(qv, ctx)
        rhs = mp.sqrt(a) / 4 * _X3(a, ca) / _K3(a, ca)
        return lambert_series("ram_lhs", qv, ctx), rhs

    return _sweep(config, ctx, at)


def _ev_comb_8a(config, ctx):
    def at(qv, ctx):
        q2 = qv * qv
        lhs = 2 * theta4(q2, ctx) ** 8 - theta4(qv, ctx) ** 8
        a, ca = alpha_pair(qv, ctx)
        return lhs, (1 + a) * ca * theta3(qv, ctx) ** 8

    return _sweep(config, ctx, at)


def _ev_comb_8b(config, ctx):
    def at(qv, ctx):
        q2 = qv * qv
        lhs = 2 * theta4(q2 * q2, ctx) ** 8 - theta4(q2, ctx) ** 8
        a, ca = alpha_pair(qv, ctx)
        rhs = (mp.sqrt(ca) + mp.sqrt(ca) * ca) * theta3(qv, ctx) ** 8 / 2
        return lhs, rhs

    return _sweep(config, ctx, at)


def _ev_doubling_33(config, ctx):
    def at(qv, ctx):
        q2 = qv * qv
        lhs = 2 * theta3(q2, ctx) ** 2
        return lhs, theta3(qv, ctx) ** 2 + theta4(qv, ctx) ** 2

    return _sweep(config, ctx, at)


def _ev_doubling_44(config, ctx):
    def at(qv, ctx):
        return theta3(qv, ctx) * theta4(qv, ctx), theta4(qv * qv, ctx) ** 2

    return _sweep(config, ctx, at)


def _ev_euler_2f1(config, ctx):
    # grid points reused as the hypergeometric argument
    def at(zv, ctx):
        return euler_2f1("1/2", 1, "3/2", zv, ctx), pfq(_EULER_SPEC, zv, ctx)

    return _sweep(config, ctx, at)


# ---------------------------------------------------------------------------
# value identities

_L_PAIR = {
    "thm11_1": ("f", 3, "factorized"),
    "thm11_2": ("g", 3, "mellin"),
    "thm12_1": ("f", 4, "factorized"),
    "thm12_2": ("g", 4, "mellin"),
}


def _ev_theorem(rhs_id):
    form, n, method = _L_PAIR[rhs_id]

    def ev(config, ctx):
        v, e = kdf_theorem_rhs(rhs_id, ctx, strategy=config.kdf_strategy)
        ref = l_value(form, n, method, ctx)
        label = f"L({form},{n})"
        return EvalOutcome(
            ((label, v, ref.value),), _promised_digits(v, e)
        )

    return ev


def _ev_cor1(config, ctx):
    r = kdf_full(KDF_SPECS["thm11_1"], 1, 1, config.kdf_strategy, ctx)
    with ctx.working():
        rhs = 3 * mp.pi * mp.log(2)
    return EvalOutcome(
        (("F(1,1)", r.value, rhs),), _promised_digits(r.value, r.error_estimate)
    )


def _ev_cor2(config, ctx):
    r = kdf_full(KDF_SPECS["thm11_2"], 1, 1, config.kdf_strategy, ctx)
    with ctx.working():
        lhs = 8 * r.value
        rhs = 48 * mp.log(2) - pfq(SAMART_5F4, 1, ctx)
    return EvalOutcome(
        (("8 F(1,1)", lhs, rhs),), _promised_digits(lhs, 8 * r.error_estimate)
    )


def _ev_cor3(config, ctx):
    ra = kdf_full(KDF_SPECS["thm12_1a"], 1, 1, config.kdf_strategy, ctx)
    rb = kdf_full(KDF_SPECS["thm12_1b"], 1, 1, config.kdf_strategy, ctx)
    with ctx.working():
        lhs = mp.pi / 24 * (3 * ra.value + rb.value)
        err = mp.pi / 24 * (3 * ra.error_estimate + rb.error_estimate)
        rhs = pfq(LF4_ALT, -1, ctx)
    return EvalOutcome((("pi/24 weighted", lhs, rhs),), _promised_digits(lhs, err))


def _ev_factorization(config, ctx):
    pairs = []
    for s in (3, 4):
        a = l_value("f", s, "factorized", ctx)
        b = l_value("f", s, "mellin", ctx)
        pairs.append((f"s={s}", a.value, b.value))
    return EvalOutcome(tuple(pairs), None)


def _ev_lf4_triple(config, ctx):
    with ctx.working():
        variants = (
            ("alternating", pfq(LF4_ALT, -1, ctx)),
            ("split", pfq(LF4_POS1, 1, ctx) - pfq(LF4_POS3, 1, ctx) / 81),
            ("character-sum", l_chi4(4, ctx)),
        )
    pairs = []
    for i, (la, va) in enumerate(variants):
        for lb, vb in variants[i + 1 :]:
            pairs.append((f"{la}|{lb}", va, vb))
    return EvalOutcome(tuple(pairs), None)


_Q_PAIR = {
    "prop21_1": ("q:prop21_1", lambda ctx: l_value("f", 3, "factorized", ctx).value),
    "prop21_2": ("q:prop21_2", lambda ctx: alpha_integral("thm11_2", ctx)[0]),
    "prop31_1": ("q:prop31_1", lambda ctx: l_value("f", 4, "factorized", ctx).value),
    "prop31_2": ("q:prop31_2", lambda ctx: alpha_integral("thm12_2", ctx)[0]),
}


def _ev_q_route(q_id):
    label, ref_fn = _Q_PAIR[q_id]

    def ev(config, ctx):
        v, e, _ = q_integral(q_id, ctx)
        return EvalOutcome(((label, v, ref_fn(ctx)),), _promised_digits(v, e))

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


def _ev_pochhammer(config, ctx):
    # closed forms for three Pochhammer quotients, exact over n <= 400
    n_max = 400
    families = (
        ("(3/2)_n/(1/2)_n", Fraction(3, 2), Fraction(1, 2), 1, lambda n: 2 * n + 1),
        ("(5/4)_n/(1/4)_n", Fraction(5, 4), Fraction(1, 4), 1, lambda n: 4 * n + 1),
        ("3(7/4)_n/(3/4)_n", Fraction(7, 4), Fraction(3, 4), 3, lambda n: 4 * n + 3),
    )
    agg_lhs = Fraction(0)
    agg_rhs = Fraction(0)
    pairs = []
    for name, top, bot, scale, closed in families:
        ratio = Fraction(scale)
        for n in range(n_max + 1):
            want = Fraction(closed(n))
            agg_lhs += ratio
            agg_rhs += want
            if ratio != want and len(pairs) < 3:
                pairs.append((f"{name} at n={n}", ratio, want))
            ratio = ratio * (top + n) / (bot + n)
    pairs.insert(0, (f"sum over n<=400, three families", agg_lhs, agg_rhs))
    return EvalOutcome(tuple(pairs), None)


def _ev_coeff_oracle(config, ctx):
    n = 2000
    conv = coeffs_convolution("f", n).coeffs
    lam = coeffs_lambert("f", n).coeffs
    pairs = []
    for m, (a, b) in enumerate(zip(conv, lam), start=1):
        if a != b and len(pairs) < 3:
            pairs.append((f"a_{m}", a, b))
    agg = (f"sum|a_n| n<=2000", sum(abs(a) for a in conv), sum(abs(b) for b in lam))
    pairs.insert(0, agg)
    return EvalOutcome(tuple(pairs), None)


_EXPECTED_MARGINS = {
    "thm11_1": (Fraction(1, 2),) * 3,
    "thm11_2": (Fraction(1, 2),) * 3,
    "thm12_1a": (Fraction(1),) * 3,
    "thm12_1b": (Fraction(1),) * 3,
    "thm12_2a": (Fraction(1, 2),) * 3,
    "thm12_2b": (Fraction(3, 2),) * 3,
}


def _ev_kdf_margins(config, ctx):
    pairs = []
    agg_lhs = Fraction(0)
    agg_rhs = Fraction(0)
    for name in sorted(_EXPECTED_MARGINS):
        report = kdf_converges(KDF_SPECS[name])
        for i, (got, want) in enumerate(zip(report.margins, _EXPECTED_MARGINS[name])):
            agg_lhs += got
            agg_rhs += want
            if got != want and len(pairs) < 3:
                pairs.append((f"{name} m{i + 1}", got, want))
        if not report.convergent_at_unit and len(pairs) < 3:
            pairs.append((f"{name} convergent", 0, 1))
    pairs.insert(0, ("sum of 18 margins", agg_lhs, agg_rhs))
    return EvalOutcome(tuple(pairs), None)


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
    target: Callable
    evaluate: Callable


def _pointwise_target(config, outcome):
    return config.digits - 2


def _fixed_target(n):
    return lambda config, outcome: n


def _strategy_target(table):
    def t(config, outcome):
        static = table[config.kdf_strategy]
        return outcome.promised if static is None else static

    return t


def _exact_target(config, outcome):
    return config.digits


_KDF_TARGETS = {"integral_reduction": 10, "iterated": 5, "double_truncate": None}
_COR_TARGETS = {"integral_reduction": 8, "iterated": 5, "double_truncate": None}


def _pw(id_, name, desc, lhs, rhs, ev):
    return Identity(id_, name, "pointwise", desc, lhs, rhs, _pointwise_target, ev)


_REGISTRY_ENTRIES = (
    _pw("I1", "trans-1", "theta3 squared equals the quadratic AGM kernel at alpha",
        "theta3(q)^2 series", "2F1(1/2,1/2;1;alpha) via AGM", _ev_trans1),
    _pw("I2", "trans-2", "q d(alpha)/dq equals alpha(1-alpha) theta3^4",
        "term-differentiated theta series", "alpha(1-alpha) theta3^4(q)", _ev_trans2),
    _pw("I3", "inv", "sqrt(u) theta4 at nome exp(-pi u) equals theta2 at exp(-pi/u)",
        "direct theta4 series", "direct theta2 series at partner nome", _ev_inv),
    _pw("I4", "lam1", "signed odd Lambert sum equals theta2^2",
        "lambert_series(lam1)", "theta2(q)^2 series", _ev_lam1),
    _pw("I5", "lam2", "weighted odd Lambert sum equals theta2^4",
        "lambert_series(lam2)", "theta2(q)^4 series", _ev_lam2),
    _pw("I6", "eis384", "odd square-weighted character sum equals theta product at q^2",
        "lambert_series(eis384)", "theta2^2 theta4^4 at q^2, quartered", _ev_eis384),
    _pw("I7", "lemma22-1", "first weight-3 Lambert kernel equals alpha/16 times the log kernel",
        "lambert_series(lemma22_1)", "alpha/16 * 2F1(1,1;2;alpha)", _ev_lemma22_1),
    _pw("I8", "lemma22-2", "second weight-3 Lambert kernel equals sqrt(alpha)/4 times the atanh kernel",
        "lambert_series(lemma22_2)", "sqrt(alpha)/4 * 2F1(1/2,1;3/2;alpha)", _ev_lemma22_2),
    _pw("I9", "doubling-23", "2 theta2 theta3 at q^2 equals theta2^2 at q",
        "2 theta2(q^2) theta3(q^2)", "theta2(q)^2", _ev_doubling_23),
    _pw("I10", "cube-m", "cubic odd Lambert sum equals an eighth-power theta combination",
        "lambert_series(cube)", "(theta2^8(sqrt q) - 8 theta2^8(q))/256", _ev_cube_m),
    _pw("I11", "m-theta28", "theta2^8 at sqrt(q) equals 16/15 of an Eisenstein difference",
        "theta2(sqrt q)^8", "(16/15)(M(q) - M(q^2))", _ev_m_theta28),
    _pw("I12", "ram", "quadratic odd Lambert sum equals sqrt(alpha)/4 times a 3F2/2F1 quotient",
        "lambert_series(ram_lhs)", "sqrt(alpha)/4 * 3F2/2F1 kernels", _ev_ram),
    _pw("I13", "comb-8a", "2 theta4^8(q^2) - theta4^8(q) equals (1+alpha)(1-alpha) theta3^8",
        "eighth-power theta combination", "(1+alpha)(1-alpha) theta3^8(q)", _ev_comb_8a),
    _pw("I14", "comb-8b", "2 theta4^8(q^4) - theta4^8(q^2) equals a half-integer power combination",
        "eighth-power theta combination", "((1-a)^(1/2)+(1-a)^(3/2)) theta3^8/2", _ev_comb_8b),
    _pw("I15", "doubling-33", "2 theta3^2 at q^2 equals theta3^2 + theta4^2 at q",
        "2 theta3(q^2)^2", "theta3(q)^2 + theta4(q)^2", _ev_doubling_33),
    _pw("I16", "doubling-44", "theta3 theta4 at q equals theta4^2 at q^2",
        "theta3(q) theta4(q)", "theta4(q^2)^2", _ev_doubling_44),
    Identity("I17", "thm11-1", "value",
             "weight-3 double-series reduction for L(f,3)",
             "pi^2/96 * KdF at (1,1)", "l_psi(1) * l_chi4(3)",
             _strategy_target(_KDF_TARGETS), _ev_theorem("thm11_1")),
    Identity("I18", "thm11-2", "value",
             "weight-3 double-series reduction for L(g,3)",
             "pi^3/128 * KdF at (1,1)", "Mellin transform of g at s=3",
             _strategy_target(_KDF_TARGETS), _ev_theorem("thm11_2")),
    Identity("I19", "thm12-1", "value",
             "weight-4 double-series reduction for L(f,4)",
             "pi^3/288 * weighted KdF pair", "l_psi(2) * l_chi4(4)",
             _strategy_target(_KDF_TARGETS), _ev_theorem("thm12_1")),
    Identity("I20", "thm12-2", "value",
             "weight-4 double-series reduction for L(g,4)",
             "pi^4/768 * weighted KdF pair", "Mellin transform of g at s=4",
             _strategy_target(_KDF_TARGETS), _ev_theorem("thm12_2")),
    Identity("I21", "cor-1", "value",
             "first reduction corollary: the double series collapses to 3 pi log 2",
             "KdF at (1,1)", "3 pi log 2",
             _strategy_target(_COR_TARGETS), _ev_cor1),
    Identity("I22", "cor-2", "value",
             "second reduction corollary against the quadruple-2 5F4",
             "8 * KdF at (1,1)", "48 log 2 - 5F4(3/2,3/2,3/2,1,1;2,2,2,2;1)",
             _strategy_target(_COR_TARGETS), _ev_cor2),
    Identity("I23", "cor-3", "value",
             "third reduction corollary against the alternating 5F4",
             "pi/24 (3 F_a + F_b)", "5F4(1/2 x4,1;3/2 x4;-1)",
             _strategy_target(_COR_TARGETS), _ev_cor3),
    Identity("I24", "factorization", "value",
             "Dirichlet factorization of L(f,s) against the Mellin route, s in {3,4}",
             "l_psi(s-2) * l_chi4(s)", "Mellin transform of f",
             _fixed_target(10), _ev_factorization),
    Identity("I25", "lf4-triple", "value",
             "three series expressions for the weight-4 character sum agree pairwise",
             "alternating 5F4", "positive split 5F4 / character sum",
             _fixed_target(12), _ev_lf4_triple),
    Identity("I26a", "prop21-1", "value",
             "weight-3 nome-space integral for L(f,3)",
             "q_integral(prop21_1)", "l_psi(1) * l_chi4(3)",
             _fixed_target(8), _ev_q_route("prop21_1")),
    Identity("I26b", "prop21-2", "value",
             "weight-3 nome-space integral for L(g,3)",
             "q_integral(prop21_2)", "alpha-space integral", _fixed_target(8),
             _ev_q_route("prop21_2")),
    Identity("I26c", "prop31-1", "value",
             "weight-4 nome-space integral for L(f,4)",
             "q_integral(prop31_1)", "l_psi(2) * l_chi4(4)",
             _fixed_target(8), _ev_q_route("prop31_1")),
    Identity("I26d", "prop31-2", "value",
             "weight-4 nome-space integral for L(g,4)",
             "q_integral(prop31_2)", "alpha-space integral", _fixed_target(8),
             _ev_q_route("prop31_2")),
    Identity("I27", "pochhammer", "exact",
             "Pochhammer quotient closed forms 2n+1, 4n+1, 4n+3 in exact rationals",
             "incremental rising-factorial quotient", "linear closed form",
             _exact_target, _ev_pochhammer),
    _pw("I28", "euler-2f1", "Euler integral representation against the series, argument swept over the grid",
        "regularized Beta-kernel quadrature", "2F1(1/2,1;3/2;z) series", _ev_euler_2f1),
    Identity("I29", "coeff-oracle", "exact",
             "convolution and character-sum coefficient oracles agree exactly to n = 2000",
             "integer theta-product convolution", "divisor character sums",
             _exact_target, _ev_coeff_oracle),
    Identity("I30", "kdf-margins", "exact",
             "convergence margins of the six double-series parameter sets",
             "exact margin arithmetic", "expected margin table",
             _exact_target, _ev_kdf_margins),
)

REGISTRY = {e.id: e for e in _REGISTRY_ENTRIES}
IDENTITY_IDS = tuple(e.id for e in _REGISTRY_ENTRIES)


def identity_info(id_: str) -> Identity:
    if id_ not in REGISTRY:
        raise DomainError(f"unknown identity id {id_!r}")
    return REGISTRY[id_]


# ---------------------------------------------------------------------------
# driver

def _numeric_report(entry, config, outcome, elapsed):
    worst = None
    compare_digits = config.digits + 15
    with mp.workdps(compare_digits):
        for label, lhs, rhs in outcome.pairs:
            scale = max(abs(lhs), abs(rhs))
            rel = abs(lhs - rhs) / scale if scale > 0 else mp.mpf(0)
            if worst is None or rel > worst[0]:
                worst = (rel, label, lhs, rhs)
        rel, label, lhs, rhs = worst
        abs_err = abs(lhs - rhs)
        if rel > 0:
            digits_agreed = int(mp.floor(-mp.log10(rel)))
        else:
            # exact agreement at the comparison precision beats any near miss
            digits_agreed = compare_digits
        target = entry.target(config, outcome)
        if config.target_override is not None:
            target = config.target_override
        status = "pass" if digits_agreed >= target else "fail"
        return VerificationReport(
            id=entry.id,
            lhs=mp.nstr(lhs, config.digits),
            rhs=mp.nstr(rhs, config.digits),
            abs_err=mp.nstr(abs_err, 3),
            rel_err=mp.nstr(rel, 3),
            digits_agreed=digits_agreed,
            lhs_method=entry.lhs_method,
            rhs_method=entry.rhs_method,
            sample_points=tuple(p[0] for p in outcome.pairs),
            wall_time_s=elapsed,
            precision_digits=config.digits,
            status=status,
            target=target,
        )


def _exact_report(entry, config, outcome, elapsed):
    mismatches = [(lab, a, b) for lab, a, b in outcome.pairs if a != b]
    label, lhs, rhs = outcome.pairs[0]
    if mismatches:
        label, lhs, rhs = mismatches[0]
        rel_err, digits_agreed, status = "1", 0, "fail"
    else:
        rel_err, digits_agreed, status = "0", config.digits, "pass"
    target = config.digits
    if config.target_override is not None:
        target = config.target_override
    return VerificationReport(
        id=entry.id,
        lhs=_exact_str(lhs),
        rhs=_exact_str(rhs),
        abs_err="0" if not mismatches else _exact_str(abs(lhs - rhs)),
        rel_err=rel_err,
        digits_agreed=digits_agreed,
        lhs_method=entry.lhs_method,
        rhs_method=entry.rhs_method,
        sample_points=tuple(p[0] for p in outcome.pairs),
        wall_time_s=elapsed,
        precision_digits=config.digits,
        status=status,
        target=target,
    )


def _failure_report(entry, config, exc, elapsed):
    return VerificationReport(
        id=entry.id,
        lhs="nan",
        rhs="nan",
        abs_err="nan",
        rel_err="nan",
        digits_agreed=0,
        lhs_method=entry.lhs_method,
        rhs_method=entry.rhs_method,
        sample_points=(f"error: {exc}",),
        wall_time_s=elapsed,
        precision_digits=config.digits,
        status="fail",
        target=config.digits,
    )


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
        return _failure_report(entry, config, exc, time.perf_counter() - t0)
    elapsed = time.perf_counter() - t0
    if entry.kind == "exact":
        return _exact_report(entry, config, outcome, elapsed)
    return _numeric_report(entry, config, outcome, elapsed)


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
