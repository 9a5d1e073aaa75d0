"""Special values of the two theta-product L-series, by independent routes.

The weight-3 form f and its companion g (built in :mod:`.theta`) have
L-series whose values at s = 3 and s = 4 admit several genuinely different
evaluations: a raw coefficient sum, an Euler-style factorization into
Dirichlet L-values (f only), the Mellin transform of the q-expansion, nome
and modular-parameter integral representations, reductions to two-variable
hypergeometric double series at the corner (1, 1), and single 5F4 closed
forms.  Every route reports an honest error estimate, so any pair of routes
cross-certifies a digit count; the identity registry leans on that.

Route ids are stable opaque names (``thm11_1``, ``prop21_2``, ``lf4``, ...)
shared with the command line and the registry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .context import DomainError, PrecisionContext, as_real, ensure_finite
from .hyper import KdFSpec, PFQSpec, kdf_full, pfq, series_kernel
from .quadrature import integrate01
from .special import alternating_sum, cvz_terms, gamma, zeta
from .theta import coeffs_convolution, lambert_series, theta_involution

__all__ = [
    "FORMS",
    "L_VALUE_METHODS",
    "LValueResult",
    "KDF_SPECS",
    "KDF_RHS_IDS",
    "SAMART_5F4",
    "LF4_ALT",
    "LF4_POS1",
    "LF4_POS3",
    "l_chi4",
    "l_psi",
    "kdf_theorem_rhs",
    "alpha_integral",
    "q_integral",
    "mellin",
    "dirichlet_sum",
    "closed_form",
    "l_value",
]

FORMS = ("f", "g")

L_VALUE_METHODS = (
    "dirichlet_sum",
    "factorized",
    "mellin",
    "alpha_integral",
    "q_integral",
    "kdf_theorem",
    "closed_form",
)


class LValueResult(NamedTuple):
    """One L-value with its provenance.

    ``terms_or_levels_used`` is whatever effort figure the route naturally
    reports: series terms for the sums, integrand evaluations for the
    quadrature routes, and 0 for engines that keep their own counsel.
    """

    value: mp.mpf
    error_estimate: mp.mpf
    method: str
    terms_or_levels_used: int


def _roundoff(value, ctx: PrecisionContext):
    # generic few-ulp floor for exact formulas evaluated at working precision
    return abs(value) * mp.mpf(10) ** (3 - ctx.workdigits)


# ---------------------------------------------------------------------------
# Dirichlet building blocks


def l_chi4(s, ctx: PrecisionContext):
    """L(chi_-4, s) = sum_{j>=0} (-1)^j (2j+1)^{-s} for real s > 0.

    The alternating acceleration converges for every positive s, well past
    the abscissa of the raw series, which is all the continuation these
    values ever need.
    """
    with ctx.working():
        sv = as_real(s)
        if not sv > 0:
            raise DomainError("l_chi4 wants s > 0")
        return alternating_sum(lambda k: (2 * mp.mpf(k) + 1) ** (-sv), ctx)


def l_psi(s, ctx: PrecisionContext):
    """L(psi, s) for the sign character psi(n) = (-1)^(n-1), real s >= 1.

    Equals (1 - 2^(1-s)) zeta(s), and log 2 at s = 1; evaluated directly as
    the alternating zeta series so the same accelerator serves both factors
    of the factorized route.
    """
    with ctx.working():
        sv = as_real(s)
        if sv < 1:
            raise DomainError("l_psi wants s >= 1")
        if sv == 1:
            return mp.log(2)
        return alternating_sum(lambda k: mp.mpf(k + 1) ** (-sv), ctx)


# ---------------------------------------------------------------------------
# double-series right-hand sides

KDF_SPECS = {
    "thm11_1": KdFSpec(
        a=(2,), c=("5/2",), b=(1, 1), d=(2,), bp=("1/2", "1/2"), dp=(1,)
    ),
    "thm11_2": KdFSpec(
        a=("3/2",), c=(2,), b=("1/2", 1), d=("3/2",), bp=("1/2", "1/2"), dp=(1,)
    ),
    "thm12_1a": KdFSpec(
        a=("1/2",),
        c=("3/2",),
        b=(1, 1, 1),
        d=("3/2", "3/2"),
        bp=("1/2", "1/2"),
        dp=(1,),
    ),
    "thm12_1b": KdFSpec(
        a=("3/2",),
        c=("5/2",),
        b=(1, 1, 1),
        d=("3/2", "3/2"),
        bp=("1/2", "1/2"),
        dp=(1,),
    ),
    "thm12_2a": KdFSpec(
        a=("1/2",),
        c=(1,),
        b=(1, 1, 1),
        d=("3/2", "3/2"),
        bp=("1/2", "1/2"),
        dp=(1,),
    ),
    "thm12_2b": KdFSpec(
        a=("1/2",),
        c=(2,),
        b=(1, 1, 1),
        d=("3/2", "3/2"),
        bp=("1/2", "1/2"),
        dp=(1,),
    ),
}

# each right-hand side: power of pi, exact rational factor, weighted specs
_KDF_RHS = {
    "thm11_1": (2, Fraction(1, 96), ((1, "thm11_1"),)),
    "thm11_2": (3, Fraction(1, 128), ((1, "thm11_2"),)),
    "thm12_1": (3, Fraction(1, 288), ((3, "thm12_1a"), (1, "thm12_1b"))),
    "thm12_2": (4, Fraction(1, 768), ((2, "thm12_2a"), (1, "thm12_2b"))),
}

KDF_RHS_IDS = tuple(_KDF_RHS)


def kdf_theorem_rhs(rhs_id: str, ctx: PrecisionContext, strategy="integral_reduction"):
    """The double-series side of one L-value reduction, as (value, error).

    The s = 4 sides are weighted pairs of boundary values; the weights and
    the pi-power prefactor are kept exact and applied once at the end.
    """
    try:
        power, pref, pieces = _KDF_RHS[rhs_id]
    except KeyError:
        raise DomainError(f"unknown double-series id {rhs_id!r}") from None
    with ctx.working():
        acc = mp.mpf(0)
        err = mp.mpf(0)
        for weight, name in pieces:
            res = kdf_full(KDF_SPECS[name], 1, 1, strategy, ctx)
            acc += weight * res.value
            err += weight * res.error_estimate
        factor = mp.pi**power * mp.mpf(pref.numerator) / pref.denominator
        return ensure_finite(acc * factor, "kdf rhs"), err * factor


# ---------------------------------------------------------------------------
# integrals over the modular parameter

_K1 = series_kernel((1, 1), (2,))
_K2 = series_kernel(("1/2", 1), ("3/2",))
_K3 = series_kernel(("1/2", "1/2"), (1,))
_X3 = series_kernel((1, 1, 1), ("3/2", "3/2"))


def _alpha_thm11_1(x, cx):
    return x / mp.sqrt(cx) * _K1(x, cx) * _K3(x, cx)


def _alpha_thm11_2(x, cx):
    return mp.sqrt(x / cx) * _K2(x, cx) * _K3(x, cx)


def _alpha_thm12_1(x, cx):
    return (1 + x) / mp.sqrt(x) * _X3(x, cx) * _K3(x, cx)


def _alpha_thm12_2(x, cx):
    return (1 + cx) / mp.sqrt(x * cx) * _X3(x, cx) * _K3(x, cx)


# id: pi power, exact factor, weight-stripped integrand, endpoint exponents.
# The integrands absorb the dx/(x(1-x)) measure; every one carries log(1-x)
# factors through its kernels, hence the padded right endpoint.
_ALPHA_INTEGRALS = {
    "thm11_1": (2, Fraction(1, 128), _alpha_thm11_1, 2.0, 0.5),
    "thm11_2": (2, Fraction(1, 64), _alpha_thm11_2, 1.5, 0.5),
    "thm12_1": (3, Fraction(1, 192), _alpha_thm12_1, 0.5, 1.0),
    "thm12_2": (3, Fraction(1, 384), _alpha_thm12_2, 0.5, 0.5),
}


def alpha_integral(rhs_id: str, ctx: PrecisionContext):
    """L-value as an integral of closed-form kernels over alpha in (0, 1).

    Returns (value, error_estimate, integrand_evaluations).  Full working
    precision; this is the reference route for the g form.
    """
    try:
        power, pref, integrand, left, right = _ALPHA_INTEGRALS[rhs_id]
    except KeyError:
        raise DomainError(f"unknown alpha integral id {rhs_id!r}") from None
    evals = [0]

    def counted(x, cx):
        evals[0] += 1
        return integrand(x, cx)

    val, est = integrate01(
        counted, ctx, left_exponent=left, right_exponent=right, right_log=True
    )
    with ctx.working():
        factor = mp.pi**power * mp.mpf(pref.numerator) / pref.denominator
        # never report better than the kernel-evaluation roundoff
        noise = abs(val) * mp.mpf(10) ** (2 - ctx.workdigits)
        return (
            ensure_finite(val * factor, "alpha integral"),
            max(est, noise) * factor,
            evals[0],
        )


# ---------------------------------------------------------------------------
# integrals over the nome


def _half_period(x, cx):
    # u = -log(q)/pi from whichever side of q stays well conditioned
    if x <= 0.5:
        return -mp.log(x) / mp.pi
    return -mp.log1p(-cx) / mp.pi


def _q_weight(tag: str, u, ctx: PrecisionContext):
    if tag == "wt3":
        t2 = theta_involution(u, 2, ctx)
        t4 = theta_involution(u, 4, ctx)
        return t2**4 * t4**2
    if tag == "wt4_f":
        return 2 * theta_involution(2 * u, 4, ctx) ** 8 - theta_involution(
            u, 4, ctx
        ) ** 8
    # wt4_g: one level down
    return 2 * theta_involution(4 * u, 4, ctx) ** 8 - theta_involution(
        2 * u, 4, ctx
    ) ** 8


_Q_SERIES_CUT = 0.3  # direct Lambert summation below, theta closed forms above


def _lambert_smart(name: str, q, u, ctx: PrecisionContext):
    """One of the reorganized Lambert sums, at any q in (0, 1).

    Below the cut the sum itself is a handful of geometric terms.  Above it
    the sum is evaluated through its modular closed form (log, atanh, or the
    treble-kernel quotient), all of which the identity registry checks
    against the raw series on the sample grid, so nothing here is assumed.
    """
    if q < _Q_SERIES_CUT:
        return lambert_series(name, q, ctx)
    t3 = theta_involution(u, 3, ctx)
    t4 = theta_involution(u, 4, ctx)
    if name == "lemma22_1":
        return mp.log(t3 / t4) / 4
    t2 = theta_involution(u, 2, ctx)
    a = (t2 / t3) ** 4
    ca = (t4 / t3) ** 4
    sa = mp.sqrt(a)
    if name == "lemma22_2":
        # atanh(sqrt a)/2 with the complement kept explicit near a = 1
        return mp.log((1 + sa) ** 2 / ca) / 8
    if name == "ram_lhs":
        return sa / 4 * _X3(a, ca) / _K3(a, ca)
    raise DomainError(f"no near-1 evaluation for Lambert series {name!r}")


# id: pi power, exact factor, theta weight tag, Lambert id, left exponent
_Q_INTEGRALS = {
    "prop21_1": (2, Fraction(1, 8), "wt3", "lemma22_1", 2.0),
    "prop21_2": (2, Fraction(1, 16), "wt3", "lemma22_2", 1.5),
    "prop31_1": (3, Fraction(1, 48), "wt4_f", "ram_lhs", 0.5),
    "prop31_2": (3, Fraction(1, 48), "wt4_g", "ram_lhs", 0.5),
}

_Q_DIGIT_CAP = 18  # consistency route; cost grows sharply past this


def q_integral(q_id: str, ctx: PrecisionContext):
    """L-value as a nome integral of a theta weight against a Lambert sum.

    Returns (value, error_estimate, integrand_evaluations).  Capped at
    moderate precision by design: the route exists to certify the integral
    representations, and eight digits of agreement already do that.
    """
    try:
        power, pref, tag, lam, left = _Q_INTEGRALS[q_id]
    except KeyError:
        raise DomainError(f"unknown nome integral id {q_id!r}") from None
    qctx = ctx if ctx.digits <= _Q_DIGIT_CAP else ctx.with_digits(_Q_DIGIT_CAP)
    evals = [0]

    def integrand(x, cx):
        evals[0] += 1
        u = _half_period(x, cx)
        w = _q_weight(tag, u, qctx)
        return w * _lambert_smart(lam, x, u, qctx) / x

    val, est = integrate01(integrand, qctx, left_exponent=left, right_exponent=1.0)
    with qctx.working():
        factor = mp.pi**power * mp.mpf(pref.numerator) / pref.denominator
        # the level deltas can collapse below the theta-evaluation noise, so
        # floor the estimate at that scale instead of trusting the collapse
        noise = abs(val) * mp.mpf(10) ** (2 - qctx.workdigits)
        return (
            ensure_finite(val * factor, "nome integral"),
            max(est, noise) * factor,
            evals[0],
        )


# ---------------------------------------------------------------------------
# Mellin transform


def _theta_product_at(form: str, u, ctx: PrecisionContext):
    # h(e^{-pi u}) for h = f, g; the involuted evaluators keep both ends cheap
    t2 = theta_involution(u, 2, ctx)
    if form == "f":
        t4 = theta_involution(u, 4, ctx)
    else:
        t4 = theta_involution(2 * u, 4, ctx)
    return t2**4 * t4**2 / 16


def mellin(form: str, s, ctx: PrecisionContext, split=None):
    """L(form, s) = (1/Gamma(s)) int_0^inf h(e^-t) t^(s-1) dt.

    The integral is cut at ``split`` (default pi).  Both halves map onto
    (0, 1): the lower one by scaling, the upper one by t = split - log v.
    Since a_0 = 0 the integrand dies double-exponentially at t -> 0 and
    exponentially at t -> inf, so the result must not depend on the cut;
    the registry moves it by a factor of two in both directions and checks.

    Returns (value, error_estimate, integrand_evaluations).
    """
    if form not in FORMS:
        raise DomainError(f"unknown form {form!r}")
    with ctx.working():
        sv = as_real(s)
        if not sv > 0:
            raise DomainError("the transform needs s > 0")
        split_v = mp.pi if split is None else as_real(split)
        if not split_v > 0:
            raise DomainError("split point must be positive")
        # below this t the inverse-nome leading term alone is under tolerance
        cut = mp.pi**2 / (4 * (mp.log(10) * (mp.mp.dps + 15) + 20))
        zero = mp.mpf(0)
    evals = [0]

    def lower(x, cx):
        evals[0] += 1
        t = split_v * x
        if t < cut:
            return zero
        return _theta_product_at(form, t / mp.pi, ctx) * x ** (sv - 1)

    def upper(v, cv):
        evals[0] += 1
        t = split_v - mp.log(v)
        return _theta_product_at(form, t / mp.pi, ctx) * t ** (sv - 1) / v

    lo_val, lo_est = integrate01(lower, ctx)
    up_val, up_est = integrate01(upper, ctx)
    with ctx.working():
        gv = gamma(sv, ctx)
        scale = split_v**sv
        value = (scale * lo_val + up_val) / gv
        est = (scale * lo_est + up_est) / gv
        noise = abs(value) * mp.mpf(10) ** (2 - ctx.workdigits)
        return ensure_finite(value, "mellin transform"), max(est, noise), evals[0]


# ---------------------------------------------------------------------------
# raw Dirichlet series


@lru_cache(maxsize=4)
def _g_coeffs(n_terms: int):
    return coeffs_convolution("g", n_terms)


@lru_cache(maxsize=4)
def _divisor_counts(n_terms: int):
    """d(m) for m = 0..n_terms as a read-only float64 array.

    Divisors pair up as a * b = m with a <= sqrt(m): each a <= sqrt(N)
    counts once at a^2 and twice at every a * b with b > a.
    """
    d = np.zeros(n_terms + 1)
    for a in range(1, math.isqrt(n_terms) + 1):
        d[a * a] += 1.0
        d[a * (a + 1) :: a] += 2.0
    d.flags.writeable = False
    return d


def _divisor_tail(n_terms: int, s1: float, ctx: PrecisionContext) -> float:
    """sum_{m > N} d(m) m^(-s1), essentially exactly, for s1 > 3/2.

    zeta(s1)^2 is the full sum; a sieve supplies the partial one.  Everything
    runs in float64: the bound it feeds is generous in the aggregate anyway,
    and the pairwise-summed dot product is good to ~1e-13 absolute, which the
    returned padding covers.
    """
    d = _divisor_counts(n_terms)
    powers = np.arange(0, n_terms + 1, dtype=np.float64)
    powers[0] = 1.0
    partial = float(np.dot(d[1:], powers[1:] ** (-s1)))
    zv = zeta(mp.mpf(s1), ctx)
    tail = float(zv * zv) - partial
    return max(tail, 0.0) + 1e-13


def dirichlet_sum(form: str, s, ctx: PrecisionContext, n_terms: int = 100000):
    """Partial sum of a_m m^(-s) for g, with a rigorous divisor-bound tail.

    |a_m| <= d(m) m (checked empirically in the suite well past the first
    thousand coefficients) closes the tail for s > 5/2: good to ~9 digits at
    s = 4 with the default budget, and only ~5 at s = 3, which is the point
    of having the other routes.  f is not served here; its factorized route
    is strictly better and keeps this one an independent g check.

    Returns (value, error_estimate, terms_used).
    """
    if form != "g":
        raise DomainError("the raw Dirichlet series route is g only")
    if n_terms < 10:
        raise DomainError("need at least 10 terms")
    with ctx.working():
        sv = ensure_finite(as_real(s), "exponent")
        if not 2 * sv > 5:
            raise DomainError("divisor tail closes only for s > 5/2")
        stream = _g_coeffs(int(n_terms))
        integer_s = sv == int(sv)
        acc = mp.mpf(0)
        for m in range(int(n_terms), 0, -1):
            am = stream.coeffs[m - 1]
            if am == 0:
                continue
            if integer_s:
                acc += mp.mpf(am) / (mp.mpf(m) ** int(sv))
            else:
                acc += am * mp.mpf(m) ** (-sv)
        tail = _divisor_tail(int(n_terms), float(sv) - 1.0, ctx)
        est = mp.mpf(tail) + _roundoff(acc, ctx)
        return ensure_finite(acc, "dirichlet sum"), est, int(n_terms)


# ---------------------------------------------------------------------------
# closed forms

SAMART_5F4 = PFQSpec(("3/2", "3/2", "3/2", 1, 1), (2, 2, 2, 2))
LF4_ALT = PFQSpec(("1/2", "1/2", "1/2", "1/2", 1), ("3/2", "3/2", "3/2", "3/2"))
LF4_POS1 = PFQSpec(("1/4", "1/4", "1/4", "1/4", 1), ("5/4", "5/4", "5/4", "5/4"))
LF4_POS3 = PFQSpec(("3/4", "3/4", "3/4", "3/4", 1), ("7/4", "7/4", "7/4", "7/4"))


def closed_form(which: str, ctx: PrecisionContext):
    """One of the single-series closed forms, as (value, error_estimate).

    lf3 is elementary.  lf4 evaluates the central alternating 5F4 and its
    even/odd split into two unit-argument 5F4s and the plain (2j+1)^-4 sum,
    then reports the spread of the three as the error: the closed form is
    only as good as its internal agreement.  lg3 combines log 2 with a
    unit-argument 5F4.
    """
    with ctx.working():
        if which == "lf3":
            v = mp.pi**3 * mp.log(2) / 32
            return ensure_finite(v, "closed form"), _roundoff(v, ctx)
        if which == "lg3":
            f54 = pfq(SAMART_5F4, 1, ctx)
            v = mp.pi**3 / 1024 * (48 * mp.log(2) - f54)
            est = abs(v) * mp.mpf(10) ** (-(ctx.digits + 1)) + _roundoff(v, ctx)
            return ensure_finite(v, "closed form"), est
        if which == "lf4":
            central = pfq(LF4_ALT, -1, ctx)
            split = pfq(LF4_POS1, 1, ctx) - pfq(LF4_POS3, 1, ctx) / 81
            plain = l_chi4(4, ctx)
            spread = max(
                abs(central - split), abs(central - plain), abs(split - plain)
            )
            scale = mp.pi**2 / 12
            v = scale * central
            return ensure_finite(v, "closed form"), scale * spread + _roundoff(
                v, ctx
            )
    raise DomainError(f"unknown closed form id {which!r}")


# ---------------------------------------------------------------------------
# the dispatcher

_RHS_BY_FORM = {
    ("f", 3): "thm11_1",
    ("g", 3): "thm11_2",
    ("f", 4): "thm12_1",
    ("g", 4): "thm12_2",
}

_QINT_BY_FORM = {
    ("f", 3): "prop21_1",
    ("g", 3): "prop21_2",
    ("f", 4): "prop31_1",
    ("g", 4): "prop31_2",
}

_CLOSED_BY_FORM = {("f", 3): "lf3", ("f", 4): "lf4", ("g", 3): "lg3"}


@lru_cache(maxsize=64)  # a registry pass at one precision fills six
def _l_value_cached(form: str, n: int, method: str, ctx: PrecisionContext):
    if method == "factorized":
        if form != "f":
            raise DomainError("the Dirichlet factorization is an f-only route")
        with ctx.working():
            v = l_psi(n - 2, ctx) * l_chi4(n, ctx)
            return LValueResult(v, _roundoff(v, ctx), method, 2 * cvz_terms(ctx))
    if method == "dirichlet_sum":
        v, e, used = dirichlet_sum(form, n, ctx)
        return LValueResult(v, e, method, used)
    if method == "mellin":
        v, e, used = mellin(form, n, ctx)
        return LValueResult(v, e, method, used)
    if method == "alpha_integral":
        v, e, used = alpha_integral(_RHS_BY_FORM[form, n], ctx)
        return LValueResult(v, e, method, used)
    if method == "q_integral":
        v, e, used = q_integral(_QINT_BY_FORM[form, n], ctx)
        return LValueResult(v, e, method, used)
    if method == "kdf_theorem":
        v, e = kdf_theorem_rhs(_RHS_BY_FORM[form, n], ctx)
        return LValueResult(v, e, method, 0)
    # closed_form
    key = (form, n)
    if key not in _CLOSED_BY_FORM:
        raise DomainError(f"no closed form is on the books for L({form}, {n})")
    v, e = closed_form(_CLOSED_BY_FORM[key], ctx)
    return LValueResult(v, e, method, 0)


def l_value(form: str, n: int, method: str, ctx: PrecisionContext) -> LValueResult:
    """L(form, n) for n in {3, 4} by the requested route, memoized per context.

    Route availability: ``factorized`` and the lf* closed forms are f only,
    ``dirichlet_sum`` and lg3 are g only (and there is no closed form for
    L(g, 4) at all); the integral, Mellin and double-series routes cover all
    four (form, n) pairs.  The error estimate is an honest bound for the
    route as run; the coarse routes (raw series at n = 3, nome integrals past
    their cap) do not sharpen when the context asks for more digits.
    """
    if form not in FORMS:
        raise DomainError(f"unknown form {form!r}")
    if n not in (3, 4):
        raise DomainError("special values are computed at s = 3 and s = 4 only")
    if method not in L_VALUE_METHODS:
        raise DomainError(f"unknown method {method!r}")
    return _l_value_cached(form, int(n), method, ctx)
