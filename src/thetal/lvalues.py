"""Special values of the two theta-product L-series, by independent routes.

The weight-3 form f and its companion g (built in :mod:`.theta`) have
L-series whose values at s = 3 and s = 4 admit several genuinely different
evaluations: a raw coefficient sum, an Euler-style factorization into
Dirichlet L-values (f only), the Mellin transform of the q-expansion, nome
integral representations, reductions to two-variable hypergeometric double
series at the corner (1, 1), and single 5F4 closed forms.  The
modular-parameter integral is that reduction before its termwise Beta
integration, so one evaluation serves both.  Every route reports an
honest error estimate, so any pair of distinct routes cross-certifies a
digit count; the identity registry leans on that.  Sibling integrals share
tanh-sinh passes that evaluate each node's costly factors once: Mellin at
s = 3 and 4 (per form) and the four nome integrals, each in two halves over
u = -log(q)/pi, and the six double-series reductions.  The registry never
plays two members of one pass against each other, so each still faces a
route computed apart.

Route ids are stable opaque names (``thm11_1``, ``prop21_2``, ``lf4``, ...)
shared with the command line and the registry; :data:`ROUTE_IDS` alone says
which of them reaches which L(form, s).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import compress, count

import mpmath as mp
import numpy as np
from mpmath.libmp import to_fixed

from .context import DomainError, Estimate, PrecisionContext, as_real, ensure_finite
from .context import floored, noise_floor
from .hyper import KdFSpec, PFQSpec, kdf_full, kdf_reductions, pfq, series_kernel
from .quadrature import integrate01, isolated, settled
from .special import alternating_sum, eta, gamma, zeta
from .theta import coeffs_convolution, lambert_series, theta_involution

__all__ = [
    "FORMS",
    "L_VALUE_METHODS",
    "ROUTE_IDS",
    "KDF_SPECS",
    "KDF_RHS_IDS",
    "SAMART_5F4",
    "LF4_ALT",
    "LF4_POS1",
    "LF4_POS3",
    "l_chi4",
    "l_psi",
    "lf4_triple",
    "kdf_weighted_sum",
    "kdf_theorem_rhs",
    "alpha_integral",
    "lambert_closed",
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
    "closed_form",
)

# (form, s): the double-series, nome-integral and closed-form ids of
# L(form, s), the last None where no closed form is on the books
ROUTE_IDS = {
    ("f", 3): ("thm11_1", "prop21_1", "lf3"),
    ("g", 3): ("thm11_2", "prop21_2", "lg3"),
    ("f", 4): ("thm12_1", "prop31_1", "lf4"),
    ("g", 4): ("thm12_2", "prop31_2", None),
}


# ---------------------------------------------------------------------------
# Dirichlet building blocks


def l_chi4(s, ctx: PrecisionContext) -> Estimate:
    """L(chi_-4, s) = sum_{j>=0} (-1)^j (2j+1)^{-s} for real s > 0, as the
    alternating sum's :class:`Estimate`.

    The alternating acceleration converges for every positive s, well past
    the abscissa of the raw series, which is all the continuation these
    values ever need.
    """
    with ctx.working():
        sv = as_real(s)
        if not sv > 0:
            raise DomainError("l_chi4 wants s > 0")
        return alternating_sum(((2 * mp.mpf(k) + 1) ** (-sv) for k in count()), ctx)


def l_psi(s, ctx: PrecisionContext) -> Estimate:
    """L(psi, s) for the sign character psi(n) = (-1)^(n-1), real s >= 1.

    Equals (1 - 2^(1-s)) zeta(s), and log 2 at s = 1 (no terms summed);
    evaluated directly as the alternating zeta series so the same
    accelerator serves both factors of the factorized route.
    """
    with ctx.working():
        sv = as_real(s)
        if sv < 1:
            raise DomainError("l_psi wants s >= 1")
        if sv == 1:
            return floored(mp.log(2), 0, 0, ctx)
        return eta(sv, ctx)


# ---------------------------------------------------------------------------
# double-series right-hand sides


def _weight4(a, c):
    # the s = 4 reductions share every group but the coupled pair (a; c)
    return KdFSpec(
        a=(a,), c=(c,), b=(1, 1, 1), d=("3/2", "3/2"), bp=("1/2", "1/2"), dp=(1,)
    )


KDF_SPECS = {
    "thm11_1": KdFSpec(
        a=(2,), c=("5/2",), b=(1, 1), d=(2,), bp=("1/2", "1/2"), dp=(1,)
    ),
    "thm11_2": KdFSpec(
        a=("3/2",), c=(2,), b=("1/2", 1), d=("3/2",), bp=("1/2", "1/2"), dp=(1,)
    ),
    "thm12_1a": _weight4("1/2", "3/2"),
    "thm12_1b": _weight4("3/2", "5/2"),
    "thm12_2a": _weight4("1/2", 1),
    "thm12_2b": _weight4("1/2", 2),
}

# each right-hand side: power of pi, exact rational factor, weighted specs
_KDF_RHS = {
    "thm11_1": (2, Fraction(1, 96), ((1, "thm11_1"),)),
    "thm11_2": (3, Fraction(1, 128), ((1, "thm11_2"),)),
    "thm12_1": (3, Fraction(1, 288), ((3, "thm12_1a"), (1, "thm12_1b"))),
    "thm12_2": (4, Fraction(1, 768), ((2, "thm12_2a"), (1, "thm12_2b"))),
}

KDF_RHS_IDS = tuple(_KDF_RHS)


def _pi_factor(power: int, pref: Fraction):
    # pi^power times an exact rational, at the working precision in force
    return mp.pi**power * mp.mpf(pref.numerator) / pref.denominator


@lru_cache(maxsize=4)  # every spec's reduction at (1, 1); a registry pass fills one
def _kdf_family(ctx: PrecisionContext):
    return dict(zip(KDF_SPECS, kdf_reductions(tuple(KDF_SPECS.values()), 1, 1, ctx)))


@lru_cache(maxsize=32)  # a registry pass at one precision fills four
def kdf_weighted_sum(rhs_id: str, strategy: str, ctx: PrecisionContext):
    """The sum of w F(1, 1) over one reduction's weighted specs, its error
    the sum of w error and its effort the integrand calls (0 for the float64
    strategies): its theorem's side before the pi-power prefactor, and its
    corollary's before that one's scale, so the two share one evaluation."""
    try:
        pieces = _KDF_RHS[rhs_id][2]
    except KeyError:
        raise DomainError(f"unknown double-series id {rhs_id!r}") from None
    with ctx.working():
        acc = mp.mpf(0)
        err = mp.mpf(0)
        calls = 0
        for weight, name in pieces:
            if strategy == "integral_reduction":
                res = settled(_kdf_family(ctx)[name])
            else:
                res = kdf_full(KDF_SPECS[name], 1, 1, strategy, ctx)
            acc += weight * res.value
            err += weight * res.error_estimate
            calls += res.effort
        return Estimate(acc, err, calls)


def kdf_theorem_rhs(rhs_id: str, ctx: PrecisionContext, strategy="integral_reduction"):
    """The double-series side of one L-value reduction, with the integrand
    calls of its weighted sum.

    The s = 4 sides are weighted pairs of boundary values; the weights and
    the pi-power prefactor are kept exact and applied once at the end.
    """
    acc, err, calls = kdf_weighted_sum(rhs_id, strategy, ctx)
    power, pref, _ = _KDF_RHS[rhs_id]
    with ctx.working():
        factor = _pi_factor(power, pref)
        return Estimate(ensure_finite(acc * factor, "kdf rhs"), err * factor, calls)


def alpha_integral(rhs_id: str, ctx: PrecisionContext):
    """L-value as an integral of hypergeometric kernels over alpha in (0, 1).

    The paper integrates this alpha-space form termwise through the Beta
    integral to reach the double series at (1, 1); the integral reduction
    of :func:`kdf_full` undoes exactly that step.  So this is the same
    evaluation as :func:`kdf_theorem_rhs`, and one call of it.
    """
    return kdf_theorem_rhs(rhs_id, ctx)


# ---------------------------------------------------------------------------
# integrals over the nome

_KLOG = series_kernel((1, 1), (2,))
_KATANH = series_kernel(("1/2", 1), ("3/2",))
_K3 = series_kernel(("1/2", "1/2"), (1,))
_X3 = series_kernel((1, 1, 1), ("3/2", "3/2"))


def lambert_closed(name: str, a, ca):
    """A reorganized Lambert sum's modular closed form in alpha, given
    (a, ca) = (alpha, 1 - alpha) at its nome, at the precision in force.

    Lemma 2.2's log and atanh kernels and Ramanujan's 3F2/2F1 quotient: the
    identity registry checks each against the raw series on its grid, and
    the nome integrals use them above the series cut, so the value is bare,
    its error measured by those comparisons and estimates.
    """
    if name == "lemma22_1":
        return a / 16 * _KLOG(a, ca)
    if name == "lemma22_2":
        return mp.sqrt(a) / 4 * _KATANH(a, ca)
    if name == "ram_lhs":
        return mp.sqrt(a) / 4 * _X3(a, ca) / _K3(a, ca)
    raise DomainError(f"no closed form for Lambert series {name!r}")


_Q_SERIES_CUT = 0.3  # direct Lambert summation below, theta closed forms above


def _u_halves(integrand, U, decay, ctx: PrecisionContext):
    """(lower, upper) :func:`integrate01` results of int F(u) du over u =
    -log(q)/pi cut at U, integrand(u, jac) giving F's members at u times jac
    (or :func:`isolated` errors).  The upper half takes u = U - log(v)/pi.
    Members die like exp(-pi/(decay u)) as q -> 1, flat zero to tanh-sinh,
    so the lower half takes 1/u = 1/U - decay log(v)/(2 pi), where that
    decay is sqrt(v) and the integrand v^(-1/2) times powers of log v.  The
    upper half must go like v^(p-1), p >= 1/2, too."""

    def lower(v, cv):
        u = 1 / (1 / U - decay * mp.log(v) / (2 * mp.pi))
        return integrand(u, decay * u * u / (2 * mp.pi * v))

    def upper(v, cv):
        return integrand(U - mp.log(v) / mp.pi, 1 / (mp.pi * v))

    return tuple(integrate01(f, ctx, left_exponent=0.5) for f in (lower, upper))


def _joined(halves, ctx: PrecisionContext):
    with ctx.working():  # each member's halves summed, or the error one met
        return tuple(
            next((r for r in pair if isinstance(r, Exception)), None)
            or Estimate(*(a + b for a, b in zip(*pair))) for pair in zip(*halves)
        )


# id: pi power, exact factor, theta weight tag, Lambert id; each ~ q^(p-1), p >= 1/2
_Q_INTEGRALS = {
    "prop21_1": (2, Fraction(1, 8), "wt3", "lemma22_1"),
    "prop21_2": (2, Fraction(1, 16), "wt3", "lemma22_2"),
    "prop31_1": (3, Fraction(1, 48), "wt4_f", "ram_lhs"),
    "prop31_2": (3, Fraction(1, 48), "wt4_g", "ram_lhs"),
}


def _q_weight(tag: str, t2, t3, t4):
    """A nome integral's theta weight from theta2, theta3, theta4 at q: wt3
    = theta2^4 theta4^2, and wt4_f = 2 theta4(q^2)^8 - theta4^8 and wt4_g =
    2 theta4(q^4)^8 - theta4(q^2)^8 by the doubling identities theta4(q^2)^2
    = theta3 theta4, theta3(q^2)^2 = (theta3^2 + theta4^2)/2 (I16, I15)."""
    if tag == "wt3":
        return t2**4 * t4**2
    if tag == "wt4_f":
        return t4**4 * (2 * t3**4 - t4**4)
    return (t3 * t4) ** 2 * (t3**4 + t4**4) / 2  # wt4_g


@lru_cache(maxsize=4)  # a registry pass at one precision fills one
def _q_family(ctx: PrecisionContext, q_ids=tuple(_Q_INTEGRALS)):
    """The nome integrals q_ids over u cut at 1 (each weight dies like
    exp(-pi/(2u)) or faster).  A node evaluates the thetas at u, whence every
    :func:`_q_weight`, and each Lambert sum once for all, fetched in each
    one's order, so one fails as it would alone."""

    def integrand(u, jac):
        q = mp.exp(-mp.pi * u)
        below = q < _Q_SERIES_CUT

        @cache
        def at_u():
            return theta_involution(u, (2, 3, 4), ctx)

        @cache
        def lam(name):
            if below:
                return lambert_series(name, q, ctx)
            t2, t3, t4 = at_u()
            return lambert_closed(name, (t2 / t3) ** 4, (t4 / t3) ** 4)

        def member(tag, name):
            return _q_weight(tag, *at_u()) * lam(name) * jac

        return isolated(partial(member, *_Q_INTEGRALS[q][2:]) for q in q_ids)

    return dict(zip(q_ids, _joined(_u_halves(integrand, 1, 2, ctx), ctx)))


def q_integral(q_id: str, ctx: PrecisionContext):
    """L-value as a nome integral of a theta weight against a Lambert sum,
    at full working precision like the other quadrature routes."""
    try:
        power, pref = _Q_INTEGRALS[q_id][:2]
    except KeyError:
        raise DomainError(f"unknown nome integral id {q_id!r}") from None
    val, est, calls = settled(_q_family(ctx)[q_id])
    with ctx.working():
        factor = _pi_factor(power + 1, pref)  # dq/q = -pi du
        return floored(val * factor, est * factor, calls, ctx, "nome integral")


# ---------------------------------------------------------------------------
# Mellin transform


def _theta_product_at(form: str, u, ctx: PrecisionContext):
    # h(e^{-pi u}) for h = f, g; the involuted evaluators keep both ends cheap.
    # g's theta4(q^2)^2 is theta3 theta4 by the doubling identity (registry I16)
    t2, t3, t4 = theta_involution(u, (2, 3, 4), ctx)
    return t2**4 * t4 * (t4 if form == "f" else t3) / 16


@lru_cache(maxsize=4)  # a registry pass at one precision fills two
def _mellin_halves(form: str, svs, split, ctx: PrecisionContext):
    """Both halves' :func:`_u_halves` results of int h(e^(-pi u)) u^(s-1) du
    for every exponent in svs, which share h at each node."""
    with ctx.working():
        U = mp.mpf(1) if split is None else as_real(split) / mp.pi

    def integrand(u, jac):
        h = _theta_product_at(form, u, ctx)
        return tuple(h * u ** (sv - 1) * jac for sv in svs)

    return _u_halves(integrand, U, 2 if form == "f" else 4, ctx)


def mellin(form: str, s, ctx: PrecisionContext, split=None):
    """L(form, s) = (1/Gamma(s)) int_0^inf h(e^-t) t^(s-1) dt.

    The integral runs over u = t/pi by :func:`_u_halves`, cut at ``split``
    (default pi): the upper half by t = split - log v, the lower one from
    the involuted side, where h(e^-t) ~ exp(-pi^2/(2t)) for f and
    exp(-pi^2/(4t)) for g (a_0 = 0) become powers of v.  The result must
    not depend on the cut; the split-invariance gate in
    tests/test_acceptance.py moves it by a factor of two in both directions
    and checks that.  s = 3 and 4 at the default split share one pass per
    form; others run the same code alone.
    """
    if form not in FORMS:
        raise DomainError(f"unknown form {form!r}")
    with ctx.working():
        sv = as_real(s)
        if not sv > 0:
            raise DomainError("the transform needs s > 0")
        if split is not None and not as_real(split) > 0:
            raise DomainError("split point must be positive")
        svs = (mp.mpf(3), mp.mpf(4)) if split is None and sv in (3, 4) else (sv,)
        joined = _joined(_mellin_halves(form, svs, split, ctx), ctx)
        val, est, calls = settled(joined[svs.index(sv)])
        scale = mp.pi**sv / gamma(sv, ctx)
        return floored(scale * val, scale * est, calls, ctx, "mellin transform")


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
    zv = zeta(mp.mpf(s1), ctx).value
    tail = float(zv * zv) - partial
    return max(tail, 0.0) + 1e-13


def dirichlet_sum(form: str, s, ctx: PrecisionContext, n_terms: int = 100000):
    """Partial sum of a_m m^(-s) for g, with a rigorous divisor-bound tail.

    |a_m| <= d(m) m (checked empirically in the suite well past the first
    thousand coefficients) closes the tail for s > 5/2: good to ~9 digits at
    s = 4 with the default budget, and only ~5 at s = 3, which is the point
    of having the other routes.  f is not served here; its factorized route
    is strictly better and keeps this one an independent g check.  The
    effort is the terms summed.

    The sum is one Python-integer accumulation at wp bits.  Each weight
    m^-s goes to fixed point once: exactly floored, (2^wp) // m^s, for
    integer s, and computed at wp bits then floored for real s.  Each
    weight is then within 2^(1-wp) of m^-s, and the estimate carries the
    resulting 2 sum |a_m| 2^-wp.
    """
    if form != "g":
        raise DomainError("the raw Dirichlet series route is g only")
    if n_terms < 10:
        raise DomainError("need at least 10 terms")
    with ctx.working():
        sv = ensure_finite(as_real(s), "exponent")
        if not 2 * sv > 5:
            raise DomainError("divisor tail closes only for s > 5/2")
        coeffs = _g_coeffs(int(n_terms)).coeffs
        mass = sum(map(abs, coeffs))
        wp = mp.mp.prec + mass.bit_length()
        one, k = 1 << wp, int(sv)
        terms = zip(compress(count(1), coeffs), filter(None, coeffs))  # a_m != 0
        if k == sv:
            acc = sum([am * (one // m**k) for m, am in terms])
        else:
            with mp.workprec(wp):
                acc = sum([am * to_fixed((mp.mpf(m) ** -sv)._mpf_, wp)
                           for m, am in terms])
        value = mp.mpf((acc, -wp))
        tail = _divisor_tail(int(n_terms), float(sv) - 1.0, ctx)
        est = mp.mpf(tail) + noise_floor(value, ctx) + mp.mpf((2 * mass, -wp))
        return Estimate(ensure_finite(value, "dirichlet sum"), est, int(n_terms))


# ---------------------------------------------------------------------------
# closed forms

SAMART_5F4 = PFQSpec(("3/2", "3/2", "3/2", 1, 1), (2, 2, 2, 2))
LF4_ALT = PFQSpec(("1/2", "1/2", "1/2", "1/2", 1), ("3/2", "3/2", "3/2", "3/2"))
LF4_POS1 = PFQSpec(("1/4", "1/4", "1/4", "1/4", 1), ("5/4", "5/4", "5/4", "5/4"))
LF4_POS3 = PFQSpec(("3/4", "3/4", "3/4", "3/4", 1), ("7/4", "7/4", "7/4", "7/4"))


def lf4_triple(ctx: PrecisionContext):
    """Three evaluations of L(chi_-4, 4), the sum behind L(f, 4)'s closed form.

    The central alternating 5F4 at z = -1, its even/odd split into two
    unit-argument 5F4s, and the plain (2j+1)^-4 character sum, in that
    order, each an :class:`Estimate`.
    """
    with ctx.working():
        pos1, pos3 = pfq(LF4_POS1, 1, ctx), pfq(LF4_POS3, 1, ctx)
        split = Estimate(
            pos1.value - pos3.value / 81,
            pos1.error_estimate + pos3.error_estimate / 81,
            pos1.effort + pos3.effort,
        )
        return pfq(LF4_ALT, -1, ctx), split, l_chi4(4, ctx)


def closed_form(which: str, ctx: PrecisionContext):
    """One of the single-series closed forms, with the terms its sums took.

    lf3 is elementary.  lf4 scales the central value of :func:`lf4_triple`
    and reports its estimate plus the spread of the three: the closed form
    is only as good as its internal agreement.  lg3 combines log 2 with a
    unit-argument 5F4 and reports that sum's estimate.
    """
    with ctx.working():
        if which == "lf3":
            v, est, terms = mp.pi**3 * mp.log(2) / 32, mp.mpf(0), 0
        elif which == "lg3":
            f54, est, terms = pfq(SAMART_5F4, 1, ctx)
            v = mp.pi**3 / 1024 * (48 * mp.log(2) - f54)
            est *= mp.pi**3 / 1024
        elif which == "lf4":
            triple = lf4_triple(ctx)
            central, split, plain = (t.value for t in triple)
            spread = max(
                abs(central - split), abs(central - plain), abs(split - plain)
            )
            scale = mp.pi**2 / 12
            v = scale * central
            est = scale * (triple[0].error_estimate + spread)
            terms = sum(t.effort for t in triple)
        else:
            raise DomainError(f"unknown closed form id {which!r}")
        return floored(v, est, terms, ctx, "closed form")


# ---------------------------------------------------------------------------
# the dispatcher


@lru_cache(maxsize=64)  # a registry pass at one precision fills twelve
def _l_value_cached(form: str, n: int, method: str, ctx: PrecisionContext):
    if method == "factorized":
        if form != "f":
            raise DomainError("the Dirichlet factorization is an f-only route")
        with ctx.working():
            a, b = l_psi(n - 2, ctx), l_chi4(n, ctx)
            v = a.value * b.value
            est = abs(a.value) * b.error_estimate + abs(b.value) * a.error_estimate
            return floored(v, est, a.effort + b.effort, ctx)
    if method == "dirichlet_sum":
        return dirichlet_sum(form, n, ctx)
    if method == "mellin":
        return mellin(form, n, ctx)
    kdf_id, q_id, closed_id = ROUTE_IDS[form, n]
    if method == "alpha_integral":
        return alpha_integral(kdf_id, ctx)
    if method == "q_integral":
        return q_integral(q_id, ctx)
    # closed_form
    if closed_id is None:
        raise DomainError(f"no closed form is on the books for L({form}, {n})")
    return closed_form(closed_id, ctx)


def l_value(form: str, n: int, method: str, ctx: PrecisionContext) -> Estimate:
    """L(form, n) for n in {3, 4} by the requested route, memoized per context.

    Route availability: ``factorized`` and the lf* closed forms are f only,
    ``dirichlet_sum`` and lg3 are g only (and there is no closed form for
    L(g, 4) at all); the integral, Mellin and double-series routes cover all
    four (form, n) pairs, by the ids :data:`ROUTE_IDS` names.  The error
    estimate is an honest bound for the route as run; the raw series, the one
    coarse route, does not sharpen when the context asks for more digits.
    The effort is whatever figure the route reports: series terms for the
    sums, integrand evaluations for the quadrature routes, and 0 for the
    closed forms.
    """
    if form not in FORMS:
        raise DomainError(f"unknown form {form!r}")
    if n not in (3, 4):
        raise DomainError("special values are computed at s = 3 and s = 4 only")
    if method not in L_VALUE_METHODS:
        raise DomainError(f"unknown method {method!r}")
    return _l_value_cached(form, int(n), method, ctx)
