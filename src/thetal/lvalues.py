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
tanh-sinh passes that evaluate each node's costly factors once: the four
nome integrals and Mellin at s = 3 and 4 for both forms, over u = -log(q)/pi
in two halves that share each node's thetas, each node's weights and sums
from its thetas (ram_lhs on the upper half by a Lambert series), and the
six double-series reductions.  The registry never plays two members of
one pass against each other, so each still faces a route computed apart.

Route ids are stable opaque names (``thm11_1``, ``prop21_2``, ``lf4``, ...)
shared with the command line and the registry; :data:`ROUTE_IDS` alone says
which of them reaches which L(form, s).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, compress, count, repeat
from operator import floordiv, mul

import mpmath as mp
from mpmath.libmp import to_fixed

from .context import DomainError, Estimate, GUARD_BITS, PrecisionContext
from .context import as_real, ensure_finite
from .context import floored, noise_floor
from .hyper import KdFSpec, PFQSpec, kdf_full, kdf_reductions, pfq, series_kernel
from .hyper import treble_regular
from .quadrature import integrate01, isolated, settled
from .special import alternating_sum, eta, gamma
from .theta import coeffs_lambert, lambert_series, theta_involution

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
    "CLOSED_SIDES",
    "COROLLARIES",
    "l_chi4",
    "l_psi",
    "kdf_weighted_sum",
    "kdf_theorem_rhs",
    "alpha_integral",
    "lambert_closed",
    "q_integral",
    "mellin",
    "dirichlet_sum",
    "closed_side",
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
def kdf_weighted_sum(rhs_id: str, strategy: str, ctx: PrecisionContext, shared=True):
    """The sum of w F(1, 1) over one reduction's weighted specs, its error
    the sum of w error and its effort the integrand calls (0 for the float64
    strategies): its theorem's side before the pi-power prefactor, and its
    corollary's before that one's scale, so the two share one evaluation.
    Unless ``shared``, the integral reduction runs its own specs alone."""
    try:
        pieces = _KDF_RHS[rhs_id][2]
    except KeyError:
        raise DomainError(f"unknown double-series id {rhs_id!r}") from None
    with ctx.working():
        acc = mp.mpf(0)
        err = mp.mpf(0)
        calls = 0
        for weight, name in pieces:
            if strategy == "integral_reduction" and shared:
                res = settled(_kdf_family(ctx)[name])
            else:
                res = kdf_full(KDF_SPECS[name], 1, 1, strategy, ctx)
            acc += weight * res.value
            err += weight * res.error_estimate
            calls += res.effort
        return Estimate(acc, err, calls)


def kdf_theorem_rhs(
    rhs_id: str, ctx: PrecisionContext, strategy="integral_reduction", shared=True
):
    """The double-series side of one L-value reduction, with the integrand
    calls of its weighted sum.

    The s = 4 sides are weighted pairs of boundary values; the weights and
    the pi-power prefactor are kept exact and applied once at the end.
    """
    # shared, one memo entry with the registry's three-argument calls
    key = (rhs_id, strategy, ctx) + (() if shared else (False,))
    acc, err, calls = kdf_weighted_sum(*key)
    power, pref, _ = _KDF_RHS[rhs_id]
    with ctx.working():
        factor = _pi_factor(power, pref)
        return Estimate(ensure_finite(acc * factor, "kdf rhs"), err * factor, calls)


def alpha_integral(rhs_id: str, ctx: PrecisionContext, shared=True):
    """L-value as an integral of hypergeometric kernels over alpha in (0, 1).

    The paper integrates this alpha-space form termwise through the Beta
    integral to reach the double series at (1, 1); the integral reduction
    of :func:`kdf_full` undoes exactly that step.  So this is the same
    evaluation as :func:`kdf_theorem_rhs`: one call of it, ``shared`` or not.
    """
    return kdf_theorem_rhs(rhs_id, ctx, shared=shared)


# ---------------------------------------------------------------------------
# integrals over the half-period: the nome integrals and the Mellin transforms

_KLOG = series_kernel((1, 1), (2,))
_KATANH = series_kernel(("1/2", 1), ("3/2",))
_K3 = series_kernel(("1/2", "1/2"), (1,))
_X3 = series_kernel((1, 1, 1), ("3/2", "3/2"))


def lambert_closed(name: str, a, ca):
    """A reorganized Lambert sum's modular closed form in alpha, given
    (a, ca) = (alpha, 1 - alpha) at its nome, at the precision in force.

    Lemma 2.2's log and atanh kernels and Ramanujan's 3F2/2F1 quotient, bare
    values: the identity registry checks each against the raw series on its
    grid (I7, I8, I12).  The nome integrals read none of them; each of their
    nodes takes its sums from its own thetas (:func:`_node`).
    """
    if name == "lemma22_1":
        return a / 16 * _KLOG(a, ca)
    if name == "lemma22_2":
        return mp.sqrt(a) / 4 * _KATANH(a, ca)
    if name == "ram_lhs":
        return mp.sqrt(a) / 4 * _X3(a, ca) / _K3(a, ca)
    raise DomainError(f"no closed form for Lambert series {name!r}")


def _lemma22(u, t2, t3, t4):
    """Lemma 2.2's sums -log(1 - alpha)/16 and atanh(x)/4, x = (t2/t3)^2 =
    sqrt(alpha), from the thetas at u.  1 - alpha is formed exactly from alpha
    for u >= 1 (alpha <= 1/2); below, it is (t4/t3)^4 and atanh(x) =
    log((1 + x)^2/(1 - alpha))/2, so nothing cancels."""
    x = (t2 / t3) ** 2
    if u >= 1:
        return -mp.log(mp.fsub(1, x * x, exact=True)) / 16, mp.atanh(x) / 4
    ca = (t4 / t3) ** 4
    return -mp.log(ca) / 16, mp.log((1 + x) ** 2 / ca) / 8


# id: pi power, exact factor, theta weight tag, Lambert id; each ~ q^(p-1), p >= 1/4
_Q_INTEGRALS = {
    "prop21_1": (2, Fraction(1, 8), "wt3", "lemma22_1"),
    "prop21_2": (2, Fraction(1, 16), "wt3", "lemma22_2"),
    "prop31_1": (3, Fraction(1, 48), "wt4_f", "ram_lhs"),
    "prop31_2": (3, Fraction(1, 48), "wt4_g", "ram_lhs"),
}


# tag: powers a, b and the rest R(t3, t4) of theta2^a theta4^b R, R an
# integer polynomial in t3, t4 at wp bits with its scale in bits
_WEIGHTS = {
    "wt3": (4, 2, lambda t3, t4, wp: (1, 0)),
    "wt4_f": (0, 4, lambda t3, t4, wp: (2 * t3**4 - t4**4, 4 * wp)),
    "wt4_g": (0, 2, lambda t3, t4, wp: (t3**2 * (t3**4 + t4**4), 6 * wp + 1)),
    "f": (4, 2, lambda t3, t4, wp: (1, 4)),
    "g": (4, 1, lambda t3, t4, wp: (t3, wp + 4)),
}


def _theta_weight(tags, t2, t3, t4, scale=1):
    """Pass members' theta factors from theta2, theta3, theta4 at q, times
    ``scale``: one tag gives its value, a sequence of tags a tuple in that
    order.  The nome weights are wt3 = theta2^4 theta4^2, and wt4_f =
    2 theta4(q^2)^8 - theta4^8 and wt4_g = 2 theta4(q^4)^8 - theta4(q^2)^8
    by the doubling identities theta4(q^2)^2 = theta3 theta4, theta3(q^2)^2
    = (theta3^2 + theta4^2)/2 (I16, I15); the forms' theta products are f =
    theta2^4 theta4^2/16 and g = theta2^4 theta4(q^2)^2/16 = theta2^4
    theta4 theta3/16.

    Each is one integer product converted to mpf once: the O(1) thetas
    enter at wp bits, and the small one (theta2 for u >= 1, theta4 below,
    which may lie far under 2^-wp) and ``scale`` as exact powers of their
    mantissas."""
    wp = mp.mp.prec + GUARD_BITS
    fixed = {w: to_fixed(t._mpf_, wp) for w, t in ((2, t2), (3, t3), (4, t4))}
    small = 2 if fixed[2] <= fixed[4] else 4
    _, man, exp, _ = (t2 if small == 2 else t4)._mpf_
    sign, sman, sexp, _ = mp.mpf(scale)._mpf_
    sman = -sman if sign else sman
    out = []
    for tag in (tags,) if isinstance(tags, str) else tags:
        a, b, rest = _WEIGHTS[tag]
        k, j = (a, b) if small == 2 else (b, a)  # powers of the small and the big
        r, bits = rest(fixed[3], fixed[4], wp)
        P = sman * man**k * fixed[6 - small] ** j * r
        out.append(mp.mpf((P, sexp + k * exp - j * wp - bits)))
    return out[0] if isinstance(tags, str) else tuple(out)


# the default members of a half-period pass: the nome integrals by id, and
# (form, s) for the Mellin transform of each form's theta product at s = 3, 4
_PASS_MEMBERS = tuple(_Q_INTEGRALS) + tuple(
    (form, mp.mpf(s)) for form in FORMS for s in (3, 4)
)


def _plan(members):
    """(members, the theta weight tags and the Lambert ids they read), each
    tag and id once, in the members' order."""
    nome = [_Q_INTEGRALS[m][2:] for m in members if isinstance(m, str)]
    forms = [m[0] for m in members if not isinstance(m, str)]
    tags = tuple(dict.fromkeys([tag for tag, _ in nome] + forms))
    return tuple(members), tags, tuple(dict.fromkeys(name for _, name in nome))


def _node(u, jac, thetas, plan, ctx: PrecisionContext, q=None):
    """Each member's integrand at half-period u times jac, or the error it
    met, for members, tags and Lambert ids as :func:`_plan` gives them.

    ``thetas`` are theta2, theta3, theta4 at u, or the NumericsError their
    sum met, which every member then meets.  One :func:`_theta_weight` call
    gives every weight with jac folded in, and :func:`_lemma22` Lemma 2.2's
    sums; each power of u is built once.  ram_lhs is a :func:`lambert_series`
    on the nome q of the upper half, which fails apart, and a member reads
    only its own sum, so it fails as it would alone.  The lower half passes
    no q, and its u <= 1 gives c = (t4/t3)^4 = 1 - alpha <= 1/2: there, as
    2F1(1/2,1/2;1;alpha) = t3^2 and 2F1(1/2,1/2;1;c) = u t3^2, Ramanujan's
    quotient is t2^2 A(c)/(4 t3^4) + pi u lemma22_1, A the 3F2's regular
    part about z = 1 (:func:`treble_regular`), with no exp and no AGM."""
    members, tags, names = plan
    if isinstance(thetas, Exception):
        return (thetas,) * len(members)
    t2, t3, t4 = thetas
    weights = dict(zip(tags, _theta_weight(tags, t2, t3, t4, jac)))
    sums, powers, out = {}, {}, []
    if names and (q is None or set(names) - {"ram_lhs"}):
        sums = dict(zip(("lemma22_1", "lemma22_2"), _lemma22(u, t2, t3, t4)))
    if "ram_lhs" in names and q is None:
        regular = treble_regular((t4 / t3) ** 4)
        sums["ram_lhs"] = t2 * t2 * regular / (4 * t3**4) + mp.pi * u * sums["lemma22_1"]
    elif "ram_lhs" in names:
        (sums["ram_lhs"],) = isolated([partial(lambert_series, "ram_lhs", q, ctx)])
    for m in members:
        if isinstance(m, str):  # a nome integral
            tag, name = _Q_INTEGRALS[m][2:]
            term = sums[name]
            out.append(term if isinstance(term, Exception) else weights[tag] * term)
        else:
            form, sv = m
            if sv not in powers:
                powers[sv] = u ** (sv - 1)
            out.append(weights[form] * powers[sv])
    return tuple(out)


@lru_cache(maxsize=4)  # a registry pass at one precision fills one
def _u_pass(ctx: PrecisionContext, U, members):
    """{member: its integral over u = -log(q)/pi} for members as :func:`_node`
    takes them, each an :class:`Estimate` or the error either half met.

    The integral runs in two halves cut at U, over one tanh-sinh stream in
    v.  The upper half takes u = U - log(v)/pi, on the nome e^(-pi U) v.  A
    member dies like exp(-pi/(c u)) as q -> 1 (c = 4 for g's theta product,
    2 for the rest), flat zero to tanh-sinh, so the lower half takes 1/u =
    1/U - log(v)/pi, whose involuted nome e^(-pi/u) is e^(-pi/U) v: there
    the integrand goes like v^(1/c - 1) times powers of log v.  Each node
    sums the thetas once per distinct nome (one at U = 1), exactly and with
    no exp where the direct side is the cheap one; the lower half reads
    them with theta2 and theta4 swapped, all three times sqrt(1/u).  Each
    half freezes at its own level (:func:`integrate01`), as if alone.  Only
    the upper half sums ram_lhs: a nome member wants U <= 1.
    """
    plan = _plan(members)
    held = {}  # by precision: pi, 1/U, e^(-pi U), e^(-pi/U) at the integrand's bits

    def thetas(u, q):  # or the NumericsError their sum met
        (out,) = isolated([partial(theta_involution, u, (2, 3, 4), ctx, qv=q)])
        return out

    def stream(v, cv):
        if mp.mp.prec not in held:
            pi = +mp.pi
            held[mp.mp.prec] = pi, 1 / U, mp.exp(-pi * U), mp.exp(-pi / U)
        pi, inv_U, nome_U, nome_inv_U = held[mp.mp.prec]
        lv = mp.log(v) / pi
        u, w, q = U - lv, inv_U - lv, nome_U * v  # w = 1/u on the lower half
        upper = thetas(u, q)
        lower = upper if U == 1 else thetas(w, nome_inv_U * v)
        if not isinstance(lower, Exception):  # the involution u -> 1/u
            root = mp.sqrt(w)
            lower = tuple(root * t for t in lower[::-1])
        jac = 1 / (pi * v)
        return (_node(u, jac, upper, plan, ctx, q)
                + _node(1 / w, jac / (w * w), lower, plan, ctx))

    # g's Mellin members go like v^(-3/4) on the lower half
    runs = integrate01(stream, ctx, left_exponent=0.25)
    with ctx.working():  # each member's halves summed, or the error one met
        return {
            m: next((r for r in pair if isinstance(r, Exception)), None)
            or Estimate(*(a + b for a, b in zip(*pair)))
            for m, pair in zip(members, zip(runs, runs[len(members):]))
        }


def q_integral(q_id: str, ctx: PrecisionContext, shared=True):
    """L-value as a nome integral of a theta weight against a Lambert sum,
    at full working precision like the other quadrature routes: a member of
    the default :func:`_u_pass`, cut at u = 1, which holds Mellin at s = 3
    and 4 too, so whichever of the two routes asks first runs all eight.
    With ``shared`` false the pass holds this member alone, for a caller
    that reads one value; the value is the same bit for bit."""
    try:
        power, pref = _Q_INTEGRALS[q_id][:2]
    except KeyError:
        raise DomainError(f"unknown nome integral id {q_id!r}") from None
    members = _PASS_MEMBERS if shared else (q_id,)
    val, est, calls = settled(_u_pass(ctx, 1, members)[q_id])
    with ctx.working():
        factor = _pi_factor(power + 1, pref)  # dq/q = -pi du
        return floored(val * factor, est * factor, calls, ctx, "nome integral")


def mellin(form: str, s, ctx: PrecisionContext, split=None, shared=True):
    """L(form, s) = (1/Gamma(s)) int_0^inf h(e^-t) t^(s-1) dt.

    The integral runs over u = t/pi in :func:`_u_pass`, cut at ``split``
    (default pi), where h(e^-t) ~ exp(-pi^2/(2t)) for f and exp(-pi^2/(4t))
    for g (a_0 = 0).  The result must not depend on the cut; the
    split-invariance gate in tests/test_acceptance.py moves it by a factor
    of two in both directions and checks that.  s = 3 and 4 at the default
    cut read the default pass, with the nome integrals of :func:`q_integral`,
    unless ``shared`` is false; any other s or cut runs the same pass with
    that one member.
    """
    if form not in FORMS:
        raise DomainError(f"unknown form {form!r}")
    with ctx.working():
        sv = as_real(s)
        if not sv > 0:
            raise DomainError("the transform needs s > 0")
        if split is not None and not as_real(split) > 0:
            raise DomainError("split point must be positive")
        U = 1 if split is None else as_real(split) / mp.pi
        default = shared and split is None and sv in (3, 4)
        members = _PASS_MEMBERS if default else ((form, sv),)
        val, est, calls = settled(_u_pass(ctx, U, members)[form, sv])
        scale = mp.pi**sv / gamma(sv, ctx)
        return floored(scale * val, scale * est, calls, ctx, "mellin transform")


# ---------------------------------------------------------------------------
# raw Dirichlet series


@lru_cache(maxsize=4)  # g's nonzero m to N, their a_m, and sum |a_m|
def _g_terms(n_terms: int):
    """Read at m = 1 mod 4 only: g = q prod (1 - q^(4n))^6 vanishes elsewhere."""
    coeffs = coeffs_lambert("g", n_terms, _stride=4)
    ams = tuple(filter(None, coeffs))
    return tuple(compress(count(1, 4), coeffs)), ams, sum(map(abs, ams))


def _hurwitz_above(s: float, x: int) -> float:
    """zeta(s, x) from above for real s > 1: the terms below 16 summed, then
    Euler-Maclaurin through B_4 and the size of the B_6 term, a bound on the
    rest as t^-s's derivatives alternate in sign.  From 16 on, the excess is
    below 1e-10 relative for s <= 3.  It falls as s grows, so s is capped at
    64, which keeps every product finite and the bound above."""
    s = min(s, 64.0)
    y = float(max(x, 16))
    w, p = y**-s, s * (s + 1) * (s + 2)
    return math.fsum([*(float(j) ** -s for j in range(x, 16)),
                      y * w / (s - 1), w / 2, s * w / (12 * y),
                      -p * w / (720 * y**3), p * (s + 3) * (s + 4) * w / (30240 * y**5)])


def _divisor_tail(n_terms: int, s1: float) -> float:
    """sum_{m > N} d(m) m^(-s1) from above, for real s1 > 1.  By Dirichlet's
    hyperbola method, with S = isqrt(N), the pairs a b > N are those with
    a <= S <= N // a < b, their mirrors, and all with a, b > S, so it is
    2 sum_{a <= S} a^-s1 zeta(s1, N // a + 1) + zeta(s1, S + 1)^2: positive
    float64 terms, each a few roundings above, which the pads cover."""
    cut = math.isqrt(n_terms)
    head = math.fsum([a**-s1 * _hurwitz_above(s1, n_terms // a + 1)
                      for a in range(1, cut + 1)])
    rest = _hurwitz_above(s1, cut + 1)
    return (2 * head + rest * rest) * (1 + 1e-12) + 1e-13


def _iroot(x: int, k: int) -> int:
    """The largest r with r**k <= x, for x >= 1: Newton's step from above."""
    bits = x.bit_length()
    r = 1 << -(-bits // k) if k < bits else 1  # at least the root
    while (t := ((k - 1) * r + x // r ** (k - 1)) // k) < r:
        r = t
    return r


def dirichlet_sum(form: str, s, ctx: PrecisionContext, n_terms: int = 100000):
    """Partial sum of a_m m^(-s) for g, with a rigorous divisor-bound tail.

    |a_m| <= d(m) m closes the tail for s > 5/2: good to ~9 digits at s = 4
    with the default budget, and only ~5 at s = 3, which is the point of
    having the other routes.  The bound follows from g's binary theta
    series: a_m = 1/2 sum (x^2 - y^2) over the representations m = x^2 + y^2
    with x odd and y even, signs included.  There are at most r_2(m)/2 of
    them, as swapping x and y maps them one-to-one onto representations
    with x even; each term has |x^2 - y^2| <= x^2 + y^2 = m; and Jacobi's
    r_2(m) = 4 sum_{d|m} chi_{-4}(d) is at most 4 d(m).  So |a_m| <=
    1/2 (2 d(m)) m.  The suite also checks the bound well past the first
    thousand coefficients, and :func:`_divisor_tail` bounds the rest.  f is
    not served here; its factorized route is strictly better and keeps this
    one an independent g check.  The effort is the terms summed.

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
        ms, ams, mass = _g_terms(int(n_terms))
        wp = mp.mp.prec + mass.bit_length()
        one, k = 1 << wp, int(sv)
        if k == sv:  # one // m**k is 0 past the k-th root of one
            kept = bisect_right(ms, _iroot(one, k))
            weights = map(floordiv, repeat(one), map(pow, ms[:kept], repeat(k)))
            acc = sum(map(mul, ams, weights))
        else:
            with mp.workprec(wp):
                acc = sum([am * to_fixed((mp.mpf(m) ** -sv)._mpf_, wp)
                           for m, am in zip(ms, ams)])
        value = mp.mpf((acc, -wp))
        tail = _divisor_tail(int(n_terms), float(sv) - 1.0)
        est = mp.mpf(tail) + noise_floor(value, ctx) + mp.mpf((2 * mass, -wp))
        return Estimate(ensure_finite(value, "dirichlet sum"), est, int(n_terms))


# ---------------------------------------------------------------------------
# closed forms

SAMART_5F4 = PFQSpec(("3/2", "3/2", "3/2", 1, 1), (2, 2, 2, 2))
LF4_ALT = PFQSpec(("1/2", "1/2", "1/2", "1/2", 1), ("3/2", "3/2", "3/2", "3/2"))
LF4_POS1 = PFQSpec(("1/4", "1/4", "1/4", "1/4", 1), ("5/4", "5/4", "5/4", "5/4"))
LF4_POS3 = PFQSpec(("3/4", "3/4", "3/4", "3/4", 1), ("7/4", "7/4", "7/4", "7/4"))


# name: the (pFq spec, z) sums a closed side reads, and its Estimate from
# ctx and theirs
CLOSED_SIDES = {
    "3 pi log 2": ((), lambda ctx: Estimate(3 * mp.pi * mp.log(2), 0)),
    "48 log 2 - 5F4(1)": (((SAMART_5F4, 1),),
                          lambda ctx, f: f._replace(value=48 * mp.log(2) - f.value)),
    "5F4(-1)": (((LF4_ALT, -1),), lambda ctx, f: f),
    "split 5F4(1)": (  # the even/odd split of L(chi_-4, 4)
        ((LF4_POS1, 1), (LF4_POS3, 1)),
        lambda ctx, a, b: Estimate(a.value - b.value / 81,
                                   a.error_estimate + b.error_estimate / 81,
                                   a.effort + b.effort),
    ),
    "L(chi_-4,4)": ((), lambda ctx: l_chi4(4, ctx)),
}

# (form, s): its corollary's scale c, a pi power and a Fraction, and the
# closed sides equal to c F(1, 1), F the weighted sum of kdf_weighted_sum;
# the corollary's own first, then L(f, 4)'s other two of L(chi_-4, 4)
COROLLARIES = {
    ("f", 3): ((0, Fraction(1)), ("3 pi log 2",)),
    ("g", 3): ((0, Fraction(8)), ("48 log 2 - 5F4(1)",)),
    ("f", 4): ((1, Fraction(1, 24)), ("5F4(-1)", "split 5F4(1)", "L(chi_-4,4)")),
}


def closed_side(name: str, ctx: PrecisionContext) -> Estimate:
    """One closed side of :data:`CLOSED_SIDES` from the pFq sums it reads,
    its estimate at least its value's noise floor."""
    sums, combine = CLOSED_SIDES[name]
    with ctx.working():
        return floored(*combine(ctx, *(pfq(spec, z, ctx) for spec, z in sums)), ctx)


def closed_form(which: str, ctx: PrecisionContext):
    """One of the single-series closed forms, with the terms its sums took:
    its theorem's prefactor over its corollary's scale times the closed
    side of :data:`COROLLARIES`, whose estimate it takes plus the spread of
    the sides listed, so lf4 is only as good as its three agree."""
    pair = next((k for k in COROLLARIES if ROUTE_IDS[k][2] == which), None)
    if pair is None:
        raise DomainError(f"unknown closed form id {which!r}")
    power, pref, _ = _KDF_RHS[ROUTE_IDS[pair][0]]
    (c_power, c_pref), names = COROLLARIES[pair]
    with ctx.working():
        sides = [closed_side(name, ctx) for name in names]
        spread = max((abs(a.value - b.value) for a, b in combinations(sides, 2)),
                     default=0)
        factor = _pi_factor(power - c_power, pref / c_pref)
        est = factor * (sides[0].error_estimate + spread)
        terms = sum(side.effort for side in sides)
        return floored(factor * sides[0].value, est, terms, ctx, "closed form")


# ---------------------------------------------------------------------------
# the dispatcher


@lru_cache(maxsize=64)  # a registry pass at one precision fills twelve
def _l_value_cached(form: str, n: int, method: str, ctx: PrecisionContext, shared):
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
        return mellin(form, n, ctx, shared=shared)
    kdf_id, q_id, closed_id = ROUTE_IDS[form, n]
    if method == "alpha_integral":
        return alpha_integral(kdf_id, ctx, shared=shared)
    if method == "q_integral":
        return q_integral(q_id, ctx, shared=shared)
    # closed_form
    if closed_id is None:
        raise DomainError(f"no closed form is on the books for L({form}, {n})")
    return closed_form(closed_id, ctx)


def l_value(
    form: str, n: int, method: str, ctx: PrecisionContext, shared=True
) -> Estimate:
    """L(form, n) for n in {3, 4} by the requested route, memoized per context.

    Route availability: ``factorized`` and the lf* closed forms are f only,
    ``dirichlet_sum`` and lg3 are g only (and there is no closed form for
    L(g, 4) at all); the integral, Mellin and double-series routes cover all
    four (form, n) pairs, by the ids :data:`ROUTE_IDS` names.  The error
    estimate is an honest bound for the route as run; the raw series, the one
    coarse route, does not sharpen when the context asks for more digits.
    The effort is whatever figure the route reports: series terms for the
    sums and the closed forms' hypergeometric sums (0 for the elementary
    lf3), and integrand evaluations for the quadrature routes.  ``shared``
    (the default) runs ``mellin`` and ``q_integral`` in the one half-period
    pass of all eight and ``alpha_integral`` in the one pass of all six
    double-series reductions, which a registry pass reads whole; a caller
    that reads one value sets it false and pays for that route alone, for
    the same value bit for bit.
    """
    if form not in FORMS:
        raise DomainError(f"unknown form {form!r}")
    if n not in (3, 4):
        raise DomainError("special values are computed at s = 3 and s = 4 only")
    if method not in L_VALUE_METHODS:
        raise DomainError(f"unknown method {method!r}")
    return _l_value_cached(form, int(n), method, ctx, bool(shared))
