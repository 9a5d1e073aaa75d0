"""Generalized hypergeometric series, their boundary values, and the
two-variable (Kampe de Feriet type) double series.

Single series p+1Fp draw every term from one ratio recurrence and are
summed directly inside the unit interval; at z = 1 a positive excess gives
a power tail whose exact asymptotic expansion is summed as Hurwitz zeta
values, all from one Euler-Maclaurin pass, and at z = -1 the alternating
structure feeds the Chebyshev accelerator.
The double series come in three independent flavors: a rigorous truncated
square, an iterated sum with tail extrapolation (float64 vector engine), and
a Beta-kernel reduction to a one-dimensional integral of closed-form kernels,
which is the full-precision reference.  Its AGM and 3F2 kernels run in fixed
point, on Python integers scaled by 2^wp with wp = prec + 20 guard bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, chain, count, islice
from operator import mul

import mpmath as mp
import numpy as np
from mpmath.libmp import to_fixed

from .context import (
    BudgetError,
    DomainError,
    Estimate,
    GUARD_BITS,
    PrecisionContext,
    as_real,
    ensure_finite,
    floored,
    parse_rational,
)
from .quadrature import integrate01, isolated, settled
from .series import extrapolate_powerlog, richardson_power
from .special import beta as beta_fn
from .special import alternating_sum

__all__ = [
    "PFQSpec",
    "KdFSpec",
    "ConvergenceReport",
    "pfq_excess",
    "pfq_converges",
    "pfq",
    "euler_2f1",
    "series_kernel",
    "treble_regular",
    "kdf_converges",
    "kdf_full",
    "kdf_reductions",
    "KDF_STRATEGIES",
]


def _coerce_params(values):
    out = []
    for v in values:
        if isinstance(v, str):
            out.append(parse_rational(v))
        elif isinstance(v, (int, Fraction)):
            out.append(Fraction(v))
        elif isinstance(v, float) and math.isfinite(v):
            # binary-exact; 0.5 stays 1/2, and nobody should pass 0.1 anyway
            out.append(Fraction(v))
        else:
            raise DomainError("hypergeometric parameters must be rational")
    return tuple(out)


def _no_bad_lower(params, where):
    for p in params:
        if p.denominator == 1 and p <= 0:
            raise DomainError(f"{where} parameter {p} is zero or a negative integer")


@dataclass(frozen=True)
class PFQSpec:
    """Parameters of a p+1Fp series: one more upper than lower."""

    upper: tuple
    lower: tuple

    def __post_init__(self):
        object.__setattr__(self, "upper", _coerce_params(self.upper))
        object.__setattr__(self, "lower", _coerce_params(self.lower))
        if len(self.upper) != len(self.lower) + 1:
            raise DomainError("need exactly one more upper parameter than lower")
        _no_bad_lower(self.lower, "lower")

    @property
    def terminating(self) -> bool:
        return any(u.denominator == 1 and u <= 0 for u in self.upper)


def pfq_excess(spec: PFQSpec) -> Fraction:
    """sum(lower) - sum(upper); positive excess means convergence at z = 1."""
    return sum(spec.lower, Fraction(0)) - sum(spec.upper, Fraction(0))


def pfq_converges(spec: PFQSpec, z) -> str:
    """'interior', 'boundary-convergent', or 'divergent' at real z.

    z is compared exactly: an mpf a hair below 1 is interior, not 1.
    """
    zf = Fraction(z) if isinstance(z, (int, str, Fraction)) else z
    if spec.terminating:
        return "interior"  # a polynomial, fine anywhere
    if abs(zf) < 1:
        return "interior"
    e = pfq_excess(spec)
    if zf == 1:
        return "boundary-convergent" if e > 0 else "divergent"
    if zf == -1:
        return "boundary-convergent" if e > -1 else "divergent"
    return "divergent"


def _pfq_terms(spec: PFQSpec, zv):
    """t_0, t_1, ... of p+1Fp(spec; zv), each the last times the term ratio
    zv prod(a+m) / (prod(b+m) (m+1)).

    The parameters are converted here, at the caller's precision; each term
    is stepped when drawn, at the precision in force then.
    """
    ups = [as_real(u) for u in spec.upper]
    lows = [as_real(l) for l in spec.lower]

    def stream():
        t = mp.mpf(1)
        m = 0
        while True:
            yield t
            ratio = zv
            for u in ups:
                ratio *= u + m
            for l in lows:
                ratio /= l + m
            ratio /= m + 1
            t *= ratio
            m += 1

    return stream()


def _pfq_interior(spec: PFQSpec, zv, ctx: PrecisionContext):
    az = abs(zv)
    tol = ctx.goal()
    # past m_min the term ratio stays below (1+|z|)/2, so the geometric tail
    # bound |t| q/(1-q) is safe; 4K/(1-|z|) over-covers the parameter drift
    ksum = float(sum(abs(u) for u in spec.upper) + sum(abs(l) for l in spec.lower) + 1)
    m_min = 10 + int(4 * ksum / float(1 - az)) if az < 1 else 10
    if not spec.terminating and m_min > ctx.max_terms:
        raise BudgetError(f"pFq interior tail bound needs at least {m_min} terms")
    q = (1 + az) / 2
    terms = _pfq_terms(spec, zv)
    s = next(terms)
    for m, t in enumerate(terms, 1):
        s += t
        if t == 0:  # a polynomial sums to its last term, whatever |z|
            return Estimate(s, mp.mpf(0), m)
        if not spec.terminating and m >= m_min:
            tail = abs(t) * q / (1 - q)
            if tail < tol * max(abs(s), 1):
                return Estimate(s, tail, m + 1)
        if m > ctx.max_terms:
            raise BudgetError("pFq interior sum exhausted its budget", best=s)


def _tail_coeffs(spec: PFQSpec, count: int) -> tuple:
    """c_0 .. c_{count-1} of t_n = C n^(-s) sum_k c_k n^-k, s = 1 + e, exactly.

    With x = 1/n and G = sum c_k x^k, t_(n+1)/t_n = A(n)/B(n), A = prod(n+a_i)
    and B = (n+1) prod(n+b_j) give B~(x) G(x/(1+x)) = (1+x)^s A~(x) G(x), with
    P~(x) = x^deg P(1/x); its order m fixes (m-1) c_(m-1) from c_0 .. c_(m-2).
    c_k is an integer-valued polynomial of degree 2k in the parameters, so
    g_k = c_k h^k is an integer for h = D^4, D their common denominator: each
    series is scaled so, and G(x/(1+x)) comes from the differences (E - h)^i g.
    """
    s = 1 + pfq_excess(spec)
    h = math.lcm(*(p.denominator for p in spec.upper + spec.lower)) ** 4

    def scaled(roots):  # prod(1 + r x), coefficient i times h^i
        poly = [1]
        for r in roots:
            poly = [lo + r * hi for lo, hi in zip(poly + [0], [0] + poly)]
        return [int(c * h**i) for i, c in enumerate(poly)]

    low, up, power = scaled(spec.lower + (Fraction(1),)), scaled(spec.upper), [1]
    for i in range(count):  # (1+x)^s
        power.append(int(power[-1] * (s - i) * h / (i + 1)))
    rho = [sum(map(mul, up, reversed(power[: i + 1]))) for i in range(count + 1)]
    g, u, diag = [1], [1], []  # diag[i] = ((E - h)^i g)(len(diag) - i)
    for m in range(2, count + 1):
        d1 = list(accumulate(diag, lambda a, d: a - h * d, initial=0))  # g_(m-1) = 0
        res = sum(map(mul, low, chain((-h * sum(d1), d1[-1]), reversed(u))))
        g.append((res - sum(map(mul, rho[2:], reversed(g)))) // ((m - 1) * h))
        diag = [d + g[-1] for d in d1]
        u.append(diag[-1])
    return tuple(Fraction(gk, h**k) for k, gk in enumerate(g))


def _hurwitz_family(coeffs, s: Fraction, n: int, size):
    """[c_k zeta(s + k, n) for c_k in coeffs] and a bound on their summed
    error: n <= j < L directly, then one Euler-Maclaurin pass at L >= s + k
    (Johansson, Numer. Algorithms 69, 2015) for every k, with c_k L^(-s-k) in
    floating point and the bracket of
        zeta(s, L) = L^-s [L/(s-1) + 1/2 + sum_i B_2i/(2i)! (s)_(2i-1) L^(1-2i)]
    in integers scaled by 2^wp, wp = prec + GUARD_BITS.  For x^-s a remainder
    is at most the first term left out: each bracket stops at a term that moves
    c_k zeta by less than size 2^-wp, or at its smallest, and the bound sums them.
    """
    wp = mp.mp.prec + GUARD_BITS
    bern = []  # B_2i/(2i)! as (integer, shift) at wp bits

    def term(i, u):
        while len(bern) < i:
            with mp.workprec(wp):
                b = mp.bernoulli(2 * len(bern) + 2) / mp.factorial(2 * len(bern) + 2)
                bern.append((to_fixed(b._mpf_, wp - mp.mag(b)), wp - mp.mag(b)))
        return bern[i - 1][0] * u >> bern[i - 1][1]

    top = max(n, math.ceil(s) + len(coeffs))
    head = [mp.mpf(j) ** -as_real(s) for j in range(n, top)]  # j^(-s-k)
    p, q = s.numerator, s.denominator  # p/q = s + k below
    lead = mp.mpf(top) ** -as_real(s)
    out, rem = [], mp.mpf(0)
    for ck in coeffs:
        w = ck * lead  # c_k L^(-s-k)
        cut = int(size / abs(w)) if w else 0
        acc = (top * q << wp) // (p - q) + (1 << (wp - 1))
        u = (p << wp) // (q * top)  # (s+k)_(2i-1) L^(1-2i) 2^wp
        t = term(1, u)
        for i in count(2):
            u = u * (p + q * (2 * i - 3)) * (p + q * (2 * i - 2)) // (q * q * top * top)
            nxt = term(i, u)
            if abs(t) <= cut or abs(nxt) >= abs(t):
                break
            acc, t = acc + t, nxt
        out.append(w * mp.mpf((acc, -wp)) + ck * mp.fsum(head))
        rem += abs(w) * abs(t)
        lead, p, head = lead / top, p + q, [x / j for x, j in zip(head, count(n))]
    return out, mp.ldexp(rem, -wp)


def _pfq_unit(spec: PFQSpec, ctx: PrecisionContext):
    """p+1Fp at z = 1: N terms directly, the rest through Hurwitz zeta.

    The tail sum_{n>=N} t_n = C sum_k c_k zeta(1+e+k, N) is asymptotic in N
    (Buhring, Proc. AMS 114, 1992) and is cut at K terms.  Its terms can
    alternate in size, so the estimate is its last kept term plus its first
    omitted one, plus the bound of :func:`_hurwitz_family` on the zeta
    values; N doubles until that meets the goal or would pass max_terms.
    The effort is N.
    """
    goal = ctx.goal()
    scale = mp.fprod(mp.gamma(as_real(l)) for l in spec.lower) / mp.fprod(
        mp.gamma(as_real(u)) for u in spec.upper
    )
    cut, s1 = int(0.9 * ctx.digits) + 10, 1 + pfq_excess(spec)
    coeffs = [scale * as_real(ck) for ck in _tail_coeffs(spec, cut + 1)]
    terms = _pfq_terms(spec, mp.mpf(1))
    s = mp.mpf(0)
    m = 0
    n_head = ctx.digits + 20
    while True:
        n_head = min(n_head, ctx.max_terms)
        s = sum(islice(terms, n_head - m), s)
        m = n_head
        tail, bound = _hurwitz_family(coeffs[:cut], s1, n_head, abs(s))
        (omitted,), _ = _hurwitz_family(coeffs[cut:], s1 + cut, n_head, abs(s))
        value = s + mp.fsum(tail)
        est = abs(tail[-1]) + abs(omitted) + bound
        if est <= goal * abs(value):
            return Estimate(value, est, n_head)
        if n_head >= ctx.max_terms:
            raise BudgetError(
                "pFq unit-argument tail exhausted its budget", best=value, estimate=est
            )
        n_head *= 2


def _pfq_alternating(spec: PFQSpec, ctx: PrecisionContext):
    if any(p <= 0 for p in spec.upper) or any(p <= 0 for p in spec.lower):
        raise DomainError("alternating acceleration needs positive parameters")
    # the z = 1 stream holds the magnitudes of the z = -1 terms
    return alternating_sum(_pfq_terms(spec, mp.mpf(1)), ctx)


def pfq(spec: PFQSpec, z, ctx: PrecisionContext):
    """p+1Fp(upper; lower; z) on [-1, 1], boundary points accelerated.

    :func:`pfq_converges` decides the domain here and nowhere else: a
    boundary point the excess does not carry raises DomainError.  Interior
    arguments use plain summation with a geometric tail bound; z = 1 sums
    digits + 20 terms and adds the excess-driven power tail through its exact
    expansion in Hurwitz zeta values, one Euler-Maclaurin pass for all; z = -1
    uses the alternating-series accelerator.  Each reports the bound it
    stopped on and the terms it summed, as an :class:`Estimate`.
    """
    with ctx.working():
        zv = as_real(z)
        if not -1 <= zv <= 1:
            raise DomainError("pFq argument must lie in [-1, 1]")
        if zv == 0:
            return Estimate(mp.mpf(1), mp.mpf(0))
        kind = pfq_converges(spec, zv)
        if kind == "divergent":
            raise DomainError(f"pFq diverges at z = {zv}: excess {pfq_excess(spec)}")
        if kind == "interior":
            res = _pfq_interior(spec, zv, ctx)
        else:
            res = (_pfq_unit if zv == 1 else _pfq_alternating)(spec, ctx)
        return floored(*res, ctx, "pFq")


def euler_2f1(a, b, c, z, ctx: PrecisionContext):
    """Gauss 2F1 through the Beta-weighted integral, c > b > 0.

    An independent route to the same values as pfq: the integrand carries
    t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a), and at z = 1 the last factor merges
    into the right endpoint exponent (requiring c - a - b > 0).  The endpoint
    exponents feed the calibrated quadrature, so b and the effective c - b
    must not drop below 1/4.  The estimate and effort are the quadrature's.
    """
    af, bf, cf = _coerce_params((a, b, c))
    if not cf > bf > 0:
        raise DomainError("euler_2f1 needs c > b > 0")
    with ctx.working():
        zv = as_real(z)
        if zv > 1:
            raise DomainError("euler_2f1 defined for z <= 1")
        right = cf - bf - af if zv == 1 else cf - bf
        if not right > 0:
            raise DomainError("z = 1 needs c - a - b > 0")
        el, er, na = as_real(bf - 1), as_real(right - 1), -as_real(af)  # once, not per node
        if zv == 1:
            f = lambda t, ct: t**el * ct**er
        else:
            f = lambda t, ct: t**el * ct**er * (1 - zv * t) ** na
        val, est, calls = integrate01(f, ctx, float(bf), float(right))
        norm = beta_fn(bf, cf - bf, ctx)
        return floored(val / norm, est / norm, calls, ctx, "euler 2F1")


# ---------------------------------------------------------------------------
# closed-form kernels for the series groups appearing in the double sums


def _agm_ambient(x, y):
    """agm(x, y) for positive mpf x, y, in fixed point: Python integers with
    the larger argument just below 2^wp step (x + y) >> 1, isqrt(x y) until
    |x - y| <= 2^(8 - prec) x.  wp is prec + GUARD_BITS + log2(x/y), so y
    keeps prec + GUARD_BITS bits; the far-apart cut bounds log2(x/y)."""
    x, y = max(x, y), min(x, y)
    # far apart, agm(x, y) = pi x / (2 log(4x/y)) to a relative O((y/x)^2),
    # the complete elliptic integral's K(k) = log(4/k') + O(k'^2 log k')
    prec = mp.mp.prec
    if y < mp.ldexp(x, -(prec // 2 + 8)):
        return mp.pi * x / (2 * mp.log(4 * x / y))
    top = mp.mag(x)
    wp = prec + GUARD_BITS + top - mp.mag(y)
    X, Y = to_fixed(x._mpf_, wp - top), to_fixed(y._mpf_, wp - top)
    while abs(X - Y) << (prec - 8) > X:
        X, Y = (X + Y) >> 1, math.isqrt(X * Y)
    return mp.mpf(((X + Y) >> 1, top - wp))


def _require_inside(cz):
    if not cz > 0:
        raise DomainError("kernel wants z < 1, that is cz = 1 - z > 0")


def _kernel_log(z, cz):
    # 2F1(1,1;2;z) = -log(1-z)/z: below z = 1/2 (z < cz) the rounded cz has
    # lost z's low bits, so 1 - z is formed exactly from z; above, cz serves
    _require_inside(cz)
    if z == 0:
        return mp.mpf(1)
    return -mp.log(mp.fsub(1, z, exact=True) if z < cz else cz) / z


def _kernel_atanh(z, cz):
    # 2F1(1/2,1;3/2;z) = atanh(sqrt z)/sqrt z: atanh below z = 1/2, above
    # it the log written on the exact complement, so nothing cancels
    _require_inside(cz)
    if z == 0:
        return mp.mpf(1)
    if z < 0:
        rz = mp.sqrt(-z)
        return mp.atan(rz) / rz
    rz = mp.sqrt(z)
    if z < cz:
        return mp.atanh(rz) / rz
    return mp.log((1 + rz) ** 2 / cz) / (2 * rz)


def _kernel_agm(z, cz):
    # 2F1(1/2,1/2;1;z) = 1/agm(1, sqrt(1-z))
    _require_inside(cz)
    return 1 / _agm_ambient(mp.mpf(1), mp.sqrt(cz))


# Taylor coefficients of the regular part of the 3F2 kernel about z = 1,
# keyed by binary working precision, the oldest dropped first; a registry
# pass at one precision builds three
_IB_CACHE: dict = {}
_IB_PRECISIONS = 8


def _ib_coeffs():
    """a_m 2^wp, wp = prec + GUARD_BITS, as integers for m < prec + 8, where
    3F2(1,1,1;3/2,3/2;z) = A(e) + log(e) B(e), e = 1 - z, A = sum a_m e^m.

    B(e) = -pi/4 2F1(1/2,1/2;1;e)/sqrt(1-e) = sum b_m e^m and A
    solve the Frobenius recurrence of the 3F2 equation at z = 1 (Buhring,
    Proc. AMS 114, 1992):
        (m+2)^2 s_{m+2} = (8m^2+24m+19)/4 s_{m+1} - (m+1)^2 s_m - r_m/(m+1),
    r_m = 0 for b, and for a
        r_m = (m+2)(3m+4) b_{m+2} - (24m^2+64m+43)/4 b_{m+1} + 3(m+1)^2 b_m.
    Seeds: b_0 = -pi/4, b_1 = -3pi/16, a_0 = pi log 2 - 2G (from the integral
    of theta/sin(theta) over [0, pi/2], which is 2G), a_1 = 3a_0/4 + 1/4 - pi/8.
    The recurrence runs in Python integers cleared of its fractions, one
    floor a step, 2 log2(n) bits above wp: both characteristic roots are 1,
    so the floors grow only like n^1.5 units.  Every |a_m| < 1, so the table
    is long enough for e <= 1/2.
    """
    key = mp.mp.prec
    cached = _IB_CACHE.get(key)
    if cached is not None:
        return cached
    n, extra = key + 8, 2 * (key + 8).bit_length()
    hp = key + GUARD_BITS + extra
    with mp.workprec(hp):
        pi = mp.pi
        a0 = pi * mp.log(2) - 2 * mp.catalan
        seeds = (a0, 3 * a0 / 4 + mp.mpf(1) / 4 - pi / 8, -pi / 4, -3 * pi / 16)
        a, a1, b, b1 = (to_fixed(x._mpf_, hp) for x in seeds)
    hot = [a, a1]
    for m in range(n - 2):
        p, m1, m2 = 8 * m * m + 24 * m + 19, (m + 1) ** 2, 4 * (m + 2) ** 2
        b2 = (p * b1 - 4 * m1 * b) // m2
        r = (4 * (m + 2) * (3 * m + 4) * b2 - (24 * m * m + 64 * m + 43) * b1
             + 12 * m1 * b)  # 4 r_m
        a, a1 = a1, ((m + 1) * (p * a1 - 4 * m1 * a) - r) // ((m + 1) * m2)
        b, b1 = b1, b2
        hot.append(a1)
    if len(_IB_CACHE) >= _IB_PRECISIONS:
        del _IB_CACHE[next(iter(_IB_CACHE))]
    _IB_CACHE[key] = fixed = [am >> extra for am in hot]
    return fixed


def treble_regular(cz):
    """The regular part A(cz) of 3F2(1,1,1;3/2,3/2;z) about z = 1 (see
    :func:`_ib_coeffs`), for 0 < cz = 1 - z <= 1/2: Horner's rule over the
    table in integers scaled by 2^wp, wp = prec + GUARD_BITS.  Each step
    truncates by one unit at most; the guard bits cover ~2000 steps."""
    # keep every term above 2^-(prec+8): mag(cz) bounds log2(cz) from above
    coeffs = _ib_coeffs()[: -((mp.mp.prec + 8) // min(-1, mp.mag(cz)))]
    wp = mp.mp.prec + GUARD_BITS
    czf = to_fixed(cz._mpf_, wp)
    s = 0
    for a in reversed(coeffs):
        s = (s * czf >> wp) + a
    return mp.mpf((s, -wp))


def _kernel_treble(z, cz):
    """3F2(1,1,1;3/2,3/2;z), z in (-0.9, 1), in integers scaled by 2^wp, wp =
    prec + GUARD_BITS: the series t_(n+1) = t_n z (2n+2)^2/(2n+3)^2 up to
    z = 0.55, then :func:`treble_regular` in cz plus the log-singular part
    2F1(1/2,1/2;1;cz), one AGM."""
    if z == 0:
        return mp.mpf(1)
    wp = mp.mp.prec + GUARD_BITS
    one = 1 << wp
    zf = to_fixed(z._mpf_, wp)
    # trust cz on the right: z itself may round to 1 at extreme nodes
    if not (cz > 0 and 10 * zf > -9 * one):
        raise DomainError("treble kernel wants z in (-0.9, 1)")
    if 20 * zf <= 11 * one:
        ten = 10 ** (mp.mp.dps - 2)
        az = abs(zf)
        t = s = one
        for n in count():
            t = (t * zf >> wp) * (2 * n + 2) ** 2 // (2 * n + 3) ** 2
            s += t
            # |t| |z|/(1 - |z|) < 10^-(dps-2) |s|, cleared of fractions
            if abs(t) * az * ten < abs(s) * (one - az):
                return mp.mpf((s, -wp))
    rz = mp.sqrt(z)
    singular = mp.pi * mp.log(cz) / (4 * rz * _agm_ambient(mp.mpf(1), rz))
    return treble_regular(cz) - singular


_KERNELS = {
    ((Fraction(1), Fraction(1)), (Fraction(2),)): _kernel_log,
    ((Fraction(1, 2), Fraction(1)), (Fraction(3, 2),)): _kernel_atanh,
    ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1),)): _kernel_agm,
    (
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(3, 2), Fraction(3, 2)),
    ): _kernel_treble,
}


def series_kernel(upper, lower):
    """Closed/stable evaluator k(z, cz) for the pFq with these parameters.

    cz must be the exact complement 1 - z; every kernel leans on it near
    z = 1.  A kernel returns a bare value: it is an integrand factor, and
    the quadrature's estimate covers it.  Raises DomainError when no closed
    form is tabulated.
    """
    key = (tuple(sorted(_coerce_params(upper))), tuple(sorted(_coerce_params(lower))))
    try:
        return _KERNELS[key]
    except KeyError:
        raise DomainError(
            f"no closed-form kernel for parameters {key[0]}; {key[1]}"
        ) from None


# ---------------------------------------------------------------------------
# the double series


@dataclass(frozen=True)
class KdFSpec:
    """Parameter groups of the double series F(a:b;b' / c:d;d')(x, y).

    a/c couple the two indices through (a)_{m+n}/(c)_{m+n}; b,d ride the
    first index, bp,dp the second.
    """

    a: tuple
    c: tuple
    b: tuple
    d: tuple
    bp: tuple
    dp: tuple

    def __post_init__(self):
        for name in ("a", "c", "b", "d", "bp", "dp"):
            object.__setattr__(self, name, _coerce_params(getattr(self, name)))
        _no_bad_lower(self.c, "c")
        _no_bad_lower(self.d, "d")
        _no_bad_lower(self.dp, "dp")


@dataclass(frozen=True)
class ConvergenceReport:
    margins: tuple
    convergent_at_unit: bool


def kdf_converges(spec: KdFSpec) -> ConvergenceReport:
    """Exact absolute-convergence margins on the closed unit bidisk."""
    sa, sc = sum(spec.a, Fraction(0)), sum(spec.c, Fraction(0))
    sb, sd = sum(spec.b, Fraction(0)), sum(spec.d, Fraction(0))
    sbp, sdp = sum(spec.bp, Fraction(0)), sum(spec.dp, Fraction(0))
    m1 = sc + sd - sa - sb
    m2 = sc + sdp - sa - sbp
    m3 = sc + sd + sdp - sa - sb - sbp
    margins = (m1, m2, m3)
    return ConvergenceReport(margins, min(margins) > 0)


KDF_STRATEGIES = ("integral_reduction", "iterated", "double_truncate")


def _merged_pfq(spec: KdFSpec, which: str) -> PFQSpec:
    if which == "x":
        upper, lower = spec.a + spec.b, spec.c + spec.d
    else:
        upper, lower = spec.a + spec.bp, spec.c + spec.dp
    return PFQSpec(upper=upper, lower=lower)  # which checks the counts


def _require_coupled_pair(spec: KdFSpec):
    if len(spec.a) != 1 or len(spec.c) != 1:
        raise DomainError("this strategy needs exactly one coupled pair (a; c)")


def kdf_reductions(specs, x, y, ctx: PrecisionContext):
    """Beta-kernel reductions of several double series at one point (x, y)
    in one quadrature pass, each distinct kernel evaluated once per node;
    the reference strategy.

    (a)_{m+n}/(c)_{m+n} = int t^{a+m+n-1} (1-t)^{c-a-1} dt / B(a, c-a)
    collapses each double sum into the product of its two group kernels
    under one integral; precision is then quadrature-limited, not
    tail-limited.  Per spec, returns the :class:`Estimate` of kdf_full at
    the integral reduction, or the quadrature error that spec meets alone
    (see :func:`~thetal.quadrature.settled`); a spec off the domain raises.
    """

    def prepare(spec):
        _kdf_domain(spec, x, y)
        _require_coupled_pair(spec)
        a1, c1 = spec.a[0], spec.c[0]
        if not (c1 > a1 > 0):
            raise DomainError("integral reduction needs c > a > 0")
        kernels = series_kernel(spec.b, spec.d), series_kernel(spec.bp, spec.dp)
        return (a1, c1, as_real(a1 - 1), as_real(c1 - a1 - 1)) + kernels

    with ctx.working():
        preps = [prepare(spec) for spec in specs]
        xv, yv = (as_real(v) for v in _coerce_params((x, y)))
        x_unit, y_unit = xv == 1, yv == 1

        def f(t, ct):  # each distinct kernel value and power once per node
            kx = cache(lambda kernel: kernel(xv * t, ct if x_unit else 1 - xv * t))
            ky = cache(lambda kernel: kernel(yv * t, ct if y_unit else 1 - yv * t))
            tp, cp = cache(t.__pow__), cache(ct.__pow__)

            def piece(a1, c1, left, right, kernel_x, kernel_y):
                vx, vy = kx(kernel_x), ky(kernel_y)
                return tp(left) * cp(right) * vx * vy

            return isolated(partial(piece, *prep) for prep in preps)

        left = min(float(p[0]) for p in preps)
        right = min(float(p[1] - p[0]) for p in preps)
        runs = integrate01(f, ctx, left, right, right_log=x_unit or y_unit)

        def finish(prep, run):
            val, est, calls = settled(run)
            norm = beta_fn(prep[0], prep[1] - prep[0], ctx)
            return floored(val / norm, est / norm, calls, ctx)

        return isolated(partial(finish, p, r) for p, r in zip(preps, runs))


def _float_params(fractions):
    return np.array([float(p) for p in fractions], dtype=np.float64)


def _float_ratios(ratios, upper, lower, ns, z):
    """Finish float64 term ratios in place: ratios enters as the coupled
    factor (a+m+n)/(c+m+n) and leaves multiplied by z prod(upper+ns) and
    divided by prod(lower+ns) (ns+1)."""
    for b in upper:
        ratios *= b + ns
    for d in lower:
        ratios /= d + ns
    ratios /= ns + 1.0
    if z != 1.0:
        ratios *= z
    return ratios


def _inner_block(spec: KdFSpec, yf: float, m_lo: int, m_hi: int, m2: float, ctx):
    """inner(m) for m in [m_lo, m_hi) as float64, via a Richardson ladder.

    inner(m) = sum_n (a+m)_n prod(bp)_n y^n / ((c+m)_n prod(dp)_n n!).  The
    tail expansion N^-m2 (c0 + c1/N + ...) has coefficients growing roughly
    like (3m)^k, so the checkpoint ladder must scale with the block: five
    rungs doubling from 8*m_hi to 128*m_hi keep the leftover near (3/128)^4.
    """
    af, cf = float(spec.a[0]), float(spec.c[0])
    bp = _float_params(spec.bp)
    dp = _float_params(spec.dp)
    ms = np.arange(m_lo, m_hi, dtype=np.float64)[:, None]
    j_top = (2 * m_hi - 1).bit_length()  # the least j with 64 * 2**j >= 128 * m_hi
    j0 = max(0, j_top - 4)
    carry_t = np.ones(len(ms))
    sums = np.ones(len(ms))
    checkpoints = []
    n_done = 0
    seg = 8192
    for j in range(j_top + 1):
        target = 64 * 2**j
        while n_done < target:
            hi = min(target, n_done + seg)
            ns = np.arange(n_done, hi, dtype=np.float64)[None, :]
            ratios = _float_ratios((af + ms + ns) / (cf + ms + ns), bp, dp, ns, yf)
            terms = np.cumprod(ratios, axis=1) * carry_t[:, None]
            sums += terms.sum(axis=1)
            carry_t = terms[:, -1].copy()
            n_done = hi
        if yf != 1.0:
            # geometric regime: stop once the tail is under float noise
            if np.max(carry_t) * yf / (1.0 - yf) < 1e-17 * np.min(sums):
                return sums
            continue
        if j >= j0:
            checkpoints.append((target, sums.copy()))
    if yf != 1.0:
        return sums
    return richardson_power(checkpoints, m2, ctx)[0]


def _kdf_iterated(spec: KdFSpec, xf: float, yf: float, m1: float, m2: float, ctx):
    """Iterated summation: exact inner series per outer index, vectorized in
    float64, outer tail removed by power-log extrapolation on margin m1.

    Independent of the integral route end to end; good for ~7 significant
    digits, which is what the cross-checks ask of it.
    """
    _require_coupled_pair(spec)
    m_top = 1024
    inner = np.empty(m_top, dtype=np.float64)
    lo = 0
    for hi in (64, 128, 256, 512, 1024):
        inner[lo:hi] = _inner_block(spec, yf, lo, hi, m2, ctx)
        lo = hi
    af, cf = float(spec.a[0]), float(spec.c[0])
    ms = np.arange(m_top, dtype=np.float64)
    b, d = _float_params(spec.b), _float_params(spec.d)
    ratios = _float_ratios((af + ms) / (cf + ms), b, d, ms, xf)
    w = np.ones(m_top)
    w[1:] = np.cumprod(ratios[:-1])
    contrib = w * inner
    prefix = np.cumsum(contrib)
    if xf < 1.0:
        # geometric outer decay: the plain sum is already converged up to
        # inner float noise, floored at 2e-11 relative
        tail = abs(contrib[-1]) * xf / (1.0 - xf)
        noise = 2e-11 * abs(float(prefix[-1])) + 1e-15
        return float(prefix[-1]), float(tail + noise)
    # half-doubling checkpoints; corrections step down by integer powers
    # because the inner sums are taken to convergence first
    anchors = (64, 96, 128, 192, 256, 384, 512, 768, 1024)
    samples = [(M, prefix[M - 1]) for M in anchors]
    fit_ctx = ctx if ctx.digits >= 25 else ctx.with_digits(25)
    res = extrapolate_powerlog([(M, mp.mpf(float(S))) for M, S in samples], m1, fit_ctx)
    return res.value, res.error_estimate + abs(res.value) * mp.mpf("5e-12")


def _geometric_tail(r):
    """r/(1-r), the tail factor of terms whose ratios stay at most r;
    infinite once r >= 1."""
    return np.where(r < 1, r / (1 - r), np.inf)


def _kdf_double(spec: KdFSpec, xf: float, yf: float, m1: float, m2: float, ctx):
    """Truncated M x M square with a comparison-series tail bound.

    Each tail is geometric in the larger of Horn's limit (y along a row, x
    down the rows) and the last ratio seen (a row's exact last term ratio,
    the ratio of the last two full rows); a ratio of 1 or more gives an
    infinite estimate.  The square stops before the first row whose weight
    is not a normal float, and the row tail covers the rest.  An argument at
    1 takes the power decay of margin m1 or m2 instead.  A flat safety
    factor of 3 covers the preasymptotic constants.
    """
    M = min(2000, max(64, int(ctx.max_terms**0.5)))
    a, c = _float_params(spec.a), _float_params(spec.c)
    b, d = _float_params(spec.b), _float_params(spec.d)
    bp, dp = _float_params(spec.bp), _float_params(spec.dp)
    ks = np.arange(2 * M - 2, dtype=np.float64)
    # prod(a+k)/prod(c+k): row m's coupled factor is the slice from k = m
    coupled = np.prod(a[:, None] + ks, axis=0) / np.prod(c[:, None] + ks, axis=0)
    ns = ks[: M - 1]
    inner = _float_ratios(np.ones(M - 1), bp, dp, ns, yf)  # the factor free of m
    weights = np.ones(M)
    weights[1:] = np.cumprod(_float_ratios(coupled[: M - 1].copy(), b, d, ns, xf))
    # a subnormal weight sticks where the true one decays, and 0 loses the row
    tiny = np.finfo(np.float64).tiny
    rows = int(np.argmin(np.abs(weights) >= tiny)) or M  # weights[0] = 1
    total = 0.0
    row_sums = np.empty(rows)
    last_col = np.empty(rows)
    terms = np.empty(M)
    for m in range(rows):
        # the weight leads the running product, so a row's terms meet an
        # overflowed ratio product only through a nonzero weight
        terms[0] = weights[m]
        terms[1:] = coupled[m : m + M - 1] * inner
        np.cumprod(terms, out=terms)
        row_sums[m] = terms.sum()
        total += float(row_sums[m])
        last_col[m] = abs(terms[-1])
    # row m's last term ratio is exactly coupled[m + M - 2] inner[M - 2]
    col_r = np.maximum(yf, np.abs(coupled[M - 2 : M - 2 + rows] * inner[-1]))
    col_tails = last_col * (M / m2 if yf == 1 else _geometric_tail(col_r))
    full = np.abs(row_sums[-2:]) + col_tails[-2:]
    # the last two full rows show the decay only while both are normal floats
    seen = full[-1] / full[0] if rows > 1 and full.min() >= tiny else np.inf
    row_factor = rows / m1 if xf == 1 else _geometric_tail(np.maximum(xf, seen))
    row_tail = float(full[-1] * row_factor)
    # the 1e-12 floor covers float64 roundoff across the M^2 accumulation
    return total, 3.0 * (float(col_tails.sum()) + row_tail) + abs(total) * 1e-12


def _kdf_domain(spec: KdFSpec, x, y):
    """(x, y, margins) as exact fractions where the double series converges.

    The domain is decided here and nowhere else.  On the boundary the
    margins (m1, m2, m3) of :func:`kdf_converges` rule: x = 1 needs m1 > 0,
    y = 1 needs m2 > 0, and the corner (1, 1) needs m3 > 0 as well.  Off the
    axes Horn's rule on the parameter counts does: e1 = #a + #b - #c - #d - 1
    and its primed twin e2 must not pass 0, and when both are 0 and
    k = #a - #c > 0, x^(1/k) + y^(1/k) < 1.  Anything else raises DomainError.
    """
    xq, yq = _coerce_params((x, y))
    if not (0 <= xq <= 1 and 0 <= yq <= 1):
        raise DomainError("kdf arguments must lie in [0, 1]")
    m1, m2, m3 = kdf_converges(spec).margins
    k = len(spec.a) - len(spec.c)
    e1 = k + len(spec.b) - len(spec.d) - 1
    e2 = k + len(spec.bp) - len(spec.dp) - 1
    horn = max(e1, e2) > 0 or (
        k > 0 and e1 == e2 == 0 and xq ** Fraction(1, k) + yq ** Fraction(1, k) >= 1
    )
    edge = (xq == 1 and m1 <= 0) or (yq == 1 and m2 <= 0) or xq == yq == 1 and m3 <= 0
    if edge or (xq and yq and horn):
        raise DomainError(
            f"double series diverges at ({xq}, {yq}): margins {m1}, {m2}, {m3}; "
            f"count excesses {e1}, {e2}, {k}"
        )
    return xq, yq, (m1, m2, m3)


def kdf_full(spec: KdFSpec, x, y, strategy: str, ctx: PrecisionContext) -> Estimate:
    """Double series F(x, y) at (x, y) in [0, 1]^2 by the requested strategy,
    on the domain :func:`_kdf_domain` decides.  Value and error estimate
    must be finite, so a float64 sum that overflows raises NumericsError.
    The effort is the integrand calls of the integral reduction, or on an
    axis the terms of the one pFq there; the float64 strategies report 0."""
    if strategy not in KDF_STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}")
    xq, yq, (m1, m2, m3) = _kdf_domain(spec, x, y)
    with ctx.working():
        if xq == 0 and yq == 0:
            return Estimate(mp.mpf(1), mp.mpf(0))
        if xq == 0 or yq == 0:
            return pfq(_merged_pfq(spec, "y" if xq == 0 else "x"), xq or yq, ctx)
        if strategy == "integral_reduction":
            return settled(kdf_reductions((spec,), xq, yq, ctx)[0])
        run = _kdf_iterated if strategy == "iterated" else _kdf_double
        # overflow surfaces below as a non-finite value, not as a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            val, est = run(spec, float(xq), float(yq), float(m1), float(m2), ctx)
        val, est = (mp.mpf(v) if isinstance(v, float) else v for v in (val, est))
        what = f"kdf {strategy}"
        val, est = ensure_finite(val, what), ensure_finite(est, f"{what} estimate")
        return Estimate(val, est)
