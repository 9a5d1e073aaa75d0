"""Generalized hypergeometric series, their boundary values, and the
two-variable (Kampe de Feriet type) double series.

Single series p+1Fp are summed directly inside the unit interval; at z = 1
a positive excess gives a power tail whose exact asymptotic expansion is
summed through Hurwitz zeta, and at z = -1 the alternating structure feeds
the Chebyshev accelerator.
The double series come in three independent flavors: a rigorous truncated
square, an iterated sum with tail extrapolation (float64 vector engine), and
a Beta-kernel reduction to a one-dimensional integral of closed-form kernels,
which is the full-precision reference.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .context import (
    BudgetError,
    DomainError,
    PrecisionContext,
    as_real,
    ensure_finite,
    parse_rational,
)
from .quadrature import integrate01
from .series import extrapolate_powerlog
from .special import beta as beta_fn
from .special import alternating_sum, pochhammer

__all__ = [
    "PFQSpec",
    "KdFSpec",
    "ConvergenceReport",
    "KdFResult",
    "pfq_excess",
    "pfq_converges",
    "pfq",
    "pfq_term",
    "euler_2f1",
    "series_kernel",
    "kdf_converges",
    "kdf",
    "kdf_full",
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
    """'interior', 'boundary-convergent', or 'divergent' at real z."""
    zf = Fraction(z) if isinstance(z, (int, str, Fraction)) else float(z)
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


def pfq_term(spec: PFQSpec, n: int, z, ctx: PrecisionContext):
    """Term n from scratch via Pochhammer quotients (the slow reference)."""
    with ctx.working():
        num = Fraction(1)
        den = Fraction(1)
        for u in spec.upper:
            num *= pochhammer(u, n)
        for l in spec.lower:
            den *= pochhammer(l, n)
        t = as_real(num) / as_real(den) * as_real(z) ** n / mp.factorial(n)
        return ensure_finite(t, "pfq term")


def _pfq_interior(spec: PFQSpec, zv, ctx: PrecisionContext):
    ups = [as_real(u) for u in spec.upper]
    lows = [as_real(l) for l in spec.lower]
    az = abs(zv)
    tol = mp.mpf(10) ** (-(ctx.digits + 2))
    # past m_min the term ratio stays below (1+|z|)/2, so the geometric tail
    # bound |t| q/(1-q) is safe; 4K/(1-|z|) over-covers the parameter drift
    ksum = float(sum(abs(u) for u in spec.upper) + sum(abs(l) for l in spec.lower) + 1)
    m_min = 10 + int(4 * ksum / float(1 - az)) if az < 1 else 10
    q = (1 + az) / 2
    t = mp.mpf(1)
    s = t
    m = 0
    while True:
        ratio = zv
        for u in ups:
            ratio *= u + m
        for l in lows:
            ratio /= l + m
        ratio /= m + 1
        t *= ratio
        s += t
        m += 1
        if t == 0:
            break  # terminating series
        if m >= m_min and abs(t) * q / (1 - q) < tol * max(abs(s), mp.mpf(1)):
            break
        if m > ctx.max_terms:
            raise BudgetError("pFq interior sum exhausted its budget", best=s)
    return s


def _bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """B_n(x) exactly; the odd Bernoulli numbers past B_1 vanish."""
    return sum(
        math.comb(n, j) * Fraction(*mp.bernfrac(j)) * x ** (n - j)
        for j in range(n + 1)
        if j < 2 or j % 2 == 0
    )


def _tail_coeffs(spec: PFQSpec, count: int) -> tuple:
    """c_0 .. c_{count-1} of t_n = C n^(-1-e) sum_k c_k n^-k, exactly.

    t_n = C prod Gamma(n+a_i) / (prod Gamma(n+b_j) Gamma(n+1)), so Stirling's
    series gives log(t_n / C) = -(1+e) log n + sum_k d_k n^-k with
        d_k = (-1)^(k+1) [sum B_(k+1)(a_i) - sum B_(k+1)(b_j) - B_(k+1)(1)]
              / (k (k+1)),
    and the c_k exponentiate it: c_0 = 1, c_n = (1/n) sum_k k d_k c_(n-k).
    Repeated parameters are weighted rather than evaluated again.
    """
    multiplicity = Counter(spec.upper)
    multiplicity.subtract(spec.lower)
    multiplicity[Fraction(1)] -= 1
    weights = [(x, w) for x, w in multiplicity.items() if w]
    d = [Fraction(0)]
    for k in range(1, count):
        b = sum(w * _bernoulli_poly(k + 1, x) for x, w in weights)
        d.append((-1) ** (k + 1) * b / (k * (k + 1)))
    c = [Fraction(1)]
    for n in range(1, count):
        c.append(sum(k * d[k] * c[n - k] for k in range(1, n + 1)) / n)
    return tuple(c)


def _pfq_unit(spec: PFQSpec, ctx: PrecisionContext):
    """p+1Fp at z = 1: N terms directly, the rest through Hurwitz zeta.

    The tail sum_{n>=N} t_n = C sum_k c_k zeta(1+e+k, N) is asymptotic in N
    (Buhring, Proc. AMS 114, 1992); its last kept term is the estimate, and
    N doubles until that meets the goal or would pass max_terms.
    """
    e = pfq_excess(spec)
    if not e > 0:
        raise DomainError("pFq at z = 1 needs positive excess")
    ups = [as_real(u) for u in spec.upper]
    lows = [as_real(l) for l in spec.lower]
    goal = mp.mpf(10) ** (-(ctx.digits + 2))
    scale = mp.fprod(mp.gamma(l) for l in lows) / mp.fprod(mp.gamma(u) for u in ups)
    exact = _tail_coeffs(spec, int(0.9 * ctx.digits) + 10)
    coeffs = [scale * as_real(ck) for ck in exact]
    power = 1 + as_real(e)
    s = mp.mpf(0)
    t = mp.mpf(1)
    m = 0
    n_head = ctx.digits + 20
    while True:
        n_head = min(n_head, ctx.max_terms)
        while m < n_head:
            s += t
            ratio = mp.mpf(1)
            for u in ups:
                ratio *= u + m
            for l in lows:
                ratio /= l + m
            t *= ratio / (m + 1)
            m += 1
        tail = [ck * mp.zeta(power + k, n_head) for k, ck in enumerate(coeffs)]
        value = s + mp.fsum(tail)
        est = abs(tail[-1])
        if est <= goal * abs(value):
            return value
        if n_head >= ctx.max_terms:
            raise BudgetError(
                "pFq unit-argument tail exhausted its budget", best=value, estimate=est
            )
        n_head *= 2


def _pfq_alternating(spec: PFQSpec, ctx: PrecisionContext):
    e = pfq_excess(spec)
    if not e > -1:
        raise DomainError("pFq at z = -1 needs excess above -1")
    if any(p <= 0 for p in spec.upper) or any(p <= 0 for p in spec.lower):
        raise DomainError("alternating acceleration needs positive parameters")
    state = {"k": -1, "t": mp.mpf(1)}
    ups = [as_real(u) for u in spec.upper]
    lows = [as_real(l) for l in spec.lower]

    def magnitude(k):
        if k != state["k"] + 1:
            raise RuntimeError("alternating terms must be consumed in order")
        if k > 0:
            m = k - 1
            r = mp.mpf(1)
            for u in ups:
                r *= u + m
            for l in lows:
                r /= l + m
            state["t"] *= r / k
        state["k"] = k
        return state["t"]

    with ctx.working():
        return alternating_sum(magnitude, ctx)


def pfq(spec: PFQSpec, z, ctx: PrecisionContext):
    """p+1Fp(upper; lower; z) on [-1, 1], boundary points accelerated.

    Interior arguments use plain summation with a geometric tail bound;
    z = 1 sums digits + 20 terms and adds the excess-driven power tail
    through its exact expansion in Hurwitz zeta values; z = -1 uses the
    alternating-series accelerator.
    """
    with ctx.working():
        zv = as_real(z)
        if not -1 <= zv <= 1:
            raise DomainError("pFq argument must lie in [-1, 1]")
        if zv == 0:
            return mp.mpf(1)
        if spec.terminating or abs(zv) < 1:
            return ensure_finite(_pfq_interior(spec, zv, ctx), "pFq")
        if zv == 1:
            return ensure_finite(_pfq_unit(spec, ctx), "pFq")
        return ensure_finite(_pfq_alternating(spec, ctx), "pFq")


def euler_2f1(a, b, c, z, ctx: PrecisionContext):
    """Gauss 2F1 through the Beta-weighted integral, c > b > 0.

    An independent route to the same values as pfq: the integrand carries
    t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a), and at z = 1 the last factor merges
    into the right endpoint exponent (requiring c - a - b > 0).  The endpoint
    exponents feed the calibrated quadrature, so b and the effective c - b
    must not drop below 1/2.
    """
    af, bf, cf = _coerce_params((a, b, c))
    if not cf > bf > 0:
        raise DomainError("euler_2f1 needs c > b > 0")
    with ctx.working():
        zv = as_real(z)
        if zv > 1:
            raise DomainError("euler_2f1 defined for z <= 1")
        av, bv, cv = as_real(af), as_real(bf), as_real(cf)
        if zv == 1:
            if not cf - af - bf > 0:
                raise DomainError("z = 1 needs c - a - b > 0")
            val, _ = integrate01(
                lambda t, ct: t ** (bv - 1) * ct ** (cv - bv - av - 1),
                ctx,
                left_exponent=float(bf),
                right_exponent=float(cf - bf - af),
            )
        else:
            val, _ = integrate01(
                lambda t, ct: t ** (bv - 1) * ct ** (cv - bv - 1) * (1 - zv * t) ** (-av),
                ctx,
                left_exponent=float(bf),
                right_exponent=float(cf - bf),
            )
        return ensure_finite(val / beta_fn(bf, cf - bf, ctx), "euler 2F1")


# ---------------------------------------------------------------------------
# closed-form kernels for the series groups appearing in the double sums


def _agm_ambient(x, y):
    # far apart, agm(x, y) = pi x / (2 log(4x/y)) to a relative O((y/x)^2),
    # the complete elliptic integral's K(k) = log(4/k') + O(k'^2 log k')
    if y < mp.ldexp(x, -(mp.mp.prec // 2 + 8)):
        return mp.pi * x / (2 * mp.log(4 * x / y))
    eps = mp.mpf(2) ** (8 - mp.mp.prec)
    for _ in range(10000):
        if abs(x - y) <= eps * x:
            break
        x, y = (x + y) / 2, mp.sqrt(x * y)
    return (x + y) / 2


def _require_inside(cz):
    if not cz > 0:
        raise DomainError("kernel wants z < 1, that is cz = 1 - z > 0")


def _kernel_log(z, cz):
    # 2F1(1,1;2;z) = -log(1-z)/z
    _require_inside(cz)
    if z == 0:
        return mp.mpf(1)
    return -mp.log(cz) / z


def _kernel_atanh(z, cz):
    # 2F1(1/2,1;3/2;z) = atanh(sqrt z)/sqrt z, with the log written on the
    # exact complement so nothing cancels as z -> 1
    _require_inside(cz)
    if z == 0:
        return mp.mpf(1)
    if z < 0:
        rz = mp.sqrt(-z)
        return mp.atan(rz) / rz
    rz = mp.sqrt(z)
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
    """a_0 .. a_{n-1} in 3F2(1,1,1;3/2,3/2;z) = A(e) + log(e) B(e), e = 1 - z.

    B(e) = -pi/4 2F1(1/2,1/2;1;e)/sqrt(1-e) = sum b_m e^m and A = sum a_m e^m
    solve the Frobenius recurrence of the 3F2 equation at z = 1 (Buhring,
    Proc. AMS 114, 1992):
        (m+2)^2 s_{m+2} = (8m^2+24m+19)/4 s_{m+1} - (m+1)^2 s_m - r_m/(m+1),
    r_m = 0 for b, and for a
        r_m = (m+2)(3m+4) b_{m+2} - (24m^2+64m+43)/4 b_{m+1} + 3(m+1)^2 b_m.
    Seeds: b_0 = -pi/4, b_1 = -3pi/16, a_0 = pi log 2 - 2G (from the integral
    of theta/sin(theta) over [0, pi/2], which is 2G), a_1 = 3a_0/4 + 1/4 - pi/8.
    Both characteristic roots are 1, so forward recursion loses only
    polynomially many bits; 20 guard bits absorb them.
    """
    key = mp.mp.prec
    cached = _IB_CACHE.get(key)
    if cached is not None:
        return cached
    # log10(1/0.45) = 0.347 digits per term covers e <= 0.45 (z >= 0.55)
    n = int(mp.mp.dps / 0.34) + 10
    with mp.workprec(key + 20):
        pi = mp.pi
        a0 = pi * mp.log(2) - 2 * mp.catalan
        a = [a0, 3 * a0 / 4 + mp.mpf(1) / 4 - pi / 8]
        b = [-pi / 4, -3 * pi / 16]
        for m in range(n - 2):
            p1 = mp.mpf(8 * m * m + 24 * m + 19) / 4
            b.append((p1 * b[m + 1] - (m + 1) ** 2 * b[m]) / (m + 2) ** 2)
            r = (
                (m + 2) * (3 * m + 4) * b[m + 2]
                - mp.mpf(24 * m * m + 64 * m + 43) / 4 * b[m + 1]
                + 3 * (m + 1) ** 2 * b[m]
            )
            a.append((p1 * a[m + 1] - (m + 1) ** 2 * a[m] - r / (m + 1)) / (m + 2) ** 2)
    if len(_IB_CACHE) >= _IB_PRECISIONS:
        del _IB_CACHE[next(iter(_IB_CACHE))]
    _IB_CACHE[key] = a
    return a


def _kernel_treble(z, cz):
    # 3F2(1,1,1;3/2,3/2;z): direct series up to 0.55, then the expansion
    # about z = 1, whose log-singular part is 2F1(1/2,1/2;1;cz), one AGM
    if z == 0:
        return mp.mpf(1)
    # trust cz on the right: z itself may round to 1 at extreme nodes
    if not (cz > 0 and z > -mp.mpf("0.9")):
        raise DomainError("treble kernel wants z in (-0.9, 1)")
    if z <= mp.mpf("0.55"):
        az = abs(z)
        tol = mp.mpf(10) ** (-(mp.mp.dps - 2))
        t = mp.mpf(1)
        s = t
        n = 0
        while True:
            r = z * ((n + 1) / (n + mp.mpf("1.5"))) ** 2
            t *= r
            s += t
            n += 1
            if abs(t) * az / (1 - az) < tol * abs(s):
                return s
    # terms with cz^m below 2^-(prec+8) cannot move the sum; mag(cz) bounds
    # log2(cz) from above, so the cut keeps every term that can
    coeffs = _ib_coeffs()
    mag = mp.mag(cz)
    if mag < 0:
        coeffs = coeffs[: -((mp.mp.prec + 8) // mag)]
    s = mp.mpf(0)
    for a in reversed(coeffs):
        s = s * cz + a
    rz = mp.sqrt(z)
    return s - mp.pi * mp.log(cz) / (4 * rz * _agm_ambient(mp.mpf(1), rz))


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
    z = 1.  Raises DomainError when no closed form is tabulated.
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

    def swapped(self) -> "KdFSpec":
        """The mirror spec: (b,d,x) duties exchanged with (bp,dp,y)."""
        return KdFSpec(a=self.a, c=self.c, b=self.bp, d=self.dp, bp=self.b, dp=self.d)


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


class KdFResult(NamedTuple):
    value: mp.mpf
    error_estimate: mp.mpf
    strategy: str


KDF_STRATEGIES = ("integral_reduction", "iterated", "double_truncate")


def _merged_pfq(spec: KdFSpec, which: str) -> PFQSpec:
    if which == "x":
        upper, lower = spec.a + spec.b, spec.c + spec.d
    else:
        upper, lower = spec.a + spec.bp, spec.c + spec.dp
    if len(upper) != len(lower) + 1:
        raise DomainError("degenerate reduction needs one more upper parameter")
    return PFQSpec(upper=upper, lower=lower)


def _require_coupled_pair(spec: KdFSpec):
    if len(spec.a) != 1 or len(spec.c) != 1:
        raise DomainError("this strategy needs exactly one coupled pair (a; c)")


def _kdf_integral(spec: KdFSpec, x, y, ctx: PrecisionContext):
    """Beta-kernel reduction to a single integral; the reference strategy.

    (a)_{m+n}/(c)_{m+n} = int t^{a+m+n-1} (1-t)^{c-a-1} dt / B(a, c-a)
    collapses the double sum into the product of the two group kernels under
    one integral; precision is then quadrature-limited, not tail-limited.
    """
    _require_coupled_pair(spec)
    a1, c1 = spec.a[0], spec.c[0]
    if not (c1 > a1 > 0):
        raise DomainError("integral reduction needs c > a > 0")
    kernel_x = series_kernel(spec.b, spec.d)
    kernel_y = series_kernel(spec.bp, spec.dp)
    with ctx.working():
        xv, yv = as_real(x), as_real(y)
        av, cv = as_real(a1), as_real(c1)
        x_unit, y_unit = xv == 1, yv == 1

        def f(t, ct):
            kx = kernel_x(xv * t, ct if x_unit else 1 - xv * t)
            ky = kernel_y(yv * t, ct if y_unit else 1 - yv * t)
            return t ** (av - 1) * ct ** (cv - av - 1) * kx * ky

        val, est = integrate01(
            f,
            ctx,
            left_exponent=float(a1),
            right_exponent=float(c1 - a1),
            right_log=x_unit or y_unit,
        )
        norm = beta_fn(a1, c1 - a1, ctx)
        value = ensure_finite(val / norm, "kdf integral")
        # level deltas can collapse below kernel-evaluation roundoff; the
        # returned value is only representable to working precision anyway
        noise = abs(value) * mp.mpf(10) ** (2 - ctx.workdigits)
        return value, max(est / norm, noise)


def _float_params(fractions):
    return np.array([float(p) for p in fractions], dtype=np.float64)


def _inner_block(spec: KdFSpec, yf: float, m_lo: int, m_hi: int, m2: float):
    """inner(m) for m in [m_lo, m_hi) as float64, via a Richardson ladder.

    inner(m) = sum_n (a+m)_n prod(bp)_n y^n / ((c+m)_n prod(dp)_n n!).  The
    tail expansion N^-m2 (c0 + c1/N + ...) has coefficients growing roughly
    like (3m)^k, so the checkpoint ladder must scale with the block: five
    rungs doubling from 8*m_hi to 128*m_hi keep the leftover near (3/128)^4.
    """
    af, cf = float(spec.a[0]), float(spec.c[0])
    bp = _float_params(spec.bp)
    dp = _float_params(spec.dp)
    ms = np.arange(m_lo, m_hi, dtype=np.float64)
    count = len(ms)
    j_top = 0
    while 64 * 2**j_top < 128 * m_hi:
        j_top += 1
    j0 = max(0, j_top - 4)
    carry_t = np.ones(count)
    sums = np.ones(count)
    checkpoints = []
    n_done = 0
    seg = 8192
    for j in range(j_top + 1):
        target = 64 * 2**j
        while n_done < target:
            hi = min(target, n_done + seg)
            ns = np.arange(n_done, hi, dtype=np.float64)
            ratios = (af + ms[:, None] + ns[None, :]) / (cf + ms[:, None] + ns[None, :])
            for b in bp:
                ratios *= b + ns[None, :]
            for d in dp:
                ratios /= d + ns[None, :]
            ratios /= ns[None, :] + 1.0
            if yf != 1.0:
                ratios *= yf
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
            checkpoints.append(sums.copy())
    if yf != 1.0:
        return sums
    ladder = checkpoints
    for k in range(len(ladder) - 1):
        w = 2.0 ** (m2 + k)
        ladder = [
            (w * ladder[i + 1] - ladder[i]) / (w - 1.0)
            for i in range(len(ladder) - 1)
        ]
    return ladder[0]


def _kdf_iterated(spec: KdFSpec, x, y, ctx: PrecisionContext):
    """Iterated summation: exact inner series per outer index, vectorized in
    float64, outer tail removed by power-log extrapolation on margin m1.

    Independent of the integral route end to end; good for ~7 significant
    digits, which is what the cross-checks ask of it.
    """
    _require_coupled_pair(spec)
    report = kdf_converges(spec)
    m1 = float(report.margins[0])
    m2 = float(report.margins[1])
    xf, yf = float(Fraction(x)), float(Fraction(y))
    m_top = 1024
    inner = np.empty(m_top, dtype=np.float64)
    lo = 0
    for hi in (64, 128, 256, 512, 1024):
        inner[lo:hi] = _inner_block(spec, yf, lo, hi, m2)
        lo = hi
    af, cf = float(spec.a[0]), float(spec.c[0])
    b = _float_params(spec.b)
    d = _float_params(spec.d)
    ms = np.arange(m_top, dtype=np.float64)
    ratios = (af + ms) / (cf + ms)
    for bb in b:
        ratios *= bb + ms
    for dd in d:
        ratios /= dd + ms
    ratios /= ms + 1.0
    ratios *= xf
    w = np.ones(m_top)
    w[1:] = np.cumprod(ratios[:-1])
    contrib = w * inner
    prefix = np.cumsum(contrib)
    if xf < 1.0:
        # geometric outer decay: the plain sum is already converged up to
        # inner float noise, floored at 2e-11 relative
        tail = abs(contrib[-1]) * xf / (1.0 - xf)
        noise = 2e-11 * abs(float(prefix[-1])) + 1e-15
        with ctx.working():
            return mp.mpf(float(prefix[-1])), mp.mpf(float(tail + noise))
    # half-doubling checkpoints; corrections step down by integer powers
    # because the inner sums are taken to convergence first
    anchors = (64, 96, 128, 192, 256, 384, 512, 768, 1024)
    samples = [(M, prefix[M - 1]) for M in anchors]
    fit_ctx = ctx if ctx.digits >= 25 else ctx.with_digits(25)
    res = extrapolate_powerlog(
        [(M, mp.mpf(float(S))) for M, S in samples],
        m1,
        log_power=1,
        ctx=fit_ctx,
    )
    with ctx.working():
        noise = abs(res.value) * mp.mpf("5e-12")
        return ensure_finite(res.value, "kdf iterated"), res.error_estimate + noise


def _kdf_double(spec: KdFSpec, x, y, ctx: PrecisionContext):
    """Truncated M x M square with a comparison-series tail bound.

    The bound integrates the power decay of the last row and column (margin
    exponents m1, m2) when the corresponding argument sits at 1, geometric
    ratios otherwise, with a flat safety factor of 3 for the preasymptotic
    constants.  Deliberately precision-limited; honesty of the bound is what
    the tests check.
    """
    report = kdf_converges(spec)
    m1 = float(report.margins[0])
    m2 = float(report.margins[1])
    xf, yf = float(Fraction(x)), float(Fraction(y))
    if (xf == 1 or yf == 1) and not report.convergent_at_unit:
        raise DomainError("double series diverges on the boundary")
    M = min(2000, max(64, int(ctx.max_terms**0.5)))
    a = _float_params(spec.a)
    c = _float_params(spec.c)
    b = _float_params(spec.b)
    d = _float_params(spec.d)
    bp = _float_params(spec.bp)
    dp = _float_params(spec.dp)
    ns = np.arange(M - 1, dtype=np.float64)
    inner_ratio_base = np.ones(M - 1)
    for v in bp:
        inner_ratio_base *= v + ns
    for v in dp:
        inner_ratio_base /= v + ns
    inner_ratio_base *= yf / (ns + 1.0)
    total = 0.0
    w_m = 1.0
    last_col = np.empty(M)
    row_sum = 0.0
    for m in range(M):
        ratios = inner_ratio_base.copy()
        num = den = 1.0
        for v in a:
            ratios *= v + m + ns
            num *= v + m
        for v in c:
            ratios /= v + m + ns
            den *= v + m
        terms = np.empty(M)
        terms[0] = w_m
        terms[1:] = w_m * np.cumprod(ratios)
        row_sum = float(terms.sum())
        total += row_sum
        last_col[m] = abs(terms[-1])
        outer_ratio = xf * num / den / (m + 1.0)
        for v in b:
            outer_ratio *= v + m
        for v in d:
            outer_ratio /= v + m
        w_m *= outer_ratio
    col_tail_factor = M / m2 if yf == 1 else yf / (1.0 - yf)
    row_tail_factor = M / m1 if xf == 1 else xf / (1.0 - xf)
    col_tail = float(last_col.sum()) * col_tail_factor
    last_row_full = abs(row_sum) + last_col[-1] * col_tail_factor
    row_tail = last_row_full * row_tail_factor
    # the 1e-12 floor covers float64 roundoff across the M^2 accumulation
    bound = 3.0 * (col_tail + row_tail) + abs(total) * 1e-12
    with ctx.working():
        return mp.mpf(total), mp.mpf(bound)


def kdf_full(spec: KdFSpec, x, y, strategy: str, ctx: PrecisionContext) -> KdFResult:
    """Double series F(x, y) with the requested strategy; see kdf()."""
    if strategy not in KDF_STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}")
    xq, yq = _coerce_params((x, y))
    if not (0 <= xq <= 1 and 0 <= yq <= 1):
        raise DomainError("kdf arguments must lie in [0, 1]")
    report = kdf_converges(spec)
    if xq == 1 and yq == 1 and not report.convergent_at_unit:
        raise DomainError("double series diverges at (1, 1)")
    with ctx.working():
        if xq == 0 and yq == 0:
            return KdFResult(mp.mpf(1), mp.mpf(0), strategy)
        if yq == 0:
            val = pfq(_merged_pfq(spec, "x"), xq, ctx)
            return KdFResult(val, abs(val) * ctx.worktol(), strategy)
        if xq == 0:
            val = pfq(_merged_pfq(spec, "y"), yq, ctx)
            return KdFResult(val, abs(val) * ctx.worktol(), strategy)
    if strategy == "integral_reduction":
        val, est = _kdf_integral(spec, xq, yq, ctx)
    elif strategy == "iterated":
        val, est = _kdf_iterated(spec, xq, yq, ctx)
    else:
        val, est = _kdf_double(spec, xq, yq, ctx)
    return KdFResult(val, est, strategy)


def kdf(spec: KdFSpec, x, y, strategy: str, ctx: PrecisionContext):
    """Value of the double hypergeometric series at (x, y) in [0,1]^2."""
    return kdf_full(spec, x, y, strategy, ctx).value
