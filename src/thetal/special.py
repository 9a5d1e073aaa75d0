"""Gamma-family scalars, zeta, and alternating-series acceleration.

The transcendental kernels (gamma, log, exp) come from mpmath, good to the
working precision with no truncation to bound, so gamma and beta return bare
values.  The summation machinery layered on top, which is what the rest of
the package leans on, is local and returns Estimates: a Cohen-Rodriguez
Villegas-Zagier accelerator for alternating series, and zeta through eta.
"""

from __future__ import annotations

from itertools import count

import mpmath as mp

from .context import DomainError, Estimate, PrecisionContext, as_real
from .context import ensure_finite, floored

__all__ = [
    "gamma",
    "beta",
    "zeta",
    "eta",
    "alternating_sum",
]


def gamma(x, ctx: PrecisionContext):
    """Gamma(x) for x > 0."""
    with ctx.working():
        xv = as_real(x)
        if xv <= 0:
            raise DomainError("gamma requires a positive argument")
        return ensure_finite(mp.gamma(xv), "gamma")


def beta(a, b, ctx: PrecisionContext):
    """Euler Beta(a, b) = Gamma(a) Gamma(b) / Gamma(a+b), a, b > 0."""
    with ctx.working():
        av, bv = as_real(a), as_real(b)
        if av <= 0 or bv <= 0:
            raise DomainError("beta requires positive arguments")
        return ensure_finite(
            mp.gamma(av) * mp.gamma(bv) / mp.gamma(av + bv), "beta"
        )


# ln(3 + sqrt 8); one accelerated term buys this many e-folds of accuracy
_CVZ_RATE = 1.7627471740390860505


def alternating_sum(terms, ctx: PrecisionContext) -> Estimate:
    """Accelerated sum S of (-1)^k t_k, k >= 0, for positive decreasing t_k.

    terms is an endless iterable of t_0, t_1, ...; the first n are drawn in
    order, at ctx's working digits plus 5, and n is the effort.
    Chebyshev-polynomial acceleration (Cohen, Rodriguez Villegas and Zagier)
    with n ~ digits/log10(3+sqrt 8) terms; the estimate is their bound
    2|S| (3+sqrt 8)^-n.  The scheme assumes the t_k form a totally monotone
    sequence, true for every (ak+b)^-s series used here; callers with doubts
    should cross-check a value before relying on it.
    """
    with mp.workdps(ctx.workdigits + 5):
        n = int(ctx.workdigits * mp.log(10) / _CVZ_RATE) + 5
        p = (3 + 2 * mp.sqrt(2)) ** n
        d = (p + 1 / p) / 2
        b = mp.mpf(-1)
        c = -d
        s = mp.mpf(0)
        for k, t in zip(range(n), terms):
            c = b - c
            s += c * t
            b = (k + n) * (k - n) * b / ((k + mp.mpf(1) / 2) * (k + 1))
        value = s / d
        return floored(value, 2 * abs(value) / p, n, ctx, "alternating_sum")


def eta(s, ctx: PrecisionContext) -> Estimate:
    """Dirichlet eta(s) = sum_{k>=0} (-1)^k (k+1)^-s for an mpf s > 0."""
    return alternating_sum((mp.mpf(k) ** (-s) for k in count(1)), ctx)


def zeta(s, ctx: PrecisionContext) -> Estimate:
    """Riemann zeta for s > 1, via the eta (alternating zeta) series.

    zeta(s) = eta(s) / (1 - 2^(1-s)) keeps the machinery uniform with the
    Dirichlet L-values, which are alternating sums of the same shape.
    """
    with ctx.working():
        sv = as_real(s)
        if not sv > 1:
            raise DomainError("zeta implemented for s > 1 only")
        value, est, n = eta(sv, ctx)
        den = 1 - mp.mpf(2) ** (1 - sv)
        return floored(value / den, est / den, n, ctx, "zeta")
