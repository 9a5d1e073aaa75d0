"""Precision plumbing shared by every numeric routine in the package.

Everything numeric takes a :class:`PrecisionContext`.  The context fixes the
requested digits, the guard digits the internals actually work at, and hard
budgets for series length and quadrature depth so nothing can spin silently.

Values are mpmath ``mpf`` floats carried at ``digits + guard`` decimal places.
Routines wrap their bodies in ``with ctx.working():`` and convert inputs via
:func:`as_real` on entry.  No NaN or infinity may escape an operation; such
states surface as :class:`NumericsError` subclasses instead.  A result
that bounds its own error comes as an :class:`Estimate`, no tighter than
:func:`noise_floor`: ``pfq``, ``euler_2f1``, ``kdf_full``, ``kdf_reductions``,
``alternating_sum``, ``eta``, ``zeta``, ``integrate01``,
``extrapolate_powerlog`` and every ``lvalues`` route, ``l_chi4`` and
``l_psi`` among them.  Only ``series.richardson_power`` keeps a bare pair,
for its float64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp

__all__ = [
    "MIN_DIGITS",
    "GUARD_BITS",
    "PrecisionContext",
    "Estimate",
    "noise_floor",
    "floored",
    "NumericsError",
    "DomainError",
    "BudgetError",
    "QuadratureError",
    "as_real",
    "ensure_finite",
    "parse_rational",
]


MIN_DIGITS = 10  # the floor of every requested precision: API, registry, CLI

GUARD_BITS = 20  # bits the fixed-point kernels keep below the result's last


class NumericsError(Exception):
    """Base class for every failure this package raises on purpose."""


class DomainError(NumericsError):
    """Argument outside the supported domain of an operation."""


class BudgetError(NumericsError):
    """A summation hit ``max_terms`` before its tail estimate met tolerance.

    Carries the best partial result so far and the tail estimate at the point
    of giving up, so callers can degrade gracefully or report diagnostics.
    """

    def __init__(self, message, best=None, estimate=None):
        super().__init__(message)
        self.best = best
        self.estimate = estimate


class QuadratureError(NumericsError):
    """Quadrature refinement hit ``quad_level_cap`` before converging."""

    def __init__(self, message, best=None, estimate=None):
        super().__init__(message)
        self.best = best
        self.estimate = estimate


@dataclass(frozen=True)
class PrecisionContext:
    """Requested precision plus budgets, threaded through every operation.

    Parameters
    ----------
    digits : int
        Decimal significant digits the caller wants certified.  At least
        MIN_DIGITS.
    guard : int
        Extra working digits; internals run at ``digits + guard``.  At least 5.
    max_terms : int
        Hard cap on the length of any single summation.
    quad_level_cap : int
        Hard cap on tanh-sinh refinement levels (step h = 2**-level).

    The dataclass is frozen (hashable) so contexts can key memoization caches.
    """

    digits: int = 20
    guard: int = 15
    max_terms: int = 2_000_000
    quad_level_cap: int = 12

    def __post_init__(self):
        if self.digits < MIN_DIGITS:
            raise DomainError(f"digits must be at least {MIN_DIGITS}")
        if self.guard < 5:
            raise DomainError("guard must be at least 5")
        if self.max_terms < 1:
            raise DomainError("max_terms must be positive")
        if self.quad_level_cap < 1:
            raise DomainError("quad_level_cap must be positive")

    @property
    def workdigits(self) -> int:
        return self.digits + self.guard

    def working(self):
        """Context manager setting the global mpmath precision.

        mpmath keeps precision in module state, so evaluation is not
        thread-safe.
        """
        return mp.workdps(self.workdigits)

    def goal(self):
        """10^-(digits + 2), the relative aim of every sum and integral, at
        the precision in force."""
        return mp.mpf(10) ** (-(self.digits + 2))

    def with_digits(self, digits: int) -> "PrecisionContext":
        return replace(self, digits=digits)


class Estimate(NamedTuple):
    """What every route reports: a value, an honest bound on its error, and
    the effort it counted (integrand calls or series terms; 0 where it
    counts none, as for a closed form)."""

    value: mp.mpf
    error_estimate: mp.mpf
    effort: int = 0


def noise_floor(value, ctx: PrecisionContext):
    """The least error any estimate of value claims: its evaluation noise at
    working precision, below which a tail bound or level delta can collapse
    without meaning it."""
    with ctx.working():
        return abs(value) * mp.mpf(10) ** (2 - ctx.workdigits)


def floored(value, error, effort, ctx: PrecisionContext, what="result") -> Estimate:
    """The Estimate of a value that must be finite, its error raised to at
    least the value's noise floor."""
    value = ensure_finite(value, what)
    return Estimate(value, max(error, noise_floor(value, ctx)), effort)


def as_real(x):
    """Convert to mpf at the currently active precision.

    Accepts mpf, int, Fraction, float, mpmath constants (mp.pi, mp.e, ...)
    and numeric strings.  Fractions go through one division at working
    precision rather than decimal parsing; a constant is evaluated at it.
    """
    if isinstance(x, mp.mpf):
        return x
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    if isinstance(x, (int, float, type(mp.pi))):
        return mp.mpf(x)
    if isinstance(x, str):
        try:
            return mp.mpf(x)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"not a number: {x!r}") from None
    raise DomainError(f"cannot interpret {x!r} as a real scalar")


def ensure_finite(x, what="result"):
    if not mp.isfinite(x):
        raise NumericsError(f"{what} is not finite: {x}")
    return x


def parse_rational(text) -> Fraction:
    """Parse '5/2', '3', '0.25' into an exact Fraction.

    Exact parameter lists matter: convergence margins are computed in rational
    arithmetic and must not pick up binary rounding.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc
