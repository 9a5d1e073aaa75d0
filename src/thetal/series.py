"""Extrapolators for slowly convergent sums.

The outer tail of the iterated Kampe de Feriet sum in ``hyper`` decays as a
power dressed by a logarithm, which :func:`extrapolate_powerlog` fits by
least squares.  :func:`richardson_power` removes a pure power tail from
doubling partial sums; ``hyper`` now sums such tails at z = 1 exactly
through Hurwitz zeta, and the ladder stays only because the benchmark's
tracer wraps it by name.  Each returns its value with an error estimate
read off the extrapolation itself.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import mpmath as mp

from .context import (
    DomainError,
    NumericsError,
    PrecisionContext,
    as_real,
    ensure_finite,
)

__all__ = [
    "ExtrapolationResult",
    "richardson_power",
    "extrapolate_powerlog",
]


def richardson_power(
    samples: Sequence[tuple[int, object]], first_exponent, ctx: PrecisionContext
):
    """Eliminate a known power-tail ladder from doubling partial sums.

    samples are (N, S_N) with N doubling; the remainder is modeled as
    S - S_N = N^-e (c0 + c1/N + c2/N^2 + ...), e = first_exponent, which is
    exactly the shape of a convergent hypergeometric tail at the unit
    argument.  Level j removes the N^-(e+j) term.  Returns (value, estimate)
    where the estimate is the last diagonal movement.
    """
    if len(samples) < 2:
        raise DomainError("need at least two partial sums")
    for (n0, _), (n1, _) in zip(samples, samples[1:]):
        if n1 != 2 * n0:
            raise DomainError("partial sums must be at doubling indices")
    with ctx.working():
        e = mp.mpf(first_exponent)
        rows = [mp.mpf(s) for _, s in samples]
        prev_diag = rows[-1]
        diag_move = mp.inf
        level = 0
        while len(rows) > 1:
            w = mp.mpf(2) ** (e + level)
            rows = [
                (w * rows[i + 1] - rows[i]) / (w - 1) for i in range(len(rows) - 1)
            ]
            diag_move = abs(rows[-1] - prev_diag)
            prev_diag = rows[-1]
            level += 1
        return ensure_finite(rows[0], "richardson"), diag_move


class ExtrapolationResult(NamedTuple):
    value: mp.mpf
    error_estimate: mp.mpf
    residual: mp.mpf


def _powerlog_fit(Ms, Ss, exponent, log_power, levels, step=1):
    """Solve the linear model S(M) = S_inf - M^-e (a log^p M + b) + deeper."""
    cols = []
    cols.append([mp.mpf(1)] * len(Ms))
    for j in range(levels):
        e = exponent + j * step
        if log_power:
            cols.append([M ** (-e) * mp.log(M) ** log_power for M in Ms])
        cols.append([M ** (-e) for M in Ms])
    # column scaling keeps the solve honest at margin 1/2 and M ~ 10^3
    scales = [max(abs(v) for v in col) for col in cols]
    A = mp.matrix(len(Ms), len(cols))
    for i in range(len(Ms)):
        for j, col in enumerate(cols):
            A[i, j] = col[i] / scales[j]
    rhs = mp.matrix(Ss)
    try:
        if len(cols) == len(Ms):
            x = mp.lu_solve(A, rhs)
        else:
            x, _ = mp.qr_solve(A, rhs)
    except (ZeroDivisionError, ValueError) as exc:
        raise NumericsError("power-log fit is singular") from exc
    fitted = x[0] / scales[0]
    resid = mp.mpf(0)
    for i in range(len(Ms)):
        model = sum(A[i, j] * x[j] for j in range(len(cols)))
        resid = max(resid, abs(model - rhs[i]))
    return fitted, resid


def extrapolate_powerlog(
    samples: Sequence[tuple[int, object]],
    exponent,
    log_power: int,
    ctx: PrecisionContext,
    step=1,
) -> ExtrapolationResult:
    """Fit S(M) = S_inf - M^-exponent (a log^log_power M + b)(1 + o(1)).

    samples are (M, S(M)) at geometrically spaced M, at least 4 of them.  The
    o(1) is resolved by deeper power-log pairs as sample count allows, whose
    exponents climb by `step` (a double series with both margins at 1/2 sheds
    corrections on the half-integer grid, hence step=1/2 there).  The error
    estimate is the movement when the deepest correction pair is dropped,
    plus the fit residual; an exactly-modeled input therefore reports a tiny
    estimate.
    """
    if len(samples) < 4:
        raise DomainError("need at least 4 extrapolation samples")
    with ctx.working():
        Ms = [mp.mpf(M) for M, _ in samples]
        Ss = [mp.mpf(S) for _, S in samples]
        e = as_real(exponent)
        st = as_real(step)
        if not st > 0:
            raise DomainError("step must be positive")
        per_level = 2 if log_power else 1
        levels = max(1, (len(samples) - 2) // per_level)
        value, residual = _powerlog_fit(Ms, Ss, e, log_power, levels, st)
        if levels > 1:
            shallower, _ = _powerlog_fit(Ms, Ss, e, log_power, levels - 1, st)
            movement = abs(value - shallower)
        else:
            movement = residual
        est = movement + residual
        return ExtrapolationResult(
            ensure_finite(value, "extrapolation"), est, residual
        )
