"""Extrapolators for slowly convergent sums.

The iterated Kampe de Feriet sum in ``hyper`` leans on both.  Its outer tail
decays as a power dressed by a logarithm, which :func:`extrapolate_powerlog`
fits by least squares.  Each inner sum has a pure power tail, which
:func:`richardson_power` removes from doubling partial sums, elementwise over
a float64 array of them.  Each returns its value with an error estimate
read off the extrapolation itself.
"""

from __future__ import annotations

from typing import Sequence

import mpmath as mp
import numpy as np

from .context import (
    DomainError,
    Estimate,
    NumericsError,
    PrecisionContext,
    as_real,
    ensure_finite,
)

__all__ = [
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
    argument.  Level j removes the N^-(e+j) term.  The ladder runs in the
    arithmetic of the samples: mpf at ctx's working precision, or float64
    arrays elementwise.  Returns (value, estimate) where the estimate is the
    last diagonal movement.
    """
    if len(samples) < 2:
        raise DomainError("need at least two partial sums")
    for (n0, _), (n1, _) in zip(samples, samples[1:]):
        if n1 != 2 * n0:
            raise DomainError("partial sums must be at doubling indices")
    arrays = isinstance(samples[0][1], np.ndarray)
    num = float if arrays else mp.mpf
    with ctx.working():
        e, two = num(first_exponent), num(2)
        rows = [s if arrays else num(s) for _, s in samples]
        prev_diag = rows[-1]
        diag_move = mp.inf
        level = 0
        while len(rows) > 1:
            w = two ** (e + level)
            rows = [
                (w * rows[i + 1] - rows[i]) / (w - 1) for i in range(len(rows) - 1)
            ]
            diag_move = abs(rows[-1] - prev_diag)
            prev_diag = rows[-1]
            level += 1
        if not (np.isfinite(rows[0]).all() if arrays else mp.isfinite(rows[0])):
            raise NumericsError(f"richardson is not finite: {rows[0]}")
        return rows[0], diag_move


def _powerlog_fit(Ms, Ss, exponent, levels):
    """Solve the linear model S(M) = S_inf - M^-e (a log M + b) + deeper."""
    cols = [[mp.mpf(1)] * len(Ms)]
    for j in range(levels):
        e = exponent + j
        cols.append([M ** (-e) * mp.log(M) for M in Ms])
        cols.append([M ** (-e) for M in Ms])
    # column scaling keeps the solve honest at margin 1/2 and M ~ 10^3
    scales = [max(abs(v) for v in col) for col in cols]
    A = mp.matrix(len(Ms), len(cols))
    for i in range(len(Ms)):
        for j, col in enumerate(cols):
            A[i, j] = col[i] / scales[j]
    rhs = mp.matrix(Ss)
    try:
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
    ctx: PrecisionContext,
) -> Estimate:
    """Fit S(M) = S_inf - M^-exponent (a log M + b)(1 + o(1)).

    samples are (M, S(M)) at geometrically spaced M, at least 4 of them.  The
    o(1) is resolved by deeper power-log pairs, their exponents climbing by 1,
    as sample count allows.  The error estimate is the movement when the
    deepest correction pair is dropped, plus the fit residual; an
    exactly-modeled input therefore reports a tiny estimate.
    """
    if len(samples) < 4:
        raise DomainError("need at least 4 extrapolation samples")
    with ctx.working():
        Ms = [mp.mpf(M) for M, _ in samples]
        Ss = [mp.mpf(S) for _, S in samples]
        e = as_real(exponent)
        levels = max(1, (len(samples) - 2) // 2)
        value, residual = _powerlog_fit(Ms, Ss, e, levels)
        if levels > 1:
            shallower, _ = _powerlog_fit(Ms, Ss, e, levels - 1)
            movement = abs(value - shallower)
        else:
            movement = residual
        est = movement + residual
        return Estimate(ensure_finite(value, "extrapolation"), est)
