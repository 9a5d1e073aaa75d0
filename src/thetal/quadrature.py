"""Tanh-sinh (double-exponential) quadrature on (0, 1).

One transformation covers every integral in the package: algebraic endpoint
singularities t^(p-1), (1-t)^(r-1) with p, r >= 1/2, optional endpoint log
factors, and integrands that vanish to all orders at an endpoint.  Under
x(t) = 1/(1 + exp(-pi sinh t)) the trapezoid rule converges roughly like
exp(-c 2^level), so halving the step until two deltas shrink quadratically
gives both the value and an honest error estimate.

Integrands are called as f(x, cx) with cx = 1 - x computed exactly from the
node construction.  Near the right endpoint cx underflows gradually (mpf
exponents are unbounded), never catastrophically through 1 - x cancellation.
This matters: several kernels are log-singular in 1 - x at 40+ digits.
"""

from __future__ import annotations

import mpmath as mp

from .context import DomainError, PrecisionContext, QuadratureError, ensure_finite

__all__ = ["integrate01", "noise_floor"]

# nodes per (workprec bits, level); grown lazily, shared across integrals,
# and dropped a whole precision at a time, the oldest first
_NODE_CACHE: dict = {}
_NODE_PRECISIONS = 8

_FIRST_LEVEL = 3


def _t_max(prec_bits: int):
    """Abscissa beyond which no integrand with exponents >= 1/2 contributes.

    Node terms scale like cosh(t) * E(t)^m with E = exp(-pi sinh t) and
    m = min(p, r) >= 1/2; solve cosh(t) E(t)^(1/2) < 2^-(prec+8) by a couple
    of fixed-point rounds.
    """
    target = (prec_bits + 8) * mp.log(2)
    t = mp.asinh(2 * target / mp.pi)
    for _ in range(3):
        t = mp.asinh((2 / mp.pi) * (target + mp.log(mp.cosh(t))))
    return t


def _nodes(level: int, prec_bits: int):
    """Positive-abscissa nodes (x, cx, w) for one refinement level.

    Level _FIRST_LEVEL holds all multiples of its step (including t = 0);
    deeper levels hold the odd multiples of their step only.  w is the
    weight density pi cosh(t) x cx; the caller multiplies by the step.
    The mirror node at -t is (cx, x) with the same weight.
    """
    key = (prec_bits, level)
    cached = _NODE_CACHE.get(key)
    if cached is not None:
        return cached
    with mp.workprec(prec_bits + 16):
        tmax = _t_max(prec_bits)
        h = mp.mpf(2) ** (-level)
        ks = range(0, int(mp.floor(tmax / h)) + 1) if level == _FIRST_LEVEL \
            else range(1, int(mp.floor(tmax / h)) + 1, 2)
        out = []
        for k in ks:
            t = k * h
            E = mp.exp(-mp.pi * mp.sinh(t))
            x = 1 / (1 + E)
            cx = E / (1 + E)
            w = mp.pi * mp.cosh(t) * x * cx
            out.append((x, cx, w))
    held = {bits for bits, _ in _NODE_CACHE}
    if prec_bits not in held and len(held) >= _NODE_PRECISIONS:
        oldest = next(iter(_NODE_CACHE))[0]
        for stale in [k for k in _NODE_CACHE if k[0] == oldest]:
            del _NODE_CACHE[stale]
    _NODE_CACHE[key] = out
    return out


def noise_floor(value, ctx: PrecisionContext):
    """A quadrature route's least error for value: the integrand's evaluation
    noise at working precision, below which level deltas can collapse
    without meaning it."""
    with ctx.working():
        return abs(value) * mp.mpf(10) ** (2 - ctx.workdigits)


def integrate01(
    f,
    ctx: PrecisionContext,
    left_exponent=1.0,
    right_exponent=1.0,
    right_log: bool = False,
):
    """Integrate f over (0, 1) to context precision.

    f(x, cx) must behave as x^(p-1) (1-x)^(r-1) phi(x) with phi smooth on the
    open interval, p = left_exponent, r = right_exponent, both >= 1/2; a
    log(1-x) factor is fine when right_log is set (and harmless anyway, the
    flag only pads the working precision).  Returns (value, error_estimate,
    calls), calls counting the evaluations of f.  Raises
    :class:`QuadratureError` when quad_level_cap is hit first.
    """
    if min(left_exponent, right_exponent) < 0.5:
        raise DomainError(
            "endpoint exponents below 1/2 are outside the calibrated range"
        )
    pad = 16 if right_log else 8
    with ctx.working():
        prec_bits = mp.mp.prec + pad
    with mp.workprec(prec_bits):
        goal = ctx.goal()
        h = mp.mpf(2) ** (-_FIRST_LEVEL)
        total = mp.mpf(0)
        nodes = _nodes(_FIRST_LEVEL, prec_bits)
        for x, cx, w in nodes:
            contrib = w * f(x, cx)
            if x != cx:
                contrib += w * f(cx, x)
            total += contrib
        value = h * total
        calls = 2 * len(nodes) - 1  # the node at t = 0 is its own mirror
        prev_delta = None
        estimate = abs(value)
        level = _FIRST_LEVEL
        while level < ctx.quad_level_cap:
            level += 1
            h /= 2
            add = mp.mpf(0)
            nodes = _nodes(level, prec_bits)
            for x, cx, w in nodes:
                add += w * (f(x, cx) + f(cx, x))
            calls += 2 * len(nodes)
            new_value = value / 2 + h * add
            delta = abs(new_value - value)
            value = new_value
            scale = max(abs(value), mp.mpf(1) / 10**6)
            if prev_delta is not None and prev_delta > 0:
                # doubling nodes should square the error; take the cautious mix
                estimate = max(delta, min(prev_delta, delta**2 / prev_delta))
            else:
                estimate = delta
            if estimate <= goal * scale or delta == prev_delta == 0:
                return ensure_finite(value, "integral"), estimate, calls
            prev_delta = delta
        raise QuadratureError(
            f"no convergence within level cap {ctx.quad_level_cap}",
            best=value,
            estimate=estimate,
        )
