"""Tanh-sinh (double-exponential) quadrature on (0, 1).

One transformation covers every integral in the package: algebraic endpoint
singularities t^(p-1), (1-t)^(r-1) with p, r >= 1/4, optional endpoint log
factors, and integrands that vanish to all orders at an endpoint.  Under
x(t) = 1/(1 + exp(-pi sinh t)) the trapezoid rule converges roughly like
exp(-c 2^level), so halving the step until two deltas shrink quadratically
gives both the value and an honest error estimate.  Each endpoint's nodes
reach only as far as its own exponent needs (:func:`_t_max`): one below 1/2
takes them further out, and the other endpoint keeps its own reach.

Integrands are called as f(x, cx) with cx = 1 - x computed exactly from the
node construction.  Near the right endpoint cx underflows gradually (mpf
exponents are unbounded), never catastrophically through 1 - x cancellation.
This matters: several kernels are log-singular in 1 - x at 40+ digits.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

import mpmath as mp

from .context import DomainError, Estimate, NumericsError, PrecisionContext
from .context import QuadratureError, ensure_finite

__all__ = ["integrate01", "isolated", "settled"]

# nodes per (workprec bits, level); grown lazily, shared across integrals,
# and dropped a whole precision at a time, the oldest first
_NODE_CACHE: dict = {}
_NODE_PRECISIONS = 8

_FIRST_LEVEL = 3
_FLOOR = 0.25  # the smallest endpoint exponent the node reach is calibrated for


@lru_cache(maxsize=32)
def _t_max(prec_bits: int, m: float):
    """Abscissa beyond which an endpoint with exponent m contributes nothing.

    Node terms there scale like cosh(t) * E(t)^m with E = exp(-pi sinh t);
    solve cosh(t) E(t)^m < 2^-(prec+8) by a couple of fixed-point rounds, at
    the bits the node tables are built at.  m is the endpoint's exponent
    capped at 1/2, and at least 1/4: every exponent from 1/2 up takes the
    reach of 1/2.
    """
    with mp.workprec(prec_bits + 16):
        target = (prec_bits + 8) * mp.log(2)
        t = mp.asinh(target / (m * mp.pi))
        for _ in range(3):
            t = mp.asinh((1 / (m * mp.pi)) * (target + mp.log(mp.cosh(t))))
        return t


def _nodes(level: int, prec_bits: int):
    """The nodes (x, cx) of one refinement level, their weights w and the
    signed step counts k of their abscissae t = k h.

    Level _FIRST_LEVEL holds all multiples of its step (including t = 0);
    deeper levels hold the odd multiples of their step only, out to the
    reach of the smallest exponent, 1/4; a caller keeps the k within its
    own endpoints' reach.  w is the weight density pi cosh(t) x cx; the
    caller multiplies by the step.  Each node at t > 0, near x = 1, is
    followed by its mirror at -t, (cx, x), same w.
    """
    key = (prec_bits, level)
    cached = _NODE_CACHE.get(key)
    if cached is not None:
        return cached
    with mp.workprec(prec_bits + 16):
        k_max = int(mp.floor(mp.ldexp(_t_max(prec_bits, _FLOOR), level)))
        h = mp.mpf(2) ** (-level)
        ks = range(0, k_max + 1) if level == _FIRST_LEVEL else range(1, k_max + 1, 2)
        nodes, weights, steps = [], [], []
        for k in ks:
            t = k * h
            E = mp.exp(-mp.pi * mp.sinh(t))
            x = 1 / (1 + E)
            cx = E / (1 + E)
            w = mp.pi * mp.cosh(t) * x * cx
            nodes += [(x, cx), (cx, x)] if k else [(x, cx)]
            weights += [w, w] if k else [w]
            steps += [k, -k] if k else [k]
    held = {bits for bits, _ in _NODE_CACHE}
    if prec_bits not in held and len(held) >= _NODE_PRECISIONS:
        oldest = next(iter(_NODE_CACHE))[0]
        for stale in [k for k in _NODE_CACHE if k[0] == oldest]:
            del _NODE_CACHE[stale]
    _NODE_CACHE[key] = out = nodes, weights, steps
    return out


def isolated(calls):
    """Each call's result, or in its place the NumericsError it raised."""
    out = []
    for call in calls:
        try:
            out.append(call())
        except NumericsError as exc:
            out.append(exc)
    return tuple(out)


def settled(result):
    """A member's result, or its error raised without a stale traceback."""
    if isinstance(result, Exception):
        raise result.with_traceback(None)
    return result


def integrate01(
    f,
    ctx: PrecisionContext,
    left_exponent=1.0,
    right_exponent=1.0,
    right_log: bool = False,
):
    """Integrate f over (0, 1) to context precision.

    f(x, cx) must behave as x^(p-1) (1-x)^(r-1) phi(x) with phi smooth on the
    open interval, p = left_exponent, r = right_exponent, both >= 1/4; a
    log(1-x) factor is fine when right_log is set (and harmless anyway, the
    flag only pads the working precision).  Each endpoint's nodes reach as
    far as its own exponent needs, so exponents >= 1/2 all take the same
    nodes.  Returns an :class:`Estimate` whose effort counts the evaluations
    of f.  Raises :class:`QuadratureError` when quad_level_cap is hit first.

    f may return a tuple of integrands sharing factors per node instead
    (exponents and right_log must cover them all).  Each component stops
    by this rule at its own level, then stays frozen as the others run on.
    One holding a NumericsError (see :func:`isolated`) or reaching the cap
    fails alone: the result is a tuple of one :class:`Estimate` or error per
    component, and :func:`settled` raises an error when read.
    """
    if min(left_exponent, right_exponent) < _FLOOR:
        raise DomainError(
            "endpoint exponents below 1/4 are outside the calibrated range"
        )
    pad = 16 if right_log else 8
    with ctx.working():
        prec_bits = mp.mp.prec + pad
    reach = [_t_max(prec_bits, min(0.5, float(e)))
             for e in (left_exponent, right_exponent)]
    with mp.workprec(prec_bits):
        goal = ctx.goal()
        level, h, calls = _FIRST_LEVEL, mp.mpf(2) ** (-_FIRST_LEVEL), 0
        out = None  # per component: None while it refines, then its result
        while out is None or None in out:
            # the table's nodes within each endpoint's own reach
            nodes, weights, steps = _nodes(level, prec_bits)
            left, right = (int(mp.floor(mp.ldexp(t, level))) for t in reach)
            keep = [-left <= k <= right for k in steps]
            nodes, weights = compress(nodes, keep), list(compress(weights, keep))
            rows = [f(x, cx) for x, cx in nodes]
            calls += len(rows)
            if out is None:
                single = not isinstance(rows[0], tuple)
                n = 1 if single else len(rows[0])
                out, estimate, prev_delta = [None] * n, [None] * n, [None] * n
                value = [mp.mpf(0)] * n
            for i in (i for i in range(n) if out[i] is None):
                ys = rows if single else [y[i] for y in rows]
                out[i] = next((y for y in ys if isinstance(y, Exception)), None)
                if out[i] is not None:
                    continue
                # the level's sum of w f, its products exact, rounded once
                new_value = value[i] / 2 + h * mp.fdot(weights, ys)
                delta = abs(new_value - value[i])
                value[i], prev = new_value, prev_delta[i]
                scale = max(abs(new_value), mp.mpf(1) / 10**6)
                # doubling nodes should square the error; take the cautious mix
                estimate[i] = max(delta, min(prev, delta**2 / prev)) if prev else delta
                if level == _FIRST_LEVEL:
                    continue
                if estimate[i] <= goal * scale or delta == prev == 0:
                    out[i] = Estimate(ensure_finite(new_value, "integral"), estimate[i], calls)
                prev_delta[i] = delta
            if None in out and level >= ctx.quad_level_cap:
                cap = f"no convergence within level cap {ctx.quad_level_cap}"
                for i in (i for i in range(n) if out[i] is None):
                    out[i] = QuadratureError(cap, best=value[i], estimate=estimate[i])
            level, h = level + 1, h / 2
    return settled(out[0]) if single else tuple(out)
