"""Jacobi theta constants and their Lambert-series relatives.

Everything here is a function of a real nome q in (0, 1).  The three theta
series converge in a handful of terms once q <= e^-pi; for larger q every
public evaluator reroutes through the half-period involution u -> 1/u so the
truncation depth stays O(sqrt(digits)) uniformly on (0, 1).  The module also
carries the weight-3 products f and g, the modular parameter alpha, the
Eisenstein sum M, the Lambert-type reorganized double sums, and exact integer
q-expansion coefficients for f and g: products of the lacunary theta series,
multiplied one sparse factor at a time in int64 arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count

import mpmath as mp
import numpy as np

from .context import (
    BudgetError,
    DomainError,
    NumericsError,
    PrecisionContext,
    as_real,
    ensure_finite,
)

__all__ = [
    "CoeffStream",
    "theta2",
    "theta3",
    "theta4",
    "theta_direct",
    "theta_involution",
    "alpha",
    "alpha_pair",
    "alpha_qderiv",
    "form_f",
    "form_g",
    "eisenstein_M",
    "lambert_series",
    "LAMBERT_IDS",
    "coeffs_convolution",
    "coeffs_lambert",
]


def _nome_value(q):
    qv = as_real(q)
    if not (0 < qv < 1):
        raise DomainError(f"nome must lie in (0,1), got {mp.nstr(qv, 8)}")
    return qv


def _theta_series(which: int, qv, max_terms: int):
    """Raw series at the current working precision, no rerouting.

    theta2 = 2 q^{1/4} sum q^{n(n+1)}, theta3/theta4 = 1 + 2 sum (+-1)^n
    q^{n^2}.  Terms collapse doubly fast, so the loop is short whenever
    q <= e^-pi; for larger q it still terminates, just more slowly, which is
    exactly what the cross-check tests want to see.
    """
    tol = mp.mpf(10) ** (-(mp.mp.dps - 2))
    if which == 2:
        s = mp.mpf(1)
        n = 1
        while True:
            t = qv ** (n * (n + 1))
            s += t
            if t < tol * s:
                break
            n += 1
            if n > max_terms:
                raise BudgetError("theta2 series exhausted its budget", best=s)
        return 2 * mp.sqrt(mp.sqrt(qv)) * s
    if which not in (3, 4):
        raise DomainError("theta index must be one of 2, 3, 4")
    s = mp.mpf(1)
    sign = -1 if which == 4 else 1
    n = 1
    while True:
        t = qv ** (n * n)
        s += 2 * t if sign == 1 or n % 2 == 0 else -2 * t
        # scale against 1, not s: theta4 may be tiny near q -> 1
        if t < tol / 2:
            break
        n += 1
        if n > max_terms:
            raise BudgetError(f"theta{which} series exhausted its budget", best=s)
    return s


def _summed(terms, what: str, max_terms: int, floor=0):
    """Sum terms until one falls below 10^-(dps-2) max(|sum|, floor).

    Raises BudgetError, carrying the partial sum, once more than max_terms
    terms have gone in without that.
    """
    tol = mp.mpf(10) ** (-(mp.mp.dps - 2))
    s = mp.mpf(0)
    for used, t in enumerate(terms, 1):
        s += t
        if abs(t) < tol * max(abs(s), floor):
            return s
        if used > max_terms:
            raise BudgetError(f"{what} exhausted its budget", best=s)


def theta_direct(which: int, q, ctx: PrecisionContext):
    """Unrouted theta series, any q in (0,1).  For cross-checks only; the
    routed evaluators below are the production path."""
    with ctx.working():
        return ensure_finite(
            _theta_series(which, _nome_value(q), ctx.max_terms), "theta series"
        )


_INVOLUTION_PARTNER = {2: 4, 3: 3, 4: 2}


def _thetas(u, which, max_terms: int, qv=None):
    """theta_w(e^{-pi u}) for w in ``which``, on the cheap side of u = 1.

    sqrt(u) theta4(e^{-pi u}) = theta2(e^{-pi/u}) and its u -> 1/u mirror;
    theta3 maps to itself.  One exp and one sqrt serve every requested
    value, and each distinct index is summed once.  A caller that holds the
    nome passes it as ``qv``, and the direct side sums on that very q.
    """
    if u >= 1:
        qd = mp.exp(-mp.pi * u) if qv is None else qv
        vals = {w: _theta_series(w, qd, max_terms) for w in set(which)}
    else:
        qt = mp.exp(-mp.pi / u)
        su = mp.sqrt(u)
        vals = {
            w: _theta_series(_INVOLUTION_PARTNER[w], qt, max_terms) / su
            for w in set(which)
        }
    return tuple(vals[w] for w in which)


def _thetas_at_q(q, which, max_terms: int):
    qv = _nome_value(q)
    return _thetas(-mp.log(qv) / mp.pi, which, max_terms, qv)


def theta_involution(u, which, ctx: PrecisionContext):
    """theta_which(e^{-pi u}) computed on whichever side of u = 1 is cheap.

    ``which`` is one index in (2, 3, 4), or a sequence of them for the joint
    values at one half-period, returned as a tuple in the order asked.
    """
    single = isinstance(which, int)
    ws = (which,) if single else tuple(which)
    if not all(w in _INVOLUTION_PARTNER for w in ws):
        raise DomainError("theta index must be one of 2, 3, 4")
    with ctx.working():
        uv = as_real(u)
        if not uv > 0:
            raise DomainError("half-period u must be positive")
        vals = tuple(
            ensure_finite(v, "theta involution")
            for v in _thetas(uv, ws, ctx.max_terms)
        )
        return vals[0] if single else vals


def theta2(q, ctx: PrecisionContext):
    with ctx.working():
        return ensure_finite(_thetas_at_q(q, (2,), ctx.max_terms)[0], "theta2")


def theta3(q, ctx: PrecisionContext):
    with ctx.working():
        return ensure_finite(_thetas_at_q(q, (3,), ctx.max_terms)[0], "theta3")


def theta4(q, ctx: PrecisionContext):
    with ctx.working():
        return ensure_finite(_thetas_at_q(q, (4,), ctx.max_terms)[0], "theta4")


def alpha_pair(q, ctx: PrecisionContext):
    """(alpha, 1 - alpha) with the complement formed from theta4, not by
    subtraction, so both stay fully accurate at either end of (0,1)."""
    with ctx.working():
        t2, t3, t4 = _thetas_at_q(q, (2, 3, 4), ctx.max_terms)
        a = (t2 / t3) ** 4
        ca = (t4 / t3) ** 4
        return ensure_finite(a, "alpha"), ensure_finite(ca, "1-alpha")


def alpha(q, ctx: PrecisionContext):
    """Modular parameter theta2^4/theta3^4, in (0,1) and increasing in q."""
    return alpha_pair(q, ctx)[0]


def alpha_qderiv(q, ctx: PrecisionContext):
    """q d(alpha)/dq from the term-by-term derivatives of theta2, theta3.

    Uses q d/dq theta2 = 2 q^{1/4} sum (n(n+1) + 1/4) q^{n(n+1)} and
    q d/dq theta3 = 2 sum n^2 q^{n^2}; both series converge as fast as the
    thetas themselves, so no rerouting is needed.
    """
    with ctx.working():
        qv = _nome_value(q)
        quarter = mp.mpf(0.25)
        d2_terms = ((n * (n + 1) + quarter) * qv ** (n * (n + 1)) for n in count(1))
        s2 = _summed(chain((quarter,), d2_terms), "theta2 derivative", ctx.max_terms)
        d2 = 2 * mp.sqrt(mp.sqrt(qv)) * s2
        d3_terms = (n * n * qv ** (n * n) for n in count(1))
        d3 = 2 * _summed(d3_terms, "theta3 derivative", ctx.max_terms, 1)
        t2 = _theta_series(2, qv, ctx.max_terms)
        t3 = _theta_series(3, qv, ctx.max_terms)
        a = (t2 / t3) ** 4
        return ensure_finite(4 * a * (d2 / t2 - d3 / t3), "alpha derivative")


def form_f(q, ctx: PrecisionContext):
    """f(q) = theta2^4(q) theta4^2(q) / 16, the weight-3 newform factor."""
    with ctx.working():
        t2, t4 = _thetas_at_q(q, (2, 4), ctx.max_terms)
        return ensure_finite(t2**4 * t4**2 / 16, "form f")


def form_g(q, ctx: PrecisionContext):
    """g(q) = theta2^4(q) theta4^2(q^2) / 16; the inner nome is built by
    squaring at working precision."""
    with ctx.working():
        qv = _nome_value(q)
        (t2,) = _thetas_at_q(qv, (2,), ctx.max_terms)
        (t4,) = _thetas_at_q(qv * qv, (4,), ctx.max_terms)
        return ensure_finite(t2**4 * t4**2 / 16, "form g")


def eisenstein_M(q, ctx: PrecisionContext):
    """M(q) = 1 + 240 sum_k k^3 q^k / (1 - q^k), the weight-4 Lambert sum."""
    with ctx.working():
        qv = _nome_value(q)
        terms = (k**3 * p / (1 - p) for k in count(1) for p in (qv**k,))
        s = _summed(terms, "Eisenstein sum", ctx.max_terms, 1)
        return ensure_finite(1 + 240 * s, "Eisenstein M")


# Reorganized single sums for the double Lambert series.  Each generator
# walks the odd index m = 2r - 1; all terms decay geometrically in r.
def _lambert_terms(name: str, qv):
    if name == "lam1":
        # 4 sum chi_{-4}(n) q^{n/2} / (1 - q^n)
        sq = mp.sqrt(qv)
        for r in count(1):
            m = 2 * r - 1
            t = 4 * sq**m / (1 - qv**m)
            yield t if r % 2 == 1 else -t
    elif name == "lam2":
        # 16 sum (2r-1) q^{2r-1} / (1 - q^{2(2r-1)})
        for r in count(1):
            m = 2 * r - 1
            yield 16 * m * qv**m / (1 - qv ** (2 * m))
    elif name == "lemma22_1":
        for r in count(1):
            m = 2 * r - 1
            yield qv**m / (m * (1 - qv ** (2 * m)))
    elif name == "lemma22_2":
        sq = mp.sqrt(qv)
        for r in count(1):
            m = 2 * r - 1
            yield sq**m / (m * (1 - qv**m))
    elif name == "ram_lhs":
        sq = mp.sqrt(qv)
        for r in count(1):
            m = 2 * r - 1
            w = sq**m
            yield w / (m * m * (1 + w * w))
    elif name == "eis384":
        # sum chi_{-4}(n) n^2 q^n / (1 - q^{2n})
        for r in count(1):
            m = 2 * r - 1
            t = m * m * qv**m / (1 - qv ** (2 * m))
            yield t if r % 2 == 1 else -t
    elif name == "cube":
        for r in count(1):
            m = 2 * r - 1
            yield m**3 * qv**m / (1 - qv ** (2 * m))
    else:
        raise DomainError(f"unknown Lambert series id {name!r}")


LAMBERT_IDS = ("lam1", "lam2", "lemma22_1", "lemma22_2", "ram_lhs", "eis384", "cube")


def lambert_series(name: str, q, ctx: PrecisionContext):
    """One of the reorganized Lambert sums, summed with geometric control.

    Cost grows like digits / -log(q) as q -> 1; the identity grid and the
    nome integrals, which switch to theta closed forms above q = 0.3, stay
    well inside that.
    """
    if name not in LAMBERT_IDS:
        raise DomainError(f"unknown Lambert series id {name!r}")
    with ctx.working():
        terms = _lambert_terms(name, _nome_value(q))
        first = next(terms)
        floor = max(abs(first), mp.mpf(10) ** (-mp.mp.dps))
        what = f"Lambert series {name}"
        s = _summed(chain((first,), terms), what, ctx.max_terms, floor)
        return ensure_finite(s, what)


@dataclass(frozen=True)
class CoeffStream:
    """Exact integer q-expansion coefficients a_1..a_N of f or g."""

    form: str
    coeffs: tuple

    def a(self, n: int) -> int:
        if not 1 <= n <= len(self.coeffs):
            raise DomainError(f"coefficient index {n} out of range")
        return self.coeffs[n - 1]


def _int64_bound(dense, terms) -> int:
    """A-priori bound on |dense * sparse| coefficients: max|dense| sum|c|."""
    return int(np.abs(dense).max()) * sum(abs(c) for _, c in terms)


def _times_sparse(dense, terms):
    """dense * sum c q^e truncated to len(dense), one shifted add per term
    (every exponent e must be below len(dense)).

    The int64 arithmetic cannot wrap because every output coefficient is
    bounded by _int64_bound, which is checked before any add.
    """
    if _int64_bound(dense, terms) >= 1 << 63:
        raise NumericsError("int64 headroom exceeded in theta product")
    n = len(dense)
    out = np.zeros(n, dtype=np.int64)
    scaled = {c: c * dense for c in {c for _, c in terms}}  # c is 1 or +-2
    for e, c in terms:
        out[e:] += scaled[c][: n - e]
    return out


def _theta_terms(n_max: int, step: int):
    """theta4(q^step) = 1 + 2 sum (-1)^k q^{step k^2}, as (exponent, coeff)."""
    terms = [(0, 1)]
    k = 1
    while step * k * k <= n_max:
        terms.append((step * k * k, -2 if k % 2 else 2))
        k += 1
    return terms


def coeffs_convolution(form: str, N: int) -> CoeffStream:
    """a_1..a_N by exact products of lacunary theta series.

    With A = sum q^{n(n+1)}, theta2^4/16 = q A^4, so f = q A^4 theta4(q)^2
    and g = q A^4 theta4(q^2)^2.  Each factor has only O(sqrt N) nonzero
    terms, so the product is built by multiplying a dense int64 series by one
    sparse factor at a time: O(N sqrt N) adds in all, with the signs of
    theta4 carried directly.
    """
    if N < 1:
        raise DomainError("need N >= 1")
    if form not in ("f", "g"):
        raise DomainError("form must be 'f' or 'g'")
    n_max = N - 1  # degree budget after the leading q is factored off
    a_terms = []
    n = 0
    while n * (n + 1) <= n_max:
        a_terms.append((n * (n + 1), 1))
        n += 1
    theta_terms = _theta_terms(n_max, 1 if form == "f" else 2)
    dense = np.zeros(N, dtype=np.int64)
    dense[0] = 1
    for terms in (a_terms,) * 4 + (theta_terms,) * 2:
        dense = _times_sparse(dense, terms)
    return CoeffStream(form, tuple(dense.tolist()))


def coeffs_lambert(form: str, N: int) -> CoeffStream:
    """a_m = sum_{nk=m} psi(n) n^2 chi_{-4}(k) with psi(n) = (-1)^{n-1}.

    Only f has this twisted-Eisenstein shape; asking for g is a caller bug.
    """
    if form != "f":
        raise DomainError("the divisor-sum expansion is defined for f only")
    if N < 1:
        raise DomainError("need N >= 1")
    chi = (0, 1, 0, -1)
    a = [0] * (N + 1)
    for n in range(1, N + 1):
        psi = n * n if n % 2 == 1 else -n * n
        for k in range(1, N // n + 1):
            c = chi[k & 3]
            if c:
                a[n * k] += psi * c
    return CoeffStream("f", tuple(a[1:]))
