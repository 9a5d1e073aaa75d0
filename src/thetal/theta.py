"""Jacobi theta constants and their Lambert-series relatives.

Everything here is a function of a real nome q in (0, 1).  The three theta
series converge in a handful of terms once q <= e^-pi; for larger q every
public evaluator reroutes through the half-period involution u -> 1/u so the
truncation depth stays O(sqrt(digits)) uniformly on (0, 1).  The module also
carries the weight-3 products f and g, the modular parameter alpha, the
Eisenstein sum M, the Lambert-type reorganized double sums, and exact integer
q-expansion coefficients for f and g by two routes: the product of the
lacunary theta series, seeded with A^2 by one bincount and then multiplied
one sparse factor at a time, each in the narrowest of int16, int32 and int64
that its bound allows, and each form's arithmetic route in int64: for f the
divisor sum, split at sqrt N into about 2 sqrt N strided vector adds, and for
g, the CM newform eta(4 tau)^6 of a Hecke character of Q(i) (Koehler, Eta
Products and Theta Series Identities, 2011), its binary theta series, one
O(N) pass over the lattice points x odd, y even.

Every q-series -- the thetas, the seven Lambert sums, M and the theta
derivatives behind alpha_qderiv -- goes through one fixed-point kernel,
:func:`_fixed_sum`.  Its terms are Python integers scaled by 2^wp, with wp
the working precision plus 20 guard bits plus 2 log2(1/(1-q)) for q near 1;
each term comes from the last by integer multiplications, and the sum goes
back to mpf once.  Each series' leading power (2 q^{1/4}, q or sqrt q) is
divided out first, so the fixed-point sum starts near 1 and keeps its
relative accuracy however small q is.  The routed thetas stay integers
through the involution's 1/sqrt(u) too, and only the small theta, theta2
or theta4, takes its lead as an mpf factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from math import isqrt

import mpmath as mp
import numpy as np
from mpmath.libmp import to_fixed

from .context import (
    BudgetError,
    DomainError,
    GUARD_BITS,
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


def _fixed_nome(qv):
    """(wp, q 2^wp): the bits a sum over powers of q works at, and q at them.

    wp is mp.prec plus GUARD_BITS plus 2 log2(1/(1-q)): one log2(1/(1-q))
    for the denominators 1 -+ q^m, which lose that many bits as q -> 1, and
    one for the rounding that term stepping piles up over ~1/(1-q) terms.
    """
    prec = mp.mp.prec
    gap = (1 << prec) - to_fixed(qv._mpf_, prec)  # (1 - q) 2^prec
    wp = prec + GUARD_BITS + 2 * max(0, prec - gap.bit_length())
    return wp, to_fixed(qv._mpf_, wp)


def _reciprocal(x, wp, cap):
    """min(1/x, cap) in fixed point at wp bits, for a positive mpf x <= 2^wp.

    Callers cap a summation floor at 10^dps times the sum's first term, a
    floor at which that term already stops the sum, so the cap changes no
    sum.  1/x is not formed when it lies far above the cap, so a nome far
    below 2^-wp costs no 2^(wp - exp) integer.
    """
    _, man, exp, bc = x._mpf_
    if wp - exp - bc >= cap.bit_length():  # 1/x >= 2^(wp - exp - bc) > cap
        return cap
    return min((1 << (wp - exp)) // man, cap)


class _Cancelled(NumericsError):
    def __init__(self, what, lost):
        super().__init__(f"{what} lost {lost} bits to cancellation")
        self.lost = lost


def _fixed_sum(
    terms, what, max_terms, wp, lead=1, floor=0, running=True, alternate=False, spare=0
):
    """The one summation kernel: (even, odd) partial sums of a q-series.

    ``terms`` yields t_0, t_1, ... as Python integers scaled by 2^wp, with
    the series' leading power ``lead`` already divided out, so the sum
    starts near 1 however small q is.  The even- and odd-indexed terms are
    kept apart, so one pass gives a series and its alternating twin; s is
    even + odd, or even - odd if ``alternate``.  The sum stops at the first
    t_k with |t_k| < 10^-(dps-2) max(|s|, floor), or |t_k| < 10^-(dps-2)
    floor if not ``running``.  A t_k past k = max_terms that does not stop
    it raises BudgetError carrying lead * s.  As every t_k >= 0, a running
    s more than GUARD_BITS + ``spare`` bits below max(even, odd) lost them
    to cancellation; it raises a NumericsError that counts them.
    """
    ten = 10 ** (mp.mp.dps - 2)
    even = odd = 0
    for k, t in enumerate(terms):
        if k & 1:
            odd += t
        else:
            even += t
        s = even - odd if alternate else even + odd
        if abs(t) * ten < (max(abs(s), floor) if running else floor):
            big = max(even, odd)
            if running and big >> (GUARD_BITS + spare) > abs(s):
                raise _Cancelled(what, big.bit_length() - abs(s).bit_length())
            return even, odd
        if k >= max_terms:
            raise BudgetError(
                f"{what} exhausted its budget", best=lead * mp.mpf((s, -wp))
            )


def _gaussian_powers(Q, b: int, wp: int):
    """q^(n^2 + b n) for n = 0, 1, 2, ... from q = Q 2^-wp, each term the
    last times the ratio q^(2n + 1 + b), which steps by q^2."""
    q2 = Q * Q >> wp
    t, r = 1 << wp, Q
    for _ in range(b):
        r = r * Q >> wp
    while True:
        yield t
        t = t * r >> wp
        r = r * q2 >> wp


def _theta_sums(which, qv, lead, max_terms: int):
    """(wp, {w: theta_w(q) 2^wp}) as Python integers for each index in
    ``which``, theta2's with its lead ``lead`` = 2 q^{1/4} divided out.

    theta2 = 2 q^{1/4} sum_{n>=0} q^{n(n+1)}, and theta3, theta4 = 1 +
    2 sum_{n>=1} (+-1)^n q^{n^2} from one pass over the shared terms.  The
    terms collapse doubly fast, so the loop is short whenever q <= e^-pi;
    for larger q it still terminates, just more slowly, which is exactly
    what the cross-check tests want to see.  Each sum is one pass of the
    fixed-point kernel at the bits :func:`_fixed_nome` picks for q.
    """
    wp, Q = _fixed_nome(qv)
    sums = {}
    if 2 in which:
        terms = _gaussian_powers(Q, 1, wp)
        sums[2] = sum(_fixed_sum(terms, "theta2 series", max_terms, wp, lead))
    if 3 in which or 4 in which:
        terms = _gaussian_powers(Q, 0, wp)
        doubled = chain((next(terms),), (t << 1 for t in terms))
        name = "theta3" if 3 in which else "theta4"
        # scale against 1, not s: theta4 may be tiny near q -> 1
        even, odd = _fixed_sum(
            doubled,
            f"{name} series",
            max_terms,
            wp,
            floor=1 << wp,
            running=False,
            alternate=3 not in which,
        )
        sums[3], sums[4] = even + odd, even - odd
    return wp, sums


def _theta_series(which, qv, max_terms: int):
    """{w: theta_w(q)} for each index in ``which``, by the raw series."""
    lead = 2 * mp.sqrt(mp.sqrt(qv)) if 2 in which else None
    wp, sums = _theta_sums(which, qv, lead, max_terms)
    vals = {w: mp.mpf((s, -wp)) for w, s in sums.items()}
    if 2 in vals:
        vals[2] = lead * vals[2]
    return vals


def theta_direct(which: int, q, ctx: PrecisionContext):
    """Unrouted theta series, any q in (0,1).  For cross-checks only; the
    routed evaluators below are the production path."""
    if which not in _INVOLUTION_PARTNER:
        raise DomainError("theta index must be one of 2, 3, 4")
    with ctx.working():
        vals = _theta_series((which,), _nome_value(q), ctx.max_terms)
        return ensure_finite(vals[which], "theta series")


_INVOLUTION_PARTNER = {2: 4, 3: 3, 4: 2}


def _thetas(u, which, max_terms: int, qv=None):
    """theta_w(e^{-pi u}) for w in ``which``, on the cheap side of u = 1.

    sqrt(u) theta4(e^{-pi u}) = theta2(e^{-pi/u}) and its u -> 1/u mirror;
    theta3 maps to itself.  One exp gives the quarter power r = q^{1/4} of
    the nome summed on, and q = r^4; a caller that holds the nome passes it
    as ``qv``, and the direct side sums on that very q.  Each side sums its
    thetas in one call and converts each to mpf once: the small one (theta2
    on the direct side, theta4 on the involuted) as its lead 2r times its
    sum, so it keeps its relative accuracy however small it is, the O(1)
    ones straight from their sums, times 1/sqrt(u) in fixed point on the
    involuted side.
    """
    flip = u < 1
    if qv is None or flip:
        r = mp.exp(-mp.pi / (4 * u) if flip else -mp.pi * u / 4)
        qv, lead = r**4, 2 * r
    else:
        lead = 2 * mp.sqrt(mp.sqrt(qv)) if 2 in which else None
    partner = _INVOLUTION_PARTNER if flip else {w: w for w in which}
    wp, sums = _theta_sums({partner[w] for w in which}, qv, lead, max_terms)
    small, bits = 2, wp
    if flip:  # times 1/sqrt(u) at wp bits: u = man 2^exp, 0 < u < 1
        _, man, exp, _ = u._mpf_
        root = isqrt((1 << (2 * wp - exp)) // man)
        sums = {w: s * root for w, s in sums.items()}
        small, bits = 4, 2 * wp
    vals = {w: mp.mpf((sums[partner[w]], -bits)) for w in which}
    if small in vals:
        vals[small] = lead * vals[small]
    return tuple(vals[w] for w in which)


def _thetas_at_q(q, which, max_terms: int):
    qv = _nome_value(q)
    return _thetas(-mp.log(qv) / mp.pi, which, max_terms, qv)


def theta_involution(u, which, ctx: PrecisionContext, *, qv=None):
    """theta_which(e^{-pi u}) computed on whichever side of u = 1 is cheap.

    ``which`` is one index in (2, 3, 4), or a sequence of them for the joint
    values at one half-period, returned as a tuple in the order asked.  A
    caller that holds the nome e^{-pi u} exactly passes it as ``qv``: for
    u >= 1 the series are summed on it, with no exp.
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
            for v in _thetas(uv, ws, ctx.max_terms, qv)
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

    Uses q d/dq theta2 = 2 q^{1/4} sum_{n>=0} (n(n+1) + 1/4) q^{n(n+1)} and
    q d/dq theta3 = 2 q sum_{n>=0} (n+1)^2 q^{n^2+2n}.  The two quotients
    they form cancel as q -> 1, so above e^-pi (u < 1, the cut of
    :func:`_thetas`) the series run at the partner nome q' = e^(-pi/u):
    with alpha(q') = 1 - alpha(q), q dalpha/dq (q) = u^-2 [q' dalpha/dq'](q').
    """
    with ctx.working():
        qv = _nome_value(q)
        u = -mp.log(qv) / mp.pi
        if u < 1:
            qv = mp.exp(-mp.pi / u)
        wp, Q = _fixed_nome(qv)
        lead2, lead3 = 2 * mp.sqrt(mp.sqrt(qv)), 2 * qv
        d2_terms = (
            (4 * n * (n + 1) + 1) * t >> 2
            for n, t in enumerate(_gaussian_powers(Q, 1, wp))
        )
        s2 = _fixed_sum(d2_terms, "theta2 derivative", ctx.max_terms, wp, lead2)
        d2 = lead2 * mp.mpf((sum(s2), -wp))
        d3_terms = ((n + 1) ** 2 * t for n, t in enumerate(_gaussian_powers(Q, 2, wp)))
        floor3 = _reciprocal(qv, wp, 10**mp.mp.dps << wp)  # 1 over the lead q
        s3 = _fixed_sum(d3_terms, "theta3 derivative", ctx.max_terms, wp, lead3, floor3)
        d3 = lead3 * mp.mpf((sum(s3), -wp))
        thetas = _theta_series((2, 3), qv, ctx.max_terms)
        t2, t3 = thetas[2], thetas[3]
        a = (t2 / t3) ** 4
        return ensure_finite(4 * a * (d2 / t2 - d3 / t3) / min(u, 1) ** 2, "alpha derivative")


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


def eisenstein_M(q, ctx: PrecisionContext, *, _minus_q2=False):
    """M(q) = 1 + 240 sum_k k^3 q^k / (1 - q^k), the weight-4 Lambert sum,
    or with the private ``_minus_q2`` M(q) - M(q^2) = 240 sum_k k^3 q^k /
    (1 - q^(2k)): one series, no shared 1 to cancel, summed to its own size."""
    with ctx.working():
        qv = _nome_value(q)
        wp, Q = _fixed_nome(qv)
        terms = _eisenstein_terms(Q, wp, _minus_q2)
        first = next(terms)
        floor = 0 if _minus_q2 else _reciprocal(qv, wp, first * 10**mp.mp.dps)  # 1 over q
        terms = chain((first,), terms)
        s = _fixed_sum(terms, "Eisenstein sum", ctx.max_terms, wp, qv, floor)
        head = 0 if _minus_q2 else 1
        return ensure_finite(head + 240 * qv * mp.mpf((sum(s), -wp)), "Eisenstein M")


def _eisenstein_terms(Q, wp: int, doubled: bool):
    """k^3 q^(k-1) / (1 - q^(2k if doubled else k)) for k = 1, 2, ..."""
    one = power = 1 << wp  # q^(k-1)
    for k in count(1):
        nxt = power * Q >> wp
        yield (k**3 * power << wp) // (one - (nxt * nxt >> wp if doubled else nxt))
        power = nxt


# The reorganized single sums for the double Lambert series, each over odd m
# as sum (+-1)^((m-1)/2) c m^e y^m / (1 -+ y^(2m)) with y = sqrt(q) or q:
# id: (c, e, + in the denominator, y = sqrt(q), alternating).
_LAMBERT = {
    "lam1": (4, 0, False, True, True),  # 4 sum chi_{-4}(n) q^{n/2} / (1 - q^n)
    "lam2": (16, 1, False, False, False),  # 16 sum m q^m / (1 - q^{2m})
    "lemma22_1": (1, -1, False, False, False),  # sum q^m / (m (1 - q^{2m}))
    "lemma22_2": (1, -1, False, True, False),  # sum q^{m/2} / (m (1 - q^m))
    "ram_lhs": (1, -2, True, True, False),  # sum q^{m/2} / (m^2 (1 + q^m))
    "eis384": (1, 2, False, False, True),  # sum chi_{-4}(m) m^2 q^m / (1 - q^{2m})
    "cube": (1, 3, False, False, False),  # sum m^3 q^m / (1 - q^{2m})
}

LAMBERT_IDS = tuple(_LAMBERT)


def _odd_lambert_terms(Y2, c: int, e: int, plus: bool, wp: int):
    """c m^e y^(m-1) / (1 -+ y^(2m)) for m = 1, 3, 5, ... from y^2 = Y2 2^-wp:
    the numerator steps by y^2 and the denominator's power by y^4."""
    one = 1 << wp
    y4 = Y2 * Y2 >> wp
    num, power = c << wp, Y2  # c y^(m-1), y^(2m)
    for m in count(1, 2):
        den = one + power if plus else one - power
        if e >= 0:
            yield (num * m**e << wp) // den
        else:
            yield (num << wp) // (den * m**-e)
        num = num * Y2 >> wp
        power = power * y4 >> wp


def lambert_series(name, q, ctx: PrecisionContext):
    """One of the reorganized Lambert sums, summed with geometric control.

    ``name`` is one id in :data:`LAMBERT_IDS`.  Each sum is one pass of
    the fixed-point kernel over the series divided by its lead y = sqrt(q)
    or q; the 2 log2(1/(1-q)) extra bits of :func:`_fixed_nome` cover the
    denominators 1 - q^m that vanish as q -> 1.  The sum stops at the first
    term under 10^-(dps-2) max(|s|, floor), with floor the larger of the
    first term and 10^-dps.  Cost grows like digits / -log(q) as q -> 1;
    the identity grid and the nome integrals, which switch to theta closed
    forms above q = 0.3, stay well inside that.  A pass that cancels
    (eis384 as q -> 1) reruns with the bits it lost added to precision and
    budget alike, up to twice the working bits.
    """
    if name not in _LAMBERT:
        raise DomainError(f"unknown Lambert series id {name!r}")
    c, e, plus, half, alternate = _LAMBERT[name]
    what = f"Lambert series {name}"
    with ctx.working():
        qv, prec = _nome_value(q), mp.mp.prec
        extra, even = 0, None
        while even is None:
            with mp.workprec(prec + extra):
                wp, Q = _fixed_nome(qv)
                lead, Y2 = (mp.sqrt(qv), Q) if half else (qv, Q * Q >> wp)
                terms = _odd_lambert_terms(Y2, c, e, plus, wp)
                first = next(terms)
                ten = 10**mp.mp.dps
                floor = max(first, _reciprocal(lead, wp, first * ten * ten) // ten)
                budget = ctx.max_terms * (prec + extra) // prec
                sums = (chain((first,), terms), what, budget, wp, lead, floor)
                try:
                    even, odd = _fixed_sum(*sums, alternate=alternate, spare=extra)
                except _Cancelled as exc:
                    if exc.lost > 2 * prec:
                        raise
                    extra = exc.lost
        s = even - odd if alternate else even + odd
        return ensure_finite(lead * mp.mpf((s, -wp)), what)


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
    peak = max(int(dense.max()), -int(dense.min()))  # no |dense| copy
    return peak * sum(abs(c) for _, c in terms)


def _times_sparse(dense, terms):
    """dense * sum c q^e truncated to len(dense), one shifted add per term
    (every exponent e must be below len(dense), every |c| 1 or 2).

    The terms with |c| = 2 are added first and their sum doubled in place,
    then the unit terms are added, so no scaled copy of dense is made.
    Every partial sum is bounded by _int64_bound, computed before any add:
    the sums run in the first of int16, int32 and int64 that holds it, so
    they cannot wrap, and a bound of 2^63 or more is refused.
    """
    bound = _int64_bound(dense, terms)
    if bound >= 1 << 63:
        raise NumericsError("int64 headroom exceeded in theta product")
    width = next(w for w in (np.int16, np.int32, np.int64) if bound <= np.iinfo(w).max)
    dense = dense.astype(width, copy=False)  # |dense| <= bound, as |c| >= 1
    n = len(dense)
    out = np.zeros(n, dtype=width)
    for magnitude in (2, 1):
        for e, c in terms:
            if c == magnitude:
                out[e:] += dense[: n - e]
            elif c == -magnitude:
                out[e:] -= dense[: n - e]
        if magnitude == 2 and any(abs(c) == 2 for _, c in terms):
            out *= 2
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
    and g = q A^4 theta4(q^2)^2.  A^2 is seeded by one bincount over the
    pair sums of A's O(sqrt N) exponents; each count is at most their
    number, as an exponent has one partner per sum.  The dense series is
    then multiplied by one sparse factor at a time, A twice and theta4
    twice: O(N sqrt N) adds in all, with the signs of theta4 carried
    directly, each stage as narrow as its bound allows (int16 to int64).
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
    exps = np.array([e for e, _ in a_terms], dtype=np.int64)
    dense = np.bincount(np.add.outer(exps, exps).ravel(), minlength=N)[:N]
    for terms in (a_terms,) * 2 + (theta_terms,) * 2:
        dense = _times_sparse(dense, terms)
    coeffs = dense.tolist()
    del dense
    return CoeffStream(form, tuple(coeffs))


def _divisor_sum(N: int):
    """f's a_0..a_N (a_0 = 0) as int64: a_m = sum_{nk=m} psi(n) n^2
    chi_{-4}(k) with psi(n) = (-1)^{n-1}.

    Dirichlet's hyperbola split of the pairs nk <= N at S = isqrt(N).  Each
    n <= S adds psi(n) n^2 at every multiple nk with k = 1 mod 4 and
    subtracts it at every one with k = 3 mod 4; each odd k <= N // (S + 1)
    adds chi_{-4}(k) psi(n) n^2 over all n > S at once.  That is about
    2 sqrt N vector adds, none with a temporary.
    """
    S = isqrt(N)
    a = np.zeros(N + 1, dtype=np.int64)
    for n in range(1, S + 1):
        w = n * n if n & 1 else -n * n
        a[n :: 4 * n] += w
        a[3 * n :: 4 * n] -= w
    weight = np.arange(S + 1, N + 1, dtype=np.int64)  # psi(n) n^2 for n > S
    weight *= weight
    weight[(S + 1) & 1 :: 2] *= -1
    for k in range(1, N // (S + 1) + 1, 2):
        view, w = a[k * (S + 1) :: k], weight[: N // k - S]
        if k & 2:
            view -= w
        else:
            view += w
    return a


def _binary_theta(N: int):
    """g's a_0..a_N (a_0 = 0) as int64: a_m = 1/2 sum (x^2 - y^2) over the
    x odd, y even with x^2 + y^2 = m.

    Each odd x > 0 stands for +-x, which cancels the 1/2, and each even
    y > 0 for +-y, which doubles its term.  One odd x adds (x^2 - y^2)
    (2 if y else 1) at x^2 + y^2 for every even y >= 0 that fits: the
    indices of one x are distinct, so one fancy-index add is exact.  That is
    about sqrt(N)/2 adds of about sqrt(N)/2 terms each, O(N) in all.
    """
    a = np.zeros(N + 1, dtype=np.int64)
    y = np.arange(0, isqrt(N) + 1, 2, dtype=np.int64)
    y *= y  # y^2 for even y
    times = np.full(len(y), 2, dtype=np.int64)
    times[0] = 1
    for x in range(1, isqrt(N) + 1, 2):
        k = isqrt(N - x * x) // 2 + 1  # the even y with x^2 + y^2 <= N
        a[x * x + y[:k]] += (x * x - y[:k]) * times[:k]
    return a


def coeffs_lambert(form: str, N: int, *, _stride=1) -> CoeffStream:
    """a_1..a_N by each form's arithmetic route, in int64.

    f is the twisted Eisenstein series sum psi(n) n^2 chi_{-4}(k) q^{nk}
    with psi(n) = (-1)^{n-1}: its a_m is the divisor sum
    :func:`_divisor_sum` splits at sqrt N into about 2 sqrt N strided adds.
    g = eta(4 tau)^6 is the weight-3 CM newform of level 16 of a Hecke
    character of Q(i) (G. Koehler, Eta Products and Theta Series
    Identities, Springer 2011), so it is the binary theta series
    1/2 sum_{x odd, y even} (x^2 - y^2) q^(x^2 + y^2) that
    :func:`_binary_theta` sums in one O(N) lattice pass.

    Neither route multiplies theta series, so each is the independent check
    of :func:`coeffs_convolution`.  Every partial sum adds part of the terms
    of one a_m, whose absolute values sum to at most sigma_2(m) < 2 m^2 for
    f and d(m) m <= 2 m isqrt(m) for g (see :func:`.lvalues.dirichlet_sum`),
    so an N whose bound reaches 2^63 is refused before anything is
    allocated: 2 N^2 for f, 2 N isqrt(N) for g.  The private ``_stride`` k
    gives the list a_1, a_(1+k), ... instead, strided before any int is made.
    """
    if form not in ("f", "g"):
        raise DomainError("form must be 'f' or 'g'")
    if N < 1:
        raise DomainError("need N >= 1")
    if 2 * N * (N if form == "f" else isqrt(N)) >= 1 << 63:
        raise NumericsError("int64 headroom exceeded in arithmetic coefficients")
    a = (_divisor_sum if form == "f" else _binary_theta)(N)
    coeffs = a[1::_stride].tolist()
    del a  # the int64 array goes before the tuple is built
    return CoeffStream(form, tuple(coeffs)) if _stride == 1 else coeffs
