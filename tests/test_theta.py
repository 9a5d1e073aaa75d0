from itertools import chain, count
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath as mp

from thetal.context import BudgetError, DomainError, PrecisionContext
from thetal.lvalues import lambert_closed
from thetal.theta import (
    _thetas,
    alpha,
    alpha_pair,
    alpha_qderiv,
    eisenstein_M,
    form_f,
    form_g,
    LAMBERT_IDS,
    lambert_series,
    theta2,
    theta3,
    theta4,
    theta_direct,
    theta_involution,
)

from conftest import agrees

GRID = ("0.02", "0.05", "0.1", "0.2", "0.3")


def test_nome_validation():
    ctx = PrecisionContext(digits=15)
    for q in ("1.5", "1", "0", "-0.5", "nan"):
        with pytest.raises(DomainError):
            theta3(q, ctx)
        with pytest.raises(DomainError):
            alpha_pair(q, ctx)
    for u in (-1, 0, "nan"):
        with pytest.raises(DomainError):
            theta_involution(u, 4, ctx)
        with pytest.raises(DomainError):
            theta_involution(u, (2, 3, 4), ctx)
    with pytest.raises(DomainError):
        theta_involution(1, (2, 5), ctx)


@pytest.mark.parametrize("u", ["0.25", "0.999", "1", "4"])
def test_joint_thetas_match_single(ctx30, u):
    # a value must not depend on which others are asked for with it, or in
    # what order, on either side of the involution cut at u = 1
    with ctx30.working():
        uv = mp.mpf(u)
        alone = {w: theta_involution(uv, w, ctx30) for w in (2, 3, 4)}
        for which in [(2, 3, 4), (4, 3, 2), (3, 2), (4, 2), (4, 4, 2)]:
            joint = theta_involution(uv, which, ctx30)
            assert [v._mpf_ for v in joint] == [alone[w]._mpf_ for w in which]
            inner = _thetas(uv, which, ctx30.max_terms)
            assert [v._mpf_ for v in inner] == [alone[w]._mpf_ for w in which]


@pytest.mark.parametrize("q", ["0.02", "0.3"])
def test_joint_thetas_match_single_q_form(ctx30, q):
    singles = (theta2, theta3, theta4)
    with ctx30.working():
        qv = mp.mpf(q)
        alone = {w: fn(qv, ctx30) for w, fn in zip((2, 3, 4), singles)}
        u = -mp.log(qv) / mp.pi
        for which in [(2, 3, 4), (4, 3, 2), (2, 4), (3,)]:
            joint = _thetas(u, which, ctx30.max_terms, qv)
            assert [v._mpf_ for v in joint] == [alone[w]._mpf_ for w in which]
        t2, t3, t4 = (alone[w] for w in (2, 3, 4))
        a, ca = alpha_pair(qv, ctx30)
        assert a._mpf_ == ((t2 / t3) ** 4)._mpf_
        assert ca._mpf_ == ((t4 / t3) ** 4)._mpf_
        assert form_f(qv, ctx30)._mpf_ == (t2**4 * t4**2 / 16)._mpf_


def test_leading_behavior(ctx20):
    q = mp.mpf("1e-12")
    with ctx20.working():
        assert theta2(q, ctx20) < mp.mpf("1e-2")
        assert agrees(theta3(q, ctx20), 1, 11)
        assert agrees(theta4(q, ctx20), 1, 11)


def test_theta3_partial_sum_oracle(ctx30):
    # routed value against a hand-rolled truncation; q = 0.1 goes through
    # the involution, so this is a real cross-check, not a tautology
    with ctx30.working():
        q = mp.mpf("0.1")
        oracle = 1 + 2 * (q + q**4 + q**9 + q**16 + q**25 + q**36)
        assert agrees(theta3(q, ctx30), oracle, 28)
        assert mp.nstr(theta3(q, ctx30), 17) == "1.2002000020000002"


def test_involution_fixed_point(ctx30):
    with ctx30.working():
        q = mp.exp(-mp.pi)
        assert agrees(theta4(q, ctx30), theta2(q, ctx30), 28)


@pytest.mark.parametrize("u", ["0.25", "0.5", "1", "2", "4"])
def test_involution_relation(ctx30, u):
    with ctx30.working():
        uv = mp.mpf(u)
        lhs = mp.sqrt(uv) * theta4(mp.exp(-mp.pi * uv), ctx30)
        rhs = theta2(mp.exp(-mp.pi / uv), ctx30)
        assert agrees(lhs, rhs, 28)
        lhs = mp.sqrt(uv) * theta_involution(uv, 4, ctx30)
        rhs = theta_involution(1 / uv, 2, ctx30)
        assert agrees(lhs, rhs, 28)


@settings(max_examples=20, deadline=None)
@given(u=st.floats(min_value=0.05, max_value=20))
def test_involution_vs_direct(u):
    # involution routing must agree with the raw series everywhere
    ctx = PrecisionContext(digits=20)
    with ctx.working():
        q = mp.exp(-mp.pi * mp.mpf(u))
        for which in (2, 3, 4):
            assert agrees(
                theta_involution(u, which, ctx), theta_direct(which, q, ctx), 17
            )


def test_theta_budget():
    ctx = PrecisionContext(digits=15, max_terms=3)
    with pytest.raises(BudgetError):
        theta_direct(3, "0.999", ctx)


# every budgeted sum in the module, as a function of (q, ctx)
SERIES = {
    **{n: lambda q, ctx, n=n: lambert_series(n, q, ctx) for n in LAMBERT_IDS},
    "eisenstein_M": eisenstein_M,
    "alpha_qderiv": alpha_qderiv,
    **{f"theta{w}": lambda q, ctx, w=w: theta_direct(w, q, ctx) for w in (2, 3, 4)},
}


@pytest.mark.parametrize("name", list(SERIES))
def test_every_budgeted_sum_gives_up_with_its_best(name):
    # three terms cannot settle any of these sums at q = 0.9; alpha_qderiv
    # sums at the partner nome above e^-pi, so it is run just past the cut
    ctx = PrecisionContext(digits=20, max_terms=3)
    with pytest.raises(BudgetError) as info:
        SERIES[name]("0.05" if name == "alpha_qderiv" else "0.9", ctx)
    with ctx.working():
        assert info.value.best is not None and mp.isfinite(info.value.best)


# The kernel against plain mpf sums 20 digits hotter, on nomes that are
# exact binary numbers, so both sides sum the very same q.  The reference
# applies the same stop rule at the working tolerance, so the two truncate
# alike and only the kernel's rounding is measured.
HOT = 20
KERNEL_NOMES = {
    "2^-120": mp.mpf(2) ** -120,
    "2^-40": mp.mpf(2) ** -40,
    "e^-pi": mp.mpf(float(mp.exp(-mp.pi))),
    "0.29": mp.mpf(0.29),
    "0.55": mp.mpf(0.55),
    "0.9": mp.mpf(0.9),
}


def _ref_sum(terms, tol, floor=0, running=True):
    s = mp.mpf(0)
    for t in terms:
        s += t
        if abs(t) < tol * (max(abs(s), floor) if running else floor):
            return s


def _ref_theta(which, q, tol):
    if which == 2:
        terms = chain((1,), (q ** (n * (n + 1)) for n in count(1)))
        return 2 * q ** mp.mpf(0.25) * _ref_sum(terms, tol)
    sign = -1 if which == 4 else 1
    terms = chain((1,), (2 * sign**n * q ** (n * n) for n in count(1)))
    return _ref_sum(terms, tol, 1, running=False)


def _ref_lambert(name, q, tol, tiny):
    chi = lambda m: 1 if m % 4 == 1 else -1  # on odd m
    w = mp.sqrt(q)
    term = {
        "lam1": lambda m: 4 * chi(m) * w**m / (1 - q**m),
        "lam2": lambda m: 16 * m * q**m / (1 - q ** (2 * m)),
        "lemma22_1": lambda m: q**m / (m * (1 - q ** (2 * m))),
        "lemma22_2": lambda m: w**m / (m * (1 - q**m)),
        "ram_lhs": lambda m: w**m / (m * m * (1 + q**m)),
        "eis384": lambda m: chi(m) * m * m * q**m / (1 - q ** (2 * m)),
        "cube": lambda m: m**3 * q**m / (1 - q ** (2 * m)),
    }[name]
    floor = max(abs(term(1)), tiny)
    seen = []
    ref = _ref_sum((seen.append(t) or t for t in map(term, count(1, 2))), tol, floor)
    pos, neg = sum(t for t in seen if t > 0), -sum(t for t in seen if t < 0)
    if max(pos, neg) > abs(ref) * 2**20:
        # past the kernel's guard bits it sums again until the cancelled
        # value is as good as any other: eis384 as q -> 1
        ref = _ref_sum(map(term, count(1, 2)), tol * mp.mpf(10) ** -HOT)
    return ref, floor


def _ref_alpha_qderiv(q, tol):
    d2_terms = ((n * (n + 1) + mp.mpf(0.25)) * q ** (n * (n + 1)) for n in count())
    d2 = 2 * q ** mp.mpf(0.25) * _ref_sum(d2_terms, tol)
    d3 = 2 * _ref_sum((n * n * q ** (n * n) for n in count(1)), tol, 1)
    t2, t3 = _ref_theta(2, q, tol), _ref_theta(3, q, tol)
    a = (t2 / t3) ** 4
    # the two quotients cancel as q -> 1: the error scales with either one
    return 4 * a * (d2 / t2 - d3 / t3), 4 * a * d2 / t2


def _ref_value(name, q, tol, tiny):
    """(hot reference, floor of its stop rule) for one series at q."""
    if name.startswith("theta"):
        return _ref_theta(int(name[-1]), q, tol), (0 if name == "theta2" else 1)
    if name == "eisenstein_M":
        terms = (k**3 * q**k / (1 - q**k) for k in count(1))
        return 1 + 240 * _ref_sum(terms, tol, 1), 1
    if name == "alpha_qderiv":
        return _ref_alpha_qderiv(q, tol)
    return _ref_lambert(name, q, tol, tiny)


def _kernel_misses(q, digits, names):
    """Series at q farther than 2^-(prec-4) max(|v|, floor) from the hot
    reference, prec the working bits, with each miss's ratio to that bound."""
    ctx = PrecisionContext(digits=digits)
    with ctx.working():
        got = {name: SERIES[name](q, ctx) for name in names}
        prec, dps = mp.mp.prec, mp.mp.dps
    misses = []
    with mp.workdps(dps + HOT):
        tol, tiny = mp.mpf(10) ** (2 - dps), mp.mpf(10) ** -dps
        for name, value in got.items():
            ref, floor = _ref_value(name, q, tol, tiny)
            bound = mp.mpf(2) ** (4 - prec) * max(abs(ref), floor)
            if not abs(value - ref) <= bound:
                misses.append((name, mp.nstr(abs(value - ref) / bound, 5)))
    return misses


@pytest.mark.parametrize("digits", [20, 50])
@pytest.mark.parametrize("q", list(KERNEL_NOMES), ids=list(KERNEL_NOMES))
def test_fixed_point_kernel_accuracy(digits, q):
    assert not _kernel_misses(KERNEL_NOMES[q], digits, SERIES)


def _lambert_closed_forms(q, ctx):
    """Every Lambert sum at q from theta products, or for the three behind
    the nome integrals from their modular closed forms in alpha."""
    t2 = lambda x: theta2(x, ctx)
    q2 = q * q
    closed = {
        "lam1": t2(q) ** 2,
        "lam2": t2(q) ** 4,
        "eis384": t2(q2) ** 2 * theta4(q2, ctx) ** 4 / 4,
        "cube": (t2(mp.sqrt(q)) ** 8 - 8 * t2(q) ** 8) / 256,
    }
    a, ca = alpha_pair(q, ctx)
    for name in ("lemma22_1", "lemma22_2", "ram_lhs"):
        closed[name] = lambert_closed(name, a, ca)
    return closed


@pytest.mark.parametrize("digits", [20, 50])
def test_fixed_point_kernel_near_one(digits):
    # the raw theta series at q = 0.999, where terms step ~300 times
    names = ("theta2", "theta3", "theta4")
    assert not _kernel_misses(mp.mpf(0.999), digits, names)
    # every Lambert sum, relative to its value: at q = 0.97 eis384 is
    # 2.4e-65, far below its terms, which cancel to it
    hot = PrecisionContext(digits=digits + 20)
    for q in ("0.9", "0.97"):
        got = {n: lambert_series(n, q, PrecisionContext(digits=digits)) for n in LAMBERT_IDS}
        with hot.working():
            want = _lambert_closed_forms(mp.mpf(q), hot)
            for name in LAMBERT_IDS:
                err = abs(got[name] - want[name])
                assert err <= mp.mpf(10) ** -(digits + 10) * abs(want[name]), (q, name)


# The largest max_terms at which each sum still raises BudgetError, as the
# per-term mpf loops gave them; the fixed-point kernel keeps every stop rule
# and budget term for term.  Every nome here lies above e^-pi, where
# alpha_qderiv sums at the partner nome e^(-pi/u), so its pins are those
# of that shorter sum.
BUDGET_PINS = {
    ("0.1", 20): dict(
        theta2=5, theta3=5, theta4=5, lam1=32, lam2=17, lemma22_1=15,
        lemma22_2=31, ram_lhs=29, eis384=18, cube=18,
        eisenstein_M=36, alpha_qderiv=4,
    ),
    ("0.29", 50): dict(
        theta2=10, theta3=10, theta4=10, lam1=116, lam2=60, lemma22_1=56,
        lemma22_2=112, ram_lhs=108, eis384=62, cube=63,
        eisenstein_M=127, alpha_qderiv=4,
    ),
    ("0.55", 20): dict(
        theta2=10, theta3=11, theta4=11, lam1=125, lam2=66, lemma22_1=59,
        lemma22_2=116, ram_lhs=109, eis384=71, cube=72,
        eisenstein_M=144, alpha_qderiv=2,
    ),
    ("0.9", 30): dict(
        theta2=29, theta3=30, theta4=30, lam1=917, lam2=482, lemma22_1=429,
        lemma22_2=845, ram_lhs=803, eis384=528, cube=520,
        eisenstein_M=1033, alpha_qderiv=1,
    ),
}


@pytest.mark.parametrize("q, digits", list(BUDGET_PINS))
def test_budgets_are_pinned(q, digits):
    for name, last_failing in BUDGET_PINS[q, digits].items():
        run = SERIES[name]
        with pytest.raises(BudgetError):
            run(q, PrecisionContext(digits=digits, max_terms=last_failing))
        run(q, PrecisionContext(digits=digits, max_terms=last_failing + 1))


def test_alpha_midpoint_and_range(ctx30):
    with ctx30.working():
        assert agrees(alpha(mp.exp(-mp.pi), ctx30), mp.mpf(1) / 2, 28)
        vals = [alpha(mp.mpf(q), ctx30) for q in GRID]
        assert all(0 < v < 1 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))  # increasing in q


def test_alpha_pair_complement(ctx30):
    with ctx30.working():
        for q in GRID:
            a, ca = alpha_pair(mp.mpf(q), ctx30)
            assert agrees(a + ca, 1, 28)


def test_alpha_qderiv_central_difference(ctx30):
    with ctx30.working():
        q = mp.mpf("0.1")
        h = mp.mpf(10) ** -12
        slope = (alpha(q + h, ctx30) - alpha(q - h, ctx30)) / (2 * h)
        assert agrees(alpha_qderiv(q, ctx30), q * slope, 12)


@pytest.mark.parametrize("digits", [20, 50])
@pytest.mark.parametrize("q", ["0.7", "0.9", "0.95"])
def test_alpha_qderiv_near_one(q, digits):
    # alpha (1 - alpha) theta3^4 is down to 1e-79 here, where the quotients
    # of the derivative series at q itself cancel to nothing
    got = alpha_qderiv(q, PrecisionContext(digits=digits))
    hot = PrecisionContext(digits=digits + 20)
    with hot.working():
        a, ca = alpha_pair(q, hot)
        want = a * ca * theta3(q, hot) ** 4
        assert abs(got - want) <= mp.mpf(10) ** -(digits + 10) * want


def test_tiny_nome_floors(ctx20):
    # q far below 2^-wp: each summation floor is capped where the first term
    # already stops the sum, so none builds 2^(wp - exp), and each value is
    # its leading order
    leads = {"lam1": (4, True), "lam2": (16, False), "lemma22_1": (1, False),
             "lemma22_2": (1, True), "ram_lhs": (1, True), "eis384": (1, False),
             "cube": (1, False)}
    start = perf_counter()
    with ctx20.working():
        q = mp.mpf("1e-1000000000000")
        assert eisenstein_M(q, ctx20) == 1  # 1 + 240 q
        assert agrees(alpha_qderiv(q, ctx20), 16 * q, 18)  # alpha = 16 q + O(q^2)
        for name in LAMBERT_IDS:
            c, half = leads[name]
            want = c * (mp.sqrt(q) if half else q)
            assert agrees(lambert_series(name, q, ctx20), want, 18), name
    assert perf_counter() - start < 1


def test_forms_small_q(ctx30):
    # f = q - 4q^2 + 8q^3 + O(q^4), g = q - 6q^5 + O(q^9)
    with ctx30.working():
        q = mp.mpf("0.05")
        f_poly = q - 4 * q**2 + 8 * q**3 - 16 * q**4 + 26 * q**5
        assert abs(form_f(q, ctx30) - f_poly) < mp.mpf("0.05") ** 6 * 40
        g_poly = q - 6 * q**5 + 9 * q**9
        assert abs(form_g(q, ctx30) - g_poly) < mp.mpf("0.05") ** 13 * 20


def test_eisenstein_value(ctx30):
    # frozen from the double-sum definition; k=1 term alone is 2.4242...
    with ctx30.working():
        assert mp.nstr(eisenstein_M("0.01", ctx30), 20) == "3.6228982853198244341"
        direct = 1 + 240 * mp.nsum(
            lambda s, k: k**3 * mp.mpf("0.01") ** (s * k), [1, mp.inf], [1, mp.inf]
        )
        assert agrees(eisenstein_M("0.01", ctx30), direct, 25)


@pytest.mark.parametrize("q", GRID)
def test_lambert_lam1_lam2(ctx30, q):
    with ctx30.working():
        qv = mp.mpf(q)
        assert agrees(lambert_series("lam1", qv, ctx30), theta2(qv, ctx30) ** 2, 27)
        assert agrees(lambert_series("lam2", qv, ctx30), theta2(qv, ctx30) ** 4, 27)


@pytest.mark.parametrize("q", GRID)
def test_lambert_eis384_and_cube(ctx30, q):
    with ctx30.working():
        qv = mp.mpf(q)
        q2 = qv * qv
        rhs = theta2(q2, ctx30) ** 2 * theta4(q2, ctx30) ** 4 / 4
        assert agrees(lambert_series("eis384", qv, ctx30), rhs, 27)
        cube_rhs = (theta2(mp.sqrt(qv), ctx30) ** 8 - 8 * theta2(qv, ctx30) ** 8) / 256
        assert agrees(lambert_series("cube", qv, ctx30), cube_rhs, 26)


def test_lambert_lemma22_hypergeometric(ctx30):
    # both lemma sums against the mpmath 2F1 oracle
    with ctx30.working():
        qv = mp.mpf("0.1")
        a = alpha(qv, ctx30)
        assert agrees(
            lambert_series("lemma22_1", qv, ctx30),
            a / 16 * mp.hyp2f1(1, 1, 2, a),
            27,
        )
        assert agrees(
            lambert_series("lemma22_2", qv, ctx30),
            mp.sqrt(a) / 4 * mp.hyp2f1(mp.mpf("0.5"), 1, mp.mpf("1.5"), a),
            27,
        )
        # nesting: the half-index sum is the full sum at sqrt(q)
        assert agrees(
            lambert_series("lemma22_2", qv, ctx30),
            lambert_series("lemma22_1", mp.sqrt(qv), ctx30),
            28,
        )


def test_lambert_ram_quotient(ctx30):
    # sum w_r / ((2r-1)^2 (1+w_r^2)) = (sqrt(a)/4) 3F2(...)/2F1(...)
    with ctx30.working():
        qv = mp.mpf("0.1")
        a = alpha(qv, ctx30)
        x3 = mp.hyp3f2(1, 1, 1, mp.mpf("1.5"), mp.mpf("1.5"), a)
        k3 = mp.hyp2f1(mp.mpf("0.5"), mp.mpf("0.5"), 1, a)
        assert agrees(
            lambert_series("ram_lhs", qv, ctx30), mp.sqrt(a) / 4 * x3 / k3, 27
        )


def test_lambert_unknown_id(ctx20):
    with pytest.raises(DomainError):
        lambert_series("nope", "0.1", ctx20)


def test_doubling_identities(ctx30):
    with ctx30.working():
        for q in GRID:
            qv = mp.mpf(q)
            q2 = qv * qv
            assert agrees(
                2 * theta2(q2, ctx30) * theta3(q2, ctx30),
                theta2(qv, ctx30) ** 2,
                27,
            )
            assert agrees(
                2 * theta3(q2, ctx30) ** 2,
                theta3(qv, ctx30) ** 2 + theta4(qv, ctx30) ** 2,
                27,
            )
            assert agrees(
                theta3(qv, ctx30) * theta4(qv, ctx30),
                theta4(q2, ctx30) ** 2,
                27,
            )


def test_theta_combinations(ctx30):
    # the two eighth-power combinations behind the weight-4 integrals
    with ctx30.working():
        for q in GRID:
            qv = mp.mpf(q)
            q2, q4 = qv * qv, qv**4
            a, ca = alpha_pair(qv, ctx30)
            t3 = theta3(qv, ctx30)
            lhs1 = 2 * theta4(q2, ctx30) ** 8 - theta4(qv, ctx30) ** 8
            assert agrees(lhs1, (1 + a) * ca * t3**8, 26)
            lhs2 = 2 * theta4(q4, ctx30) ** 8 - theta4(q2, ctx30) ** 8
            assert agrees(lhs2, (mp.sqrt(ca) + ca ** mp.mpf("1.5")) * t3**8 / 2, 26)
