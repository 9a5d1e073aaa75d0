"""Single-series hypergeometrics: summation routes, kernels, classification."""

import math
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import islice

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import agrees, pochhammer
from thetal.context import (
    BudgetError,
    DomainError,
    PrecisionContext,
    as_real,
    noise_floor,
)
from thetal.hyper import (
    PFQSpec,
    euler_2f1,
    pfq,
    pfq_converges,
    pfq_excess,
    _agm_ambient,
    _hurwitz_family,
    _pfq_terms,
    _tail_coeffs,
    series_kernel,
)
from thetal.lvalues import LF4_POS1, LF4_POS3, SAMART_5F4


def pfq_term(spec, n, z, ctx):
    """Term n from scratch via Pochhammer quotients (the slow reference)."""
    with ctx.working():
        num = den = Fraction(1)
        for u in spec.upper:
            num *= pochhammer(u, n)
        for l in spec.lower:
            den *= pochhammer(l, n)
        return as_real(num) / as_real(den) * as_real(z) ** n / mp.factorial(n)


@pytest.fixture(scope="module")
def ctx():
    return PrecisionContext(digits=25)


@cache
def _frobenius_rationals(n: int):
    """p_0..p_(n-1), q_0..q_(n-1) with the regular part of 3F2(1,1,1;3/2,3/2;
    1 - e) = A(e) + log(e) B(e) split as A = a_0 beta(e) + pi P(e) + Q(e),
    beta(e) = 2F1(1/2,1/2;1;e)/sqrt(1-e) = -4 B/pi: Buhring's recurrence
    about z = 1 in exact rationals, a_0 = pi log 2 - 2G carried apart."""
    beta = [Fraction(1), Fraction(3, 4)]
    p, q = [Fraction(0), Fraction(-1, 8)], [Fraction(0), Fraction(1, 4)]
    for m in range(n - 2):
        c1, sq = Fraction(8 * m * m + 24 * m + 19, 4), (m + 1) ** 2
        beta.append((c1 * beta[m + 1] - sq * beta[m]) / (m + 2) ** 2)
        rho = (
            (m + 2) * (3 * m + 4) * beta[m + 2]
            - Fraction(24 * m * m + 64 * m + 43, 4) * beta[m + 1]
            + 3 * sq * beta[m]
        )
        p.append((c1 * p[m + 1] - sq * p[m] + rho / (4 * (m + 1))) / (m + 2) ** 2)
        q.append((c1 * q[m + 1] - sq * q[m]) / (m + 2) ** 2)
    return p, q


def treble_by_connection(e):
    """3F2(1,1,1;3/2,3/2;1 - e) at the precision in force for small e, with
    beta from mpmath's 2F1 and 60 exact terms of P and Q, which leave about
    e^60 (10^-180 at e = 10^-3)."""
    p, q = (  # highest power first, as polyval wants
        [mp.mpf(c.numerator) / c.denominator for c in reversed(cs)]
        for cs in _frobenius_rationals(60)
    )
    beta = mp.hyp2f1(0.5, 0.5, 1, e) / mp.sqrt(1 - e)
    regular = mp.pi * mp.polyval(p, e) + mp.polyval(q, e)
    a0 = mp.pi * mp.log(2) - 2 * mp.catalan
    return a0 * beta + regular - mp.pi / 4 * mp.log(e) * beta


class TestSpecValidation:
    def test_coercion_to_fractions(self):
        s = PFQSpec(upper=("1/2", 1), lower=(1.5,))
        assert s.upper == (Fraction(1, 2), Fraction(1))
        assert s.lower == (Fraction(3, 2),)

    def test_count_mismatch(self):
        with pytest.raises(DomainError):
            PFQSpec(upper=(1, 1), lower=(2, 2))

    def test_nonpositive_lower_integer(self):
        with pytest.raises(DomainError):
            PFQSpec(upper=(1, 1), lower=(0,))
        with pytest.raises(DomainError):
            PFQSpec(upper=(1, 1, 1), lower=(-3, 2))

    def test_irrational_parameter_rejected(self):
        with pytest.raises(DomainError):
            PFQSpec(upper=(1, "x"), lower=(2,))


class TestExcessAndClassification:
    def test_samart_5f4_excess(self):
        # four 2s below, excess 8 - 13/2 = 3/2
        s = PFQSpec(upper=("3/2", "3/2", "3/2", 1, 1), lower=(2, 2, 2, 2))
        assert pfq_excess(s) == Fraction(3, 2)
        assert pfq_converges(s, 1) == "boundary-convergent"

    def test_treble_3f2_divergent_at_one(self):
        s = PFQSpec(upper=(1, 1, 1), lower=("3/2", "3/2"))
        assert pfq_excess(s) == 0
        assert pfq_converges(s, 1) == "divergent"
        # excess 0 > -1: still summable at the alternating endpoint
        assert pfq_converges(s, -1) == "boundary-convergent"

    def test_merged_4f3_excess(self):
        s = PFQSpec(upper=("1/2", 1, 1, 1), lower=("3/2", "3/2", "3/2"))
        assert pfq_excess(s) == 1
        assert pfq_converges(s, 1) == "boundary-convergent"

    def test_interior_and_outside(self):
        s = PFQSpec(upper=(1, 1), lower=(2,))
        assert pfq_converges(s, "1/3") == "interior"
        assert pfq_converges(s, -0.99) == "interior"
        assert pfq_converges(s, "3/2") == "divergent"
        # compared exactly: a float would round this mpf to 1
        k3 = PFQSpec(upper=("1/2", "1/2"), lower=(1,))
        with mp.workdps(40):
            assert pfq_converges(k3, 1 - mp.mpf(10) ** -30) == "interior"
            assert pfq_converges(k3, mp.mpf(1)) == "divergent"

    def test_terminating_is_polynomial_anywhere(self):
        s = PFQSpec(upper=(-3, 1), lower=(2,))
        assert s.terminating
        assert pfq_converges(s, 5) == "interior"


class TestPfqInterior:
    def test_gauss_log_value(self, ctx):
        got = pfq(PFQSpec(upper=(1, 1), lower=(2,)), "1/2", ctx).value
        with mp.workdps(35):
            assert agrees(got, 2 * mp.log(2), 25)

    def test_against_mpmath_grid(self, ctx):
        cases = [
            ((1, 1), (2,), "0.5"),
            (("1/2", "1/2"), (1,), "0.3"),
            (("1/2", 1, 1), ("3/2", "3/2"), "0.8"),
            ((1, 1), (2,), "-0.7"),
            (("1/3", "3/4", "5/4"), ("5/2", "7/3"), "0.9"),
        ]
        with mp.workdps(40):
            for upper, lower, z in cases:
                spec = PFQSpec(upper=upper, lower=lower)
                want = mp.hyper(
                    [mp.mpf(f.numerator) / f.denominator for f in spec.upper],
                    [mp.mpf(f.numerator) / f.denominator for f in spec.lower],
                    mp.mpf(z),
                )
                assert agrees(pfq(spec, z, ctx).value, want, 25)

    def test_terminating_sum(self, ctx):
        # direct Pochhammer sums; degree 12 reaches the tenth term, where the
        # geometric tail test of a nonterminating series would start at |z| = 1
        cases = (
            ((-2, 1), (3,), 1),  # 1 - 2/3 + 1/6
            ((-12, 1), (2,), 1),
            ((-12, 1), (2,), -1),
            ((-12, "1/2", 1), ("3/2", 2), 1),
            ((-12, "1/2", 1), ("3/2", 2), -1),
        )
        for upper, lower, z in cases:
            spec = PFQSpec(upper=upper, lower=lower)
            degree = -int(min(spec.upper))
            got = pfq(spec, z, ctx).value
            with ctx.working():
                want = sum(pfq_term(spec, n, z, ctx) for n in range(degree + 1))
            assert agrees(got, want, 25), (upper, lower, z)

    def test_tail_guard_past_budget_raises_before_summing(self):
        # the guard wants 10 + 4 * 7 / 0.001 terms; the budget allows 1000
        ctx = PrecisionContext(digits=20, max_terms=1000)
        spec = PFQSpec(upper=(1, 1, 1), lower=("3/2", "3/2"))
        with pytest.raises(BudgetError) as info:
            pfq(spec, "0.999", ctx)
        assert "needs at least 280" in str(info.value)
        assert info.value.best is None  # nothing was summed

    def test_argument_domain(self, ctx):
        spec = PFQSpec(upper=(1, 1), lower=(2,))
        with pytest.raises(DomainError):
            pfq(spec, "11/10", ctx)
        with pytest.raises(DomainError):
            pfq(spec, -2, ctx)


# 5F4(3/2,3/2,3/2,1,1; 2,2,2,2; 1) to 55 digits, where mpmath's own z = 1
# summation costs seconds; the output of
# python -c "import mpmath as mp; mp.mp.dps = 55; print(mp.hyper([mp.mpf(3)/2]*3 + [1, 1], [2]*4, 1))"
SAMART_AT_ONE = "1.428001974526322504658836463058635380498246393758904999"

# p+1Fp at z = 1 with exact values; 2F1(-1/2,1;2) has a sign change early
UNIT_VALUES = {
    "3F2(1,1,1;2,2)": (PFQSpec((1, 1, 1), (2, 2)), lambda: mp.zeta(2)),
    "2F1(1/2,1/2;3/2)": (PFQSpec(("1/2", "1/2"), ("3/2",)), lambda: mp.pi / 2),
    "2F1(-1/2,1;2)": (PFQSpec(("-1/2", 1), (2,)), lambda: mp.mpf(2) / 3),
    "LF4_POS1": (LF4_POS1, lambda: mp.zeta(4, mp.mpf(1) / 4) / 256),
    "LF4_POS3": (LF4_POS3, lambda: 81 * mp.zeta(4, mp.mpf(3) / 4) / 256),
}


class TestPfqBoundary:
    def test_gauss_value_at_one(self, ctx):
        # 2F1(1/2,1/2;3/2;1) = Gamma(3/2)Gamma(1/2) / Gamma(1)^2 = pi/2
        got = pfq(PFQSpec(upper=("1/2", "1/2"), lower=("3/2",)), 1, ctx).value
        with mp.workdps(35):
            assert agrees(got, mp.pi / 2, 25)

    @pytest.mark.parametrize("digits", (20, 50, 100))
    @pytest.mark.parametrize(
        "spec,exact",
        UNIT_VALUES.values(),
        ids=UNIT_VALUES.keys(),
    )
    def test_unit_tail_against_exact(self, spec, exact, digits):
        got = pfq(spec, 1, PrecisionContext(digits=digits)).value
        with mp.workdps(digits + 20):
            want = exact()
            assert abs(got - want) <= mp.mpf(10) ** -(digits + 2) * abs(want)

    def test_samart_5f4_at_one(self):
        # one hot value judges both precisions
        with mp.workdps(55):
            want = mp.mpf(SAMART_AT_ONE)
        for digits in (20, 50):
            got = pfq(SAMART_5F4, 1, PrecisionContext(digits=digits)).value
            with mp.workdps(55):
                assert abs(got - want) <= mp.mpf(10) ** -(digits + 2) * want, digits

    def test_budget_error_carries_best(self):
        # four terms leave the zeta tail far outside its asymptotic range,
        # and the budget forbids the forty terms 20 digits would start from
        ctx = PrecisionContext(digits=30, max_terms=4)
        with pytest.raises(BudgetError) as info:
            pfq(SAMART_5F4, 1, ctx)
        assert mp.isfinite(info.value.best)
        assert info.value.estimate > 0

    @pytest.mark.parametrize("max_terms", (4, 8))
    @pytest.mark.parametrize(
        "spec,exact",
        ((SAMART_5F4, lambda: mp.mpf(SAMART_AT_ONE)), UNIT_VALUES["LF4_POS1"]),
        ids=("SAMART_5F4", "LF4_POS1"),
    )
    def test_small_budget_is_prompt_and_honest(self, spec, exact, max_terms):
        # N = max_terms leaves s + k far past 2 pi N, where an Euler-Maclaurin
        # pass taken at N diverges; the sum must still end at once, and what
        # it reports, returned or carried by BudgetError, must bound its error
        ctx = PrecisionContext(digits=30, max_terms=max_terms)
        start = time.perf_counter()
        try:
            value, est, _ = pfq(spec, 1, ctx)
        except BudgetError as err:
            # LF4_POS1's tail expansion converges for n > 1/4: N = 4 must do
            assert spec is not LF4_POS1
            value, est = err.best, err.estimate
        assert time.perf_counter() - start < 5
        with mp.workdps(55):
            assert abs(value - exact()) <= est

    def test_divergent_at_one_raises(self, ctx):
        with pytest.raises(DomainError):
            pfq(PFQSpec(upper=(1, 1, 1), lower=("3/2", "3/2")), 1, ctx)

    def test_alternating_beta4(self, ctx):
        # 5F4((1/2)^4,1; (3/2)^4; -1) = sum (-1)^k/(2k+1)^4
        s = PFQSpec(upper=["1/2"] * 4 + [1], lower=["3/2"] * 4)
        got = pfq(s, -1, ctx).value
        with mp.workdps(40):
            want = 4 ** mp.mpf(-4) * (
                mp.zeta(4, mp.mpf(1) / 4) - mp.zeta(4, mp.mpf(3) / 4)
            )
        assert agrees(got, want, 25)

    def test_too_divergent_alternating_raises(self, ctx):
        # excess -3/2 <= -1: terms grow, no resummation offered
        s = PFQSpec(upper=("3/2", "3/2", "3/2"), lower=(1, "1/2"))
        with pytest.raises(DomainError):
            pfq(s, -1, ctx)


def _stirling_tail_coeffs(spec, count):
    """The c_k of hyper._tail_coeffs from Stirling's series, the slow
    reference: log(t_n / C) = -(1+e) log n + sum_k d_k n^-k with
        d_k = (-1)^(k+1) [sum B_(k+1)(a_i) - sum B_(k+1)(b_j) - B_(k+1)(1)]
              / (k (k+1))
    over Bernoulli polynomials, exponentiated by c_0 = 1, c_n = (1/n) sum_k
    k d_k c_(n-k), all in Fractions; repeated parameters are weighted."""
    multiplicity = Counter(spec.upper)
    multiplicity.subtract(spec.lower)
    multiplicity[Fraction(1)] -= 1
    weights = [(x, w) for x, w in multiplicity.items() if w]
    bernoulli = [Fraction(*mp.bernfrac(j)) for j in range(count + 1)]

    def bernoulli_poly(n, x):  # B_n(x); the odd B_j past B_1 vanish
        return sum(
            math.comb(n, j) * bernoulli[j] * x ** (n - j)
            for j in range(n + 1)
            if j < 2 or j % 2 == 0
        )

    d = [Fraction(0)]
    for k in range(1, count):
        b = sum(w * bernoulli_poly(k + 1, x) for x, w in weights)
        d.append((-1) ** (k + 1) * b / (k * (k + 1)))
    c = [Fraction(1)]
    for n in range(1, count):
        c.append(sum(k * d[k] * c[n - k] for k in range(1, n + 1)) / n)
    return tuple(c)


# the unit-argument specs of the closed forms, and a 2F1 with integer
# parameters, whose c_k are integers
TAIL_SPECS = {
    "SAMART_5F4": SAMART_5F4,
    "LF4_POS1": LF4_POS1,
    "LF4_POS3": LF4_POS3,
    "2F1(1,3;5)": PFQSpec((1, 3), (5,)),
}


@pytest.mark.parametrize("spec", TAIL_SPECS.values(), ids=TAIL_SPECS.keys())
def test_tail_coeffs_against_stirling(spec):
    # 0.9 * 300 + 10 coefficients serve 300 digits; fewer are a prefix
    want = _stirling_tail_coeffs(spec, 280)
    for count in (28, 100, 280):
        assert _tail_coeffs(spec, count) == want[:count]


@pytest.mark.parametrize("digits", (20, 50, 100))
@pytest.mark.parametrize("name", list(TAIL_SPECS)[:3])
def test_hurwitz_family_against_mpmath_zeta(name, digits):
    """One Euler-Maclaurin pass against one mp.zeta call per coefficient, 20
    digits hotter; mp.zeta(s, N) is good to about 10^-(dps+9) absolutely, so
    each value also takes log10 |c_k| digits.  N = 4 puts the pass past N,
    and a size of 10^digits stops each bracket that many digits early, so
    the remainder bound, not the noise floor, has to cover the error."""
    ctx, spec = PrecisionContext(digits=digits), TAIL_SPECS[name]
    exact = _tail_coeffs(spec, int(0.9 * digits) + 10)
    s = 1 + pfq_excess(spec)
    for n in (4, digits + 20):
        want = []
        for k, c in enumerate(exact):
            with mp.workdps(ctx.workdigits + 20 + int(mp.log10(abs(as_real(c)) + 1))):
                want.append(as_real(c) * mp.zeta(as_real(s) + k, n))
        for size in (1, 10**digits):
            with ctx.working():
                coeffs = [as_real(c) for c in exact]
                tail, bound = _hurwitz_family(coeffs, s, n, mp.mpf(size))
            with mp.workdps(ctx.workdigits + 20):
                err = abs(mp.fsum(tail) - mp.fsum(want))
                assert err <= bound + noise_floor(mp.fsum(want), ctx), (n, size)


@given(
    n=st.integers(min_value=0, max_value=9),
    num=st.integers(min_value=1, max_value=5),
    den=st.sampled_from([1, 2, 3, 4]),
)
@settings(max_examples=25, deadline=None)
def test_term_recurrence_matches_pochhammer_quotient(n, num, den):
    """The term stream every summer draws from must match the Pochhammer
    reference term by term, inside the disk and at both boundary points."""
    a = Fraction(num, den)
    spec = PFQSpec(upper=(a, 1), lower=(a + 2,))
    ctx = PrecisionContext(digits=20)
    for z in (Fraction(1, 3), 1, -1):
        with ctx.working():
            stream = _pfq_terms(spec, as_real(z))
            for k, t in enumerate(islice(stream, n + 1)):
                ref = pfq_term(spec, k, z, ctx)
                assert abs(t - ref) <= abs(ref) * mp.mpf(10) ** -25


class TestEuler2F1:
    def test_against_series_route(self, ctx):
        rng_cases = []
        # deterministic pseudo-grid over the shared domain
        vals = ["1/2", "3/4", "5/4", "2"]
        zs = ["-3/4", "-1/4", "1/4", "3/5", "9/10"]
        k = 0
        for a in vals:
            for b in ("1/2", "1", "7/4"):
                c = Fraction(b) + Fraction(1, 2) + Fraction(k % 3, 2)
                z = zs[k % len(zs)]
                rng_cases.append((a, b, c, z))
                k += 1
        assert len(rng_cases) >= 12
        for a, b, c, z in rng_cases:
            v_int = euler_2f1(a, b, c, z, ctx).value
            v_ser = pfq(PFQSpec(upper=(a, b), lower=(c,)), z, ctx).value
            assert agrees(v_int, v_ser, 23), (a, b, c, z)

    def test_at_unit_argument(self, ctx):
        # c - a - b = 1/2 on the nose
        v_int = euler_2f1("1/2", "1/2", "3/2", 1, ctx).value
        with mp.workdps(35):
            assert agrees(v_int, mp.pi / 2, 23)

    def test_preconditions(self, ctx):
        with pytest.raises(DomainError):
            euler_2f1(1, 2, "3/2", "1/2", ctx)  # c <= b
        with pytest.raises(DomainError):
            euler_2f1(1, "1/2", "3/2", "3/2", ctx)  # z > 1
        with pytest.raises(DomainError):
            euler_2f1(1, "1/2", "3/2", 1, ctx)  # c-a-b = 0 at z=1


class TestKernels:
    def test_known_forms_match_mpmath(self):
        k1 = series_kernel((1, 1), (2,))
        k2 = series_kernel(("1/2", 1), ("3/2",))
        k3 = series_kernel(("1/2", "1/2"), (1,))
        with mp.workdps(35):
            half = mp.mpf(1) / 2
            # tiny z and the log kernels' cut at 1/2: as z -> 0 the rounded
            # cz keeps few or none of z's digits
            for zs in ("-0.5", "-1e-20", "1e-100", "1e-50", "1e-20", "0.001",
                       "0.3", "0.49", "0.51", "0.55", "0.9", "0.999"):
                z = mp.mpf(zs)
                cz = 1 - z
                assert agrees(k1(z, cz), mp.hyp2f1(1, 1, 2, z), 30)
                assert agrees(k2(z, cz), mp.hyp2f1(half, 1, 3 * half, z), 30)
                assert agrees(k3(z, cz), mp.hyp2f1(half, half, 1, z), 30)

    def test_treble_kernel_both_branches(self):
        x3 = series_kernel((1, 1, 1), ("3/2", "3/2"))
        with mp.workdps(35):
            h = mp.mpf(3) / 2
            for zs in ("0.1", "0.54", "0.56", "0.75", "0.95"):
                z = mp.mpf(zs)
                want = mp.hyp3f2(1, 1, 1, h, h, z)
                assert agrees(x3(z, 1 - z), want, 33), zs
            # hyp3f2 takes seconds at z = 0.9999; the connection formula,
            # itself held to hyp3f2 below, stands in for it there
            z = mp.mpf("0.9999")
            assert agrees(x3(z, 1 - z), treble_by_connection(mp.mpf("1e-4")), 33)

    def test_treble_kernel_100_digits(self):
        # the expansion about z = 1 against mpmath taken 20 digits hotter
        x3 = series_kernel((1, 1, 1), ("3/2", "3/2"))
        with mp.workdps(100):
            for zs in ("0.56", "0.75", "0.95"):
                z = mp.mpf(zs)
                got = x3(z, 1 - z)
                with mp.workdps(120):
                    want = mp.hyp3f2(1, 1, 1, 1.5, 1.5, z)
                assert agrees(got, want, 98), zs

    @pytest.mark.parametrize("dps", (20, 50, 100))
    def test_treble_kernel_sweep(self, dps):
        # the stop tolerance on both branches and at z = 1 - 10^-k as close
        # to 1 as dps resolves, against references 20 digits hotter; mpmath's
        # hyp3f2 takes seconds a point past z = 0.99, so the connection
        # formula in exact rationals stands in for it there
        x3 = series_kernel((1, 1, 1), ("3/2", "3/2"))
        with mp.workdps(dps):
            zs = [mp.mpf(v) for v in ("-0.89", "-0.5", "0.1", "0.54", "0.55",
                                      "0.56", "0.75", "0.95")]
            zs += [1 - mp.mpf(10) ** -k for k in range(1, dps - 2)]
            for z in zs:
                got = x3(z, 1 - z)
                with mp.workdps(dps + 20):
                    e = 1 - z
                    if e >= mp.mpf("0.01"):
                        want = mp.hyp3f2(1, 1, 1, 1.5, 1.5, z)
                    else:
                        want = treble_by_connection(e)
                    assert abs(got - want) <= mp.mpf(10) ** (3 - dps) * abs(want), z

    def test_connection_reference_meets_mpmath(self):
        # the stand-in for hyp3f2 near z = 1, where both are affordable
        with mp.workdps(60):
            for es in ("0.01", "0.02"):
                e = mp.mpf(es)
                want = mp.hyp3f2(1, 1, 1, 1.5, 1.5, 1 - e)
                assert agrees(treble_by_connection(e), want, 58), es

    def test_treble_kernel_across_precisions(self):
        # too few expansion terms show first at the far end, cz = 0.44, and
        # a lost log term at cz -> 0; 70 digits judges the 35-digit value
        x3 = series_kernel((1, 1, 1), ("3/2", "3/2"))
        for czs in ("1e-30", "0.44"):
            with mp.workdps(35):
                cz = mp.mpf(czs)
                lo = x3(1 - cz, cz)
            with mp.workdps(70):
                cz = mp.mpf(czs)
                hi = x3(1 - cz, cz)
                assert agrees(lo, hi, 34), czs

    def test_kernels_at_zero(self):
        for upper, lower in [((1, 1), (2,)), (("1/2", "1/2"), (1,))]:
            k = series_kernel(upper, lower)
            with mp.workdps(30):
                assert k(mp.mpf(0), mp.mpf(1)) == 1

    def test_parameter_order_is_irrelevant(self):
        assert series_kernel((1, "1/2"), ("3/2",)) is series_kernel(("1/2", 1), ("3/2",))

    def test_unknown_parameters_raise(self):
        with pytest.raises(DomainError):
            series_kernel((1, 2), (3,))

    @pytest.mark.parametrize("z,cz", [(1, 0), (2, -1)], ids=["z=1", "z=2"])
    @pytest.mark.parametrize(
        "upper,lower",
        [((1, 1), (2,)), (("1/2", 1), ("3/2",)), (("1/2", "1/2"), (1,)),
         ((1, 1, 1), ("3/2", "3/2"))],
        ids=["log", "atanh", "agm", "treble"],
    )
    def test_kernels_reject_z_at_or_past_one(self, upper, lower, z, cz):
        k = series_kernel(upper, lower)
        with mp.workdps(30):
            with pytest.raises(DomainError):
                k(mp.mpf(z), mp.mpf(cz))


class TestAgmLimit:
    @pytest.mark.parametrize("dps", (20, 50, 100))
    def test_sweep_down_to_the_cut(self, dps):
        # every binary and decimal order of y/x above the far-apart cut,
        # where working bits that did not grow with log2(x/y) would be lost
        with mp.workdps(dps):
            cut = mp.ldexp(1, -(mp.mp.prec // 2 + 8))
            ys = [mp.ldexp(1, -j) for j in range(mp.mp.prec // 2 + 9)]
            ys += [mp.mpf(10) ** -k for k in range(int(-mp.log10(cut)) + 1)]
            ys += [mp.mpf("0.9"), mp.mpf("0.99"), 3 * cut]
            for y in ys:
                assert y >= cut
                got = _agm_ambient(mp.mpf(1), y)
                want = mp.agm(1, y)
                ulp = mp.ldexp(1, mp.mag(want) - mp.mp.prec)
                assert abs(got - want) <= 2 * ulp, y

    @pytest.mark.parametrize("dps", (25, 35, 65, 115))
    def test_within_two_ulps_of_mpmath(self, dps):
        with mp.workdps(dps):
            # on both sides of the switch to the limit, far below it, and
            # far enough above it that switching there would show
            cut = mp.ldexp(1, -(mp.mp.prec // 2 + 8))
            for y in (cut * (1 + mp.eps * 2**20), cut * (1 - mp.eps * 2**20),
                      cut**2, mp.ldexp(1, -10**6), mp.ldexp(cut, mp.mp.prec // 4)):
                got = _agm_ambient(mp.mpf(1), y)
                want = mp.agm(1, y)
                ulp = mp.ldexp(1, mp.mag(want) - mp.mp.prec)
                assert abs(got - want) <= 2 * ulp, y
