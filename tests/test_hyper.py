"""Single-series hypergeometrics: summation routes, kernels, classification."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import agrees
from thetal.context import BudgetError, DomainError, PrecisionContext
from thetal.hyper import (
    PFQSpec,
    euler_2f1,
    pfq,
    pfq_converges,
    pfq_excess,
    _agm_ambient,
    pfq_term,
    series_kernel,
)
from thetal.lvalues import LF4_POS1, LF4_POS3, SAMART_5F4


@pytest.fixture(scope="module")
def ctx():
    return PrecisionContext(digits=25)


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

    def test_terminating_is_polynomial_anywhere(self):
        s = PFQSpec(upper=(-3, 1), lower=(2,))
        assert s.terminating
        assert pfq_converges(s, 5) == "interior"


class TestPfqInterior:
    def test_gauss_log_value(self, ctx):
        got = pfq(PFQSpec(upper=(1, 1), lower=(2,)), "1/2", ctx)
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
                assert agrees(pfq(spec, z, ctx), want, 25)

    def test_terminating_sum(self, ctx):
        # 2F1(-2, 1; 3; 1) = 1 - 2/3 + 1/6 = 1/2... direct Pochhammer check
        spec = PFQSpec(upper=(-2, 1), lower=(3,))
        got = pfq(spec, 1, ctx)
        with ctx.working():
            want = sum(pfq_term(spec, n, mp.mpf(1), ctx) for n in range(3))
        assert agrees(got, want, 25)

    def test_argument_domain(self, ctx):
        spec = PFQSpec(upper=(1, 1), lower=(2,))
        with pytest.raises(DomainError):
            pfq(spec, "11/10", ctx)
        with pytest.raises(DomainError):
            pfq(spec, -2, ctx)


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
        got = pfq(PFQSpec(upper=("1/2", "1/2"), lower=("3/2",)), 1, ctx)
        with mp.workdps(35):
            assert agrees(got, mp.pi / 2, 25)

    @pytest.mark.parametrize("digits", (20, 50, 100))
    @pytest.mark.parametrize(
        "spec,exact",
        UNIT_VALUES.values(),
        ids=UNIT_VALUES.keys(),
    )
    def test_unit_tail_against_exact(self, spec, exact, digits):
        got = pfq(spec, 1, PrecisionContext(digits=digits))
        with mp.workdps(digits + 20):
            want = exact()
            assert abs(got - want) <= mp.mpf(10) ** -(digits + 2) * abs(want)

    def test_samart_5f4_at_one(self):
        # mpmath's own z = 1 summation costs seconds, so one hot value
        # judges both precisions
        with mp.workdps(55):
            want = mp.hyper([mp.mpf(3) / 2] * 3 + [1, 1], [2] * 4, 1)
        for digits in (20, 50):
            got = pfq(SAMART_5F4, 1, PrecisionContext(digits=digits))
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

    def test_divergent_at_one_raises(self, ctx):
        with pytest.raises(DomainError):
            pfq(PFQSpec(upper=(1, 1, 1), lower=("3/2", "3/2")), 1, ctx)

    def test_alternating_beta4(self, ctx):
        # 5F4((1/2)^4,1; (3/2)^4; -1) = sum (-1)^k/(2k+1)^4
        s = PFQSpec(upper=["1/2"] * 4 + [1], lower=["3/2"] * 4)
        got = pfq(s, -1, ctx)
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


@given(
    n=st.integers(min_value=0, max_value=9),
    num=st.integers(min_value=1, max_value=5),
    den=st.sampled_from([1, 2, 3, 4]),
)
@settings(max_examples=25, deadline=None)
def test_term_recurrence_matches_pochhammer_quotient(n, num, den):
    """t_{n+1}/t_n must equal the running ratio the summers multiply by."""
    a = Fraction(num, den)
    spec = PFQSpec(upper=(a, 1), lower=(a + 2,))
    ctx = PrecisionContext(digits=20)
    z = Fraction(1, 3)
    with ctx.working():
        t0 = pfq_term(spec, n, z, ctx)
        t1 = pfq_term(spec, n + 1, z, ctx)
        ratio = mp.mpf(1)
        for u in spec.upper:
            ratio *= mp.mpf(u.numerator) / u.denominator + n
        for l in spec.lower:
            ratio /= mp.mpf(l.numerator) / l.denominator + n
        ratio *= mp.mpf(z.numerator) / z.denominator / (n + 1)
        assert abs(t1 - t0 * ratio) <= abs(t0) * mp.mpf(10) ** -25


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
            v_int = euler_2f1(a, b, c, z, ctx)
            v_ser = pfq(PFQSpec(upper=(a, b), lower=(c,)), z, ctx)
            assert agrees(v_int, v_ser, 23), (a, b, c, z)

    def test_at_unit_argument(self, ctx):
        # c - a - b = 1/2 on the nose
        v_int = euler_2f1("1/2", "1/2", "3/2", 1, ctx)
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
            for zs in ("-0.5", "0.001", "0.3", "0.55", "0.9", "0.999"):
                z = mp.mpf(zs)
                cz = 1 - z
                assert agrees(k1(z, cz), mp.hyp2f1(1, 1, 2, z), 30)
                assert agrees(k2(z, cz), mp.hyp2f1(half, 1, 3 * half, z), 30)
                assert agrees(k3(z, cz), mp.hyp2f1(half, half, 1, z), 30)

    def test_treble_kernel_both_branches(self):
        x3 = series_kernel((1, 1, 1), ("3/2", "3/2"))
        with mp.workdps(35):
            h = mp.mpf(3) / 2
            for zs in ("0.1", "0.54", "0.56", "0.75", "0.95", "0.9999"):
                z = mp.mpf(zs)
                want = mp.hyp3f2(1, 1, 1, h, h, z)
                assert agrees(x3(z, 1 - z), want, 33), zs

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
