"""Double hypergeometric series: margins, the three strategies, honesty."""

import warnings
from fractions import Fraction

import mpmath as mp
import pytest

from conftest import agrees
from thetal.context import DomainError, NumericsError, PrecisionContext
from thetal.hyper import KDF_STRATEGIES, KdFSpec, PFQSpec, kdf_converges, kdf_full, pfq
from thetal.lvalues import KDF_SPECS

# the six parameter sets the weight-3/weight-4 reductions produce, with
# values frozen from the integral route (thm11_1 independently = 3 pi log 2)
THEOREM_SPECS = {
    "thm11_1": (
        KdFSpec(a=(2,), c=("5/2",), b=(1, 1), d=(2,), bp=("1/2", "1/2"), dp=(1,)),
        ("1/2", "1/2", "1/2"),
        "6.53275827091080639150207",
    ),
    "thm11_2": (
        KdFSpec(a=("3/2",), c=(2,), b=("1/2", 1), d=("3/2",), bp=("1/2", "1/2"), dp=(1,)),
        ("1/2", "1/2", "1/2"),
        "3.98038283654388154342104",
    ),
    "thm12_1a": (
        KdFSpec(a=("1/2",), c=("3/2",), b=(1, 1, 1), d=("3/2", "3/2"), bp=("1/2", "1/2"), dp=(1,)),
        ("1", "1", "1"),
        "1.67389035195220349249579",
    ),
    "thm12_1b": (
        KdFSpec(a=("3/2",), c=("5/2",), b=(1, 1, 1), d=("3/2", "3/2"), bp=("1/2", "1/2"), dp=(1,)),
        ("1", "1", "1"),
        "2.53330880910637650640329",
    ),
    "thm12_2a": (
        KdFSpec(a=("1/2",), c=(1,), b=(1, 1, 1), d=("3/2", "3/2"), bp=("1/2", "1/2"), dp=(1,)),
        ("1/2", "1/2", "1/2"),
        "3.22782863466334880818832",
    ),
    "thm12_2b": (
        KdFSpec(a=("1/2",), c=(2,), b=(1, 1, 1), d=("3/2", "3/2"), bp=("1/2", "1/2"), dp=(1,)),
        ("3/2", "3/2", "3/2"),
        "1.36412822447942319039914",
    ),
}


@pytest.fixture(scope="module")
def ctx():
    return PrecisionContext(digits=25)


@pytest.fixture(scope="module")
def references(ctx):
    """Integral-route values for all six specs, computed once."""
    out = {}
    for name, (spec, _, _) in THEOREM_SPECS.items():
        out[name] = kdf_full(spec, 1, 1, "integral_reduction", ctx)
    return out


def swapped(spec):
    """The mirror spec: (b,d,x) duties exchanged with (bp,dp,y)."""
    return KdFSpec(a=spec.a, c=spec.c, b=spec.bp, d=spec.dp, bp=spec.b, dp=spec.d)


def brute_double_sum(spec, x, y, terms=250):
    """Direct mpf double sum; only usable well inside the bidisk."""
    def shift(params, k):
        acc = mp.mpf(1)
        for p in params:
            acc *= mp.mpf(p.numerator) / p.denominator + k
        return acc

    xq, yq = Fraction(x), Fraction(y)
    xv = mp.mpf(xq.numerator) / xq.denominator
    yv = mp.mpf(yq.numerator) / yq.denominator
    total = mp.mpf(0)
    for m in range(terms):
        w = mp.mpf(1)
        for k in range(m):
            w *= shift(spec.a, k) * shift(spec.b, k) * xv
            w /= shift(spec.c, k) * shift(spec.d, k) * (k + 1)
        inner = mp.mpf(0)
        t = w
        for n in range(terms):
            inner += t
            t *= shift(spec.a, m + n) * shift(spec.bp, n) * yv
            t /= shift(spec.c, m + n) * shift(spec.dp, n) * (n + 1)
        total += inner
    return total


class TestSpecAndMargins:
    def test_margin_table(self):
        for name, (spec, margins, _) in THEOREM_SPECS.items():
            rep = kdf_converges(spec)
            assert rep.margins == tuple(Fraction(m) for m in margins), name
            assert rep.convergent_at_unit

    def test_margins_are_exact_rationals(self):
        rep = kdf_converges(THEOREM_SPECS["thm11_1"][0])
        assert all(isinstance(m, Fraction) for m in rep.margins)

    def test_divergent_spec_detected(self):
        bad = KdFSpec(a=(1,), c=(1,), b=(1, 1), d=(1,), bp=(1,), dp=(2,))
        rep = kdf_converges(bad)
        assert rep.margins[0] == -1
        assert not rep.convergent_at_unit
        for strategy in KDF_STRATEGIES:
            with pytest.raises(DomainError):
                kdf_full(bad, 1, 1, strategy, PrecisionContext(digits=10))

    def test_validation(self):
        with pytest.raises(DomainError):
            KdFSpec(a=(1,), c=(0,), b=(1,), d=(1,), bp=(1,), dp=(1,))
        with pytest.raises(DomainError):
            KdFSpec(a=(1,), c=(2,), b=(1,), d=(-1,), bp=(1,), dp=(1,))

    def test_swapped_round_trip(self):
        spec = THEOREM_SPECS["thm11_2"][0]
        assert swapped(swapped(spec)) == spec


class TestStrategies:
    def test_integral_route_matches_frozen_values(self, ctx, references):
        for name, (_, _, frozen) in THEOREM_SPECS.items():
            ref = references[name]
            with ctx.working():
                assert agrees(ref.value, mp.mpf(frozen), 20), name

    def test_first_spec_is_three_pi_log_two(self, references):
        with mp.workdps(35):
            want = 3 * mp.pi * mp.log(2)
            assert agrees(references["thm11_1"].value, want, 24)

    def test_iterated_agrees_with_reference(self, references):
        ctx = PrecisionContext(digits=20)
        for name, (spec, _, _) in THEOREM_SPECS.items():
            r = kdf_full(spec, 1, 1, "iterated", ctx)
            err = abs(r.value - references[name].value)
            # the acceptance bar is 6 digits; these run well past it
            assert err <= mp.mpf("1e-6") * abs(references[name].value), name
            assert err <= r.error_estimate, name

    def test_double_truncate_bound_is_honest(self, references):
        ctx = PrecisionContext(digits=20)
        for name, (spec, _, _) in THEOREM_SPECS.items():
            r = kdf_full(spec, 1, 1, "double_truncate", ctx)
            err = abs(r.value - references[name].value)
            assert err <= r.error_estimate, name
            # and the bound is a bound, not an abdication
            assert r.error_estimate <= mp.mpf("0.5") * abs(references[name].value), name

    def test_strategies_agree_inside_bidisk(self, ctx):
        spec = THEOREM_SPECS["thm11_1"][0]
        pts = [("1/2", "1/3"), ("9/10", "9/10"), ("1/2", 1), (1, "1/2")]
        for x, y in pts:
            ref = kdf_full(spec, x, y, "integral_reduction", ctx)
            it = kdf_full(spec, x, y, "iterated", PrecisionContext(digits=20))
            dt = kdf_full(spec, x, y, "double_truncate", PrecisionContext(digits=20))
            assert abs(it.value - ref.value) <= it.error_estimate, (x, y)
            assert abs(dt.value - ref.value) <= dt.error_estimate, (x, y)

    def test_against_brute_double_sum(self, ctx):
        spec = THEOREM_SPECS["thm11_1"][0]
        with ctx.working():
            want = brute_double_sum(spec, "1/3", "1/4")
            got = kdf_full(spec, "1/3", "1/4", "integral_reduction", ctx).value
            assert agrees(got, want, 20)

    def test_result_shape(self, ctx):
        r = kdf_full(THEOREM_SPECS["thm11_1"][0], "1/2", "1/2", "iterated",
                     PrecisionContext(digits=15))
        assert r.error_estimate >= 0


class TestSymmetryAndDegeneration:
    def test_swap_symmetry(self, ctx):
        spec = THEOREM_SPECS["thm11_1"][0]
        for x, y in [("3/4", 1), ("2/5", "1/2"), (1, 1)]:
            v1 = kdf_full(spec, x, y, "integral_reduction", ctx).value
            v2 = kdf_full(swapped(spec), y, x, "integral_reduction", ctx).value
            assert agrees(v1, v2, 22), (x, y)

    def test_y_zero_reduces_to_single_series(self, ctx):
        spec = THEOREM_SPECS["thm11_1"][0]
        got = kdf_full(spec, "1/2", 0, "iterated", ctx).value
        want = pfq(PFQSpec(upper=(2, 1, 1), lower=("5/2", 2)), "1/2", ctx).value
        assert agrees(got, want, 24)

    def test_x_zero_reduces_to_single_series(self, ctx):
        spec = THEOREM_SPECS["thm11_1"][0]
        got = kdf_full(spec, 0, "1/2", "integral_reduction", ctx).value
        want = pfq(PFQSpec(upper=(2, "1/2", "1/2"), lower=("5/2", 1)), "1/2", ctx).value
        assert agrees(got, want, 24)

    @pytest.mark.parametrize("name", sorted(KDF_SPECS))
    def test_axis_estimates_cover_the_error(self, name):
        # on an axis the value is one pFq, with the estimate that pfq
        # reports: its tail bound, not the working precision
        ctx, hot = PrecisionContext(digits=20), PrecisionContext(digits=50)
        for x, y in [(1, 0), (0, 1), ("1/2", 0)]:
            r = kdf_full(KDF_SPECS[name], x, y, "integral_reduction", ctx)
            ref = kdf_full(KDF_SPECS[name], x, y, "integral_reduction", hot).value
            with hot.working():
                assert abs(r.value - ref) <= r.error_estimate, (x, y)

    def test_origin_is_one(self, ctx):
        r = kdf_full(THEOREM_SPECS["thm11_2"][0], 0, 0, "double_truncate", ctx)
        assert r.value == 1


class TestDomain:
    def test_arguments_outside_square(self, ctx):
        spec = THEOREM_SPECS["thm11_1"][0]
        with pytest.raises(DomainError):
            kdf_full(spec, "3/2", 1, "iterated", ctx)
        with pytest.raises(DomainError):
            kdf_full(spec, 1, "-1/10", "iterated", ctx)

    def test_unknown_strategy(self, ctx):
        with pytest.raises(DomainError):
            kdf_full(THEOREM_SPECS["thm11_1"][0], 1, 1, "magic", ctx)

    def test_coupled_pair_requirement(self, ctx):
        wide = KdFSpec(a=(1, 1), c=(2, "3/2"), b=(1,), d=("3/2",), bp=(1,), dp=("3/2",))
        with pytest.raises(DomainError):
            kdf_full(wide, "1/2", "1/2", "integral_reduction", ctx)
        with pytest.raises(DomainError):
            kdf_full(wide, "1/2", "1/2", "iterated", ctx)

    def test_double_truncate_takes_wide_groups(self, ctx):
        # the truncation strategy has no coupled-pair restriction
        wide = KdFSpec(a=(1, 1), c=(2, "3/2"), b=(1,), d=("3/2",), bp=(1,), dp=("3/2",))
        r = kdf_full(wide, "1/3", "1/4", "double_truncate", PrecisionContext(digits=15))
        with ctx.working():
            want = brute_double_sum(wide, "1/3", "1/4", terms=200)
        assert abs(r.value - want) <= r.error_estimate + mp.mpf("1e-12")


# margins (1/2, 0, 0): x = 1 converges, y = 1 does not
EDGE = KdFSpec(a=(2,), c=("5/2",), b=(1, 1), d=(2,), bp=("1/2", "1/2"), dp=("1/2",))
# thm11_1 with d = (1,): margins (-1/2, 1/2, -1/2), so x = 1 diverges
X_DIVERGENT = KdFSpec(a=(2,), c=("5/2",), b=(1, 1), d=(1,), bp=("1/2", "1/2"), dp=(1,))


class TestBoundaryRule:
    """kdf_full alone decides the domain: x = 1 needs m1 > 0, y = 1 needs
    m2 > 0, whatever the other argument, and every strategy obeys it."""

    @pytest.mark.parametrize("strategy", KDF_STRATEGIES)
    def test_each_edge_needs_its_margin(self, strategy):
        ctx = PrecisionContext(digits=15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                kdf_full(EDGE, "1/2", 1, strategy, ctx)
            with pytest.raises(DomainError):
                kdf_full(X_DIVERGENT, 1, "1/2", strategy, ctx)

    def test_convergent_edge_with_a_zero_margin_elsewhere(self):
        # m1 = 1/2 carries x = 1; m2 = 0 does not matter while y < 1
        ctx = PrecisionContext(digits=20)
        it = kdf_full(EDGE, 1, "1/2", "iterated", ctx)
        dt = kdf_full(EDGE, 1, "1/2", "double_truncate", ctx)
        assert abs(it.value - dt.value) <= it.error_estimate + dt.error_estimate

    def test_underflowed_row_weight_is_not_nan(self):
        # 1/(1 - x - y) at (1/2, 2/5): rows past m ~ 1075 have weight 2^-m = 0
        # in float64 while their ratio products overflow
        spec = KdFSpec(a=(1, 1), c=(1,), b=(1,), d=(1,), bp=(1,), dp=(1,))
        r = kdf_full(spec, "1/2", "2/5", "double_truncate", PrecisionContext(digits=20))
        assert abs(r.value - 10) <= r.error_estimate

    @pytest.mark.parametrize("y,max_terms,want", [
        ("9/20", 4096, 20),
        ("49/100", PrecisionContext().max_terms, 100),
    ])
    def test_tail_follows_the_observed_decay(self, y, max_terms, want):
        # the rows of 1/(1 - x - y) shrink like (x/(1-y))^m, not x^m: a tail
        # taken at ratio x printed 19.949 +- 0.0152 and 99.999999943 +- 1e-10
        spec = KdFSpec(a=(1, 1), c=(1,), b=(1,), d=(1,), bp=(1,), dp=(1,))
        ctx = PrecisionContext(digits=20, max_terms=max_terms)
        r = kdf_full(spec, "1/2", y, "double_truncate", ctx)
        assert abs(r.value - want) <= r.error_estimate

    def test_a_ratio_of_one_has_no_estimate(self):
        # in a 64 x 64 square of 1/(1 - x - y) at (1/2, 49/100) the full rows
        # still grow, so no geometric tail bounds what is left
        spec = KdFSpec(a=(1, 1), c=(1,), b=(1,), d=(1,), bp=(1,), dp=(1,))
        ctx = PrecisionContext(digits=20, max_terms=4096)
        with pytest.raises(NumericsError, match="estimate is not finite"):
            kdf_full(spec, "1/2", "49/100", "double_truncate", ctx)

    @pytest.mark.parametrize("x,y", [("1/3", "11/20"), ("11/20", "1/3")])
    def test_subnormal_terms_do_not_fake_a_slow_decay(self, x, y):
        # at (1/3, 11/20) row 0's terms, and at (11/20, 1/3) the row weights,
        # fall to 5e-324, where a step ratio in (1/2, 1) rounds back to
        # 5e-324: a quotient of two such terms reads exactly 1
        spec = THEOREM_SPECS["thm11_1"][0]
        ctx = PrecisionContext(digits=20)
        ref = kdf_full(spec, x, y, "integral_reduction", ctx)
        dt = kdf_full(spec, x, y, "double_truncate", ctx)
        assert abs(dt.value - ref.value) <= dt.error_estimate

    @pytest.mark.parametrize("spec", [
        # sums to 1/(1 - x - y), divergent on x + y = 1
        KdFSpec(a=(1, 1), c=(1,), b=(1,), d=(1,), bp=(1,), dp=(1,)),
        KdFSpec(a=(1, 1), c=(2,), b=(1, 1), d=(2,), bp=(1,), dp=(2,)),
    ])
    def test_overflow_inside_the_square_is_an_error(self, spec):
        # more upper than lower coupled parameters: the margins say nothing
        # about (1/2, 1/2), and the rule on the parameter counts rejects it
        ctx = PrecisionContext(digits=15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError):
                kdf_full(spec, "1/2", "1/2", "double_truncate", ctx)
