"""L-value routes: each against an independent oracle, then against each other."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import agrees
from thetal import lvalues
from thetal.context import BudgetError, DomainError, Estimate, PrecisionContext, as_real
from thetal.context import noise_floor
from thetal.hyper import kdf_converges, kdf_full
from thetal.lvalues import (
    FORMS,
    KDF_RHS_IDS,
    KDF_SPECS,
    L_VALUE_METHODS,
    ROUTE_IDS,
    alpha_integral,
    closed_form,
    dirichlet_sum,
    kdf_theorem_rhs,
    l_chi4,
    l_psi,
    l_value,
    lambert_closed,
    mellin,
    q_integral,
)
from thetal.theta import coeffs_convolution, lambert_series, theta_involution

# L(g, 4) has no closed form; this reference came from the alpha-parameter
# integral and the Mellin transform at 45-digit precision, which agreed to
# 61 digits before the freeze.
G4_REF = "0.9918205690527762024476371274872003403681"


@pytest.fixture(scope="module")
def ctx():
    return PrecisionContext(digits=20)


@pytest.fixture(scope="module")
def g3_hot():
    # Mellin of g at 70 digits, a route independent of the 5F4 closed form
    return mellin("g", 3, PrecisionContext(digits=70)).value


def oracles():
    # L(f,4)'s closed form vouches for ~63 digits at 50, so its zeta oracle
    # runs at 80; mpmath's own 5F4 at z = 1 costs seconds past 55
    with mp.workdps(80):
        truth = {
            ("f", 3): mp.pi**3 * mp.log(2) / 32,
            ("f", 4): mp.pi**2
            / 12
            * (mp.zeta(4, mp.mpf(1) / 4) - mp.zeta(4, mp.mpf(3) / 4))
            / 256,
        }
    with mp.workdps(55):
        truth["g", 3] = mp.pi**3 / 1024 * (
            48 * mp.log(2) - mp.hyper(["3/2", "3/2", "3/2", 1, 1], [2, 2, 2, 2], 1)
        )
        truth["g", 4] = mp.mpf(G4_REF)
    return truth


TRUTH = oracles()

RHS_TO_PAIR = {
    "thm11_1": ("f", 3),
    "thm11_2": ("g", 3),
    "thm12_1": ("f", 4),
    "thm12_2": ("g", 4),
}

QID_TO_PAIR = {
    "prop21_1": ("f", 3),
    "prop21_2": ("g", 3),
    "prop31_1": ("f", 4),
    "prop31_2": ("g", 4),
}


class TestDirichletBlocks:
    def test_chi4_closed_values(self, ctx):
        with mp.workdps(40):
            assert agrees(l_chi4(3, ctx).value, mp.pi**3 / 32, 30)
            assert agrees(l_chi4(1, ctx).value, mp.pi / 4, 30)
            assert agrees(l_chi4(2, ctx).value, mp.catalan, 30)

    def test_chi4_at_4_frozen(self, ctx):
        with mp.workdps(35):
            ref = mp.mpf("0.9889445517411053361084226")
        assert agrees(l_chi4(4, ctx).value, ref, 24)

    def test_psi_closed_values(self, ctx):
        with mp.workdps(40):
            assert agrees(l_psi(1, ctx).value, mp.log(2), 30)
            assert agrees(l_psi(2, ctx).value, mp.pi**2 / 12, 30)
            assert agrees(l_psi(3, ctx).value, mp.mpf(3) / 4 * mp.zeta(3), 30)

    def test_domain(self, ctx):
        with pytest.raises(DomainError):
            l_chi4(0, ctx)
        with pytest.raises(DomainError):
            l_chi4(-2, ctx)
        with pytest.raises(DomainError):
            l_psi("1/2", ctx)

    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=0.25, max_value=12))
    def test_chi4_partial_sum_bracket(self, s):
        # alternating decreasing terms bracket the limit between consecutive
        # partial sums: 1 - 3^-s < value < 1
        ctx = PrecisionContext(digits=15)
        v = l_chi4(s, ctx).value
        with mp.workdps(25):
            lo = 1 - mp.mpf(3) ** (-mp.mpf(s))
            assert lo < v < 1

    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=1.0, max_value=12))
    def test_psi_partial_sum_bracket(self, s):
        ctx = PrecisionContext(digits=15)
        v = l_psi(s, ctx).value
        with mp.workdps(25):
            sv = mp.mpf(s)
            assert 1 - mp.mpf(2) ** (-sv) < v < 1 - mp.mpf(2) ** (-sv) + mp.mpf(3) ** (-sv)


class TestKdfRhs:
    def test_table_shape(self):
        assert set(KDF_RHS_IDS) == set(RHS_TO_PAIR)
        assert len(KDF_SPECS) == 6
        for spec in KDF_SPECS.values():
            report = kdf_converges(spec)
            assert report.convergent_at_unit
            assert min(report.margins) >= Fraction(1, 2)

    def test_unknown_id(self, ctx):
        with pytest.raises(DomainError):
            kdf_theorem_rhs("thm99", ctx)

    @pytest.mark.parametrize("rhs_id", KDF_RHS_IDS)
    def test_rhs_matches_lvalue(self, rhs_id, ctx):
        v, e, _ = kdf_theorem_rhs(rhs_id, ctx)
        truth = TRUTH[RHS_TO_PAIR[rhs_id]]
        assert abs(v - truth) <= e + abs(truth) * mp.mpf("1e-20")
        assert agrees(v, truth, 20)

    def test_other_strategy_passthrough(self, ctx):
        # at the (1, 1) corner the truncated square converges like N**-0.5,
        # so this route is progress-bar coarse; what matters is honesty
        v, e, _ = kdf_theorem_rhs("thm11_1", ctx, strategy="double_truncate")
        assert abs(v - TRUTH["f", 3]) <= e
        assert e < abs(v)


class TestAlphaIntegrals:
    @pytest.mark.parametrize("rhs_id", KDF_RHS_IDS)
    def test_against_oracles(self, rhs_id, ctx):
        v, e, used = alpha_integral(rhs_id, ctx)
        truth = TRUTH[RHS_TO_PAIR[rhs_id]]
        assert abs(v - truth) <= e + abs(truth) * mp.mpf("1e-20")
        assert agrees(v, truth, 20)
        assert used > 50
        assert e > 0

    def test_unknown_id(self, ctx):
        with pytest.raises(DomainError):
            alpha_integral("prop21_1", ctx)


class TestQIntegrals:
    @pytest.mark.parametrize("q_id", sorted(QID_TO_PAIR))
    def test_against_oracles(self, q_id, ctx):
        v, e, used = q_integral(q_id, ctx)
        truth = TRUTH[QID_TO_PAIR[q_id]]
        assert abs(v - truth) <= e + abs(truth) * mp.mpf("1e-20")
        # the route delivers the digits it was asked for
        assert agrees(v, truth, 18)
        assert used > 100

    def test_full_precision_at_40_digits(self):
        # the route runs at the requested precision and says so
        v, e, _ = q_integral("prop21_1", PrecisionContext(digits=40))
        assert agrees(v, TRUTH["f", 3], 38)
        assert e <= abs(TRUTH["f", 3]) * mp.mpf("1e-38")

    def test_unknown_id(self, ctx):
        with pytest.raises(DomainError):
            q_integral("thm11_1", ctx)

    @pytest.mark.parametrize("name", ["lemma22_1", "lemma22_2", "ram_lhs"])
    def test_lambert_switch_seam(self, name):
        # the two evaluation branches must agree across the cut at q = 0.3
        ctx = PrecisionContext(digits=25)
        with ctx.working():
            for q in (mp.mpf("0.29"), mp.mpf("0.31"), mp.mpf("0.55")):
                u = -mp.log(q) / mp.pi
                t2, t3, t4 = theta_involution(u, (2, 3, 4), ctx)
                near = lambert_closed(name, (t2 / t3) ** 4, (t4 / t3) ** 4)
                direct = lambert_series(name, q, ctx)
                assert agrees(near, direct, 22)


class TestLemma22:
    """Lemma 2.2's sums at a half-period node, elementary in its thetas."""

    @pytest.mark.parametrize("digits", [20, 50])
    def test_against_lambert_series(self, digits):
        # the raw series 40 digits hotter, at the nome of the rounded u
        ctx, hot = PrecisionContext(digits=digits), PrecisionContext(digits=digits + 40)
        for qs in ("1e-60", "1e-30", "1e-5", "e-pi", "0.29", "0.6", "0.9"):
            with ctx.working():
                u = mp.mpf(1) if qs == "e-pi" else -mp.log(mp.mpf(qs)) / mp.pi
                got = lvalues._lemma22(u, *theta_involution(u, (2, 3, 4), ctx))
            with hot.working():
                q = mp.exp(-mp.pi * u)
                want = [lambert_series(n, q, hot) for n in ("lemma22_1", "lemma22_2")]
                for g, w in zip(got, want):
                    assert abs(g - w) <= abs(w) * mp.mpf(10) ** (3 - ctx.workdigits), qs

    def test_weight3_passes_read_no_kernel_or_lambert_sum(self):
        # lone prop21_* passes, profiled with nothing patched: their route
        # shares no hypergeometric kernel with the alpha-space integral
        ctx = PrecisionContext(digits=20)
        lvalues._u_pass.cache_clear()
        entered = set()

        def hook(frame, event, arg):
            if event == "call":
                entered.add((frame.f_globals.get("__name__"), frame.f_code.co_name))

        for q_id in ("prop21_1", "prop21_2"):
            sys.setprofile(hook)
            try:
                lvalues._u_pass(ctx, 1, (q_id,))
            finally:
                sys.setprofile(None)
        assert ("thetal.lvalues", "_lemma22") in entered
        assert not [f for f in entered if f[0] == "thetal.hyper"]
        assert ("thetal.theta", "lambert_series") not in entered


class TestStream:
    """One tanh-sinh stream serves both halves of the half-period pass."""

    def test_one_theta_sum_per_node_and_no_exp_for_a_theta(self):
        # a default pass profiled with nothing patched: at U = 1 the upper
        # nome and the lower half's involuted nome are one, and both exact
        ctx = PrecisionContext(digits=20)
        lvalues._u_pass.cache_clear()
        seen = {"nodes": 0, "sums": 0, "theta exps": 0}

        def hook(frame, event, arg):
            if event != "call":
                return
            module, name = frame.f_globals.get("__name__"), frame.f_code.co_name
            if (module, name) == ("thetal.lvalues", "stream"):
                seen["nodes"] += 1
            elif (module, name) == ("thetal.theta", "_theta_sums"):
                seen["sums"] += 1
            elif name == "mpf_exp":
                caller = frame.f_back
                while not caller.f_globals.get("__name__", "").startswith("thetal"):
                    caller = caller.f_back
                seen["theta exps"] += caller.f_globals["__name__"] == "thetal.theta"

        sys.setprofile(hook)
        try:
            shared = lvalues._u_pass(ctx, 1, lvalues._PASS_MEMBERS)
        finally:
            sys.setprofile(None)
        assert seen["theta exps"] == 0
        assert seen["sums"] == seen["nodes"] > 0
        assert {res.effort for res in shared.values()} == {2 * seen["nodes"]}


class TestDoublingForms:
    # the nome weights and g's Mellin product built from the thetas at u
    # alone, against the same quantities from the thetas at 2u and 4u, on
    # both sides of the involution u -> 1/u
    @pytest.mark.parametrize("digits", [20, 50, 100])
    def test_against_thetas_at_2u_and_4u(self, digits):
        ctx = PrecisionContext(digits=digits)
        with ctx.working():
            tol = mp.ldexp(1, 8 - mp.mp.prec)
            for us in ("0.05", "0.3", "0.99", "1", "1.7", "8"):
                u = mp.mpf(us)
                t2, t3, t4 = theta_involution(u, (2, 3, 4), ctx)
                t4_2u = theta_involution(2 * u, 4, ctx)
                t4_4u = theta_involution(4 * u, 4, ctx)
                pairs = (
                    (lvalues._theta_weight("wt4_f", t2, t3, t4), 2 * t4_2u**8 - t4**8),
                    (lvalues._theta_weight("wt4_g", t2, t3, t4),
                     2 * t4_4u**8 - t4_2u**8),
                    (lvalues._theta_weight("g", t2, t3, t4), t2**4 * t4_2u**2 / 16),
                )
                for new, old in pairs:
                    assert abs(new - old) <= tol * abs(old), us


class TestThetaWeights:
    # every tag against its mpf formula on the same thetas, 40 bits hotter;
    # the small theta (theta4 below u = 1, theta2 above) enters as the exact
    # power of its mantissa: 1.4e-6 at u = 0.05 and 3.0e-7 at 20, and far
    # below 2^-wp at 0.005 and 200 (1.7e-67, 1.2e-68)
    FORMULAS = {
        "wt3": lambda t2, t3, t4: t2**4 * t4**2,
        "wt4_f": lambda t2, t3, t4: t4**4 * (2 * t3**4 - t4**4),
        "wt4_g": lambda t2, t3, t4: (t3 * t4) ** 2 * (t3**4 + t4**4) / 2,
        "f": lambda t2, t3, t4: t2**4 * t4**2 / 16,
        "g": lambda t2, t3, t4: t2**4 * t4 * t3 / 16,
    }

    @pytest.mark.parametrize("digits", [20, 50, 100])
    def test_against_mpf_formulas(self, digits):
        ctx = PrecisionContext(digits=digits)
        tags = tuple(self.FORMULAS)
        for us in ("0.005", "0.05", "0.3", "0.99", "1", "1.7", "8", "20", "200"):
            thetas = theta_involution(us, (2, 3, 4), ctx)
            with ctx.working():
                prec = mp.mp.prec
                tol = mp.ldexp(1, 8 - prec)
                jac = mp.mpf(us) / 3
                joint = lvalues._theta_weight(tags, *thetas)
                scaled = lvalues._theta_weight(tags, *thetas, jac)
                for tag, value, times in zip(tags, joint, scaled):
                    assert value._mpf_ == lvalues._theta_weight(tag, *thetas)._mpf_
                    with mp.workprec(prec + 40):
                        want = self.FORMULAS[tag](*thetas)
                        assert abs(value - want) <= tol * want, (us, tag)
                        assert abs(times - want * jac) <= tol * want * jac, (us, tag)


class TestMellin:
    @pytest.mark.parametrize("form,n", [("f", 3), ("g", 3), ("f", 4), ("g", 4)])
    def test_against_oracles(self, form, n, ctx):
        v, e, used = mellin(form, n, ctx)
        truth = TRUTH[form, n]
        assert abs(v - truth) <= e + abs(truth) * mp.mpf("1e-20")
        assert agrees(v, truth, 20)
        assert used > 200

    def test_split_invariance(self, ctx):
        base, be, _ = mellin("f", 3, ctx)
        for split in ("pi/2", "2pi"):
            with ctx.working():
                sp = mp.pi / 2 if split == "pi/2" else 2 * mp.pi
            v, e, _ = mellin("f", 3, ctx, split=sp)
            assert abs(v - base) <= max(e, be)

    def test_split_takes_mpmath_constants(self, ctx):
        # as_real evaluates a constant at the working precision, and a cut
        # at pi is U = 1, the default pass's cut: the same value bit for bit
        with ctx.working():
            assert as_real(mp.pi) == +mp.pi
        base = mellin("f", 3, ctx)
        at_pi = mellin("f", 3, ctx, split=mp.pi)
        assert _mpfs(at_pi) == _mpfs(base)

    def test_split_invariance_g(self, ctx):
        # g dies half as fast as f toward q -> 1, so its lower half maps
        # with its own constant, scaled with the split
        base, be, _ = mellin("g", 4, ctx)
        with ctx.working():
            splits = (mp.pi / 2, 2 * mp.pi)
        for sp in splits:
            v, e, _ = mellin("g", 4, ctx, split=sp)
            assert abs(v - base) <= max(e, be), sp

    def test_domain(self, ctx):
        with pytest.raises(DomainError):
            mellin("h", 3, ctx)
        with pytest.raises(DomainError):
            mellin("f", 0, ctx)
        with pytest.raises(DomainError):
            mellin("f", 3, ctx, split=-1)


def _divisor_counts(n):
    d = [0] * (n + 1)
    for a in range(1, n + 1):
        for m in range(a, n + 1, a):
            d[m] += 1
    return d


class TestDirichletSum:
    @pytest.mark.parametrize("n, exponents", [
        *(pytest.param(n, (1.75, 2.0, 2.5, 3.0), id=str(n))
          for n in (10, 11, 99, 100, 101, 2024, 5000)),
        pytest.param(100000, (3.0,), id="100000"),
    ])
    def test_divisor_tail_brackets_exact_tail(self, n, exponents):
        # the hyperbola-method tail lies above the exact one, zeta(s1)^2 less
        # the partial sum at 40 digits, and within its pads of it
        d = _divisor_counts(n)
        for s1 in exponents:
            with mp.workdps(40):
                s = mp.mpf(s1)
                exact = mp.zeta(s) ** 2 - mp.fsum(d[m] * mp.mpf(m) ** -s
                                                  for m in range(1, n + 1))
                tail = lvalues._divisor_tail(n, s1)
                assert exact <= tail <= exact * (1 + mp.mpf("1e-9")) + 2e-13, s1

    def test_coefficient_bound_holds_empirically(self):
        # |a_m| <= d(m) m justifies the tail bound; check it well past the
        # first thousand coefficients
        n = 2000
        stream = coeffs_convolution("g", n)
        d = _divisor_counts(n)
        for m in range(1, n + 1):
            assert abs(stream.a(m)) <= d[m] * m

    def test_g4(self, ctx):
        v, e, used = dirichlet_sum("g", 4, ctx)
        assert used == 100000
        assert abs(v - TRUTH["g", 4]) <= e
        assert e < mp.mpf("1e-8")

    def test_g3_is_coarse_but_honest(self, ctx):
        v, e, _ = dirichlet_sum("g", 3, ctx)
        assert abs(v - TRUTH["g", 3]) <= e
        assert mp.mpf("1e-6") < e < mp.mpf("2e-4")

    def test_smaller_budget_still_honest(self, ctx):
        v, e, used = dirichlet_sum("g", 4, ctx, n_terms=20000)
        assert used == 20000
        assert abs(v - TRUTH["g", 4]) <= e

    def test_real_exponent(self, ctx):
        # diagnostic use: any s > 5/2 goes through the same tail machinery
        v, e, _ = dirichlet_sum("g", "7/2", ctx, n_terms=20000)
        assert e < mp.mpf("1e-3")
        assert 0 < v < 2

    def test_real_exponent_against_hot_sum(self, ctx):
        # the non-integer branch floors each m^-s computed at wp bits; its
        # partial sum must sit within the estimate's 2 mass 2^-wp term of the
        # same partial sum 30 digits hotter, plus the value's last rounding
        n = 2000
        v, _, _ = dirichlet_sum("g", "7/2", ctx, n_terms=n)
        coeffs = coeffs_convolution("g", n).coeffs
        mass = sum(map(abs, coeffs))
        with ctx.working():
            prec = mp.mp.prec
        wp = prec + mass.bit_length()
        with mp.workdps(ctx.workdigits + 30):
            s = mp.mpf(7) / 2
            hot = mp.fsum(am * mp.mpf(m) ** -s for m, am in enumerate(coeffs, 1) if am)
            bound = mp.mpf((2 * mass, -wp)) + abs(v) * mp.mpf(2) ** -prec
            assert abs(v - hot) <= bound

    @pytest.mark.parametrize("s, value, estimate", [
        (3, (0, 1281633860205133880827830298262380625, -120, 120),
         (0, 372057009557268911426228631250671791, -131, 119)),
        (4, (0, 1318355667180269441212310261283681289, -120, 120),
         (0, 939776607695486123770060602371406079, -150, 120)),
        ("7/2", (0, 653127089613607080432880754071957599, -119, 119),
         (0, 97949592466603266081854998314930883, -138, 117)),
    ])
    def test_estimates_are_pinned(self, ctx, s, value, estimate):
        # values recorded from a per-term accumulation: the sum is exact in
        # integers, so how its terms are gathered may not move a bit; the
        # estimates from the hyperbola-method tail
        v, e, used = dirichlet_sum("g", s, ctx)
        assert (v._mpf_, e._mpf_, used) == (value, estimate, 100000)

    def test_bits_do_not_depend_on_blas_threads(self):
        # value and estimate come from Python integers and libm floats alone,
        # so the thread count of numpy's BLAS cannot reach them
        script = (
            "from thetal.context import PrecisionContext\n"
            "from thetal.lvalues import dirichlet_sum\n"
            "ctx = PrecisionContext(digits=20)\n"
            "for s in (3, 4, '7/2'):\n"
            "    v, e, _ = dirichlet_sum('g', s, ctx)\n"
            "    print(v._mpf_, e._mpf_)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            outputs.add(done.stdout)
        assert len(outputs) == 1 and len(outputs.pop().splitlines()) == 3

    def test_large_integer_exponent(self, ctx):
        # past m = 1 every weight floors to 0 at wp bits, so only a_1 = 1
        # is summed, and no power m^20000 is formed
        v, e, _ = dirichlet_sum("g", 20000, ctx)
        assert v == 1
        # L(g, 20000) = 1 - 6 5^-20000 + ..., well inside the estimate
        assert 6 * mp.mpf(5) ** -20000 <= e
        for x, k in ((1 << 200, 3), ((1 << 200) - 1, 4), (1 << 200, 20000)):
            r = lvalues._iroot(x, k)
            assert r**k <= x < (r + 1) ** k

    @pytest.mark.parametrize("s", ["1e62", "1e400"])
    def test_huge_exponent_estimate_is_finite(self, ctx, s):
        # the tail underflows; its Euler-Maclaurin products must not
        # overflow, or inf times a zero weight makes the estimate nan
        v, e, _ = dirichlet_sum("g", s, ctx)
        assert v == 1
        assert mp.isfinite(e) and 0 < e < mp.mpf("1e-12")

    def test_domain(self, ctx):
        with pytest.raises(DomainError):
            dirichlet_sum("f", 4, ctx)
        with pytest.raises(DomainError):
            dirichlet_sum("g", 2, ctx)
        with pytest.raises(DomainError):
            dirichlet_sum("g", 4, ctx, n_terms=5)


class TestClosedForms:
    def test_lf3(self, ctx):
        v, e, _ = closed_form("lf3", ctx)
        assert agrees(v, TRUTH["f", 3], 25)
        assert e < mp.mpf("1e-25")

    def test_lf4_three_way(self, ctx):
        v, e, _ = closed_form("lf4", ctx)
        assert agrees(v, TRUTH["f", 4], 20)
        # the reported error is the spread of three independent series
        assert abs(v - TRUTH["f", 4]) <= e + abs(v) * mp.mpf("1e-20")
        assert e < mp.mpf("1e-18")

    def test_lg3(self, ctx):
        v, e, _ = closed_form("lg3", ctx)
        assert agrees(v, TRUTH["g", 3], 20)
        assert abs(v - TRUTH["g", 3]) <= e + abs(v) * mp.mpf("1e-20")

    def test_unknown(self, ctx):
        with pytest.raises(DomainError):
            closed_form("lg4", ctx)

    @pytest.mark.parametrize("digits", (20, 30, 50))
    @pytest.mark.parametrize("which,pair", [("lf4", ("f", 4)), ("lg3", ("g", 3))])
    def test_estimate_bounds_the_error(self, which, pair, digits, g3_hot):
        # TRUTH["g", 3] is mpmath's 5F4 at 55 digits, too cold to judge 50
        ref = g3_hot if pair == ("g", 3) else TRUTH[pair]
        v, e, _ = closed_form(which, PrecisionContext(digits=digits))
        assert abs(v - ref) <= e

    @pytest.mark.parametrize("digits", (20, 50))
    def test_every_closed_side_is_floored(self, digits):
        # "3 pi log 2" is elementary, and its combine claims no error at all
        ctx = PrecisionContext(digits=digits)
        for name in lvalues.CLOSED_SIDES:
            value, est, _ = lvalues.closed_side(name, ctx)
            assert est >= noise_floor(value, ctx) > 0, name


def _available_methods(form, n):
    out = ["mellin", "alpha_integral", "q_integral"]
    if form == "f":
        out.append("factorized")
    if form == "g":
        out.append("dirichlet_sum")
    if (form, n) != ("g", 4):
        out.append("closed_form")
    return out


class TestLValueDispatch:
    @pytest.mark.parametrize("form,n", [("f", 3), ("f", 4), ("g", 3), ("g", 4)])
    def test_every_route_hits_the_oracle(self, form, n, ctx):
        for method in _available_methods(form, n):
            res = l_value(form, n, method, ctx)
            assert isinstance(res, Estimate)
            assert res.error_estimate >= 0
            slack = res.error_estimate + abs(TRUTH[form, n]) * mp.mpf("1e-19")
            assert abs(res.value - TRUTH[form, n]) <= slack, method

    @pytest.mark.parametrize("form,n", [("f", 3), ("f", 4), ("g", 3), ("g", 4)])
    def test_pairwise_route_agreement(self, form, n, ctx):
        methods = _available_methods(form, n)
        results = [l_value(form, n, m, ctx) for m in methods]
        for i, a in enumerate(results):
            for j, b in enumerate(results[i + 1 :], i + 1):
                tol = max(a.error_estimate, b.error_estimate)
                assert abs(a.value - b.value) <= tol, (methods[i], methods[j])

    @pytest.mark.parametrize("form,n", [("f", 3), ("f", 4), ("g", 3), ("g", 4)])
    def test_alpha_integral_is_the_integral_reduction(self, form, n, ctx):
        # termwise Beta integration turns the alpha-space integral into the
        # double series, so the route reads that evaluation and its effort
        rhs_id = next(r for r, pair in RHS_TO_PAIR.items() if pair == (form, n))
        a = l_value(form, n, "alpha_integral", ctx)
        k = kdf_theorem_rhs(rhs_id, ctx)
        assert _mpfs(a) == _mpfs(k)
        assert a.effort > 0

    def test_each_method_is_its_own_evaluation(self, ctx):
        # no method name serves another's evaluation under an alias
        for form, n in TRUTH:
            served = []
            for method in L_VALUE_METHODS:
                try:
                    served.append(_mpfs(l_value(form, n, method, ctx)))
                except DomainError:
                    continue
            assert len(set(served)) == len(served), (form, n)

    def test_precise_routes_meet_the_context(self, ctx):
        for method in ("factorized", "mellin", "alpha_integral", "closed_form"):
            res = l_value("f", 3, method, ctx)
            assert res.error_estimate <= mp.mpf(10) ** (-ctx.digits)

    def test_memoized_per_context(self, ctx):
        a = l_value("f", 3, "mellin", ctx)
        b = l_value("f", 3, "mellin", ctx)
        assert a is b

    def test_bad_combinations(self, ctx):
        with pytest.raises(DomainError):
            l_value("g", 3, "factorized", ctx)
        with pytest.raises(DomainError):
            l_value("f", 3, "dirichlet_sum", ctx)
        with pytest.raises(DomainError):
            l_value("g", 4, "closed_form", ctx)
        with pytest.raises(DomainError):
            l_value("f", 5, "mellin", ctx)
        with pytest.raises(DomainError):
            l_value("h", 3, "mellin", ctx)
        with pytest.raises(DomainError):
            l_value("f", 3, "magic", ctx)

    def test_surface_constants(self):
        assert FORMS == ("f", "g")
        assert set(L_VALUE_METHODS) == {
            "dirichlet_sum",
            "factorized",
            "mellin",
            "alpha_integral",
            "q_integral",
            "closed_form",
        }
        # the route table against the oracle tables' statement of it
        assert {ids[0]: pair for pair, ids in ROUTE_IDS.items()} == RHS_TO_PAIR
        assert {ids[1]: pair for pair, ids in ROUTE_IDS.items()} == QID_TO_PAIR


@pytest.fixture(scope="module")
def g4_hot():
    # G4_REF's 40 digits cannot judge a 30-digit route; Mellin at 45 digits
    # never evaluates the 3F2 kernel, so it is an independent reference
    v, _, _ = mellin("g", 4, PrecisionContext(digits=45))
    return v


class TestTrebleKernelRoutes:
    """The s = 4 routes that evaluate 3F2(1,1,1;3/2,3/2) keep their estimates."""

    @pytest.mark.parametrize("digits", [20, 30])
    @pytest.mark.parametrize("method", ["alpha_integral"])
    @pytest.mark.parametrize("form", FORMS)
    def test_error_within_estimate(self, form, method, digits, g4_hot):
        ref = TRUTH["f", 4] if form == "f" else g4_hot
        res = l_value(form, 4, method, PrecisionContext(digits=digits))
        with mp.workdps(60):
            assert abs(res.value - ref) <= res.error_estimate


class TestEveryEstimateHolds:
    """Every route l_value serves bounds its own error, with no slack."""

    @pytest.mark.parametrize("digits", [20, 30])
    @pytest.mark.parametrize("form,n", [("f", 3), ("f", 4), ("g", 3), ("g", 4)])
    def test_error_within_estimate(self, form, n, digits, g4_hot):
        ref = g4_hot if (form, n, digits) == ("g", 4, 30) else TRUTH[form, n]
        ctx = PrecisionContext(digits=digits)
        for method in _available_methods(form, n):
            res = l_value(form, n, method, ctx)
            with mp.workdps(60):
                assert abs(res.value - ref) <= res.error_estimate, method


class TestInvolutedHalves:
    """Mellin and the nome integrals run over u = -log(q)/pi, the flat
    q -> 1 end of each integrand from the involuted side."""

    # integrand calls repeat exactly: one stream of 166 nodes at 20 digits
    # and 365 at 50 serves both halves of every member, 332 and 730 calls
    # counting both, where mapping t or q straight onto (0, 1) takes 619 to
    # 3,088
    EFFORT = {20: (332, 332), 50: (730, 730)}  # (each member, g's Mellin)

    @pytest.mark.parametrize("digits", [20, 50])
    def test_effort(self, digits):
        calls, g_mellin = self.EFFORT[digits]
        ctx = PrecisionContext(digits=digits)
        for q_id, (form, n) in QID_TO_PAIR.items():
            want = g_mellin if form == "g" else calls
            assert mellin(form, n, ctx).effort == want, (form, n)
            assert q_integral(q_id, ctx).effort == calls, q_id

    @pytest.mark.parametrize("form,n", [("f", 3), ("f", 4), ("g", 3), ("g", 4)])
    def test_estimates_hold_at_50_digits(self, form, n):
        # references 15 digits hotter by another route: the factorization
        # for f, and for g each integral judges the other
        ctx, hot = PrecisionContext(digits=50), PrecisionContext(digits=65)
        for route, other in (("mellin", "q_integral"), ("q_integral", "mellin")):
            res = l_value(form, n, route, ctx)
            ref = l_value(form, n, "factorized" if form == "f" else other, hot)
            with mp.workdps(90):
                assert abs(res.value - ref.value) <= res.error_estimate, route


def _mpfs(result):
    # an Estimate, compared bit for bit
    return tuple(getattr(x, "_mpf_", x) for x in result)


class TestSharedPasses:
    """Sibling integrals share one pass over their nodes.  Each member must
    come out of it as from a pass of its own, and fail alone."""

    @staticmethod
    def _lone(member, ctx):
        return _mpfs(lvalues._u_pass(ctx, 1, (member,))[member])

    @pytest.mark.parametrize("digits", [20, 50])
    def test_mellin_members_match_lone_passes(self, digits):
        ctx = PrecisionContext(digits=digits)
        shared = lvalues._u_pass(ctx, 1, lvalues._PASS_MEMBERS)
        for form in FORMS:
            for s in (3, 4):
                member = (form, mp.mpf(s))
                assert _mpfs(shared[member]) == self._lone(member, ctx), (form, s)

    @pytest.mark.parametrize("digits", [20, 50])
    def test_nome_members_match_lone_passes(self, digits):
        ctx = PrecisionContext(digits=digits)
        shared = lvalues._u_pass(ctx, 1, lvalues._PASS_MEMBERS)
        assert tuple(shared)[:4] == tuple(QID_TO_PAIR)
        for q_id in QID_TO_PAIR:
            assert _mpfs(shared[q_id]) == self._lone(q_id, ctx), q_id

    @pytest.mark.parametrize("digits", [20, 50])
    def test_double_series_members_match_lone_passes(self, digits):
        ctx = PrecisionContext(digits=digits)
        family = lvalues._kdf_family(ctx)
        assert tuple(family) == tuple(KDF_SPECS)
        for name, spec in KDF_SPECS.items():
            alone = kdf_full(spec, 1, 1, "integral_reduction", ctx)
            assert _mpfs(family[name]) == _mpfs(alone), name

    def test_lone_alpha_integral_matches_shared(self):
        # shared=False runs the theorem's own specs, not the six-spec pass
        ctx = PrecisionContext(digits=20)
        for memo in (lvalues._kdf_family, lvalues.kdf_weighted_sum,
                     lvalues._l_value_cached):
            memo.cache_clear()
        lone = {pair: _mpfs(l_value(*pair, "alpha_integral", ctx, shared=False))
                for pair in ROUTE_IDS}
        assert lvalues._kdf_family.cache_info().currsize == 0
        for pair, bits in lone.items():
            assert _mpfs(l_value(*pair, "alpha_integral", ctx)) == bits, pair

    @pytest.mark.parametrize("first", ["prop31_2", "prop21_1"])
    def test_a_failing_nome_integral_fails_alone(self, first):
        # ram_lhs runs out of terms below the series cut; Lemma 2.2's sums
        # come from each node's thetas, so prop21_* read no Lambert sum
        ctx = PrecisionContext(digits=20, max_terms=30)
        lvalues._u_pass.cache_clear()
        order = [first] + [q for q in QID_TO_PAIR if q != first]
        for q_id in order:
            if lvalues._Q_INTEGRALS[q_id][3] == "ram_lhs":
                with pytest.raises(BudgetError, match="Lambert series ram_lhs exhausted"):
                    q_integral(q_id, ctx)
                continue
            q_integral(q_id, ctx)
            # as in a pass of its own, where no sibling can fail
            shared = lvalues._u_pass(ctx, 1, lvalues._PASS_MEMBERS)
            assert _mpfs(shared[q_id]) == self._lone(q_id, ctx), q_id
        # the Mellin members of the same pass need no Lambert sum: they return,
        # as from passes of their own
        shared = lvalues._u_pass(ctx, 1, lvalues._PASS_MEMBERS)
        for form in FORMS:
            for s in (3, 4):
                mellin(form, s, ctx)
                member = (form, mp.mpf(s))
                assert _mpfs(shared[member]) == self._lone(member, ctx), (form, s)
