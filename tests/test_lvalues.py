"""L-value routes: each against an independent oracle, then against each other."""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import agrees
from thetal import lvalues
from thetal.context import DomainError, PrecisionContext
from thetal.hyper import kdf_converges
from thetal.lvalues import (
    FORMS,
    KDF_RHS_IDS,
    KDF_SPECS,
    L_VALUE_METHODS,
    LValueResult,
    _lambert_smart,
    alpha_integral,
    closed_form,
    dirichlet_sum,
    kdf_theorem_rhs,
    l_chi4,
    l_psi,
    l_value,
    mellin,
    q_integral,
)
from thetal.theta import coeffs_convolution, lambert_series

# L(g, 4) has no closed form; this reference came from the alpha-parameter
# integral and the Mellin transform at 45-digit precision, which agreed to
# 61 digits before the freeze.
G4_REF = "0.9918205690527762024476371274872003403681"


@pytest.fixture(scope="module")
def ctx():
    return PrecisionContext(digits=20)


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
            assert agrees(l_chi4(3, ctx), mp.pi**3 / 32, 30)
            assert agrees(l_chi4(1, ctx), mp.pi / 4, 30)
            assert agrees(l_chi4(2, ctx), mp.catalan, 30)

    def test_chi4_at_4_frozen(self, ctx):
        with mp.workdps(35):
            ref = mp.mpf("0.9889445517411053361084226")
        assert agrees(l_chi4(4, ctx), ref, 24)

    def test_psi_closed_values(self, ctx):
        with mp.workdps(40):
            assert agrees(l_psi(1, ctx), mp.log(2), 30)
            assert agrees(l_psi(2, ctx), mp.pi**2 / 12, 30)
            assert agrees(l_psi(3, ctx), mp.mpf(3) / 4 * mp.zeta(3), 30)

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
        v = l_chi4(s, ctx)
        with mp.workdps(25):
            lo = 1 - mp.mpf(3) ** (-mp.mpf(s))
            assert lo < v < 1

    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=1.0, max_value=12))
    def test_psi_partial_sum_bracket(self, s):
        ctx = PrecisionContext(digits=15)
        v = l_psi(s, ctx)
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
        v, e = kdf_theorem_rhs(rhs_id, ctx)
        truth = TRUTH[RHS_TO_PAIR[rhs_id]]
        assert abs(v - truth) <= e + abs(truth) * mp.mpf("1e-20")
        assert agrees(v, truth, 20)

    def test_other_strategy_passthrough(self, ctx):
        # at the (1, 1) corner the truncated square converges like N**-0.5,
        # so this route is progress-bar coarse; what matters is honesty
        v, e = kdf_theorem_rhs("thm11_1", ctx, strategy="double_truncate")
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
        # the route promises eight digits; it routinely delivers far more
        assert agrees(v, truth, 10)
        assert used > 100

    def test_precision_cap(self):
        # asking for 40 digits must not change the route's character
        v, e, _ = q_integral("prop21_1", PrecisionContext(digits=40))
        assert agrees(v, TRUTH["f", 3], 10)
        assert e < mp.mpf("1e-12")

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
                smart = _lambert_smart(name, q, u, ctx)
                direct = lambert_series(name, q, ctx)
                assert agrees(smart, direct, 22)


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


def _divisor_tail_loop(n_terms, s1, ctx):
    # the one-slice-per-divisor sieve the pair sieve replaced, kept as the
    # reference: same float64 partial sum, same zeta^2 complement
    d = np.zeros(n_terms + 1)
    for a in range(1, n_terms + 1):
        d[a::a] += 1.0
    powers = np.arange(0, n_terms + 1, dtype=np.float64)
    powers[0] = 1.0
    partial = float(np.dot(d[1:], powers[1:] ** (-s1)))
    zv = lvalues.zeta(mp.mpf(s1), ctx)
    return max(float(zv * zv) - partial, 0.0) + 1e-13


class TestDirichletSum:
    @pytest.mark.parametrize("n", [10, 11, 99, 100, 101, 2024, 5000])
    def test_divisor_pair_sieve_matches_loop(self, ctx, n):
        assert lvalues._divisor_counts(n).tolist() == _divisor_counts(n)
        for s1 in (1.75, 2.0, 2.5, 3.0):
            assert lvalues._divisor_tail(n, s1, ctx) == _divisor_tail_loop(n, s1, ctx)

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

    def test_domain(self, ctx):
        with pytest.raises(DomainError):
            dirichlet_sum("f", 4, ctx)
        with pytest.raises(DomainError):
            dirichlet_sum("g", 2, ctx)
        with pytest.raises(DomainError):
            dirichlet_sum("g", 4, ctx, n_terms=5)


class TestClosedForms:
    def test_lf3(self, ctx):
        v, e = closed_form("lf3", ctx)
        assert agrees(v, TRUTH["f", 3], 25)
        assert e < mp.mpf("1e-25")

    def test_lf4_three_way(self, ctx):
        v, e = closed_form("lf4", ctx)
        assert agrees(v, TRUTH["f", 4], 20)
        # the reported error is the spread of three independent series
        assert abs(v - TRUTH["f", 4]) <= e + abs(v) * mp.mpf("1e-20")
        assert e < mp.mpf("1e-18")

    def test_lg3(self, ctx):
        v, e = closed_form("lg3", ctx)
        assert agrees(v, TRUTH["g", 3], 20)
        assert abs(v - TRUTH["g", 3]) <= e + abs(v) * mp.mpf("1e-20")

    def test_unknown(self, ctx):
        with pytest.raises(DomainError):
            closed_form("lg4", ctx)

    @pytest.mark.parametrize("digits", (20, 30, 50))
    @pytest.mark.parametrize("which,pair", [("lf4", ("f", 4)), ("lg3", ("g", 3))])
    def test_estimate_bounds_the_error(self, which, pair, digits):
        v, e = closed_form(which, PrecisionContext(digits=digits))
        assert abs(v - TRUTH[pair]) <= e


def _available_methods(form, n):
    out = ["mellin", "alpha_integral", "q_integral", "kdf_theorem"]
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
            assert isinstance(res, LValueResult)
            assert res.method == method
            assert res.error_estimate >= 0
            slack = res.error_estimate + abs(TRUTH[form, n]) * mp.mpf("1e-19")
            assert abs(res.value - TRUTH[form, n]) <= slack, method

    @pytest.mark.parametrize("form,n", [("f", 3), ("f", 4), ("g", 3), ("g", 4)])
    def test_pairwise_route_agreement(self, form, n, ctx):
        results = [l_value(form, n, m, ctx) for m in _available_methods(form, n)]
        for i, a in enumerate(results):
            for b in results[i + 1 :]:
                tol = max(a.error_estimate, b.error_estimate)
                assert abs(a.value - b.value) <= tol, (a.method, b.method)

    def test_precise_routes_meet_the_context(self, ctx):
        for method in ("factorized", "mellin", "alpha_integral", "kdf_theorem", "closed_form"):
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
        assert set(L_VALUE_METHODS) >= {
            "dirichlet_sum",
            "factorized",
            "mellin",
            "alpha_integral",
            "q_integral",
            "kdf_theorem",
            "closed_form",
        }


@pytest.fixture(scope="module")
def g4_hot():
    # G4_REF's 40 digits cannot judge a 30-digit route; Mellin at 45 digits
    # never evaluates the 3F2 kernel, so it is an independent reference
    v, _, _ = mellin("g", 4, PrecisionContext(digits=45))
    return v


class TestTrebleKernelRoutes:
    """The s = 4 routes that evaluate 3F2(1,1,1;3/2,3/2) keep their estimates."""

    @pytest.mark.parametrize("digits", [20, 30])
    @pytest.mark.parametrize("method", ["alpha_integral", "kdf_theorem"])
    @pytest.mark.parametrize("form", FORMS)
    def test_error_within_estimate(self, form, method, digits, g4_hot):
        ref = TRUTH["f", 4] if form == "f" else g4_hot
        res = l_value(form, 4, method, PrecisionContext(digits=digits))
        with mp.workdps(60):
            assert abs(res.value - ref) <= res.error_estimate
