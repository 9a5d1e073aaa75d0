import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath as mp

from thetal.context import BudgetError, DomainError, PrecisionContext
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


@pytest.mark.parametrize(
    "run",
    [lambda ctx, n=n: lambert_series(n, "0.9", ctx) for n in LAMBERT_IDS]
    + [
        lambda ctx: eisenstein_M("0.9", ctx),
        lambda ctx: alpha_qderiv("0.9", ctx),
    ]
    + [lambda ctx, w=w: theta_direct(w, "0.9", ctx) for w in (2, 3, 4)],
    ids=[*LAMBERT_IDS, "eisenstein_M", "alpha_qderiv", "theta2", "theta3", "theta4"],
)
def test_every_budgeted_sum_gives_up_with_its_best(run):
    # three terms cannot settle any of these sums at q = 0.9
    ctx = PrecisionContext(digits=20, max_terms=3)
    with pytest.raises(BudgetError) as info:
        run(ctx)
    with ctx.working():
        assert info.value.best is not None and mp.isfinite(info.value.best)


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
