from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath as mp

from thetal.context import BudgetError, DomainError, PrecisionContext, QuadratureError
from thetal.context import as_real, floored
from thetal.quadrature import integrate01, isolated, settled

from conftest import agrees


def test_beta_endpoint_powers(ctx30):
    # int t^{1/2} (1-t)^{-1/2} dt = B(3/2, 1/2) = pi/2
    val, est, _ = integrate01(
        lambda x, cx: mp.sqrt(x) / mp.sqrt(cx),
        ctx30,
        left_exponent=1.5,
        right_exponent=0.5,
    )
    with ctx30.working():
        assert agrees(val, mp.pi / 2, 28)
        assert abs(val - mp.pi / 2) <= max(est, mp.mpf(10) ** -28)


def test_both_endpoints_singular(ctx30):
    val, _, _ = integrate01(
        lambda x, cx: 1 / mp.sqrt(x * cx),
        ctx30,
        left_exponent=0.5,
        right_exponent=0.5,
    )
    with ctx30.working():
        assert agrees(val, mp.pi, 28)


def test_log_endpoint(ctx30):
    val, _, _ = integrate01(
        lambda x, cx: -mp.log(cx), ctx30, right_log=True
    )
    assert agrees(val, 1, 28)


def test_log_squared_endpoint(ctx30):
    # int log^2(1-t) dt = 2; the squared log shows up in one of the
    # moment integrals so the rule has to absorb it
    val, _, _ = integrate01(
        lambda x, cx: mp.log(cx) ** 2, ctx30, right_log=True
    )
    assert agrees(val, 2, 27)


def test_smooth_integrand(ctx30):
    val, _, _ = integrate01(lambda x, cx: mp.exp(x), ctx30)
    with ctx30.working():
        assert agrees(val, mp.e - 1, 28)


def test_cx_argument_is_exact_complement(ctx20):
    # near t = 1 the cx argument must carry the accurate 1 - t; a naive
    # 1 - x would lose every digit here
    val, _, _ = integrate01(
        lambda x, cx: mp.sqrt(x) / mp.sqrt(cx),
        ctx20,
        left_exponent=1.5,
        right_exponent=0.5,
    )
    with ctx20.working():
        assert agrees(val, mp.pi / 2, 18)


def test_rejects_nonintegrable_exponent(ctx20):
    with pytest.raises(DomainError):
        integrate01(lambda x, cx: 1 / x, ctx20, left_exponent=0.2)


@pytest.mark.parametrize("digits", [20, 50, 100])
@pytest.mark.parametrize(
    "p,r", [("1/4", 1), (1, "1/4"), ("1/3", "1/2"), ("1/4", "1/3"), ("1/2", "3/4")]
)
def test_exponents_down_to_a_quarter(digits, p, r):
    # x^(p-1) (1-x)^(r-1) against B(p, r): an endpoint below 1/2 takes its
    # nodes further out, and the estimate still bounds the error.  At 100
    # digits (1/3, 1/2) and (1/2, 3/4) meet two identical level sums, whose
    # raw estimate is still the rounding they hold, not 0
    ctx = PrecisionContext(digits=digits)
    with ctx.working():
        pv, rv = as_real(Fraction(p)), as_real(Fraction(r))
    res = integrate01(lambda x, cx: x ** (pv - 1) * cx ** (rv - 1), ctx, pv, rv)
    val, est, _ = floored(*res, ctx)
    with mp.workdps(digits + 20):
        ref = mp.beta(pv, rv)
        assert abs(val - ref) <= res.error_estimate <= est
        assert est <= abs(ref) * mp.mpf(10) ** -digits


def test_quadrature_error_on_divergence():
    ctx = PrecisionContext(digits=10, quad_level_cap=6)
    with pytest.raises(QuadratureError) as info:
        # claims an integrable left endpoint but the integrand is 1/x
        integrate01(lambda x, cx: 1 / x, ctx, left_exponent=1.0)
    assert info.value.best is not None


@settings(max_examples=20, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=4),
    b=st.integers(min_value=0, max_value=4),
)
def test_monomial_products(a, b):
    # int t^a (1-t)^b dt = a! b! / (a+b+1)!
    ctx = PrecisionContext(digits=20)
    val, _, _ = integrate01(
        lambda x, cx: x**a * cx**b,
        ctx,
        left_exponent=a + 1,
        right_exponent=b + 1,
    )
    with ctx.working():
        truth = mp.beta(a + 1, b + 1)
        assert agrees(val, truth, 18)


@pytest.mark.parametrize(
    "f,kwargs",
    [
        (lambda x, cx: mp.exp(x), {}),
        (lambda x, cx: mp.log(cx) ** 2, {"right_log": True}),
    ],
    ids=["smooth", "right_log"],
)
def test_returned_calls_match_a_counter(ctx30, f, kwargs):
    seen = [0]

    def counted(x, cx):
        seen[0] += 1
        return f(x, cx)

    _, _, calls = integrate01(counted, ctx30, **kwargs)
    assert calls == seen[0] > 0


# one pad for both: exp stops a level after the endpoint-singular member
_SMOOTH = (lambda x, cx: mp.exp(x), {})
_SINGULAR = (
    lambda x, cx: mp.sqrt(x) / mp.sqrt(cx),
    {"left_exponent": 1.5, "right_exponent": 0.5},
)


def _mpfs(result):
    value, estimate, calls = result
    return value._mpf_, estimate._mpf_, calls


def test_tuple_components_match_their_scalar_runs(ctx30):
    pair = integrate01(
        lambda x, cx: (_SMOOTH[0](x, cx), _SINGULAR[0](x, cx)),
        ctx30,
        left_exponent=1.0,
        right_exponent=0.5,
    )
    assert pair[0][2] != pair[1][2]  # the two stop at different levels
    for (f, kwargs), member in zip((_SMOOTH, _SINGULAR), pair):
        assert _mpfs(member) == _mpfs(integrate01(f, ctx30, **kwargs))


def test_a_capped_component_fails_only_when_read():
    ctx = PrecisionContext(digits=10, quad_level_cap=6)
    smooth, capped = integrate01(lambda x, cx: (mp.exp(x), 1 / x), ctx)
    assert _mpfs(smooth) == _mpfs(integrate01(_SMOOTH[0], ctx))
    assert isinstance(capped, QuadratureError) and capped.best is not None
    assert settled(smooth) == smooth
    with pytest.raises(QuadratureError):
        settled(capped)


def test_a_member_that_raises_fails_alone(ctx20):
    def near_zero(x):
        if x < mp.mpf("0.1"):
            raise BudgetError("spent", best=x)
        return x

    smooth, failed = integrate01(
        lambda x, cx: isolated((lambda: mp.exp(x), lambda: near_zero(x))), ctx20
    )
    assert _mpfs(smooth) == _mpfs(integrate01(_SMOOTH[0], ctx20))
    assert isinstance(failed, BudgetError)
    with pytest.raises(BudgetError):
        settled(failed)


@pytest.mark.parametrize(
    "f,kwargs,expected",
    [
        (
            _SMOOTH[0],
            {},
            ((0, 2511271705688832270269571882836332294723485505039, -160, 161),
             (0, 2511271705688832270269571882836332294723485505039, -313, 161), 323),
        ),
        (
            lambda x, cx: mp.log(cx) ** 2,
            {"right_log": True},
            ((0, 1, 1, 1), (0, 1, -160, 1), 325),
        ),
        (
            _SINGULAR[0],
            _SINGULAR[1],
            ((0, 2295721403524109460692402599871655564227077512209, -160, 161),
             (0, 3699497247220779, -160, 52), 161),
        ),
    ],
    ids=["smooth", "right_log", "singular"],
)
def test_scalar_results_are_unchanged(ctx30, f, kwargs, expected):
    # (value, estimate, calls) with each level summed exactly and rounded
    # once: e - 1 now within 0.22 ulp of 160 bits (the chained sum's 1.22).
    # A level delta of 0 still reports the sum's rounding, |value| 2^(8 - bits)
    assert _mpfs(integrate01(f, ctx30, **kwargs)) == expected
