from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath as mp

from thetal.context import DomainError, PrecisionContext, parse_rational
from thetal.hyper import _agm_ambient
from thetal.special import alternating_sum, beta, gamma, zeta

from conftest import agrees, pochhammer


def test_pochhammer_exact_small():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(Fraction(1, 2), 0) == 1
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(Fraction(-2), 3) == 0  # hits zero at n = 2
    with pytest.raises(DomainError):
        pochhammer(mp.mpf("0.5"), 3)  # exact only: no mpf argument


@given(
    a=st.fractions(min_value=-5, max_value=5, max_denominator=8),
    m=st.integers(min_value=0, max_value=12),
    n=st.integers(min_value=0, max_value=12),
)
def test_pochhammer_shift_identity(a, m, n):
    # (a)_{m+n} = (a)_m (a+m)_n, the workhorse for term recurrences
    assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


def test_gamma_values(ctx30):
    assert agrees(gamma(5, ctx30), 24, 28)
    with ctx30.working():
        assert agrees(gamma(mp.mpf("0.5"), ctx30), mp.sqrt(mp.pi), 28)
    with pytest.raises(DomainError):
        gamma(0, ctx30)


def test_beta_halves(ctx30):
    with ctx30.working():
        assert agrees(beta(Fraction(3, 2), Fraction(1, 2), ctx30), mp.pi / 2, 28)


def test_alternating_sum_catalan(ctx30):
    # beta(2) = Catalan, an alternating series with terms (2k+1)^-2
    val = alternating_sum((mp.mpf(2 * k + 1) ** -2 for k in count()), ctx30).value
    with ctx30.working():
        assert agrees(val, mp.catalan, 29)


def test_zeta_against_closed_forms(ctx30):
    with ctx30.working():
        assert agrees(zeta(2, ctx30).value, mp.pi**2 / 6, 28)
        assert agrees(zeta(4, ctx30).value, mp.pi**4 / 90, 28)
        # non-integer argument against the mpmath oracle
        assert agrees(zeta(mp.mpf("1.5"), ctx30).value, mp.zeta(1.5), 28)
    with pytest.raises(DomainError):
        zeta(1, ctx30)


def test_agm_against_oracle(ctx30):
    with ctx30.working():
        for x in ("0.1", "0.5", "0.9", "1.0"):
            got = _agm_ambient(mp.mpf(1), mp.mpf(x))
            assert agrees(got, mp.agm(1, mp.mpf(x)), 28)


@settings(max_examples=25, deadline=None)
@given(
    x=st.floats(min_value=0.01, max_value=10),
    c=st.floats(min_value=0.1, max_value=5),
)
def test_agm_scaling(x, c):
    ctx = PrecisionContext(digits=20)
    with ctx.working():
        lhs = _agm_ambient(mp.mpf(c), mp.mpf(c) * mp.mpf(x))
        rhs = mp.mpf(c) * _agm_ambient(mp.mpf(1), mp.mpf(x))
        assert agrees(lhs, rhs, 18)


def test_parse_rational():
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/4") == Fraction(-7, 4)
    with pytest.raises(DomainError):
        parse_rational("a/b")
