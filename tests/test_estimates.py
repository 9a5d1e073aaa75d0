"""Every sum that reports an Estimate holds its own bound.

pfq inside the unit interval and at z = +-1 (the four 5F4 specs of the
closed forms among them, and at z = 1 also under budgets that cap its
head, returned or raised), euler_2f1, the alternating accelerator and the
zeta and Dirichlet L-values built on it, each against a reference 20 digits
hotter that does not come from the route under test.  The unit-argument
references are Hurwitz zeta values and a Mellin transform: mpmath's own
5F4 at z = 1 costs seconds past 55 digits.
"""

from itertools import count

import mpmath as mp
import pytest

from thetal.context import BudgetError, Estimate, PrecisionContext
from thetal.hyper import PFQSpec, euler_2f1, pfq
from thetal.lvalues import LF4_ALT, LF4_POS1, LF4_POS3, SAMART_5F4, l_chi4, l_psi, mellin
from thetal.special import alternating_sum, zeta

DIGITS = (20, 50, 100)
HOT = 20


def _hurwitz4(a):
    return mp.zeta(4, mp.mpf(a))


def _beta4(digits):
    # Dirichlet beta(4) = sum (-1)^k (2k+1)^-4
    return (_hurwitz4("1/4") - _hurwitz4("3/4")) / 256


def _samart(digits):
    # L(g, 3) = pi^3/1024 (48 log 2 - 5F4), with L(g, 3) by Mellin
    v = mellin("g", 3, PrecisionContext(digits=digits + HOT)).value
    return 48 * mp.log(2) - 1024 * v / mp.pi**3


def _hyper(spec, z):
    return lambda digits: mp.hyper(
        [mp.mpf(u.numerator) / u.denominator for u in spec.upper],
        [mp.mpf(l.numerator) / l.denominator for l in spec.lower],
        mp.mpf(z),
    )


LOG_SPEC = PFQSpec((1, 1), (2,))
TREBLE = PFQSpec((1, 1, 1), ("3/2", "3/2"))

# name: spec, z, reference at the hot precision in force given the digits
PFQ_CASES = {
    "2F1(1,1;2;-1/2)": (LOG_SPEC, "-1/2", lambda d: 2 * mp.log(mp.mpf(3) / 2)),
    "2F1(1,1;2;1/2)": (LOG_SPEC, "1/2", lambda d: 2 * mp.log(2)),
    "3F2 treble -1/2": (TREBLE, "-1/2", _hyper(TREBLE, "-0.5")),
    "3F2 treble 1/2": (TREBLE, "1/2", _hyper(TREBLE, "0.5")),
    "SAMART_5F4 -1/2": (SAMART_5F4, "-1/2", _hyper(SAMART_5F4, "-0.5")),
    "LF4_POS1 1/2": (LF4_POS1, "1/2", _hyper(LF4_POS1, "0.5")),
    "2F1(1/2,1/2;3/2;1)": (PFQSpec(("1/2", "1/2"), ("3/2",)), 1, lambda d: mp.pi / 2),
    "LF4_POS1 1": (LF4_POS1, 1, lambda d: _hurwitz4("1/4") / 256),
    "LF4_POS3 1": (LF4_POS3, 1, lambda d: 81 * _hurwitz4("3/4") / 256),
    "SAMART_5F4 1": (SAMART_5F4, 1, _samart),
    "2F1(1,1;2;-1)": (LOG_SPEC, -1, lambda d: mp.log(2)),
    "LF4_ALT -1": (LF4_ALT, -1, _beta4),
}


def _holds(res, reference, digits):
    """res is an Estimate whose error against the hot reference is within
    its own bound."""
    assert isinstance(res, Estimate)
    with mp.workdps(digits + HOT):
        ref = reference(digits)
        assert abs(res.value - ref) <= res.error_estimate, (res, ref)
    assert res.error_estimate > 0


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("name", list(PFQ_CASES))
def test_pfq(name, digits):
    spec, z, reference = PFQ_CASES[name]
    res = pfq(spec, z, PrecisionContext(digits=digits))
    _holds(res, reference, digits)
    assert res.effort > 0


# unit-argument sums whose tail terms c_k zeta(1+e+k, N) alternate in size:
# when max_terms caps N, the last kept term alone fell below the error
CAPPED_CASES = {
    "2F1(-1/2,1;2;1)": (PFQSpec(("-1/2", 1), (2,)), lambda d: mp.mpf(2) / 3),
    "2F1(1/2,1/2;3/2;1)": (PFQSpec(("1/2", "1/2"), ("3/2",)), lambda d: mp.pi / 2),
}


def _capped(name, digits, max_terms):
    """pfq at z = 1 under max_terms, and whether it returned: a BudgetError's
    best value and estimate stand in for the result it could not give."""
    spec = CAPPED_CASES[name][0]
    try:
        return pfq(spec, 1, PrecisionContext(digits=digits, max_terms=max_terms)), True
    except BudgetError as exc:
        return Estimate(exc.best, exc.estimate), False


@pytest.mark.parametrize(
    "name,digits,max_terms", [("2F1(-1/2,1;2;1)", 30, 15), ("2F1(1/2,1/2;3/2;1)", 35, 27)]
)
def test_pfq_unit_capped_by_max_terms(name, digits, max_terms):
    res, returned = _capped(name, digits, max_terms)
    assert returned
    _holds(res, CAPPED_CASES[name][1], digits)


@pytest.mark.parametrize("digits", (10, 15, 30, 35))
@pytest.mark.parametrize("name", list(CAPPED_CASES))
def test_pfq_unit_budget_scan(name, digits):
    # N = max_terms below the default digits + 20: returned values and
    # BudgetError payloads alike bound their error
    outcomes = set()
    for max_terms in range(3, 58, 3):
        res, returned = _capped(name, digits, max_terms)
        _holds(res, CAPPED_CASES[name][1], digits)
        outcomes.add(returned)
    assert outcomes == {True, False}


# name: (a, b, c, z), reference; 2F1(1/2,1;3/2;z) = atanh(sqrt z)/sqrt z
EULER_CASES = {
    "atanh kernel": (("1/2", 1, "3/2", "1/2"), lambda d: mp.atanh(mp.sqrt(0.5)) * mp.sqrt(2)),
    "atan kernel": (("1/2", 1, "3/2", "-1/2"), lambda d: mp.atan(mp.sqrt(0.5)) * mp.sqrt(2)),
    "unit argument": (("1/2", "1/2", "3/2", 1), lambda d: mp.pi / 2),
}


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("name", list(EULER_CASES))
def test_euler_2f1(name, digits):
    args, reference = EULER_CASES[name]
    res = euler_2f1(*args, PrecisionContext(digits=digits))
    _holds(res, reference, digits)
    assert res.effort > 0


# name: route at a context, reference
ALTERNATING_CASES = {
    "catalan": (
        lambda ctx: alternating_sum((mp.mpf(2 * k + 1) ** -2 for k in count()), ctx),
        lambda d: mp.catalan,
    ),
    "zeta(3)": (lambda ctx: zeta(3, ctx), lambda d: mp.zeta(3)),
    "zeta(5/2)": (lambda ctx: zeta(2.5, ctx), lambda d: mp.zeta(mp.mpf(5) / 2)),
    "l_chi4(3)": (lambda ctx: l_chi4(3, ctx), lambda d: mp.pi**3 / 32),
    "l_chi4(4)": (lambda ctx: l_chi4(4, ctx), _beta4),
    "l_psi(1)": (lambda ctx: l_psi(1, ctx), lambda d: mp.log(2)),
    "l_psi(3)": (lambda ctx: l_psi(3, ctx), lambda d: 3 * mp.zeta(3) / 4),
}


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("name", list(ALTERNATING_CASES))
def test_alternating_sums(name, digits):
    route, reference = ALTERNATING_CASES[name]
    _holds(route(PrecisionContext(digits=digits)), reference, digits)
