from dataclasses import replace
from fractions import Fraction
from math import isqrt

import pytest
import mpmath as mp

from thetal import lvalues
from thetal.context import DomainError, PrecisionContext
from thetal.identities import report_to_dict, verify_all


@pytest.fixture
def ctx20():
    return PrecisionContext(digits=20)


@pytest.fixture
def ctx30():
    return PrecisionContext(digits=30)


def agrees(a, b, digits):
    """True when a and b agree to `digits` significant digits."""
    with mp.workdps(mp.mp.dps + 10):
        a, b = mp.mpf(a), mp.mpf(b)
        if a == b:
            return True
        return abs(a - b) / max(abs(a), abs(b)) <= mp.mpf(10) ** (-digits)


def cold_reports(config, ids):
    """Each id's report dict from one verify_all over ids, in that order,
    with the memos that identities share emptied first."""
    for memo in (lvalues._u_pass, lvalues._kdf_family,
                 lvalues.kdf_weighted_sum, lvalues._l_value_cached):
        memo.cache_clear()
    reports = verify_all(replace(config, ids=tuple(ids)))
    return {r.id: report_to_dict(r) for r in reports}


def pochhammer(a, n):
    """Exact rising factorial (a)_n = a (a+1) ... (a+n-1) of a rational a,
    the slow reference for term ratios.

    The empty product (n = 0) is exactly 1 for any a.
    """
    if n < 0 or n != int(n):
        raise DomainError("pochhammer index must be a non-negative integer")
    if not isinstance(a, (int, Fraction)):
        raise DomainError("pochhammer takes an int or Fraction argument")
    acc = Fraction(1)
    af = Fraction(a)
    for k in range(int(n)):
        acc *= af + k
    return acc


def g_binary_theta(N):
    """a_1..a_N of g from its binary theta series, independent of the
    package: a_n = 1/2 sum over x odd, y even, x^2 + y^2 = n of x^2 - y^2."""
    a = [0] * (N + 1)
    for x in range(1, isqrt(N) + 1, 2):
        for y in range(0, isqrt(N - x * x) + 1, 2):
            # +-x cancels the 1/2; +-y doubles every y > 0
            a[x * x + y * y] += (x * x - y * y) * (2 if y else 1)
    return tuple(a[1:])
