import pytest
import mpmath as mp
import numpy as np

from thetal import theta
from thetal.context import DomainError, NumericsError, PrecisionContext
from thetal.theta import CoeffStream, coeffs_convolution, coeffs_lambert, form_f, form_g

from conftest import agrees, g_binary_theta


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_f_small_coefficients():
    cs = coeffs_convolution("f", 8)
    assert cs.coeffs == (1, -4, 8, -16, 26, -32, 48, -64)
    assert cs.a(1) == 1 and cs.a(2) == -4


def test_g_small_coefficients():
    cs = coeffs_convolution("g", 10)
    assert cs.coeffs == (1, 0, 0, 0, -6, 0, 0, 0, 9, 0)


def test_lambert_divisor_sum_small():
    cs = coeffs_lambert("f", 4)
    # a_2: only the divisor pair (n,k) = (2,1) contributes, psi(2) 2^2 = -4
    assert cs.coeffs == (1, -4, 8, -16)


def test_convolution_equals_lambert_exactly():
    N = 10**5
    assert coeffs_convolution("f", N).coeffs == coeffs_lambert("f", N).coeffs


def test_g_equals_binary_theta_series():
    N = 10**5
    assert coeffs_convolution("g", N).coeffs == g_binary_theta(N)


def test_int64_bound_checked_at_1e5(monkeypatch):
    bounds = []
    real = theta._int64_bound

    def spy(dense, terms):
        bounds.append(real(dense, terms))
        return bounds[-1]

    monkeypatch.setattr(theta, "_int64_bound", spy)
    coeffs_convolution("f", 10**5)
    coeffs_convolution("g", 10**5)
    # four factors of A and two of theta4 per form, each checked first
    assert len(bounds) == 12
    assert max(bounds) < 2**63


def test_int64_overflow_refused():
    dense = np.full(4, 2**61, dtype=np.int64)
    with pytest.raises(NumericsError):
        theta._times_sparse(dense, [(0, 1), (1, -2), (2, 2)])


def test_g_cm_vanishing():
    cs = coeffs_convolution("g", 2000)
    for p in range(3, 2001, 4):
        if _is_prime(p):
            assert cs.a(p) == 0, f"a_{p}(g) should vanish"


def test_coeffs_match_forms_numerically(ctx30):
    # partial q-expansion against the theta-product evaluators
    N = 60
    cf = coeffs_convolution("f", N)
    cg = coeffs_convolution("g", N)
    with ctx30.working():
        q = mp.mpf("0.2")
        pf = sum(cf.a(n) * q**n for n in range(1, N + 1))
        pg = sum(cg.a(n) * q**n for n in range(1, N + 1))
        tail = q ** (N + 1) / (1 - q) * (N + 2) ** 3 * 300
        assert abs(form_f(q, ctx30) - pf) < tail
        assert abs(form_g(q, ctx30) - pg) < tail


def test_bad_arguments():
    with pytest.raises(DomainError):
        coeffs_convolution("h", 10)
    with pytest.raises(DomainError):
        coeffs_convolution("f", 0)
    with pytest.raises(DomainError):
        coeffs_lambert("g", 10)
    with pytest.raises(DomainError):
        CoeffStream("f", (1, -4)).a(3)
