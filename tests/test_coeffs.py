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


def _naive_lambert(N):
    """The divisor sum as the plain double loop over the pairs nk <= N."""
    chi = (0, 1, 0, -1)
    a = [0] * (N + 1)
    for n in range(1, N + 1):
        psi = n * n if n % 2 == 1 else -n * n
        for k in range(1, N // n + 1):
            c = chi[k & 3]
            if c:
                a[n * k] += psi * c
    return tuple(a[1:])


_ORACLES = {"f": _naive_lambert, "g": g_binary_theta}


def test_lambert_matches_naive_divisor_sum():
    # every small N, then both sides of each perfect square, where the
    # hyperbola split moves its cut isqrt(N) and the lattice pass gains an x
    # or a y; both routes of each form are held to its plain loop
    squares = {s * s + d for s in range(2, 101) for d in (-1, 0, 1)}
    for form, oracle in _ORACLES.items():
        for N in sorted(set(range(1, 41)) | squares | {2000, 12345}):
            want = oracle(N)
            assert coeffs_lambert(form, N).coeffs == want, (form, N)
            assert coeffs_convolution(form, N).coeffs == want, (form, N)


def test_convolution_matches_naive_divisor_sum_small():
    # the A^2 seed at the smallest N, where A has one or two terms
    for N in range(1, 41):
        assert coeffs_convolution("f", N).coeffs == _naive_lambert(N), N


def test_lambert_int64_headroom_refused(monkeypatch):
    # |a_m| < 2 m^2 for f and |a_m| <= d(m) m <= 2 m isqrt(m) for g, so
    # 2 N^2 >= 2^63, or 2 N isqrt(N) >= 2^63, must be refused before any
    # allocation; 2770596763269 is the smallest N with the latter
    class Allocated(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Allocated

    for name in ("zeros", "arange"):
        monkeypatch.setattr(theta.np, name, refuse)
    for form, first in (("f", 2**31), ("g", 2770596763269)):
        with pytest.raises(NumericsError):
            coeffs_lambert(form, first)
        with pytest.raises(Allocated):  # the largest N inside the bound goes on
            coeffs_lambert(form, first - 1)


def test_lambert_divisor_sum_small():
    cs = coeffs_lambert("f", 4)
    # a_2: only the divisor pair (n,k) = (2,1) contributes, psi(2) 2^2 = -4
    assert cs.coeffs == (1, -4, 8, -16)


def test_convolution_equals_lambert_exactly():
    N = 10**5
    for form in ("f", "g"):
        assert coeffs_convolution(form, N).coeffs == coeffs_lambert(form, N).coeffs


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
    # after the A^2 seed, two factors of A and two of theta4 per form, each
    # checked first.  A has 316 terms below 10^5, so the seed's pair counts
    # sum to 316^2, and each is at most 316 (one partner per exponent): the
    # first bound of each form is at most that times A's 316 unit terms
    assert len(bounds) == 8
    assert bounds[0] <= 316 * 316 and bounds[4] <= 316 * 316
    assert max(bounds) < 2**63


def test_int64_overflow_refused():
    dense = np.full(4, 2**61, dtype=np.int64)
    with pytest.raises(NumericsError):
        theta._times_sparse(dense, [(0, 1), (1, -2), (2, 2)])


def _python_times(dense, terms):
    """dense * sum c q^e truncated to len(dense), in Python ints."""
    dense = [int(d) for d in dense]
    return [sum(c * dense[i - e] for e, c in terms if e <= i) for i in range(len(dense))]


@pytest.mark.parametrize("peak, terms, width", (
    (4681, [(0, 2), (1, 2), (2, 2), (3, 1)], np.int16),  # bound 2^15 - 1
    (2**13, [(0, 2), (1, 1), (2, 1)], np.int32),  # bound 2^15
    (2**31 - 1, [(0, 1)], np.int32),  # bound 2^31 - 1, prime: one unit term
    (2**29, [(0, 2), (1, 1), (2, 1)], np.int64),  # bound 2^31
))
def test_times_sparse_width_edges(peak, terms, width):
    # the last coefficient of each product reaches the bound, so a width
    # one step too narrow wraps there; a negated input reaches -bound
    for sign in (1, -1):
        dense = np.full(5, sign * peak, dtype=np.int64)
        out = theta._times_sparse(dense, terms)
        assert out.dtype == width
        assert out.tolist() == _python_times(dense, terms)
        assert max(map(abs, out.tolist())) == peak * sum(abs(c) for _, c in terms)


# the least N whose third theta-product stage for f, dense A^4 times
# theta4(q), has an _int64_bound of 2^31 or more, found by bisection (the
# bound never falls as N grows)
F_THIRD_STAGE_INT64 = 592901


def test_f_third_stage_crosses_into_int64(monkeypatch):
    bounds = []
    real = theta._int64_bound

    def spy(dense, terms):
        bounds.append(real(dense, terms))
        return bounds[-1]

    monkeypatch.setattr(theta, "_int64_bound", spy)
    for N in (F_THIRD_STAGE_INT64 - 1, F_THIRD_STAGE_INT64):
        del bounds[:]
        assert coeffs_convolution("f", N).coeffs == coeffs_lambert("f", N).coeffs
        assert (bounds[2] >= 2**31) == (N == F_THIRD_STAGE_INT64)


def test_g_vanishes_off_1_mod_4():
    # g = q prod (1 - q^{4n})^6, the stride lvalues._g_terms reads
    N = 10**5
    for route in (coeffs_convolution, coeffs_lambert):
        cs = route("g", N).coeffs
        assert not any(a for m, a in enumerate(cs, 1) if m % 4 != 1), route.__name__


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
        coeffs_lambert("h", 10)
    with pytest.raises(DomainError):
        coeffs_lambert("g", 0)
    with pytest.raises(DomainError):
        CoeffStream("f", (1, -4)).a(3)
