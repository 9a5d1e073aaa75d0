import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath as mp
import numpy as np

from thetal.context import DomainError, NumericsError, PrecisionContext
from thetal.series import extrapolate_powerlog, richardson_power

from conftest import agrees


def test_extrapolate_partial_sums_zeta32(ctx30):
    # partial sums of n^-3/2 have a pure N^-1/2 power tail: the fitted log
    # coefficients come out near zero
    with ctx30.working():
        samples = []
        s, n = mp.mpf(0), 1
        for j in range(8):
            target = 64 * 2**j
            while n <= target:
                s += mp.mpf(n) ** mp.mpf("-1.5")
                n += 1
            samples.append((target, s))
    res = extrapolate_powerlog(samples, mp.mpf("0.5"), ctx30)
    with ctx30.working():
        assert agrees(res.value, mp.zeta(1.5), 6)
        assert abs(res.value - mp.zeta(1.5)) <= 10 * res.error_estimate


def test_richardson_power_ladder(ctx30):
    with ctx30.working():
        samples = []
        s, n = mp.mpf(0), 1
        for j in range(9):
            target = 64 * 2**j
            while n <= target:
                s += mp.mpf(n) ** mp.mpf("-1.5")
                n += 1
            samples.append((target, s))
    val, est = richardson_power(samples, mp.mpf("0.5"), ctx30)
    with ctx30.working():
        assert agrees(val, mp.zeta(1.5), 20)
    with pytest.raises(DomainError):
        richardson_power([(64, mp.mpf(1)), (100, mp.mpf(1))], 0.5, ctx30)


def test_richardson_power_float64_arrays_match_mpf(ctx30):
    # the ladder of the iterated inner sums: float64 arrays, elementwise
    limits = np.array([1.0, -2.5, 0.125])
    slopes = np.array([3.0, 0.5, -1.0])
    samples = [
        (N, limits + N**-1.5 * (1.0 + slopes / N)) for N in (32 * 2**j for j in range(6))
    ]
    val, est = richardson_power(samples, 1.5, ctx30)
    assert val.dtype == np.float64 and val.shape == limits.shape
    for i in range(len(limits)):
        column = [(N, float(s[i])) for N, s in samples]
        ref, ref_est = richardson_power(column, 1.5, ctx30)
        assert abs(val[i] - float(ref)) <= 1e-14 * abs(float(ref))
        assert abs(est[i] - float(ref_est)) <= 1e-14
        assert abs(val[i] - limits[i]) <= 1e-14


def test_richardson_power_rejects_nan_in_either_arithmetic(ctx30):
    arrays = [(N, np.array([1.0, 2.0])) for N in (64, 128, 256)]
    arrays[1] = (128, np.array([1.0, np.nan]))
    with pytest.raises(NumericsError):
        richardson_power(arrays, 0.5, ctx30)
    scalars = [(N, mp.mpf(1)) for N in (64, 128, 256)]
    scalars[1] = (128, mp.nan)
    with pytest.raises(NumericsError):
        richardson_power(scalars, 0.5, ctx30)


def test_extrapolate_exact_model(ctx30):
    # f(M) = 2 - log(M)/sqrt(M) + 3/sqrt(M) lies exactly in the model space
    with ctx30.working():
        samples = [
            (M, 2 - mp.log(M) / mp.sqrt(M) + 3 / mp.sqrt(M))
            for M in (64 * 2**j for j in range(7))
        ]
    res = extrapolate_powerlog(samples, mp.mpf("0.5"), ctx30)
    assert agrees(res.value, 2, 25)


@settings(max_examples=15, deadline=None)
@given(
    c0=st.floats(min_value=-5, max_value=5),
    c1=st.floats(min_value=-5, max_value=5),
    v=st.floats(min_value=-10, max_value=10),
)
def test_richardson_recovers_synthetic_limit(c0, c1, v):
    ctx = PrecisionContext(digits=25)
    with ctx.working():
        e = mp.mpf("1.5")
        samples = [
            (N, mp.mpf(v) + mp.mpf(N) ** -e * (mp.mpf(c0) + mp.mpf(c1) / N))
            for N in (32 * 2**j for j in range(8))
        ]
    val, est = richardson_power(samples, mp.mpf("1.5"), ctx)
    with ctx.working():
        assert abs(val - mp.mpf(v)) <= max(10 * est, mp.mpf(10) ** -18)
