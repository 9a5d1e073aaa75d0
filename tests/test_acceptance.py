"""End-to-end acceptance gates.

One test per criterion, every numeric gate at its stated tolerance, all at
30 digits.  `pytest -v` therefore prints one pass/fail line per criterion;
each test also prints its own summary line for log scraping.  The module
reuses the package-level caches (l_value memoizes per context), so the whole
gate runs in minutes on a laptop.
"""

import time
from fractions import Fraction

import mpmath as mp
import pytest

from thetal.context import PrecisionContext
from thetal.hyper import kdf_converges, pfq
from thetal.identities import IDENTITY_IDS, REGISTRY, RunConfig, verify
from thetal.lvalues import (
    KDF_SPECS,
    LF4_ALT,
    LF4_POS1,
    LF4_POS3,
    alpha_integral,
    kdf_theorem_rhs,
    l_chi4,
    l_value,
    mellin,
    q_integral,
)
from thetal.theta import coeffs_convolution, coeffs_lambert

from conftest import cold_reports, g_binary_theta

DIGITS = 30


@pytest.fixture(scope="module")
def ctx():
    return PrecisionContext(digits=DIGITS)


@pytest.fixture(scope="module")
def truth_f3(ctx):
    with ctx.working():
        return mp.pi**3 * mp.log(2) / 32


def _rel(a, b):
    with mp.workdps(DIGITS + 15):
        return abs(a - b) / max(abs(a), abs(b))


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_closed_form_reproduction(ctx, truth_f3):
    routes = (
        ("factorized", lambda: l_value("f", 3, "factorized", ctx).value, -10),
        ("alpha_integral", lambda: alpha_integral("thm11_1", ctx)[0], -10),
        ("q_integral", lambda: q_integral("prop21_1", ctx)[0], -8),
        ("mellin", lambda: l_value("f", 3, "mellin", ctx).value, -10),
    )
    worst = []
    for name, fn, exponent in routes:
        t0 = time.perf_counter()
        v = fn()
        dt = time.perf_counter() - t0
        rel = _rel(v, truth_f3)
        assert dt < 60, f"{name} took {dt:.1f}s"
        assert rel <= mp.mpf(10) ** exponent, f"{name} off by {mp.nstr(rel, 3)}"
        worst.append(float(rel))
    _report(1, True, f"four routes hit pi^3 log2 / 32, worst rel {max(worst):.2e}")


def test_criterion_02_weight3_reduction_for_f(ctx, truth_f3):
    v_ir, e_ir, _ = kdf_theorem_rhs("thm11_1", ctx, strategy="integral_reduction")
    assert _rel(v_ir, truth_f3) <= mp.mpf("1e-10")

    v_it, _, _ = kdf_theorem_rhs("thm11_1", ctx, strategy="iterated")
    assert _rel(v_it, truth_f3) <= mp.mpf("1e-5")

    ctx_m = PrecisionContext(digits=DIGITS, max_terms=4_000_000)  # M = 2000
    v_dt, e_dt, _ = kdf_theorem_rhs("thm11_1", ctx_m, strategy="double_truncate")
    assert abs(v_dt - truth_f3) <= e_dt, "truncation bound dishonest"
    _report(2, True,
            f"integral_reduction {float(_rel(v_ir, truth_f3)):.1e}, "
            f"iterated {float(_rel(v_it, truth_f3)):.1e}, "
            f"truncated square within its own bound")


def test_criterion_03_weight3_reduction_for_g(ctx):
    v, _, _ = kdf_theorem_rhs("thm11_2", ctx)
    r_mellin = _rel(v, l_value("g", 3, "mellin", ctx).value)
    r_alpha = _rel(v, l_value("g", 3, "alpha_integral", ctx).value)
    # the alpha integral is this reduction read through the same memo, so
    # the nome integral is the independent integral route here
    r_nome = _rel(v, l_value("g", 3, "q_integral", ctx).value)
    r_closed = _rel(v, l_value("g", 3, "closed_form", ctx).value)
    assert r_mellin <= mp.mpf("1e-10")
    assert r_alpha <= mp.mpf("1e-10")
    assert r_nome <= mp.mpf("1e-10")
    assert r_closed <= mp.mpf("1e-8")
    _report(3, True,
            f"mellin {float(r_mellin):.1e}, alpha {float(r_alpha):.1e}, "
            f"nome {float(r_nome):.1e}, 5F4 closed form {float(r_closed):.1e}")


def test_criterion_04_weight4_reduction_for_f(ctx):
    v, _, _ = kdf_theorem_rhs("thm12_1", ctx)
    with ctx.working():
        ref = mp.pi**2 / 12 * l_chi4(4, ctx).value
    r = _rel(v, ref)
    assert r <= mp.mpf("1e-10")

    with ctx.working():
        v_alt = pfq(LF4_ALT, -1, ctx).value
        v_split = pfq(LF4_POS1, 1, ctx).value - pfq(LF4_POS3, 1, ctx).value / 81
        v_chi = l_chi4(4, ctx).value
    spread = max(_rel(v_alt, v_split), _rel(v_alt, v_chi), _rel(v_split, v_chi))
    assert spread <= mp.mpf("1e-12")
    _report(4, True, f"reduction {float(r):.1e}, 5F4 triple spread {float(spread):.1e}")


def test_criterion_05_weight4_reduction_for_g(ctx):
    v, _, _ = kdf_theorem_rhs("thm12_2", ctx)
    r_mellin = _rel(v, l_value("g", 4, "mellin", ctx).value)
    r_dirichlet = _rel(v, l_value("g", 4, "dirichlet_sum", ctx).value)
    assert r_mellin <= mp.mpf("1e-10")
    assert r_dirichlet <= mp.mpf("1e-8")
    _report(5, True,
            f"mellin {float(r_mellin):.1e}, "
            f"coefficient sum (10^5 terms) {float(r_dirichlet):.1e}")


def test_criterion_06_reduction_corollaries(ctx):
    cfg = RunConfig(digits=DIGITS)
    agreed = {}
    for id_ in ("I21", "I22", "I23"):
        r = verify(id_, cfg)
        assert r.status == "pass", (id_, r.lhs, r.rhs)
        assert r.digits_agreed >= 8
        agreed[id_] = r.digits_agreed
    _report(6, True, f"corollaries agreed to {agreed} digits")


def test_criterion_07_pointwise_identity_suite():
    cfg = RunConfig(digits=DIGITS)
    ids = tuple(i for i in IDENTITY_IDS if REGISTRY[i].kind == "pointwise")
    assert len(ids) == 17
    floors = []
    for id_ in ids:
        r = verify(id_, cfg)
        assert r.status == "pass", (id_, r.rel_err, r.sample_points)
        assert r.digits_agreed >= DIGITS - 2
        floors.append(r.digits_agreed)
    _report(7, True, f"17 pointwise identities, worst agreement {min(floors)} digits")


def test_criterion_08_coefficient_oracles():
    n = 10**5
    conv = coeffs_convolution("f", n).coeffs
    lam = coeffs_lambert("f", n).coeffs
    assert conv == lam
    assert conv[:3] == (1, -4, 8)
    g = coeffs_convolution("g", n)
    assert g.coeffs == g_binary_theta(n)
    assert (g.a(1), g.a(5)) == (1, -6)
    sieve = [True] * (n + 1)
    sieve[0] = sieve[1] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    bad = [p for p in range(2, n + 1) if sieve[p] and p % 4 == 3 and g.a(p) != 0]
    assert not bad, f"nonzero at split-inert primes {bad[:5]}"
    _report(8, True, "f and g oracle equality to n=1e5, inert primes vanish, "
                     "spot values hit")


def test_criterion_09_exact_margin_table():
    expected = {
        "thm11_1": "1/2", "thm11_2": "1/2", "thm12_2a": "1/2",
        "thm12_1a": "1", "thm12_1b": "1",
        "thm12_2b": "3/2",
    }
    for name, want in expected.items():
        report = kdf_converges(KDF_SPECS[name])
        assert report.margins == (Fraction(want),) * 3, name
        assert report.convergent_at_unit
    _report(9, True, "all six parameter sets match the exact margin table")


def test_criterion_10_robustness(ctx):
    v0, e0, _ = mellin("f", 3, ctx)
    with ctx.working():
        half, double = mp.pi / 2, 2 * mp.pi
    for split in (half, double):
        v, e, _ = mellin("f", 3, ctx, split=split)
        assert abs(v - v0) <= max(e, e0), "split sensitivity"

    guarded = PrecisionContext(digits=DIGITS, guard=25)
    for form, s, method in (("f", 3, "mellin"), ("g", 4, "alpha_integral")):
        a = l_value(form, s, method, ctx)
        b = l_value(form, s, method, guarded)
        assert abs(a.value - b.value) <= max(a.error_estimate, b.error_estimate)

    ids = ("I18", "I20", "I26b", "I26d")
    cfg = RunConfig(digits=DIGITS)
    assert cold_reports(cfg, ids[::-1]) == cold_reports(cfg, ids)
    _report(10, True, "split invariance, guard stability, order independence")
