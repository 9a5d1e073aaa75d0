"""Registry integrity, report semantics, and the verification driver."""

from dataclasses import replace

import mpmath as mp
import pytest

from thetal import identities
from thetal.context import DomainError
from thetal.identities import (
    DEFAULT_GRID,
    IDENTITY_IDS,
    REGISTRY,
    RunConfig,
    VerificationReport,
    identity_info,
    report_to_dict,
    reports_to_json,
    verify,
    verify_all,
)

POINTWISE = tuple(i for i in IDENTITY_IDS if REGISTRY[i].kind == "pointwise")
VALUE = tuple(i for i in IDENTITY_IDS if REGISTRY[i].kind == "value")
EXACT = tuple(i for i in IDENTITY_IDS if REGISTRY[i].kind == "exact")

SCHEMA_KEYS = (
    "id", "lhs", "rhs", "abs_err", "rel_err", "digits_agreed", "lhs_method",
    "rhs_method", "sample_points", "wall_time_s", "precision_digits", "status",
)


@pytest.fixture(scope="module")
def config():
    return RunConfig(digits=20)


class TestRegistryShape:
    def test_census(self):
        assert len(IDENTITY_IDS) == 33
        assert IDENTITY_IDS[0] == "I1"
        assert IDENTITY_IDS[-1] == "I30"
        assert len(POINTWISE) == 17  # I1..I16 plus I28
        assert len(VALUE) == 13
        assert len(EXACT) == 3
        assert set(EXACT) == {"I27", "I29", "I30"}

    def test_entries_documented(self):
        for id_ in IDENTITY_IDS:
            e = REGISTRY[id_]
            assert e.description and e.lhs_method and e.rhs_method
            assert e.lhs_method != e.rhs_method

    def test_unknown_id(self, config):
        with pytest.raises(DomainError):
            identity_info("I99")
        with pytest.raises(DomainError):
            verify_all(replace(config, ids=("I1", "bogus")))


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(digits=3),
        dict(jobs=0),
        dict(grid=("1.5",)),
        dict(grid=("-0.1",)),
        dict(grid=("zebra",)),
        dict(grid=()),
        dict(kdf_strategy="magic"),
    ])
    def test_rejected(self, kw):
        with pytest.raises(DomainError):
            RunConfig(**kw)

    def test_default_grid(self):
        cfg = RunConfig()
        assert cfg.grid == DEFAULT_GRID
        assert "e-pi" in cfg.grid


class TestPointwise:
    @pytest.mark.parametrize("id_", POINTWISE)
    def test_passes_with_margin(self, id_, config):
        r = verify(id_, config)
        assert r.status == "pass"
        assert r.digits_agreed >= config.digits - 2
        assert r.sample_points == DEFAULT_GRID
        assert r.precision_digits == 20

    def test_custom_grid_is_echoed(self, config):
        r = verify("I1", replace(config, grid=("0.15", "0.4")))
        assert r.status == "pass"
        assert r.sample_points == ("0.15", "0.4")


class TestValueIdentities:
    @pytest.mark.parametrize("id_", VALUE)
    def test_passes(self, id_, config):
        r = verify(id_, config)
        assert r.status == "pass", (r.lhs, r.rhs, r.sample_points)
        assert r.digits_agreed >= r.target

    def test_theorem_targets_default_strategy(self, config):
        for id_ in ("I17", "I18", "I19", "I20"):
            assert verify(id_, config).target == 10
        for id_ in ("I21", "I22", "I23"):
            assert verify(id_, config).target == 8

    def test_truncated_square_gets_bound_derived_target(self, config):
        # margin-1/2 specs promise under a digit at this budget; the entry
        # must ask only for what the tail bound vouches for, and still pass
        r = verify("I17", replace(config, kdf_strategy="double_truncate"))
        assert r.status == "pass"
        assert r.target <= 2
        r = verify("I21", replace(config, kdf_strategy="double_truncate"))
        assert r.status == "pass"

    def test_iterated_strategy(self, config):
        r = verify("I17", replace(config, kdf_strategy="iterated"))
        assert r.status == "pass"
        assert r.target == 5
        assert r.digits_agreed >= 5


class TestExactIdentities:
    @pytest.mark.parametrize("id_", EXACT)
    def test_exact_pass(self, id_, config):
        r = verify(id_, config)
        assert r.status == "pass"
        assert r.rel_err == "0"
        assert r.abs_err == "0"
        assert r.digits_agreed == r.precision_digits == 20

    def test_margin_table_labels(self, config):
        r = verify("I30", config)
        assert r.sample_points[0] == "sum of 18 margins"
        assert r.lhs == r.rhs == "15"


class TestReportSemantics:
    def test_schema_keys_and_order(self, config):
        d = report_to_dict(verify("I1", config))
        assert tuple(d) == SCHEMA_KEYS

    def test_digits_agreed_matches_rel_err(self, config):
        for id_ in ("I1", "I12", "I17", "I24", "I26a"):
            r = verify(id_, config)
            rel = mp.mpf(r.rel_err)
            if rel > 0:
                recomputed = int(mp.floor(-mp.log10(rel)))
                # the serialized rel_err carries 3 digits, so allow the
                # rounding to move the floor by one at decade boundaries
                assert abs(r.digits_agreed - recomputed) <= 1

    def test_zero_rel_err_reports_precision(self, config):
        r = verify("I29", config)
        assert r.rel_err == "0"
        assert r.digits_agreed == r.precision_digits

    def test_exact_numeric_agreement_beats_near_agreement(self, config):
        # both sides compare at digits + 15; an exact match must report that
        # precision, never less than the best a near match can reach
        with mp.workdps(config.digits + 15):
            one = mp.mpf(1)
            near = one + mp.mpf(10) ** -(config.digits + 14)
        reports = [
            identities._numeric_report(
                REGISTRY["I1"], config,
                identities.EvalOutcome((("x", one, rhs),), None), 0.0,
            )
            for rhs in (one, near)
        ]
        exact, close = reports
        assert exact.rel_err == "0.0"
        assert exact.digits_agreed == config.digits + 15
        assert exact.digits_agreed > close.digits_agreed

    def test_wall_time_suppressed_by_default(self, config):
        r = verify("I1", config)
        assert r.wall_time_s > 0
        assert report_to_dict(r)["wall_time_s"] == "0"
        assert report_to_dict(r, timings=True)["wall_time_s"] != "0"

    def test_target_override(self, config):
        r = verify("I1", replace(config, target_override=99))
        assert r.status == "fail"
        assert r.target == 99

    def test_failure_is_a_report_not_a_crash(self, config, monkeypatch):
        entry = REGISTRY["I1"]

        def boom(cfg, ctx):
            raise ValueError("synthetic route failure")

        monkeypatch.setitem(REGISTRY, "I1", replace(entry, evaluate=boom))
        r = verify("I1", config)
        assert r.status == "fail"
        assert r.lhs == "nan"
        assert "synthetic route failure" in r.sample_points[0]


class TestDriver:
    def test_filter_order_and_count(self, config):
        reports = verify_all(replace(config, ids=("I21", "I22", "I23")))
        assert [r.id for r in reports] == ["I21", "I22", "I23"]

    def test_parallel_equals_sequential(self, config):
        ids = ("I1", "I4", "I15", "I27", "I30")
        seq = verify_all(replace(config, ids=ids, jobs=1))
        par = verify_all(replace(config, ids=ids, jobs=3))
        assert reports_to_json(seq) == reports_to_json(par)
        for a, b in zip(seq, par):
            assert report_to_dict(a) == report_to_dict(b)

    def test_pool_no_larger_than_id_list(self, config, monkeypatch):
        # a stand-in pool records its size and runs the tasks in-process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(identities, "ProcessPoolExecutor", RecordingPool)
        ids = ("I27", "I29", "I30")
        reports = verify_all(replace(config, ids=ids, jobs=64))
        assert sizes == [3]
        assert [r.id for r in reports] == list(ids)
        verify_all(replace(config, ids=ids, jobs=2))
        assert sizes == [3, 2]

    def test_reports_are_plain_data(self, config):
        r = verify("I27", config)
        assert isinstance(r, VerificationReport)
        assert isinstance(r.lhs, str) and isinstance(r.rhs, str)
        assert isinstance(r.digits_agreed, int)
