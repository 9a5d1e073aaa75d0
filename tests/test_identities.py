"""Registry integrity, report semantics, and the verification driver."""

import hashlib
from dataclasses import replace

import mpmath as mp
import pytest

from conftest import cold_reports
from thetal import identities, lvalues
from thetal.context import DomainError
from thetal.identities import (
    DEFAULT_GRID,
    IDENTITY_IDS,
    REGISTRY,
    RunConfig,
    Side,
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
THEOREMS = ("I17", "I18", "I19", "I20")
COROLLARIES = ("I21", "I22", "I23")

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

    def test_q_routes_name_their_table_ids(self):
        # I26a-d follow lvalues.ROUTE_IDS: each names the nome integral that
        # l_value(form, s, "q_integral") runs
        got = [REGISTRY[f"I26{c}"].lhs_method for c in "abcd"]
        table = lvalues.ROUTE_IDS.values()
        assert got == [f"q_integral({ids[1]})" for ids in table]

    def test_value_entries_declare_their_pairs(self):
        # every value entry is (label, Side, Side) pairs as data, and only those
        for id_ in IDENTITY_IDS:
            e = REGISTRY[id_]
            assert bool(e.pairs) == (e.kind == "value"), id_
            assert (e.evaluate is None) == (e.kind == "value"), id_
            for label, *sides in e.pairs:
                assert isinstance(label, str)
                assert len(sides) == 2 and all(isinstance(s, Side) for s in sides)

    def test_no_pair_plays_two_readers_of_one_shared_pass(self):
        # Mellin at s = 3, 4 and the four nome integrals are members of one
        # half-period pass (lvalues._u_pass), and the double series and
        # alpha_integral read one reduction pass (lvalues._kdf_family), so no
        # pair may play two readers of one pass against each other
        shared = {
            "mellin": "_u_pass",
            "q_integral": "_u_pass",
            "double_series": "_kdf_family",
            "alpha_integral": "_kdf_family",
        }
        played = [(id_, label, a.route, b.route)
                  for id_ in VALUE for label, a, b in REGISTRY[id_].pairs]
        assert set(shared) <= {r for *_, a, b in played for r in (a, b)}
        for id_, label, a, b in played:
            assert a not in shared or shared[a] != shared.get(b), (id_, label)

    def test_unknown_id(self, config):
        with pytest.raises(DomainError):
            identity_info("I99")
        with pytest.raises(DomainError):
            verify_all(replace(config, ids=("I1", "bogus")))


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(digits=3),
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

    @pytest.mark.parametrize("q", ("1e-20", "1e-22", "1e-30", "1e-50", "1e-100"))
    @pytest.mark.parametrize("id_", ("I7", "I8"))
    def test_log_kernels_hold_at_small_nomes(self, id_, q, config):
        # alpha ~ 16 q there, and the kernels' closed sides read their
        # argument, not its rounded complement 1 - alpha
        r = verify(id_, replace(config, grid=(q,)))
        assert r.status == "pass"
        assert r.digits_agreed >= config.digits - 2

    @pytest.mark.parametrize("q", ("1e-22", "1e-30", "1e-50"))
    def test_eisenstein_difference_holds_at_small_nomes(self, q, config):
        # M(q) - M(q^2) ~ 240 q summed as one series: the difference of the
        # two M, which share a 1, kept 16, 8 and 0 digits here at 20
        r = verify("I11", replace(config, grid=(q,)))
        assert r.status == "pass"
        assert r.digits_agreed >= config.digits - 2

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
        # every value identity is held to two digits short of the precision
        for id_ in VALUE:
            assert verify(id_, config).target == config.digits - 2

    @pytest.mark.parametrize("id_", ("I26a", "I26b", "I26c", "I26d"))
    def test_nome_integrals_follow_precision(self, id_):
        # the nome integrals are certified to the requested precision
        cfg = RunConfig(digits=50)
        r = verify(id_, cfg)
        assert r.target == 48
        assert r.status == "pass", (r.lhs, r.rhs, r.rel_err)
        assert r.digits_agreed >= 48

    def test_truncated_square_gets_bound_derived_target(self, config):
        # margin-1/2 specs promise under a digit at this budget; the entry
        # must ask only for what the tail bound vouches for, and still pass
        r = verify("I17", replace(config, kdf_strategy="double_truncate"))
        assert r.status == "pass"
        assert r.target <= 2
        r = verify("I21", replace(config, kdf_strategy="double_truncate"))
        assert r.status == "pass"

    def test_corollaries_promise_digits_from_both_sides(self, config, monkeypatch):
        # under the truncated square a corollary's target is what its bounds
        # vouch for, and the closed side's 5F4 bound counts as well
        cfg = replace(config, kdf_strategy="double_truncate")
        assert verify("I23", cfg).target >= 1
        real = lvalues.pfq

        def inflated(*args):
            res = real(*args)
            return res._replace(error_estimate=abs(res.value) / 10)

        monkeypatch.setattr(lvalues, "pfq", inflated)
        assert verify("I23", cfg).target == 0

    def test_truncated_square_targets_are_pinned(self, config):
        # the report JSON leaves the target out, so the pinned digest cannot
        # see the promised-digits rule move; these can
        cfg = replace(config, kdf_strategy="double_truncate")
        reports = verify_all(replace(cfg, ids=THEOREMS + COROLLARIES))
        assert [r.target for r in reports] == [0, 0, 2, 0, 0, 0, 2]
        assert [r.status for r in reports] == ["pass"] * 7

    def test_each_distinct_side_evaluated_once(self, config, monkeypatch):
        # I25's three sides read three 5F4 sums between them, each summed
        # once however many pairs the side stands in
        calls = []
        real = lvalues.pfq

        def counting(*args):
            calls.append(args[:2])
            return real(*args)

        monkeypatch.setattr(lvalues, "pfq", counting)
        assert verify("I25", config).status == "pass"
        assert len(calls) == 3

    def test_iterated_strategy(self, config):
        r = verify("I17", replace(config, kdf_strategy="iterated"))
        assert r.status == "pass"
        assert r.target == 5
        assert r.digits_agreed >= 5


class TestSharedDoubleSeries:
    """A corollary is its theorem's weighted double series under another
    scale, and all six specs share one reduction pass, so the registry
    evaluates each spec once."""

    def test_corollaries_same_cold_and_after_theorems(self, config):
        lvalues.kdf_weighted_sum.cache_clear()
        cold = reports_to_json([verify(i, config) for i in COROLLARIES])
        lvalues.kdf_weighted_sum.cache_clear()
        for id_ in THEOREMS[:3]:
            verify(id_, config)
        warm = reports_to_json([verify(i, config) for i in COROLLARIES])
        assert cold == warm

    def test_one_joint_reduction_for_all_specs(self, config, monkeypatch):
        calls = []
        real = lvalues.kdf_reductions

        def counting(specs, *args):
            calls.append(specs)
            return real(specs, *args)

        def single(*args):
            raise AssertionError("a single-spec reduction in a registry pass")

        lvalues.kdf_weighted_sum.cache_clear()
        lvalues._kdf_family.cache_clear()
        monkeypatch.setattr(lvalues, "kdf_reductions", counting)
        monkeypatch.setattr(lvalues, "kdf_full", single)
        reports = verify_all(replace(config, ids=THEOREMS + COROLLARIES))
        assert [r.status for r in reports] == ["pass"] * 7
        assert calls == [tuple(lvalues.KDF_SPECS.values())]


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
        exact, close = (
            identities._compare(config, (("x", one, rhs),)) for rhs in (one, near)
        )
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

    def test_reports_do_not_depend_on_order(self, config):
        # which identity fills a shared memo first must not move a report
        ids = ("I17", "I18", "I19", "I20", "I21", "I22", "I23", "I24",
               "I26a", "I26b", "I26c", "I26d")
        assert cold_reports(config, ids[::-1]) == cold_reports(config, ids)

    def test_report_bytes_are_pinned(self):
        # the 20-digit JSON of every identity, hashed; a change that moves
        # report bytes on purpose updates the hash and lists the moved fields
        text = reports_to_json(verify_all(RunConfig(digits=20)))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "082c7795299c0cb657a66d060f0289973a74f1d0736b49464f1d4e4226cf3888"

    def test_reports_are_plain_data(self, config):
        r = verify("I27", config)
        assert isinstance(r, VerificationReport)
        assert isinstance(r.lhs, str) and isinstance(r.rhs, str)
        assert isinstance(r.digits_agreed, int)
