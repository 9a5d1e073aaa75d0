"""Command line surface: parsing, output formats, exit codes."""

import json
import warnings

import mpmath as mp
import pytest

from conftest import agrees
from thetal import cli, theta
from thetal.cli import main
from thetal.context import MIN_DIGITS, QuadratureError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestThetaCommand:
    def test_spec_example(self, capsys):
        code, out, _ = run(capsys, "theta", "--fn", "theta3", "--q", "0.1",
                           "--digits", "25")
        assert code == 0
        assert "1.200200002000000200000000" in out

    def test_involution_fixed_point(self, capsys):
        _, out4, _ = run(capsys, "theta", "--fn", "theta4", "--u", "1")
        _, out2, _ = run(capsys, "theta", "--fn", "theta2", "--u", "1")
        assert out4.split("=")[1] == out2.split("=")[1]

    def test_tiny_nome(self, capsys):
        # a nome far below 2^-wp: M's summation floor is capped, not 2^(wp - exp)
        code, out, err = run(capsys, "theta", "--fn", "M", "--q",
                             "1e-1000000000000")
        assert (code, err) == (0, "")
        assert "= 1.0000000000000000000" in out

    def test_u_rejected_for_products(self, capsys):
        code, _, err = run(capsys, "theta", "--fn", "f", "--u", "1")
        assert code == 2
        assert "error:" in err

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "theta", "--fn", "g", "--q", "0.05",
                           "--format", "json", "--digits", "30")
        payload = json.loads(out)
        assert code == 0
        assert payload["fn"] == "g"
        with mp.workdps(40):
            got = mp.mpf(payload["value"])
            q = mp.mpf("0.05")
            assert agrees(got, q - 6 * q**5 + 9 * q**9, 14)


class TestAlphaCommand:
    def test_pair_sums_to_one(self, capsys):
        code, out, _ = run(capsys, "alpha", "--q", "0.1", "--format", "json",
                           "--digits", "30")
        payload = json.loads(out)
        assert code == 0
        with mp.workdps(40):
            total = mp.mpf(payload["alpha"]) + mp.mpf(payload["one_minus_alpha"])
            assert agrees(total, 1, 28)


class TestPfqCommand:
    def test_log_value(self, capsys):
        code, out, _ = run(capsys, "pfq", "--upper", "1,1", "--lower", "2",
                           "--z", "1/2", "--digits", "25")
        assert code == 0
        with mp.workdps(35):
            assert agrees(mp.mpf(out.split("=")[1]), 2 * mp.log(2), 23)

    def test_divergent_rejected(self, capsys):
        code, _, err = run(capsys, "pfq", "--upper", "1/2,1/2", "--lower", "1",
                           "--z", "1")
        assert code == 2
        assert "error:" in err

    def test_tail_guard_past_budget_is_exit_2(self, capsys):
        # 1 - z = 1e-25: the guard alone would need ~1e26 terms
        code, _, err = run(capsys, "pfq", "--upper", "1,1,1", "--lower",
                           "3/2,3/2", "--z", "0.9999999999999999999999999")
        assert code == 2
        assert "needs at least" in err


class TestKdfCommand:
    def test_spec_example_hits_3_pi_log2(self, capsys):
        code, out, _ = run(capsys, "kdf", "--a", "2", "--c", "5/2",
                           "--b", "1,1", "--d", "2", "--bp", "1/2,1/2",
                           "--dp", "1", "--x", "1", "--y", "1",
                           "--strategy", "integral_reduction",
                           "--format", "json", "--digits", "20")
        payload = json.loads(out)
        assert code == 0
        assert payload["margins"] == ["1/2", "1/2", "1/2"]
        assert payload["convergent_at_unit"] is True
        with mp.workdps(30):
            assert agrees(mp.mpf(payload["value"]), 3 * mp.pi * mp.log(2), 18)

    def test_divergent_corner_rejected(self, capsys):
        # zero margins: 2F1(1/2,1/2;1) against a flat second block
        code, _, err = run(capsys, "kdf", "--a", "1/2", "--c", "1",
                           "--b", "1/2", "--d", "1", "--bp", "1", "--dp", "1",
                           "--x", "1", "--y", "1")
        assert code == 2
        assert "error:" in err

    def test_overflow_is_one_error_line(self, capsys):
        # 1/(1 - x - y) at x + y = 1, outside its domain: one error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "kdf", "--a", "1,1", "--c", "1",
                                 "--b", "1", "--d", "1", "--bp", "1",
                                 "--dp", "1", "--x", "1/2", "--y", "1/2",
                                 "--strategy", "double_truncate")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1


class TestLvalueCommand:
    def test_spec_example(self, capsys):
        code, out, _ = run(capsys, "lvalue", "--form", "f", "--s", "3",
                           "--method", "factorized", "--digits", "30")
        assert code == 0
        with mp.workdps(40):
            want = mp.pi**3 * mp.log(2) / 32
            assert agrees(mp.mpf(out.splitlines()[0].split("=")[1]), want, 29)

    def test_dirichlet_rational_exponent(self, capsys):
        code, out, _ = run(capsys, "lvalue", "--form", "g", "--s", "7/2",
                           "--method", "dirichlet_sum", "--max-terms", "20000",
                           "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["terms_or_levels_used"] == 20000

    def test_rational_s_needs_dirichlet(self, capsys):
        code, _, err = run(capsys, "lvalue", "--form", "f", "--s", "7/2",
                           "--method", "mellin")
        assert code == 2
        assert "error:" in err


class TestCoeffsCommand:
    def test_convolution(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--form", "f", "--n", "8")
        assert code == 0
        assert out.strip() == "1 -4 8 -16 26 -32 48 -64"

    def test_lambert_route_agrees(self, capsys):
        _, conv, _ = run(capsys, "coeffs", "--form", "f", "--n", "50")
        _, lam, _ = run(capsys, "coeffs", "--form", "f", "--n", "50",
                        "--route", "lambert")
        assert conv == lam

    def test_g_has_no_lambert_route(self, capsys):
        code, _, err = run(capsys, "coeffs", "--form", "g", "--n", "5",
                           "--route", "lambert")
        assert code == 2
        assert "error:" in err

    def test_json_ints(self, capsys):
        _, out, _ = run(capsys, "coeffs", "--form", "g", "--n", "5",
                        "--format", "json")
        payload = json.loads(out)
        assert payload["coeffs"] == [1, 0, 0, 0, -6]

    @pytest.mark.parametrize("route", ["convolution", "lambert"])
    def test_out_of_memory_exits_2(self, capsys, monkeypatch, route):
        # numpy refusing the arrays of N = 3e8 (gigabytes each) is stood in
        # for, so no test allocates them
        def refuse(*args, **kwargs):
            raise MemoryError

        for name in ("array", "bincount", "zeros", "arange"):
            monkeypatch.setattr(theta.np, name, refuse)
        code, _, err = run(capsys, "coeffs", "--form", "f", "--n", "300000000",
                           "--route", route)
        assert code == 2
        assert "error:" in err and "memory" in err


class TestVerifyCommand:
    def test_filter_exactly_three(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "I21,I22,I23",
                           "--digits", "15", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert [r["id"] for r in payload] == ["I21", "I22", "I23"]
        assert all(r["status"] == "pass" for r in payload)

    def test_json_deterministic_and_parallel_stable(self, capsys):
        argv = ("verify", "--id", "I1,I27,I30", "--digits", "15",
                "--format", "json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        _, fanned, _ = run(capsys, *argv, "--jobs", "3")
        assert first == second == fanned

    def test_wall_time_zero_without_timings(self, capsys):
        _, out, _ = run(capsys, "verify", "--id", "I1", "--digits", "15",
                        "--format", "json")
        assert json.loads(out)[0]["wall_time_s"] == "0"

    def test_exit_nonzero_on_failure(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "I1", "--target", "99",
                           "--digits", "15")
        assert code == 1
        assert "fail" in out

    def test_custom_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "I4", "--grid", "0.07,0.33",
                           "--digits", "15", "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["sample_points"] == ["0.07", "0.33"]

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "I4", "--grid", "1.7")
        assert code == 2
        assert "error:" in err

    def test_rational_grid_point(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "I1", "--grid", "1/2",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)[0]
        assert report["status"] == "pass"
        assert report["sample_points"] == ["1/2"]

    @pytest.mark.parametrize("point", ["1/0", "2"])
    def test_unusable_grid_point_is_usage_error(self, capsys, point):
        code, out, err = run(capsys, "verify", "--id", "I1", "--grid", point)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestListCommand:
    def test_census(self, capsys):
        code, out, _ = run(capsys, "list", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert len(payload) == 33
        assert payload[0]["id"] == "I1"
        assert payload[-1]["id"] == "I30"
        assert len({r["id"] for r in payload}) == 33

    def test_text_mentions_kinds(self, capsys):
        _, out, _ = run(capsys, "list")
        assert "pointwise" in out and "exact" in out


class TestPlumbing:
    def test_env_digits(self, capsys, monkeypatch):
        monkeypatch.setenv("THETAL_DIGITS", "10")
        _, out, _ = run(capsys, "lvalue", "--form", "f", "--s", "3",
                        "--method", "closed_form")
        head = out.splitlines()[0].split("=")[1].strip()
        assert len(head.replace(".", "").lstrip("0")) <= 11

    def test_env_digits_overridden_by_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("THETAL_DIGITS", "10")
        _, out, _ = run(capsys, "theta", "--fn", "theta3", "--q", "0.1",
                        "--digits", "25")
        assert "1.200200002000000200000000" in out

    def test_bad_env_is_reported(self, capsys, monkeypatch):
        monkeypatch.setenv("THETAL_DIGITS", "plenty")
        code, _, err = run(capsys, "theta", "--fn", "theta3", "--q", "0.1")
        assert code == 2
        assert "error:" in err

    def test_numerics_error_is_exit_2(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise QuadratureError("quadrature did not converge")

        monkeypatch.setattr(cli, "l_value", refuse)
        code, out, err = run(capsys, "lvalue", "--form", "f", "--s", "3",
                             "--method", "alpha_integral")
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("pfq", "--upper", "1,1", "--lower", "2", "--z", "1/0"),
        ("pfq", "--upper", "1,1", "--lower", "2", "--z", "abc"),
        ("theta", "--fn", "theta3", "--q", "1/0"),
        ("alpha", "--q", "abc"),
        ("lvalue", "--form", "g", "--s", "1/0", "--method", "dirichlet_sum"),
        ("lvalue", "--form", "g", "--s", "inf", "--method", "dirichlet_sum"),
        ("kdf", "--a", "2", "--c", "5/2", "--b", "1,1", "--d", "2",
         "--bp", "1/2,1/2", "--dp", "1", "--x", "1/0"),
    ])
    def test_malformed_number_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_digits_floor_is_one_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--all", "--digits", "7")
        assert code == 2
        assert out == ""
        assert err == f"error: digits must be at least {MIN_DIGITS}\n"

    def test_missing_required_flag_is_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theta", "--fn", "theta3"])
        assert exc.value.code == 2

    def test_all_and_id_are_exclusive(self, capsys):
        # --all used to be ignored silently next to --id
        assert cli._build_parser().parse_args(["verify", "--all"]).all
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--all", "--id", "I27"])
        assert exc.value.code == 2
        assert "not allowed with argument --all" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        # and so is a method l_value does not serve
        with pytest.raises(SystemExit) as exc:
            main(["lvalue", "--form", "f", "--s", "3", "--method", "kdf_theorem"])
        assert exc.value.code == 2
