import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qsl import bounds, checks, cli, oracle, tangent


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestAlpha:
    def test_single_value_zero(self, capsys):
        code, out = run(capsys, "alpha", "--delta", "0")
        assert code == 0
        assert out == "1.000000000000\n"

    def test_single_value_one(self, capsys):
        code, out = run(capsys, "alpha", "--delta", "1")
        assert code == 0
        assert out == "0.000000000000\n"

    def test_table_shape_and_endpoints(self, capsys):
        code, out = run(capsys, "alpha", "--grid", "101", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["delta", "alpha", "mt_alpha"]
        assert len(rows) == 101
        assert rows[0] == pytest.approx([0.0, 1.0, math.pi / 2], abs=1e-10)
        assert rows[-1] == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)

    def test_alpha_column_strictly_decreasing(self, capsys):
        _, out = run(capsys, "alpha", "--grid", "101")
        _, rows = parse_csv(out)
        alphas = [r[1] for r in rows]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_value_near_one(self, capsys):
        code, out = run(capsys, "alpha", "--delta", "0.999999")
        assert code == 0
        assert float(out) == pytest.approx(4.39284e-7, rel=1e-5)

    def test_invalid_delta_is_usage_error(self, capsys):
        code, _ = run(capsys, "alpha", "--delta", "1.5")
        assert code == 2

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == 2


class TestTangent:
    def test_table(self, capsys):
        code, out = run(capsys, "tangent", "--grid", "64")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["y", "q", "a"]
        assert rows[0][0] == pytest.approx(2.3311, abs=5e-5)
        assert abs(rows[0][1]) < 1e-9
        qs = [r[1] for r in rows]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_pi_row_present(self, capsys):
        _, out = run(capsys, "tangent", "--grid", "64")
        _, rows = parse_csv(out)
        pi_rows = [r for r in rows if abs(r[0] - math.pi) < 1e-9]
        assert len(pi_rows) == 1
        assert pi_rows[0][1] == pytest.approx(2 / math.pi, abs=1e-9)
        assert pi_rows[0][2] == pytest.approx(2 / math.pi, abs=1e-9)


class TestPlotdata:
    def test_endpoints_present(self, capsys):
        code, out = run(capsys, "plotdata", "--grid", "11")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0] == pytest.approx([0.0, 1.0], abs=1e-10)
        assert rows[-1] == pytest.approx([1.0, 0.0], abs=1e-10)

    def test_csv_json_equivalence(self, capsys):
        _, out_csv = run(capsys, "plotdata", "--grid", "21", "--format", "csv")
        _, out_json = run(capsys, "plotdata", "--grid", "21", "--format", "json")
        header, rows = parse_csv(out_csv)
        objs = json.loads(out_json)
        assert [list(o) for o in objs] == [header] * len(objs)
        for row, obj in zip(rows, objs):
            assert row == [obj[k] for k in header]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out = run(capsys, "plotdata", "--grid", "5", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("delta,alpha\n")

    def test_high_resolution_emission_is_fast(self, capsys):
        t0 = time.perf_counter()
        code, out = run(capsys, "plotdata", "--grid", "1001")
        assert code == 0
        assert len(out.strip().split("\n")) == 1002
        assert time.perf_counter() - t0 < 10.0


class TestVerify:
    def test_quick_passes(self, capsys):
        code, out = run(capsys, "verify", "--quick")
        assert code == 0
        assert "overall=pass" in out
        assert "failed_checks=none" in out

    def test_full_run_reports_tight_gap(self, capsys):
        code, out = run(capsys, "verify")
        assert code == 0
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert float(report["equality_max_gap"]) <= float(report["equality_tol"]) <= 1e-15
        assert report["overall"] == "pass"

    def test_tightness_line_follows_the_grid_minimum(self, capsys):
        _, out = run(capsys, "verify", "--quick")
        keys = [line.split("=", 1)[0] for line in out.splitlines()]
        assert keys[keys.index("tangent_inequality_min") + 1] == "tangent_tightness_max"
        report = dict(line.split("=", 1) for line in out.splitlines())
        assert 0.0 <= float(report["tangent_tightness_max"]) <= 1e-11

    def test_corrupted_build_fails_with_named_check(self, capsys, monkeypatch):
        import qsl.rootfind as rootfind
        from qsl.rootfind import YBounds

        good = rootfind.y_bounds()
        monkeypatch.setattr(rootfind, "y_bounds",
                            lambda: YBounds(good.y_minus, good.y_plus + 0.05))
        code, out = run(capsys, "verify", "--quick")
        assert code == 1
        assert "overall=fail" in out
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert report["failed_checks"] != "none"

    # a callee of the checks, spoiled so that only the checks that call it can fail
    @pytest.mark.parametrize("check, module, callee, spoiled", [
        ("equality", bounds, "lower_bound_m", lambda delta, n_theta: 0.0),
        ("minimax_oracle", oracle, "minimax_bruteforce_m", lambda delta, n: 10.0),
        ("two_level_oracle", oracle, "two_level_min_time", lambda delta: 10.0),
        ("identities", oracle, "identity_suite", lambda n, seed: {"max_violation": 1.0}),
        ("identities", bounds, "omega_to_z", lambda omega, delta: -(delta - omega) / (1.0 - omega)),
        ("tangent_inequality", tangent, "check_tangent_inequality", lambda q: -1.0),
        # an a(q) off by a relative 1e-9: too large still clears the grid, not the tightness
        pytest.param("tangent_inequality", tangent, "a_of_q",
                     lambda q, shipped=tangent.a_of_q: shipped(q) * (1.0 + 1e-9),
                     id="tangent_inequality-qsl.tangent-a_of_q-high"),
        pytest.param("tangent_inequality", tangent, "a_of_q",
                     lambda q, shipped=tangent.a_of_q: shipped(q) * (1.0 - 1e-9),
                     id="tangent_inequality-qsl.tangent-a_of_q-low"),
        ("arc_gaps", bounds, "arc_gap_CD", lambda psi, delta, branch: np.full(np.shape(psi), -1.0)),
        # a bound off by a relative 1e-10 is about 1e5 times the few-ulp gates
        pytest.param("equality", bounds, "lower_bound_m",
                     lambda delta, n_theta, shipped=bounds.lower_bound_m:
                     shipped(delta, n_theta) * (1.0 + 1e-10),
                     id="equality-qsl.bounds-lower_bound_m-high"),
        pytest.param("equality,two_level_oracle", bounds, "upper_bound_M",
                     lambda delta, shipped=bounds.upper_bound_M: shipped(delta) * (1.0 + 1e-10),
                     id="equality,two_level_oracle-qsl.bounds-upper_bound_M-high"),
    ])
    def test_spoiled_callee_fails_its_check_only(self, capsys, monkeypatch,
                                                 check, module, callee, spoiled):
        monkeypatch.setattr(module, callee, spoiled)
        code, out = run(capsys, "verify", "--quick")
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert code == 1
        assert report["failed_checks"] == check


    @pytest.mark.parametrize("callee, failed", [("lower_bound_m", "equality"),
                                                ("upper_bound_M", "equality,two_level_oracle")])
    def test_bound_off_by_1e10_fails_in_full_mode(self, capsys, monkeypatch, callee, failed):
        shipped = getattr(bounds, callee)
        monkeypatch.setattr(bounds, callee, lambda *args: shipped(*args) * (1.0 + 1e-10))
        code, out = run(capsys, "verify")
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert code == 1
        assert report["failed_checks"] == failed

    def test_equality_and_two_level_make_one_call_per_bound(self, monkeypatch):
        calls = Counter()
        for module, name in ((bounds, "lower_bound_m"), (bounds, "upper_bound_M"),
                             (oracle, "two_level_min_time")):
            def stand_in(*args, shipped=getattr(module, name), name=name):
                calls[name] += 1
                return shipped(*args)

            monkeypatch.setattr(module, name, stand_in)
        for quick in (True, False):
            calls.clear()
            assert checks.equality(quick, 7)[1]
            assert calls == {"lower_bound_m": 1, "upper_bound_M": 1}
            calls.clear()
            assert checks.two_level_oracle(quick, 7)[1]
            assert calls == {"two_level_min_time": 1, "upper_bound_M": 1}

    def test_minimax_oracle_makes_one_call_per_bound(self, monkeypatch):
        calls = Counter()
        for module, name in ((oracle, "minimax_bruteforce_m"), (bounds, "upper_bound_M")):
            def stand_in(*args, shipped=getattr(module, name), name=name):
                calls[name] += 1
                return shipped(*args)

            monkeypatch.setattr(module, name, stand_in)
        for quick in (True, False):
            calls.clear()
            assert checks.minimax_oracle(quick, 7)[1]
            assert calls == {"minimax_bruteforce_m": 1, "upper_bound_M": 1}

    def test_spoiled_stationary_max_fails_equality_and_identities(self, capsys, monkeypatch):
        # lower_bound_m and the identity suite share the one stationary form
        shipped = bounds.stationary_max
        monkeypatch.setattr(bounds, "stationary_max", lambda rho, sigma: 0.5 * shipped(rho, sigma))
        code, out = run(capsys, "verify", "--quick")
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert code == 1
        assert report["failed_checks"] == "equality,identities"


class TestSimulate:
    def test_small_run(self, capsys):
        code, out = run(capsys, "simulate", "--trials", "50", "--seed", "7")
        assert code == 0
        assert "violations=0" in out

    def test_zero_trials(self, capsys):
        code, out = run(capsys, "simulate", "--trials", "0")
        assert code == 0
        assert "checks=0" in out

    def test_identical_seed_identical_bytes(self, capsys):
        _, out1 = run(capsys, "simulate", "--trials", "40", "--seed", "11")
        _, out2 = run(capsys, "simulate", "--trials", "40", "--seed", "11")
        assert out1 == out2

    def test_negative_trials_usage_error(self, capsys):
        code, _ = run(capsys, "simulate", "--trials", "-5")
        assert code == 2

    def test_long_horizon_keeps_designed_cases_exact(self, capsys):
        code, out = run(capsys, "simulate", "--trials", "20", "--horizon-mult", "1000")
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert code == 0
        assert report["designed_violations"] == "0"
        assert float(report["designed_max_rel_slack"]) <= 1e-6

    def test_infinite_horizon_runs_within_budget(self, capsys):
        # 1e308 times 4*pi over the level gap overflows to an infinite horizon
        code, out = run(capsys, "simulate", "--trials", "2", "--horizon-mult", "1e308")
        assert code == 0
        assert "overall=pass" in out


@pytest.mark.parametrize("argv", [
    ("simulate", "--trials", "5", "--dmax", "1"),
    ("simulate", "--trials", "5", "--horizon-mult", "-1"),
    ("simulate", "--trials", "5", "--horizon-mult", "0"),
    ("simulate", "--trials", "5", "--horizon-mult", "inf"),
    ("simulate", "--trials", "5", "--horizon-mult", "nan"),
    ("simulate", "--trials", "5", "--seed", "-1"),
    ("verify", "--quick", "--seed", "-1"),
    ("plotdata", "--grid", "5", "--out", "{tmp}/missing/curve.csv"),
    ("plotdata", "--grid", "5", "--out", "{tmp}"),
    ("simulate", "--trials", "3", "--dmax", "100000000"),
    ("plotdata", "--grid", "10000000000000"),
    ("tangent", "--grid", "10000000000000"),
    ("alpha", "--grid", "1000001"),
    ("plotdata", "--grid", "5", "--out", "/dev/full"),
])
def test_out_of_range_flag_is_one_line_usage_error(capsys, tmp_path, argv):
    code = cli.main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("alpha", "--delta", "5e-324"),
    ("alpha", "--delta", "-0.0"),
    ("verify", "--quick", "--seed", str(10**30)),
    ("simulate", "--trials", "2", "--seed", str(10**30)),
    ("simulate", "--trials", "2", "--horizon-mult", "5e-324"),
    ("alpha", "--grid", "2", "--format", "json"),
    ("plotdata", "--grid", "2", "--format", "json"),
    ("tangent", "--grid", "2", "--format", "json"),
])
def test_extreme_valid_input_runs_without_traceback(capsys, argv):
    # the smallest subnormal, a negative zero, a seed past 64 bits, the
    # smallest horizon and the smallest table are all in range
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [("alpha", "--delta", "0.5"), ("verify", "--quick")])
def test_full_stdout_is_one_line_usage_error(argv):
    # a real process, so that the interpreter's flush at exit is part of the test
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "qsl.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr == "error: stdout: No space left on device\n"


@pytest.mark.parametrize("argv", [
    ("alpha", "--delta", "0.5", "--seed", "1"),
    ("tangent", "--seed", "1"),
    ("plotdata", "--seed", "1"),
    ("verify", "--quick", "--grid", "3"),
    ("verify", "--quick", "--format", "json"),
    ("simulate", "--trials", "5", "--grid", "3"),
    ("simulate", "--trials", "5", "--format", "json"),
])
def test_unread_flag_is_usage_error(capsys, argv):
    assert cli.main(list(argv)) == 2
    assert capsys.readouterr().out == ""


class TestFormatting:
    def test_csv_line_endings_and_digits(self, capsys):
        _, out = run(capsys, "alpha", "--grid", "3")
        assert "\r" not in out
        assert out.endswith("\n")
        # 12 significant digits in interior cells
        row = out.strip().split("\n")[2].split(",")
        assert row[1] == f"{float(row[1]):.12g}"

    def test_json_is_array_of_flat_objects(self, capsys):
        _, out = run(capsys, "alpha", "--grid", "3", "--format", "json")
        objs = json.loads(out)
        assert isinstance(objs, list) and len(objs) == 3
        assert all(set(o) == {"delta", "alpha", "mt_alpha"} for o in objs)
