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

from qsl import bounds, checks, cli, oracle, reports, tangent


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def format_number(value: float) -> str:
    """The spelling of a float in every report and table: 12 significant digits."""
    return f"{value:.12g}"


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
    def test_report_keys_in_order(self, capsys):
        # readers of the report key on its first lines, mode=full and the seed
        code, out = run(capsys, "verify", "--seed", "0")
        assert code == 0
        report = [line.split("=", 1) for line in out.splitlines()]
        assert report[:2] == [["mode", "full"], ["seed", "0"]]
        assert [key for key, _ in report[2:]] == [
            "equality_max_gap", "equality_tol", "equality",
            "minimax_oracle_max_err", "minimax_oracle_tol", "minimax_oracle",
            "two_level_oracle_max_err", "two_level_oracle",
            "identities_max_violation", "identities",
            "tangent_inequality_min", "tangent_tightness_max", "tangent_inequality",
            "arc_gap_min", "arc_gap_boundary_max", "arc_gaps",
            "failed_checks", "overall"]
        assert report[-2:] == [["failed_checks", "none"], ["overall", "pass"]]

    def test_full_run_reports_tight_gap(self, capsys):
        code, out = run(capsys, "verify")
        assert code == 0
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert float(report["equality_max_gap"]) <= float(report["equality_tol"]) <= 1e-15
        assert report["overall"] == "pass"

    def test_tightness_line_follows_the_grid_minimum(self, capsys):
        _, out = run(capsys, "verify")
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
        code, out = run(capsys, "verify")
        assert code == 1
        assert "overall=fail" in out
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert report["failed_checks"] != "none"

    # y+- off by 1e-12 moves h_AB(y+) by 2e-11 or h_CD(y-) by 2.2e-12, far above the arc gate
    @pytest.mark.parametrize("shift_minus, shift_plus",
                             [(0.0, 1e-12), (0.0, -1e-12), (1e-12, 0.0), (-1e-12, 0.0)])
    def test_angle_constant_off_by_1e12_fails_arc_gaps(self, capsys, monkeypatch,
                                                       shift_minus, shift_plus):
        import qsl.rootfind as rootfind
        from qsl.rootfind import YBounds

        good = rootfind.y_bounds()
        monkeypatch.setattr(rootfind, "y_bounds", lambda: YBounds(good.y_minus + shift_minus,
                                                                  good.y_plus + shift_plus))
        code, out = run(capsys, "verify")
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert code == 1
        assert report["failed_checks"] == "arc_gaps"

    def test_every_seed_passes(self):
        for seed in range(50):
            assert checks.run(seed)["overall"] == "pass", seed

    # a callee of the checks, spoiled so that only the checks that call it can fail
    @pytest.mark.parametrize("check, module, callee, spoiled", [
        ("equality", bounds, "lower_bound_m", lambda delta: 0.0),
        ("minimax_oracle", oracle, "minimax_bruteforce_m", lambda delta, n: 10.0),
        ("two_level_oracle", oracle, "two_level_min_time", lambda delta: 10.0),
        ("identities", oracle, "identity_suite", lambda n, seed: {"max_violation": 1.0}),
        ("identities", bounds, "omega_to_z", lambda omega, delta: -(delta - omega) / (1.0 - omega)),
        ("tangent_inequality", tangent, "check_tangent_inequality", lambda q, a: -1.0),
        # an a(q) off by a relative 1e-9: too large still clears the grid, not the tightness
        pytest.param("tangent_inequality", tangent, "a_of_q",
                     lambda q, shipped=tangent.a_of_q: shipped(q) * (1.0 + 1e-9),
                     id="tangent_inequality-qsl.tangent-a_of_q-high"),
        pytest.param("tangent_inequality", tangent, "a_of_q",
                     lambda q, shipped=tangent.a_of_q: shipped(q) * (1.0 - 1e-9),
                     id="tangent_inequality-qsl.tangent-a_of_q-low"),
        ("arc_gaps", bounds, "arc_gap_CD", lambda x: np.full(np.shape(x), -1.0)),
        # a bound off by a relative 1e-10 is about 1e5 times the few-ulp gates
        pytest.param("equality", bounds, "lower_bound_m",
                     lambda delta, shipped=bounds.lower_bound_m: shipped(delta) * (1.0 + 1e-10),
                     id="equality-qsl.bounds-lower_bound_m-high"),
        pytest.param("equality,two_level_oracle", bounds, "upper_bound_M",
                     lambda delta, shipped=bounds.upper_bound_M: shipped(delta) * (1.0 + 1e-10),
                     id="equality,two_level_oracle-qsl.bounds-upper_bound_M-high"),
    ])
    def test_spoiled_callee_fails_its_check_only(self, capsys, monkeypatch,
                                                 check, module, callee, spoiled):
        monkeypatch.setattr(module, callee, spoiled)
        code, out = run(capsys, "verify")
        report = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert code == 1
        assert report["failed_checks"] == check

    # the spoiled-callee table has each bound off on the high side; this is the low side
    @pytest.mark.parametrize("callee, failed", [("lower_bound_m", "equality"),
                                                ("upper_bound_M", "equality,two_level_oracle")])
    def test_bound_off_by_1e10_fails_in_full_mode(self, capsys, monkeypatch, callee, failed):
        shipped = getattr(bounds, callee)
        monkeypatch.setattr(bounds, callee, lambda delta: shipped(delta) * (1.0 - 1e-10))
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
        assert checks.equality(7)[1]
        assert calls == {"lower_bound_m": 1, "upper_bound_M": 1}
        calls.clear()
        assert checks.two_level_oracle(7)[1]
        assert calls == {"two_level_min_time": 1, "upper_bound_M": 1}

    def test_minimax_oracle_makes_one_call_per_bound(self, monkeypatch):
        calls = Counter()
        for module, name in ((oracle, "minimax_bruteforce_m"), (bounds, "upper_bound_M")):
            def stand_in(*args, shipped=getattr(module, name), name=name):
                calls[name] += 1
                return shipped(*args)

            monkeypatch.setattr(module, name, stand_in)
        assert checks.minimax_oracle(7)[1]
        assert calls == {"minimax_bruteforce_m": 1, "upper_bound_M": 1}

    def test_tangent_inequality_makes_two_y_solves(self, monkeypatch):
        # one for a(q), which the grid and the tangency residual share, one for y(q)
        solves = []
        shipped = tangent.y_of_q
        monkeypatch.setattr(tangent, "y_of_q", lambda q: solves.append(q) or shipped(q))
        assert checks.tangent_inequality(7)[1]
        assert len(solves) == 2

    def test_spoiled_stationary_max_fails_equality_and_identities(self, capsys, monkeypatch):
        # lower_bound_m and the identity suite share the one stationary form
        shipped = bounds.stationary_max
        monkeypatch.setattr(bounds, "stationary_max", lambda rho, sigma: 0.5 * shipped(rho, sigma))
        code, out = run(capsys, "verify")
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
    ("verify", "--seed", "-1"),
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
    ("verify", "--seed", str(10**30)),
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


def qsl_process(argv, **kwargs):
    """``qsl argv`` run as a real process on this checkout's source."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "qsl.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, **kwargs)


@pytest.mark.parametrize("argv", [("alpha", "--delta", "0.5"), ("verify",)])
def test_full_stdout_is_one_line_usage_error(argv):
    # a real process, so that the interpreter's flush at exit is part of the test
    with open("/dev/full", "w") as full:
        done = qsl_process(argv, stdout=full, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 2
    assert done.stderr == "error: stdout: No space left on device\n"


@pytest.mark.parametrize("argv,golden", [
    (("simulate", "--trials", "300", "--seed", "7"), "simulate_trials300_seed7.txt"),
    (("simulate", "--trials", "100", "--dmax", "32", "--seed", "5"),
     "simulate_trials100_dmax32_seed5.txt"),
    (("simulate", "--trials", "200", "--dmax", "3", "--horizon-mult", "4", "--seed", "9"),
     "simulate_trials200_dmax3_mult4_seed9.txt"),
    (("verify", "--seed", "7"), "verify_seed7.txt"),
    # the largest identities_max_violation of seeds 0..49
    (("verify", "--seed", "48"), "verify_seed48.txt"),
    # a delta = 0 passage at grid point 49 152, in a later chunk
    (("simulate", "--trials", "50", "--dmax", "128", "--seed", "1"),
     "simulate_trials50_dmax128_seed1.txt"),
])
def test_report_bytes_match_the_golden_output(argv, golden):
    # the default reports stay byte-identical: every digit of every count,
    # slack and gap, as a real process writes them
    done = qsl_process(argv, capture_output=True)
    assert done.returncode == 0
    assert done.stdout == (Path(__file__).parent / "golden" / golden).read_bytes()


# the simulate configurations of the golden reports
@pytest.mark.parametrize("argv", [
    ("simulate", "--trials", "300", "--seed", "7"),
    ("simulate", "--trials", "100", "--dmax", "32", "--seed", "5"),
    ("simulate", "--trials", "200", "--dmax", "3", "--horizon-mult", "4", "--seed", "9"),
])
@pytest.mark.parametrize("factor", [1.0 + 1e-12, 1.0 - 1e-12])
def test_alpha_off_by_1e12_fails_every_designed_case(capsys, monkeypatch, argv, factor):
    # the designed cases meet the limit to 1.3e-15, against gates of 2e-14 to 2.5e-13
    shipped = bounds.alpha
    monkeypatch.setattr(bounds, "alpha", lambda delta: shipped(delta) * factor)
    code, out = run(capsys, *argv)
    report = dict(line.split("=", 1) for line in out.splitlines())
    assert code == 1
    assert report["designed_violations"] == report["designed_cases"] == "10"


@pytest.mark.parametrize("argv", [
    ("alpha", "--delta", "0.5", "--seed", "1"),
    ("tangent", "--seed", "1"),
    ("plotdata", "--seed", "1"),
    ("verify", "--grid", "3"),
    ("verify", "--format", "json"),
    ("simulate", "--trials", "5", "--grid", "3"),
    ("simulate", "--trials", "5", "--format", "json"),
    ("verify", "--quick"),
])
def test_unread_flag_is_usage_error(capsys, argv):
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and "Traceback" not in captured.err


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

    def test_percent_format_spells_floats_as_format_number(self):
        # render_csv formats blocks of rows with %.12g, render_report a float with f"{x:.12g}"
        bits = np.random.default_rng(5).integers(0, 2**64, 300_000, dtype=np.uint64, endpoint=False)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1.7976931348623157e308, 1.0, 0.1, 1e16, 1e-5,
                   123456789012.5, 999999999999.5, 1e12, 0.30000000000000004]
        values = bits.view(np.float64).tolist() + special
        assert (",%.12g" * len(values)) % tuple(values) == \
            "".join("," + format_number(v) for v in values)

    def test_report_spells_ints_in_full_and_floats_to_12_digits(self, capsys):
        # %.12g for every number would print the seed as 1.23456789012e+14
        code, out = run(capsys, "verify", "--seed", "123456789012345")
        assert code == 0 and "\nseed=123456789012345\n" in out
        report = dict(line.split("=", 1) for line in out.splitlines())
        assert report["equality_tol"] == format_number(checks._FEW_ULPS) == "8.881784197e-16"
        # str would spell the float horizon_mult 1.0 as "1.0"
        _, out = run(capsys, "simulate", "--trials", "0")
        assert "\nhorizon_mult=1\n" in out and "\nmin_ml_slack=inf\n" in out
        assert reports.render_report({"n": 10**15, "x": 0.1 + 0.2, "y": -math.inf, "s": "a,b"}) \
            == "n=1000000000000000\nx=0.3\ny=-inf\ns=a,b\n"

    @pytest.mark.parametrize("rows", [1, 2, 4096, 4097, 9000])
    def test_csv_equals_one_format_number_call_per_cell(self, rows):
        rng = np.random.default_rng(rows)
        columns = [np.linspace(0.0, 1.0, rows), rng.normal(size=rows) * 10.0 ** rng.integers(
            -300, 300, rows), np.append(rng.random(rows - 1), math.nan)]
        lines = ["a,b,c"] + [",".join(format_number(v) for v in row)
                             for row in np.column_stack(columns).tolist()]
        assert "".join(reports.render_csv(["a", "b", "c"], columns)) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("rows", [1, 2, 4096, 4097, 9000])
    def test_json_cell_is_float_of_format_number(self, rows):
        # each cell is the float its CSV spelling parses to, bit for bit, as json spells it
        rng = np.random.default_rng(rows)
        columns = [np.linspace(0.0, 1.0, rows), rng.normal(size=rows) * 10.0 ** rng.integers(
            -300, 300, rows), np.append(rng.random(rows - 1), math.nan)]
        columns[1][:4] = [math.inf, -math.inf, -0.0, 1e16][:rows]
        header = ["a", "b%s", 'c"']
        objs = [{key: float(format_number(v)) for key, v in zip(header, row)}
                for row in np.column_stack(columns).tolist()]
        assert "".join(reports.render_json(header, columns)) == json.dumps(objs) + "\n"

    @pytest.mark.parametrize("grid", [2, 101, 1001])
    def test_mt_alpha_column_is_math_acos_per_cell(self, capsys, grid):
        deltas = np.linspace(0.0, 1.0, grid)
        column = bounds.mt_alpha(deltas)
        cells = [math.acos(math.sqrt(d)) for d in deltas.tolist()]
        assert np.array_equal(column.view(np.int64), np.array(cells).view(np.int64))
        _, out = run(capsys, "alpha", "--grid", str(grid))
        assert [line.split(",")[2] for line in out.splitlines()[1:]] == \
            [f"{v:.12g}" for v in cells]
