"""Self-test of the benchmark's output checks: wrong answers must count as failed.

    python3 perfbench/test_checks.py
    python3 -m pytest perfbench/test_checks.py

Each case takes a correct output of the real CLI, spoils it in one way, and
asserts that the operation is counted as failed and the run as not correct.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from qsl import cli  # noqa: E402

TABLE = workloads.Op("alpha_table", ("alpha", "--grid", "11"), 11, grid=11)
SIMULATE = workloads.simulate(seed=7, trials=3)
CHECKER = checks.Checker()


def cli_output(op: workloads.Op) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(op.argv)) == 0
    return out.getvalue()


def tally(op: workloads.Op, out: str, error: str | None = None) -> dict:
    reason = CHECKER.check(op, None if error else 0, error, out)
    return checks.tally([(reason, error is not None)])


def assert_failed(op: workloads.Op, out: str) -> None:
    result = tally(op, out)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False), result


def test_correct_outputs_pass():
    for op in (TABLE, SIMULATE):
        result = tally(op, cli_output(op))
        assert (result["failed"], result["correct"]) == (0, True), result


def test_alpha_row_off_by_1e9_fails():
    lines = cli_output(TABLE).splitlines()
    delta, alpha, mt_alpha = lines[6].split(",")  # delta = 0.5
    lines[6] = ",".join([delta, f"{float(alpha) + 1e-9:.12g}", mt_alpha])
    assert_failed(TABLE, "\n".join(lines) + "\n")


def test_missing_table_row_fails():
    lines = cli_output(TABLE).splitlines()
    del lines[4]
    assert_failed(TABLE, "\n".join(lines) + "\n")


def test_report_with_a_violation_fails():
    out = cli_output(SIMULATE)
    assert "violations=0\n" in out
    assert_failed(SIMULATE, out.replace("\nviolations=0\n", "\nviolations=1\n"))


def test_report_with_overall_fail_fails():
    out = cli_output(SIMULATE)
    assert "overall=pass\n" in out
    assert_failed(SIMULATE, out.replace("overall=pass\n", "overall=fail\n"))


def test_raised_operation_fails_but_run_stays_correct():
    result = tally(TABLE, "", error="DomainError: arccos argument out of range")
    assert (result["failed"], result["correct"]) == (1, True), result


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok  {fn.__name__}")
    print(f"{len(tests)} checks passed")
