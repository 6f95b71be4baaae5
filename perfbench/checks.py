"""Output checks of the benchmark, run in the parent process after the measured one ends.

Every check compares an operation's output with a computation made here
(mpmath, numpy) or with a property the method must have, never with a stored
copy of the program's own output. `check` returns None for a correct output
and a one-line reason otherwise; `tally` turns the outcomes of a run into the
attempted / failed / correct figures the benchmark prints.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import mpmath
import numpy as np

import reference
from workloads import Op

ALPHA_RTOL = 1e-11  # |alpha - ref| <= ALPHA_RTOL*|ref| + ALPHA_ATOL
ALPHA_ATOL = 1e-11
MT_ALPHA_TOL = 1e-12  # beyond the CLI's 12-significant-digit rounding
TANGENT_TOL = 1e-10  # tangency residuals, relative to the size of their terms
SIM_DELTAS = 10  # `qsl simulate` scans delta = 0, 0.1, ..., 0.9
DESIGNED_SLACK_TOL = 1e-6

# the thresholds `qsl verify` applies, for the errors whose tolerance the
# report does not print itself
VERIFY_LIMITS = {
    "two_level_oracle_max_err": ("<=", 1e-8),
    "identities_max_violation": ("<=", 1e-12),
    "tangent_inequality_min": (">=", -1e-9),
    "arc_gap_min": (">=", -1e-10),
    "arc_gap_boundary_max": ("<=", 1e-8),
}
VERIFY_PRINTED_TOLS = {"equality_max_gap": "equality_tol",
                       "minimax_oracle_max_err": "minimax_oracle_tol"}
VERIFY_STATUSES = ("equality", "minimax_oracle", "two_level_oracle", "identities",
                   "tangent_inequality", "arc_gaps")


class Checker:
    """Checks outputs against the stored reference, evaluating missing deltas with mpmath."""

    def __init__(self) -> None:
        self._alpha = reference.load()

    def alpha_ref(self, delta: float) -> float:
        if delta not in self._alpha:
            self._alpha[delta] = float(reference.alpha_mp(delta))
        return self._alpha[delta]

    def check(self, op: Op, code: Optional[int], error: Optional[str], out: str) -> Optional[str]:
        if error is not None:
            return error
        if code != 0:
            return f"exit code {code}"
        try:
            return getattr(self, "_" + op.kind)(op, out)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    # --- tables --------------------------------------------------------------

    def _alpha_value(self, delta: float, value: float) -> Optional[str]:
        ref = self.alpha_ref(delta)
        if not abs(value - ref) <= ALPHA_RTOL * abs(ref) + ALPHA_ATOL:
            return f"alpha({delta!r}) = {value!r}, reference {ref!r}"
        return None

    def _alpha_column(self, op: Op, out: str, header: str) -> tuple[Optional[str], list]:
        rows = _csv(out, header)
        deltas = np.linspace(0.0, 1.0, op.grid).tolist()
        if len(rows) != len(deltas):
            return f"{len(rows)} rows, expected {len(deltas)}", rows
        for row, delta in zip(rows, deltas):
            if row[0] != _printed(delta):
                return f"row delta {row[0]!r}, expected {_printed(delta)!r}", rows
            bad = self._alpha_value(delta, row[1])
            if bad:
                return bad, rows
        alphas = [row[1] for row in rows]
        if alphas[0] != 1.0 or alphas[-1] != 0.0:
            return f"alpha(0) = {alphas[0]!r}, alpha(1) = {alphas[-1]!r}", rows
        if any(b > a for a, b in zip(alphas, alphas[1:])):
            return "alpha increases with delta", rows
        return None, rows

    def _alpha_table(self, op: Op, out: str) -> Optional[str]:
        bad, rows = self._alpha_column(op, out, "delta,alpha,mt_alpha")
        if bad:
            return bad
        for delta, row in zip(np.linspace(0.0, 1.0, op.grid).tolist(), rows):
            ref = _printed(float(mpmath.acos(mpmath.sqrt(delta))))
            if not abs(row[2] - ref) <= MT_ALPHA_TOL:
                return f"mt_alpha({delta!r}) = {row[2]!r}, expected {ref!r}"
        return None

    def _plotdata(self, op: Op, out: str) -> Optional[str]:
        return self._alpha_column(op, out, "delta,alpha")[0]

    def _alpha_scalar(self, op: Op, out: str) -> Optional[str]:
        return self._alpha_value(op.delta, float(out))

    def _tangent(self, op: Op, out: str) -> Optional[str]:
        rows = _csv(out, "y,q,a")
        if len(rows) != op.units:
            return f"{len(rows)} rows, expected {op.units}"
        y_minus = float(mpmath.findroot(lambda y: 1 - mpmath.cos(y) - y * mpmath.sin(y), 2.33))
        if abs(rows[0][0] - y_minus) > 1e-11:
            return f"first row y = {rows[0][0]!r}, expected y_minus = {y_minus!r}"
        if not any(y == _printed(math.pi) and abs(q - 2 / math.pi) <= 1e-11
                   and abs(a - 2 / math.pi) <= 1e-11 for y, q, a in rows):
            return "no y = pi row with q = a = 2/pi"
        for prev, row in zip(rows, rows[1:]):
            if not (row[0] > prev[0] and row[1] > prev[1]):
                return f"y or q not increasing at y = {row[0]!r}"
        for y, q, a in rows:
            # the line 1 - a*x touches cos x + q sin x at x = y: equal value and slope
            value = math.cos(y) + q * math.sin(y) - 1.0 + a * y
            slope = -math.sin(y) + q * math.cos(y) + a
            scale = 1.0 + abs(q) + abs(a) * y
            if abs(value) > TANGENT_TOL * scale or abs(slope) > TANGENT_TOL * scale:
                return f"row y = {y!r} is not a tangency: residuals {value:.3g}, {slope:.3g}"
        return None

    # --- reports -------------------------------------------------------------

    def _simulate(self, op: Op, out: str) -> Optional[str]:
        rep = _report(out)
        for key, want in (("overall", "pass"), ("trials", str(op.trials)), ("seed", str(op.seed)),
                          ("violations", "0"), ("designed_violations", "0")):
            if rep[key] != want:
                return f"{key}={rep[key]}, expected {want}"
        if not float(rep["designed_max_rel_slack"]) <= DESIGNED_SLACK_TOL:
            return f"designed_max_rel_slack={rep['designed_max_rel_slack']}"
        checks, skips = int(rep["checks"]), int(rep["skips"])
        if checks + skips != SIM_DELTAS * op.trials + int(rep["designed_cases"]):
            return f"checks + skips = {checks + skips} for {op.trials} trials"
        hist = sum(int(v) for k, v in rep.items() if k.startswith("hist_"))
        if hist != checks:
            return f"histogram holds {hist} checks of {checks}"
        return None

    def _verify(self, op: Op, out: str) -> Optional[str]:
        rep = _report(out)
        for key, want in (("overall", "pass"), ("failed_checks", "none"), ("mode", "full"),
                          ("seed", str(op.seed))):
            if rep[key] != want:
                return f"{key}={rep[key]}, expected {want}"
        for key in VERIFY_STATUSES:
            if rep[key] != "pass":
                return f"{key}={rep[key]}"
        for key, tol_key in VERIFY_PRINTED_TOLS.items():
            if not float(rep[key]) <= float(rep[tol_key]):
                return f"{key}={rep[key]} above {tol_key}={rep[tol_key]}"
        for key, (sense, limit) in VERIFY_LIMITS.items():
            value = float(rep[key])
            if not (value <= limit if sense == "<=" else value >= limit):
                return f"{key}={rep[key]} not {sense} {limit}"
        return None


def tally(outcomes: Iterable[tuple[Optional[str], bool]]) -> dict:
    """Sum up (failure reason or None, raised) over a run's operations.

    An operation fails if it raised or its output did not pass its check.
    `correct` is false when an operation ran to its end and its output was
    wrong; an operation that raised is counted in `failed` only.
    """
    attempted = failed = 0
    correct = True
    for reason, raised in outcomes:
        attempted += 1
        if reason is None:
            continue
        failed += 1
        if not raised:
            correct = False
    return {"attempted": attempted, "failed": failed, "correct": correct}


def _printed(value: float) -> float:
    """The value as the CLI prints it: 12 significant digits."""
    return float(f"{value:.12g}")


def _csv(out: str, header: str) -> list[list[float]]:
    lines = out.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r}, expected {header!r}")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    if any(len(row) != header.count(",") + 1 for row in rows):
        raise ValueError(f"a row without exactly the columns {header!r}")
    return rows


def _report(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.splitlines())
