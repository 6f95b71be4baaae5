"""Command-line front end.

Subcommands: ``alpha`` (bound values and tables), ``verify`` (analytic and
brute-force cross-checks), ``simulate`` (Monte-Carlo speed-limit checks),
``tangent`` (tangency-family table), ``plotdata`` (curve emission). Each
subcommand accepts only the flags it reads; a handler takes the parsed
arguments and returns the output, as pieces of text, and the exit code.

Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Callable, Iterable, Optional

import numpy as np

from . import bounds, checks, qsim, rootfind, tangent
from .reports import render_csv, render_json, render_report

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# the largest --dmax: a passage-scan chunk holds about 130*d complex exponentials, about 2 MB
# at 1024 levels; the largest --grid: 10^6 rows peak at 75 MB resident as CSV or as JSON
_DMAX, _GRID = 1024, 10**6

# flag destination -> (flag, requirement, test) for the ranges argparse does not check
_RANGES = {
    "delta": ("--delta", "lie in [0, 1]", lambda v: v is None or 0.0 <= v <= 1.0),
    "grid": ("--grid", f"lie in [2, {_GRID}]", lambda v: 2 <= v <= _GRID),
    "trials": ("--trials", "be nonnegative", lambda v: v >= 0),
    "d_max": ("--dmax", f"lie in [2, {_DMAX}]", lambda v: 2 <= v <= _DMAX),
    "horizon_mult": ("--horizon-mult", "be finite and positive", lambda v: 0.0 < v < math.inf),
    "seed": ("--seed", "be nonnegative", lambda v: v >= 0),
}


def _table(ns: argparse.Namespace, header: list[str], columns: list[np.ndarray]) -> Iterable[str]:
    return (render_json if ns.fmt == "json" else render_csv)(header, columns)


def cmd_alpha(ns: argparse.Namespace) -> tuple[Iterable[str], int]:
    if ns.delta is not None:
        return [f"{bounds.alpha(ns.delta):.12f}\n"], EXIT_OK
    deltas = np.linspace(0.0, 1.0, ns.grid)
    columns = [deltas, bounds.alpha(deltas), bounds.mt_alpha(deltas)]
    return _table(ns, ["delta", "alpha", "mt_alpha"], columns), EXIT_OK


def cmd_plotdata(ns: argparse.Namespace) -> tuple[Iterable[str], int]:
    deltas = np.linspace(0.0, 1.0, ns.grid)
    return _table(ns, ["delta", "alpha"], [deltas, bounds.alpha(deltas)]), EXIT_OK


def cmd_tangent(ns: argparse.Namespace) -> tuple[Iterable[str], int]:
    yb = rootfind.y_bounds()
    ys = np.linspace(yb.y_minus, yb.y_plus - 1e-6, ns.grid)
    ys = np.union1d(ys, [math.pi])  # the midpoint row q = a = 2/pi is a fixture
    return _table(ns, ["y", "q", "a"], [ys, tangent.q_of_y(ys), tangent.a_of_y(ys)]), EXIT_OK


def cmd_verify(ns: argparse.Namespace) -> tuple[Iterable[str], int]:
    report = checks.run(ns.seed)
    code = EXIT_OK if report["overall"] == "pass" else EXIT_CHECK_FAILED
    return [render_report(report)], code


def cmd_simulate(ns: argparse.Namespace) -> tuple[Iterable[str], int]:
    report = qsim.verify_limits(ns.trials, ns.d_max, ns.seed, horizon_mult=ns.horizon_mult)
    ok = report["violations"] == 0 and report["designed_violations"] == 0
    report["overall"] = "pass" if ok else "fail"
    return [render_report(report)], EXIT_OK if ok else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsl",
        description="Quantum speed limit numerics: bound tables, verification suites, simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable, summary: str, grid: Optional[int] = None,
            seed: bool = False) -> argparse.ArgumentParser:
        """A subcommand with --out, the table flags if it has a grid, and --seed if asked."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        if grid is not None:
            p.add_argument("--grid", type=int, default=grid, help="table resolution")
            p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        if seed:
            p.add_argument("--seed", type=int, default=7)
        return p

    p_alpha = add("alpha", cmd_alpha, "bound coefficient: one value or a table", grid=101)
    p_alpha.add_argument("--delta", type=float, default=None)
    add("verify", cmd_verify, "run the analytic/brute-force cross-check suite", seed=True)
    p_sim = add("simulate", cmd_simulate, "Monte-Carlo speed-limit verification", seed=True)
    p_sim.add_argument("--trials", type=int, default=1000)
    p_sim.add_argument("--dmax", dest="d_max", type=int, default=8)
    p_sim.add_argument("--horizon-mult", dest="horizon_mult", type=float, default=1.0)
    add("tangent", cmd_tangent, "emit the (y, q, a) tangency table", grid=256)
    add("plotdata", cmd_plotdata, "emit the bound curve for external plotting", grid=101)
    return parser


def _usage_error(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return EXIT_USAGE


def main(argv: Optional[list[str]] = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    for dest, (flag, requirement, valid) in _RANGES.items():
        if hasattr(ns, dest) and not valid(getattr(ns, dest)):
            return _usage_error(f"{flag} must {requirement}, got {getattr(ns, dest)}")
    if not ns.out:
        pieces, code = ns.handler(ns)
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except OSError as exc:
            # the text left in the buffer goes to the null device at exit, not to a second error
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.close(null)
            return _usage_error(f"stdout: {exc.strerror}")
        return code
    # opened before the handler runs, so that a bad path fails fast; a full
    # disk shows only at the write or at the flush on close
    try:
        with open(ns.out, "w") as stream:
            pieces, code = ns.handler(ns)
            stream.writelines(pieces)
    except OSError as exc:
        return _usage_error(f"--out {ns.out}: {exc.strerror}")
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
