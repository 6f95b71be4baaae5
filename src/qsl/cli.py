"""Command-line front end.

Subcommands: ``alpha`` (bound values and tables), ``verify`` (analytic and
brute-force cross-checks), ``simulate`` (Monte-Carlo speed-limit checks),
``tangent`` (tangency-family table), ``plotdata`` (curve emission).

Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds, oracle, qsim, rootfind, tangent
from .reports import render_csv, render_json, render_report

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    command: str
    delta: Optional[float] = None
    grid: int = 101
    trials: int = 1000
    d_max: int = 8
    seed: int = 7
    horizon_mult: float = 1.0
    fmt: str = "csv"
    out: Optional[str] = None
    quick: bool = False
    checks: dict = field(default_factory=dict)


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)


def _table(config: RunConfig, header: list[str], rows: list[list[float]]) -> None:
    if config.fmt == "json":
        _emit(config, render_json(header, rows))
    else:
        _emit(config, render_csv(header, rows))


def cmd_alpha(config: RunConfig) -> int:
    if config.delta is not None:
        _emit(config, f"{bounds.alpha(config.delta):.12f}\n")
        return EXIT_OK
    deltas = np.linspace(0.0, 1.0, config.grid)
    rows = [[float(d), bounds.alpha(float(d)), bounds.mt_alpha(float(d))] for d in deltas]
    _table(config, ["delta", "alpha", "mt_alpha"], rows)
    return EXIT_OK


def cmd_plotdata(config: RunConfig) -> int:
    deltas = np.linspace(0.0, 1.0, config.grid)
    rows = [[float(d), bounds.alpha(float(d))] for d in deltas]
    _table(config, ["delta", "alpha"], rows)
    return EXIT_OK


def cmd_tangent(config: RunConfig) -> int:
    yb = rootfind.y_bounds()
    ys = np.linspace(yb.y_minus, yb.y_plus - 1e-6, config.grid)
    ys = np.union1d(ys, [math.pi])  # the midpoint row q = a = 2/pi is a fixture
    rows = [[float(y), tangent.q_of_y(float(y)), tangent.a_of_y(float(y))] for y in ys]
    _table(config, ["y", "q", "a"], rows)
    return EXIT_OK


def _run_verify_checks(config: RunConfig) -> dict:
    quick = config.quick
    report: dict = {"mode": "quick" if quick else "full", "seed": config.seed}
    failures = []

    deltas = np.arange(0.05, 1.0, 0.05) if quick else np.arange(0.01, 1.0, 0.01)
    n_theta = 256 if quick else 720
    tol = 1e-4 if quick else 1e-6
    max_gap = max(bounds.evaluate_bounds(float(d), n_theta).gap for d in deltas)
    report["equality_max_gap"] = max_gap
    report["equality_tol"] = tol
    report["equality"] = "pass" if max_gap <= tol else "fail"

    grid = 256 if quick else 2048
    sample = [0.3, 0.7] if quick else [0.1, 0.3, 0.5, 0.7, 0.9]
    tol_mm = 5e-3 if quick else 1e-4
    mm_err = max(
        abs(oracle.minimax_bruteforce_m(d, grid, grid).value - bounds.upper_bound_M(d))
        for d in sample
    )
    report["minimax_oracle_max_err"] = mm_err
    report["minimax_oracle_tol"] = tol_mm
    report["minimax_oracle"] = "pass" if mm_err <= tol_mm else "fail"

    tl_err = max(abs(oracle.two_level_min_time(d) - bounds.upper_bound_M(d)) for d in sample)
    report["two_level_oracle_max_err"] = tl_err
    report["two_level_oracle"] = "pass" if tl_err <= 1e-8 else "fail"

    identities = oracle.identity_suite(1000 if quick else 10000, config.seed)
    report["identities_max_violation"] = identities["max_violation"]
    report["identities"] = "pass" if identities["max_violation"] <= 1e-12 else "fail"

    rng = np.random.default_rng(config.seed)
    n_q = 100 if quick else 1000
    worst = min(
        tangent.check_tangent_inequality(float(q), 50.0, 4096)
        for q in rng.uniform(0.0, 100.0, n_q)
    )
    report["tangent_inequality_min"] = worst
    report["tangent_inequality"] = "pass" if worst >= -1e-9 else "fail"

    arc_min, arc_boundary = _arc_gap_scan(npoints=200 if quick else 2000)
    report["arc_gap_min"] = arc_min
    report["arc_gap_boundary_max"] = arc_boundary
    report["arc_gaps"] = "pass" if arc_min >= -1e-10 and arc_boundary <= 1e-8 else "fail"

    for key in ("equality", "minimax_oracle", "two_level_oracle", "identities",
                "tangent_inequality", "arc_gaps"):
        if report[key] == "fail":
            failures.append(key)
    report["failed_checks"] = ",".join(failures) if failures else "none"
    report["overall"] = "fail" if failures else "pass"
    return report


def _arc_gap_scan(npoints: int) -> tuple[float, float]:
    """(most negative gap, largest boundary value) over both arcs and branches."""
    yb = rootfind.y_bounds()
    worst = math.inf
    boundary = 0.0
    for delta in (0.3, 0.6, 0.9):
        phi_reach = math.acos(math.sqrt(delta))  # cos^2(psi) <= delta constraint
        lo_ab = max(0.5 * yb.y_plus, phi_reach)
        hi_ab = math.pi - phi_reach
        if lo_ab <= hi_ab:
            for branch in (1, -1):
                psis = np.linspace(lo_ab, hi_ab, npoints)
                vals = [bounds.arc_gap_AB(float(p), delta, branch) for p in psis]
                worst = min(worst, min(vals))
                boundary = max(boundary, abs(bounds.arc_gap_AB(0.5 * yb.y_plus, delta, branch)))
        lo_cd = phi_reach
        hi_cd = 0.5 * yb.y_minus
        if lo_cd <= hi_cd:
            for branch in (1, -1):
                psis = np.linspace(lo_cd, hi_cd, npoints)
                vals = [bounds.arc_gap_CD(float(p), delta, branch) for p in psis]
                worst = min(worst, min(vals))
                boundary = max(boundary, abs(bounds.arc_gap_CD(0.5 * yb.y_minus, delta, branch)))
    return worst, boundary


def cmd_verify(config: RunConfig) -> int:
    report = _run_verify_checks(config)
    _emit(config, render_report(report))
    return EXIT_OK if report["overall"] == "pass" else EXIT_CHECK_FAILED


def cmd_simulate(config: RunConfig) -> int:
    deltas = [round(0.1 * i, 1) for i in range(10)]
    report = qsim.verify_limits(config.trials, config.d_max, deltas, config.seed,
                                horizon_mult=config.horizon_mult)
    ok = report["violations"] == 0 and report["designed_violations"] == 0
    report["overall"] = "pass" if ok else "fail"
    _emit(config, render_report(report))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsl",
        description="Quantum speed limit numerics: bound tables, verification suites, simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, grid_default: int) -> None:
        p.add_argument("--grid", type=int, default=grid_default, help="table/grid resolution")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=7)

    p_alpha = sub.add_parser("alpha", help="bound coefficient: one value or a table")
    p_alpha.add_argument("--delta", type=float, default=None)
    add_common(p_alpha, 101)

    p_verify = sub.add_parser("verify", help="run the analytic/brute-force cross-check suite")
    p_verify.add_argument("--quick", action="store_true", help="coarse grids, looser tolerances")
    add_common(p_verify, 101)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo speed-limit verification")
    p_sim.add_argument("--trials", type=int, default=1000)
    p_sim.add_argument("--dmax", dest="d_max", type=int, default=8)
    p_sim.add_argument("--horizon-mult", dest="horizon_mult", type=float, default=1.0)
    add_common(p_sim, 101)

    p_tan = sub.add_parser("tangent", help="emit the (y, q, a) tangency table")
    add_common(p_tan, 256)

    p_plot = sub.add_parser("plotdata", help="emit the bound curve for external plotting")
    add_common(p_plot, 101)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    config = RunConfig(
        command=ns.command,
        delta=getattr(ns, "delta", None),
        grid=ns.grid,
        trials=getattr(ns, "trials", 1000),
        d_max=getattr(ns, "d_max", 8),
        seed=ns.seed,
        horizon_mult=getattr(ns, "horizon_mult", 1.0),
        fmt=ns.fmt,
        out=ns.out,
        quick=getattr(ns, "quick", False),
    )
    usage_errors = [
        (config.delta is not None and not 0.0 <= config.delta <= 1.0,
         f"--delta must lie in [0, 1], got {config.delta}"),
        (config.grid < 2, f"--grid must be at least 2, got {config.grid}"),
        (config.trials < 0, f"--trials must be nonnegative, got {config.trials}"),
        (config.d_max < 2, f"--dmax must be at least 2, got {config.d_max}"),
        (not 0.0 < config.horizon_mult < math.inf,
         f"--horizon-mult must be finite and positive, got {config.horizon_mult}"),
        (config.seed < 0, f"--seed must be nonnegative, got {config.seed}"),
    ]
    for bad, message in usage_errors:
        if bad:
            sys.stderr.write(f"error: {message}\n")
            return EXIT_USAGE
    handlers = {
        "alpha": cmd_alpha,
        "verify": cmd_verify,
        "simulate": cmd_simulate,
        "tangent": cmd_tangent,
        "plotdata": cmd_plotdata,
    }
    return handlers[config.command](config)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
