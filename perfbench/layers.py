"""Per-layer tracing for the benchmark's traced run (`--trace 1`).

Each wrapper is installed at the module attribute where the calling layer
looks the function up (for example `qsl.kernels.fidelity_grid`, which `qsim`
calls, or `qsl.bounds.grid_golden_min`, which `bounds` imported by name), so
no file under src/ changes. A timed wrapper opens a span: it adds the call's
wall time to `<name>.s` and the part not covered by its child spans to
`<name>.self_s`. A counting wrapper only adds to `<name>.calls`. The traced
run never supplies end-to-end figures; its slowdown against the plain run is
the tracing overhead.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict

import numpy as np

GRID_CAP = 65536  # `qsim._GRID_CAP`, the largest passage-scan grid
SIM_DELTAS = np.array([round(0.1 * i, 1) for i in range(10)])  # as `qsl simulate` builds them

# (metric, unit): every metric the traced run prints, on every workload. Times
# are seconds per round; counts are per round and repeat exactly.
METRICS = [
    ("kernels.fidelity_grid.calls", "count"),
    ("kernels.fidelity_grid.s", "s"),
    ("kernels.fidelity_grid.points", "count"),
    ("kernels.fidelity_grid.cap_hits", "count"),
    ("kernels.fidelity_grid.cap_s", "s"),
    ("kernels.fidelity_grid.undersampled_calls", "count"),
    ("kernels.fidelity_grid.used_ratio", "ratio"),
    ("kernels.refine_crossing.calls", "count"),
    ("kernels.refine_crossing.s", "s"),
    ("kernels.refine_minimum.calls", "count"),
    ("kernels.refine_minimum.s", "s"),
    ("kernels.fidelity_scalar.calls", "count"),
    ("kernels.dfidelity_scalar.calls", "count"),
    ("qsim.verify_limits.s", "s"),
    ("qsim.self_s", "s"),
    ("qsim.first_passage.calls", "count"),
    ("qsim.checks", "count"),
    ("qsim.skips", "count"),
    ("kernels.theta_max_table.calls", "count"),
    ("kernels.theta_max_table.s", "s"),
    ("kernels.theta_max_table.cells", "count"),
    ("oracle.minimax_bruteforce_m.s", "s"),
    ("oracle.two_level_min_time.s", "s"),
    ("oracle.identity_suite.s", "s"),
    ("optimize.golden_min.calls", "count"),
    ("bounds.lower_bound_m.calls", "count"),
    ("bounds.lower_bound_m.s", "s"),
    ("bounds.max_F_over_q.calls", "count"),
    ("bounds.arc_gap.calls", "count"),
    ("bounds.arc_gap.s", "s"),
    ("tangent.check_tangent_inequality.s", "s"),
    ("tangent.y_of_q.calls", "count"),
    ("rootfind.bracketed_root.calls", "count"),
    ("rootfind.bracketed_root.evals", "count"),
    ("bounds.alpha.calls", "count"),
    ("bounds.alpha.s", "s"),
    ("bounds.upper_bound_M.calls", "count"),
    ("bounds.upper_bound_M.s", "s"),
    ("bounds.f_max_closed.calls", "count"),
    ("optimize.grid_golden_min.calls", "count"),
    ("optimize.grid_golden_min.s", "s"),
    ("reports.render.s", "s"),
    ("cli.self_s", "s"),
]

# (span name, timed?, lookup sites): a name listed at two sites counts the
# calls made through either, e.g. the refiners reach the scalar fidelity
# through `kernels._fidelity_scalar` and `qsim` through `kernels.fidelity_scalar`
HOOKS = [
    ("kernels.fidelity_grid", True, ["qsl.kernels:fidelity_grid"]),
    ("kernels.refine_crossing", True, ["qsl.kernels:refine_crossing"]),
    ("kernels.refine_minimum", True, ["qsl.kernels:refine_minimum"]),
    ("kernels.fidelity_scalar", False,
     ["qsl.kernels:fidelity_scalar", "qsl.kernels:_fidelity_scalar"]),
    ("kernels.dfidelity_scalar", False,
     ["qsl.kernels:dfidelity_scalar", "qsl.kernels:_dfidelity_scalar"]),
    ("kernels.theta_max_table", True, ["qsl.kernels:theta_max_table"]),
    ("qsim.verify_limits", True, ["qsl.qsim:verify_limits"]),
    ("qsim.first_passage", False, ["qsl.qsim:first_passage"]),
    ("oracle.minimax_bruteforce_m", True, ["qsl.oracle:minimax_bruteforce_m"]),
    ("oracle.two_level_min_time", True, ["qsl.oracle:two_level_min_time"]),
    ("oracle.identity_suite", True, ["qsl.oracle:identity_suite"]),
    ("optimize.golden_min", False, ["qsl.optimize:golden_min", "qsl.oracle:golden_min"]),
    ("optimize.grid_golden_min", True, ["qsl.bounds:grid_golden_min"]),
    ("bounds.alpha", True, ["qsl.bounds:alpha"]),
    ("bounds.upper_bound_M", True, ["qsl.bounds:upper_bound_M"]),
    ("bounds.f_max_closed", False, ["qsl.bounds:f_max_closed"]),
    ("bounds.lower_bound_m", True, ["qsl.bounds:lower_bound_m"]),
    ("bounds.max_F_over_q", False, ["qsl.bounds:max_F_over_q"]),
    ("bounds.arc_gap", True, ["qsl.bounds:arc_gap_AB", "qsl.bounds:arc_gap_CD"]),
    ("tangent.check_tangent_inequality", True, ["qsl.tangent:check_tangent_inequality"]),
    ("tangent.y_of_q", False, ["qsl.tangent:y_of_q"]),
    ("rootfind.bracketed_root", True,
     ["qsl.tangent:bracketed_root", "qsl.rootfind:bracketed_root"]),
    ("reports.render", True,
     ["qsl.cli:render_csv", "qsl.cli:render_json", "qsl.cli:render_report"]),
]


class Tracer:
    """Span and count statistics for one traced run, kept in memory."""

    def __init__(self) -> None:
        self.stats: defaultdict[str, float] = defaultdict(float)
        self._open = [0.0]  # child time covered so far, per open span
        self._used_points = 0

    def install(self) -> None:
        after = {
            "kernels.fidelity_grid": self._after_fidelity_grid,
            "kernels.theta_max_table": self._after_theta_max_table,
            "qsim.verify_limits": self._after_verify_limits,
        }
        for name, timed, sites in HOOKS:
            for site in sites:
                module_name, attr = site.split(":")
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                if name == "rootfind.bracketed_root":
                    fn = self._counting_root(fn)
                wrapper = (self.timed(name, fn, after.get(name)) if timed
                           else self.counted(name, fn))
                setattr(module, attr, wrapper)

    def reset(self) -> None:
        """Drop what was recorded so far, e.g. one-off lazy set-up in the first round."""
        self.stats.clear()
        self._used_points = 0

    def counted(self, name: str, fn):
        stats, key = self.stats, name + ".calls"

        def wrapper(*args, **kwargs):
            stats[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, fn, after=None):
        stats, spans, clock = self.stats, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            stats[name + ".calls"] += 1
            spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = spans.pop()
                stats[name + ".s"] += dt
                stats[name + ".self_s"] += dt - children
                spans[-1] += dt
            if after is not None:
                t1 = clock()
                after(args, result, dt)
                spans[-1] += clock() - t1  # keep the bookkeeping out of the caller's self time
            return result

        return wrapper

    def _counting_root(self, fn):
        stats = self.stats

        def bracketed_root(f, *args, **kwargs):
            def counted_f(x):
                stats["rootfind.bracketed_root.evals"] += 1
                return f(x)

            return fn(counted_f, *args, **kwargs)

        return bracketed_root

    def _after_fidelity_grid(self, args, f, dt) -> None:
        _, energies, _, step, n = args
        s = self.stats
        s["kernels.fidelity_grid.points"] += n
        if n >= GRID_CAP:
            s["kernels.fidelity_grid.cap_hits"] += 1
            s["kernels.fidelity_grid.cap_s"] += dt
        # fewer than 2 samples per period of the fastest oscillation
        if step * float(np.max(energies) - np.min(energies)) > math.pi:
            s["kernels.fidelity_grid.undersampled_calls"] += 1
        first = np.searchsorted(-np.minimum.accumulate(f), -SIM_DELTAS, side="left")
        reached = first[first < n]
        if reached.size:
            self._used_points += int(reached.max()) + 1

    def _after_theta_max_table(self, args, result, dt) -> None:
        rho, _, fa, _ = args
        self.stats["kernels.theta_max_table.cells"] += len(rho) * len(fa)

    def _after_verify_limits(self, args, report, dt) -> None:
        self.stats["qsim.checks"] += report["checks"]
        self.stats["qsim.skips"] += report["skips"]

    def per_round(self, rounds: int) -> dict[str, float]:
        """Every metric of METRICS, as a per-round value."""
        s = self.stats
        values = {name: s[name] / rounds for name, _ in METRICS}
        values["qsim.self_s"] = s["qsim.verify_limits.self_s"] / rounds
        values["cli.self_s"] = s["cli.self_s"] / rounds
        points = s["kernels.fidelity_grid.points"]
        values["kernels.fidelity_grid.used_ratio"] = self._used_points / points if points else 0.0
        return values
