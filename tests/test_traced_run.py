"""The benchmark's traced run: its hooks install, and the hooked commands still run.

The tracer of ``perfbench/layers.py`` replaces module attributes of ``qsl``
with wrappers that pass their arguments on. A child process installs it and
runs commands that reach every layer this file names, so a hooked function
whose signature or return no longer fits the wrapper fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers
from qsl import cli
tracer = layers.Tracer()
tracer.install()
commands = (["verify", "--quick"], ["tangent", "--grid", "8"], ["simulate", "--trials", "3"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in commands]
print(json.dumps({"codes": codes, "stats": tracer.stats}))
"""


def test_traced_commands_run_and_reach_the_hooks():
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["codes"] == [0, 0, 0]
    stats = result["stats"]
    for name in ("tangent.y_of_q.calls", "bounds.arc_gap.calls",
                 "tangent.check_tangent_inequality.calls", "bounds.lower_bound_m.calls",
                 "kernels.theta_max_table.calls", "kernels.fidelity_grid.calls",
                 "qsim.verify_limits.calls", "reports.render.calls"):
        assert stats.get(name, 0) > 0, name
    # verify --quick prunes its two 256 x 256 minimax tables to a few full rows
    assert stats["kernels.theta_max_table.cells"] <= 2 * 256 * 256 / 4
