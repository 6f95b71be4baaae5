"""High-precision reference for alpha(delta), independent of the qsl code.

alpha(delta) = (2/pi) * min over z in [-sqrt(delta), sqrt(delta)] of
((1 + z)/2) * arccos((2*delta - 1 - z^2)/(1 - z^2)), evaluated with mpmath at
50 digits: a 257-point scan picks the best cell, then golden-section search
narrows it until the objective is flat to far below double precision.

The fixed delta set of the `table` workload is stored in
alpha_reference.json next to this file. Regenerate it with

    python3 perfbench/reference.py

Seed-drawn deltas are evaluated at run time by `alpha_mp`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath
import numpy as np

from workloads import TABLE_GRID, scalar_deltas

REFERENCE_FILE = Path(__file__).resolve().parent / "alpha_reference.json"
_DPS = 50
_SCAN = 257
_GOLDEN_ITERS = 160


def alpha_mp(delta: float) -> mpmath.mpf:
    """The closed-form alpha at the exact binary value of ``delta``."""
    with mpmath.workdps(_DPS):
        d = mpmath.mpf(delta)
        if d == 0:
            return mpmath.mpf(1)
        if d == 1:
            return mpmath.mpf(0)
        root = mpmath.sqrt(d)

        def objective(z):
            arg = (2 * d - 1 - z * z) / (1 - z * z)
            return (1 + z) / 2 * mpmath.acos(max(min(arg, 1), -1))

        zs = [-root + 2 * root * i / (_SCAN - 1) for i in range(_SCAN)]
        vals = [objective(z) for z in zs]
        i = min(range(_SCAN), key=vals.__getitem__)
        a, b = zs[max(i - 1, 0)], zs[min(i + 1, _SCAN - 1)]
        inv_phi = (mpmath.sqrt(5) - 1) / 2
        x1, x2 = b - inv_phi * (b - a), a + inv_phi * (b - a)
        f1, f2 = objective(x1), objective(x2)
        for _ in range(_GOLDEN_ITERS):
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - inv_phi * (b - a)
                f1 = objective(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + inv_phi * (b - a)
                f2 = objective(x2)
        best = min(f1, f2, vals[i], objective(zs[0]), objective(zs[-1]))
        return 2 / mpmath.pi * best


def fixed_deltas() -> list[float]:
    """The deltas of the `table` workload that do not depend on the seed."""
    return sorted(set(np.linspace(0.0, 1.0, TABLE_GRID).tolist()) | set(scalar_deltas()))


def load() -> dict[float, float]:
    """Stored reference values, keyed by delta."""
    data = json.loads(REFERENCE_FILE.read_text())
    return {float(k): float(v) for k, v in data["alpha"].items()}


def main() -> int:
    table = {repr(d): mpmath.nstr(alpha_mp(d), 30) for d in fixed_deltas()}
    doc = {"about": "alpha(delta) by perfbench/reference.py at %d digits" % _DPS,
           "alpha": table}
    REFERENCE_FILE.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"wrote {len(table)} values to {REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
