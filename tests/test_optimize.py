"""The row-wise golden section against the scalar golden section it replaces."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qsl import bounds, optimize

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "alpha_reference.json"


def scalar_golden_min(f, lo, hi):
    """One bracket at a time, in Python floats: the reference for every row of golden_min."""
    a, b = lo, hi
    x1 = b - optimize._INV_PHI * (b - a)
    x2 = a + optimize._INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(optimize._MAX_ITER):
        if b - a <= optimize._TOL:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - optimize._INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + optimize._INV_PHI * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    candidates = [(f(xm), xm), (f(lo), lo), (f(hi), hi), (f1, x1), (f2, x2)]
    fv, xv = min(candidates, key=lambda c: c[0])
    return xv, fv


def scalar_grid_golden_min(f, lo, hi, n):
    """Grid scan, then the scalar golden section in the best cell; the grid wins if strictly lower."""
    xs = np.linspace(lo, hi, n)
    fs = f(xs)
    i = int(np.argmin(fs))
    x_ref, f_ref = scalar_golden_min(f, float(xs[max(i - 1, 0)]), float(xs[min(i + 1, n - 1)]))
    if fs[i] < f_ref:
        return float(xs[i]), float(fs[i])
    return x_ref, f_ref


def two_d_grid_golden_min(f, lo, hi, n):
    """The grid stage on a (brackets, n) grid, one row per bracket even where brackets agree."""
    every = np.arange(lo.size)
    xs = np.linspace(lo, hi, n, axis=1)
    fs = f(xs, every[:, None])
    i = np.argmin(fs, axis=1)
    x_ref, f_ref = optimize.golden_min(f, xs[every, np.maximum(i - 1, 0)],
                                       xs[every, np.minimum(i + 1, n - 1)])
    grid_wins = fs[every, i] < f_ref
    return np.where(grid_wins, xs[every, i], x_ref), np.where(grid_wins, fs[every, i], f_ref)


# per row: a smooth interior minimum, a minimum at each endpoint, a kink, a flat
# stretch whose ties the first candidate wins, and a bracket already below _TOL
CENTERS = np.array([0.3, -5.0, 5.0, 0.7, 0.0, 0.25])
LO = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.25])
HI = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.25 + 1e-11])


def row_objective(x, rows):
    c = CENTERS[rows]
    return np.where(rows == 3, np.abs(x - c), np.where(rows == 4, np.maximum(x - 0.5, 0.0),
                                                       np.cos(x - c) * -1.0 + (x - c) ** 4))


def at_row(row):
    return lambda x: row_objective(np.asarray(x, dtype=np.float64), np.full(np.shape(x), row))[()]


class TestGoldenMin:
    def test_rows_take_the_scalar_steps(self):
        xs, fs = optimize.golden_min(row_objective, LO, HI)
        for row in range(LO.size):
            assert (xs[row], fs[row]) == scalar_golden_min(at_row(row), LO[row], HI[row]), row

    def test_one_call_equals_per_row_calls(self):
        xs, fs = optimize.golden_min(row_objective, LO, HI)
        for row in range(LO.size):
            one = optimize.golden_min(lambda x, rows: row_objective(x, np.full_like(rows, row)),
                                      LO[row], HI[row])
            assert (xs[row], fs[row]) == (one[0][0], one[1][0]), row

    def test_endpoint_minima_are_found(self):
        xs, _ = optimize.golden_min(row_objective, LO, HI)
        assert xs[1] == 0.0 and xs[2] == 1.0

    def test_grid_stage_takes_the_scalar_steps(self):
        for n in (8, 33, 512):
            xs, fs = optimize.grid_golden_min(row_objective, LO, HI, n)
            for row in range(LO.size):
                want = scalar_grid_golden_min(at_row(row), LO[row], HI[row], n)
                assert (xs[row], fs[row]) == want, (n, row)


    def test_shared_bracket_takes_the_scalar_steps(self):
        # one grid row for all five brackets, broadcast against their rows
        lo, hi = np.zeros(5), np.ones(5)
        for n in (8, 33, 512):
            xs, fs = optimize.grid_golden_min(row_objective, lo, hi, n)
            np.testing.assert_array_equal((xs, fs), two_d_grid_golden_min(row_objective, lo, hi, n))
            for row in range(lo.size):
                assert (xs[row], fs[row]) == scalar_grid_golden_min(at_row(row), 0.0, 1.0, n), row


def test_lower_bound_m_on_one_theta_row_equals_the_2d_grid(monkeypatch):
    # every stored delta of the 50-digit reference and the ends of [0, 1]: m's shared
    # bracket [pi, 2 pi] is scanned on one row of theta, bit for bit as on one row per delta
    table = json.loads(REFERENCE.read_text())["alpha"]
    deltas = np.array([float(d) for d in table] + [0.0, 1.0, 1e-12, 1.0 - 1e-12])
    shapes = []
    shipped = bounds.max_F_over_q
    monkeypatch.setattr(bounds, "max_F_over_q",
                        lambda theta, delta: shapes.append(np.shape(theta)) or shipped(theta, delta))
    values = bounds.lower_bound_m(deltas)
    assert shapes[0] == (1, bounds._N_THETA)
    _, minima = two_d_grid_golden_min(lambda theta, rows: shipped(theta, deltas[rows]),
                                      np.full(deltas.size, math.pi),
                                      np.full(deltas.size, 2.0 * math.pi), bounds._N_THETA)
    np.testing.assert_array_equal(values, (2.0 / math.pi) * minima)


@pytest.mark.parametrize("n_theta", [256, 720])
def test_lower_bound_m_takes_the_scalar_steps(monkeypatch, n_theta):
    # one array call of m equals the scalar grid-and-golden search of each delta, bit for bit,
    # on the shipped theta grid and on a coarser one
    monkeypatch.setattr(bounds, "_N_THETA", n_theta)
    deltas = np.array([0.0, 1e-12, 0.01, 0.25, 0.5, 0.77, 0.99, 1.0 - 1e-12, 1.0])
    values = bounds.lower_bound_m(deltas)
    for delta, value in zip(deltas.tolist(), values.tolist()):
        _, minimum = scalar_grid_golden_min(lambda theta: bounds.max_F_over_q(theta, delta),
                                            math.pi, 2.0 * math.pi, n_theta)
        assert value == (2.0 / math.pi) * float(minimum), delta
