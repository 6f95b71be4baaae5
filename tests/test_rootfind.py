import math

import mpmath
import pytest

from qsl.errors import DomainError, NoConvergence, NoSignChange
from qsl.rootfind import bracketed_root, y_bounds


def test_linear_root():
    root = bracketed_root(lambda x: x - 1.0, 0.0, 2.0)
    assert root == pytest.approx(1.0, abs=1e-12)


def test_cosine_root():
    root = bracketed_root(math.cos, 1.0, 2.0)
    assert root == pytest.approx(math.pi / 2, abs=1e-12)


def test_y_minus_condition_root():
    f = lambda y: 1.0 - math.cos(y) - y * math.sin(y)
    root = bracketed_root(f, math.pi / 2, math.pi)
    assert round(root, 4) == 2.3311


def test_no_sign_change_raises():
    with pytest.raises(NoSignChange):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_no_convergence_raises():
    with pytest.raises(NoConvergence):
        bracketed_root(math.cos, 1.0, 2.0, max_iter=3)


def test_exact_zero_at_endpoint():
    assert bracketed_root(lambda x: x, 0.0, 1.0) == 0.0


@pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0)])
def test_bracket_needs_lo_below_hi(lo, hi):
    with pytest.raises(DomainError):
        bracketed_root(lambda x: x - 1.5, lo, hi)


def test_y_bounds_values():
    yb = y_bounds()
    assert abs(yb.y_minus - 2.3311) < 5e-5
    assert abs(yb.y_plus - 4.4934) < 5e-5
    assert math.pi / 2 < yb.y_minus < math.pi
    assert math.pi < yb.y_plus < 1.5 * math.pi


def test_y_bounds_residuals():
    yb = y_bounds()
    assert abs(1.0 - math.cos(yb.y_minus) - yb.y_minus * math.sin(yb.y_minus)) <= 1e-9
    assert abs(math.sin(yb.y_plus) - yb.y_plus * math.cos(yb.y_plus)) <= 1e-9


def test_y_bounds_are_the_rounded_roots():
    with mpmath.workdps(40):
        y_minus = mpmath.findroot(lambda y: 1 - mpmath.cos(y) - y * mpmath.sin(y), 2.33)
        y_plus = mpmath.findroot(lambda y: mpmath.sin(y) - y * mpmath.cos(y), 4.49)
    yb = y_bounds()
    assert (yb.y_minus, yb.y_plus) == (float(y_minus), float(y_plus))


def test_y_bounds_idempotent():
    a = y_bounds()
    y_bounds.cache_clear()
    b = y_bounds()
    assert a.y_minus == b.y_minus
    assert a.y_plus == b.y_plus


def test_y_plus_fixed_point_of_tan():
    yb = y_bounds()
    assert abs(math.tan(yb.y_plus) - yb.y_plus) < 1e-8


def test_y_minus_half_angle_identity():
    yb = y_bounds()
    assert abs(math.tan(yb.y_minus / 2.0) - yb.y_minus) < 1e-8

