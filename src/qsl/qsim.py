"""Finite-dimensional pure-state evolution and speed-limit verification.

A state is a finite list of (energy, amplitude) pairs; its fidelity with the
initial state is |sum_k |c_k|^2 exp(-i E_k t)|^2. The module measures
first-passage times to a target fidelity and checks them against the two
speed limits on randomly sampled states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import bounds, kernels
from .errors import DomainError

# amplitudes below this are treated as absent from the support
SUPPORT_EPS = 1e-15
# the target fidelities 0, 0.1, ..., 0.9 that verify_limits checks
DELTAS = np.arange(10) / 10.0
DELTAS.setflags(write=False)

# passage scans sample the fidelity this many times per period of its fastest
# oscillation, 2*pi / (E_max - E_min), whatever the horizon
_SAMPLES_PER_FAST_PERIOD = 16
# grid points per scan chunk, one fidelity_grid call each
_CHUNK = 4096
# grid points one scan may take, bounding the work of a long horizon; a target
# not reached within them counts as not reached, never as found on a coarser grid
_POINT_BUDGET = 65536
# a cell the curvature bound cannot clear is cut into _SPLIT equal cells, at
# most _MAX_DEPTH times; at 16**-5 of the grid step the bound's curvature term
# is below 2e-14, under _TOUCH_ACCEPT
_SPLIT = 16
_MAX_DEPTH = 5
# a local minimum this close to the target reaches it (a tangential touch)
_TOUCH_ACCEPT = 1e-12


@dataclass
class QuantumState:
    """A normalized pure state over finitely many energy levels."""

    energies: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.energies = np.asarray(self.energies, dtype=np.float64)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.energies.ndim != 1 or self.energies.shape != self.amplitudes.shape:
            raise DomainError("energies and amplitudes must be 1-d arrays of equal length")
        if self.energies.size < 1:
            raise DomainError("a state needs at least one level")
        if not (np.all(np.isfinite(self.energies)) and np.all(np.isfinite(self.amplitudes))):
            raise DomainError("energies and amplitudes must be finite")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if norm == 0.0:
            raise DomainError("at least one amplitude must be nonzero")
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"state norm^2 = {norm}, expected 1 within 1e-12")

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(energies, probabilities) restricted to levels that carry weight."""
        mask = np.abs(self.amplitudes) > SUPPORT_EPS
        p = np.abs(self.amplitudes[mask]) ** 2
        return self.energies[mask], p / p.sum()


def dispersion(state: QuantumState) -> float:
    """Energy standard deviation in the state."""
    energies, p = state.support()
    mean = float(p @ energies)
    var = float(p @ (energies - mean) ** 2)
    return math.sqrt(max(var, 0.0))


def mean_excess_energy(state: QuantumState) -> float:
    """Mean energy above the lowest occupied level."""
    energies, p = state.support()
    return float(p @ energies) - float(energies.min())


def default_horizon(state: QuantumState, mult: float = 1.0) -> Optional[float]:
    """Scan horizon 4*pi / (smallest occupied energy gap), or None if static."""
    energies, _ = state.support()
    if energies.size < 2:
        return None
    gaps = np.diff(np.sort(energies))
    gaps = gaps[gaps > SUPPORT_EPS]
    if gaps.size == 0:
        return None
    return mult * 4.0 * math.pi / float(gaps.min())


class _Curve(NamedTuple):
    """A state's fidelity curve, with its energies shifted to their weighted median c.

    ``curv`` = 2*m1**2 + 2*m2 bounds |f''|, where m1 = sum p|E - c| bounds
    |z'| and m2 = sum p(E - c)**2 bounds |z''| (for any c; the median
    minimises m1). ``scale`` = max |E - c| sets the rounding bound.
    """

    p: np.ndarray
    e: np.ndarray
    curv: float
    scale: float

    @classmethod
    def of(cls, energies: np.ndarray, p: np.ndarray) -> "_Curve":
        order = np.argsort(energies)
        c = energies[order][np.searchsorted(np.cumsum(p[order]), 0.5)]
        e = energies - c
        m1 = float(p @ np.abs(e))
        m2 = float(p @ (e * e))
        return cls(p, e, 2.0 * m1 * m1 + 2.0 * m2, float(np.abs(e).max()))

    def rounding(self, t):
        return kernels.rounding_bound(t, self.e.size, self.scale)


def _first_events(curve: _Curve, a: np.ndarray, fa: np.ndarray, fb: np.ndarray,
                  h: float, deltas: np.ndarray):
    """Earliest passage of each target within the cells [a, a + h].

    ``a`` is increasing, and f is certified above every target before
    ``a[0]``. A cell is cleared for the targets not yet reached before it when
    the curvature bound keeps f above them on all of it:
    min(fa, fb) - curv*h**2/8 - rounding > delta + _TOUCH_ACCEPT. The cells
    it cannot clear are cut into _SPLIT parts, all of them at once. A cell
    where f comes down to a target is a crossing bracket once
    f' <= (f'(a) + f'(b))/2 + curv*h/2 < 0 certifies that f decreases on it.
    At the last depth, 16**-5 of the grid step, a crossing cell is a bracket
    as it is, and a cell still uncleared is searched for a local minimum,
    which reaches the targets within _TOUCH_ACCEPT of it.

    Returns (lo, hi, touch) per target: a crossing bracket [lo, hi], or a
    touch at ``touch`` (where it is not nan) in the cell starting at ``lo``;
    lo is inf for a target not reached in these cells.
    """
    p, e = curve.p, curve.e
    lo = np.full(deltas.size, np.inf)
    hi = np.full(deltas.size, np.inf)
    touch = np.full(deltas.size, np.nan)
    for depth in range(_MAX_DEPTH + 1):
        last = depth == _MAX_DEPTH
        seq = np.minimum.accumulate(np.column_stack((fa, fb)).ravel())
        cell = np.searchsorted(-seq, -deltas, side="left") // 2
        start = np.full(deltas.size, np.inf)
        hit = cell < a.size
        start[hit] = a[cell[hit]]
        new = start < lo
        # a cell must be cleared for the targets whose earliest event lies after its start
        until = np.minimum(lo, start)
        order = np.argsort(until)
        above = np.maximum.accumulate(np.append(deltas[order], -np.inf)[::-1])[::-1]
        ceiling = above[np.searchsorted(until[order], a, side="right")]
        b = a + h
        lower = np.minimum(fa, fb) - curve.curv * h * h / 8.0 - curve.rounding(b)
        keep = lower <= ceiling + _TOUCH_ACCEPT
        crossing = np.zeros(a.size + 1, dtype=bool)
        crossing[cell[new]] = True
        crossing = np.nonzero(crossing[:-1])[0]
        if crossing.size:
            slope = kernels.dfidelity_scalar(p, e, np.concatenate((a[crossing], b[crossing])))
            bound = (slope.reshape(2, -1).mean(axis=0) + curve.curv * h / 2.0
                     + 2.0 * curve.scale * curve.rounding(b[crossing]))
            certified = np.zeros(a.size + 1, dtype=bool)
            certified[crossing] = (bound < 0.0) | last
            keep[crossing] |= ~certified[crossing]
            done = new & certified[cell]
            lo[done] = a[cell[done]]
            hi[done] = b[cell[done]]
        if last:
            _touches(curve, a[keep], b[keep], a[keep, None] < until, deltas, lo, hi, touch)
            break
        a, fa, fb = a[keep], fa[keep], fb[keep]
        if not a.size:
            break
        h /= _SPLIT
        v = kernels.fidelity_rows(p, e, a, h, _SPLIT)
        v[:, 0] = fa  # the values already known, so that every cell agrees with its parent
        fb = np.column_stack((v[:, 1:], fb)).ravel()
        fa = v.ravel()
        a = (a[:, None] + h * np.arange(_SPLIT)).ravel()
    return lo, hi, touch


def _touches(curve: _Curve, a, b, relevant, deltas, lo, hi, touch) -> None:
    """Record, in place, the earliest local minimum in the cells [a, b] that reaches each target."""
    if not a.size:
        return
    slope = kernels.dfidelity_scalar(curve.p, curve.e, np.concatenate((a, b))).reshape(2, -1)
    dip = (slope[0] < 0.0) & (slope[1] > 0.0)
    if not dip.any():
        return
    a, b, relevant = a[dip], b[dip], relevant[dip]
    t_min = kernels.refine_minimum(curve.p, curve.e, a, b)
    f_min = kernels.fidelity_scalar(curve.p, curve.e, t_min)
    reach = relevant & (f_min[:, None] <= deltas + _TOUCH_ACCEPT)
    for j in np.nonzero(reach.any(axis=0))[0]:
        i = int(reach[:, j].argmax())
        lo[j] = a[i]
        if f_min[i] <= deltas[j] - _TOUCH_ACCEPT:
            hi[j] = t_min[i]  # the dip goes through the target: bracket its left crossing
        else:
            touch[j] = t_min[i]


def _passage_times(energies: np.ndarray, p: np.ndarray, deltas: np.ndarray,
                   horizon: float) -> np.ndarray:
    """First-passage time to each target of the increasing ``deltas`` within [0, horizon].

    The scan steps forward in chunks of a uniform grid with
    _SAMPLES_PER_FAST_PERIOD points per fastest period and certifies every
    cell before a reported time (:func:`_first_events`). It stops when every
    target is reached. nan marks a target not reached: provably unreachable,
    since f >= (2*p_max - 1)**2 when p_max > 1/2, or not reached within the
    horizon or the point budget.
    """
    t_star = np.where(deltas >= 1.0, 0.0, np.nan)
    p_max = float(p.max())
    floor = (2.0 * p_max - 1.0) ** 2 if p_max > 0.5 else 0.0
    span = float(energies.max() - energies.min())
    todo = np.nonzero((deltas < 1.0) & (deltas + _TOUCH_ACCEPT >= floor))[0]
    if span <= 0.0 or not todo.size:
        return t_star
    curve = _Curve.of(energies, p)
    dt = 2.0 * math.pi / (_SAMPLES_PER_FAST_PERIOD * span)
    steps = horizon / dt  # inf for an infinite horizon
    n_points = _POINT_BUDGET if steps >= _POINT_BUDGET else math.ceil(steps) + 1
    found_lo, found_hi, found_at = [], [], []
    k0, f_prev = 0, 1.0
    while todo.size and k0 < n_points - 1:
        n = min(_CHUNK, n_points - 1 - k0)
        f = kernels.fidelity_grid(curve.p, curve.e, k0 * dt, dt, n + 1)
        if k0 == 0:
            met = deltas[todo] >= f[0]
            t_star[todo[met]] = 0.0
            todo = todo[~met]
        else:
            f[0] = f_prev  # the previous chunk's last value, as certified there
        t = (k0 + np.arange(n + 1)) * dt
        lo, hi, touch = _first_events(curve, t[:-1], f[:-1], f[1:], dt, deltas[todo])
        touched = ~np.isnan(touch)
        t_star[todo[touched]] = touch[touched]
        bracketed = (lo < math.inf) & ~touched
        found_lo.append(lo[bracketed])
        found_hi.append(hi[bracketed])
        found_at.append(todo[bracketed])
        todo = todo[lo == math.inf]
        f_prev = f[-1]
        k0 += n
    at = np.concatenate(found_at)
    if at.size:
        t_star[at] = kernels.refine_crossing(curve.p, curve.e, np.concatenate(found_lo),
                                             np.concatenate(found_hi), deltas[at])
    t_star[t_star > horizon] = np.nan
    return t_star


def first_passage(state: QuantumState, delta: float, horizon: float) -> Optional[float]:
    """First time the fidelity curve comes down to ``delta``, or None.

    Scans forward at a fixed number of samples per period of the fastest
    oscillation and certifies every grid cell before the reported time: by
    the curvature bound |f''| <= 2*m1**2 + 2*m2 and the kernels' rounding
    bound, f stays above ``delta`` on it, or the cell is cut finer until that
    holds. So no dip below ``delta`` before the reported time is missed; a
    local minimum within 1e-12 of ``delta`` counts as reaching it. Absence of
    a crossing within the horizon (or within the scan's point budget) is a
    legitimate outcome, not an error.
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    if not horizon > 0.0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    t_star = _passage_times(*state.support(), np.array([float(delta)]), horizon)[0]
    return None if math.isnan(t_star) else float(t_star)


def _limits(state: QuantumState, ml_coeff: np.ndarray,
            mt_coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both speed limits of ``state`` per target, from their numerators.

    The excitation-energy limit is ml_coeff / <H - E0> with ml_coeff =
    (pi/2) * alpha(delta); the dispersion limit is mt_coeff / dE with
    mt_coeff = arccos(sqrt(delta)). A limit whose denominator vanishes is inf.
    """
    excess, de = mean_excess_energy(state), dispersion(state)
    return (ml_coeff / excess if excess > 0.0 else np.full_like(ml_coeff, math.inf),
            mt_coeff / de if de > 0.0 else np.full_like(mt_coeff, math.inf))


def two_level_state(xi: float) -> QuantumState:
    """Weight 1 - xi^2 on energy 0 and xi^2 on energy 1."""
    if not 0.0 < xi < 1.0:
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    return QuantumState(np.array([0.0, 1.0]),
                        np.array([math.sqrt(1.0 - xi * xi), xi], dtype=np.complex128))


def draw_state(rng: np.random.Generator, d: int) -> QuantumState:
    """Energies uniform in [0, 1] (sorted); amplitudes Haar-uniform."""
    energies = np.sort(rng.uniform(0.0, 1.0, d))
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    amps /= np.linalg.norm(amps)
    return QuantumState(energies, amps)


_HIST_EDGES = (1e-6, 1e-3, 1e-2, 1e-1, 1.0)


def _empty_report(trials: int, d_max: int, seed: int, horizon_mult: float) -> dict:
    report = {
        "trials": trials,
        "d_max": d_max,
        "deltas": ",".join(f"{d:g}" for d in DELTAS.tolist()),
        "seed": seed,
        "horizon_mult": horizon_mult,
        "checks": 0,
        "skips": 0,
        "violations": 0,
        "min_ml_slack": math.inf,
        "min_mt_slack": math.inf,
        "designed_cases": 0,
        "designed_violations": 0,
        "designed_max_rel_slack": 0.0,
    }
    for edge in _HIST_EDGES:
        report[f"hist_rel_slack_le_{edge:g}"] = 0
    report["hist_rel_slack_gt_1"] = 0
    return report


def _bin_slack(report: dict, rel_slack: float) -> None:
    for edge in _HIST_EDGES:
        if rel_slack <= edge:
            report[f"hist_rel_slack_le_{edge:g}"] += 1
            return
    report["hist_rel_slack_gt_1"] += 1


def verify_limits(trials: int, d_max: int, seed: int, horizon_mult: float = 1.0) -> dict:
    """Monte-Carlo check that measured passage times respect both limits.

    Each trial draws a state (dimension uniform in {2..d_max}, energies in
    [0, 1], per-trial seed ``seed + trial``), measures the first passage for
    every target fidelity of DELTAS, and asserts t_star >= bound - 1e-9 for
    both limits. The saturating two-level states are included as designed
    cases, checked the same way. Violations are counted, not raised.
    """
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    if d_max < 2:
        raise DomainError(f"d_max must be at least 2, got {d_max}")
    report = _empty_report(trials, d_max, seed, horizon_mult)
    if trials == 0:
        return report

    ml_coeff = 0.5 * math.pi * bounds.alpha(DELTAS)
    mt_coeff = np.array([bounds.mt_alpha(d) for d in DELTAS.tolist()])
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        state = draw_state(rng, int(rng.integers(2, d_max + 1)))
        horizon = default_horizon(state, horizon_mult)
        if horizon is None:
            report["skips"] += DELTAS.size
            continue
        t_star = _passage_times(*state.support(), DELTAS, horizon)
        ml, mt = _limits(state, ml_coeff, mt_coeff)
        for t, ml_d, mt_d in zip(t_star.tolist(), ml.tolist(), mt.tolist()):
            if math.isnan(t):
                report["skips"] += 1
            else:
                _record_check(report, t, ml_d, mt_d)

    _, z_opts = bounds._upper_bound_argmin(DELTAS)
    for i, (delta, z_opt) in enumerate(zip(DELTAS.tolist(), z_opts.tolist())):
        u = 0.5 * (1.0 + z_opt)
        if not 0.0 < u < 1.0:
            continue
        state = two_level_state(math.sqrt(u))
        t_star = first_passage(state, delta, default_horizon(state, max(horizon_mult, 1.0)))
        report["designed_cases"] += 1
        if t_star is None:
            report["designed_violations"] += 1
            continue
        ml, mt = (float(limit[i]) for limit in _limits(state, ml_coeff, mt_coeff))
        _record_check(report, t_star, ml, mt)
        rel = abs(t_star / ml - 1.0)
        report["designed_max_rel_slack"] = max(report["designed_max_rel_slack"], rel)
        if rel > 1e-6:
            report["designed_violations"] += 1
    return report


def _record_check(report: dict, t_star: float, ml: float, mt: float) -> None:
    report["checks"] += 1
    ml_slack = t_star - ml if math.isfinite(ml) else math.inf
    mt_slack = t_star - mt if math.isfinite(mt) else math.inf
    report["min_ml_slack"] = min(report["min_ml_slack"], ml_slack)
    report["min_mt_slack"] = min(report["min_mt_slack"], mt_slack)
    if ml_slack < -1e-9 or mt_slack < -1e-9:
        report["violations"] += 1
    binding = min(ml, mt)
    if math.isfinite(binding) and binding > 0.0:
        _bin_slack(report, t_star / binding - 1.0)
