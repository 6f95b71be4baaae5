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
# verify_limits refines its pending crossings once their brackets' zero-padded
# (p, e) rows reach this many entries: the row block of the fidelity kernels,
# so the refinement's memory stays bounded at any --dmax
_REFINE_CELLS = kernels._ROW_BLOCK


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


def dispersion(energies: np.ndarray, p: np.ndarray) -> float:
    """Energy standard deviation of a state with support (energies, p)."""
    mean = float(p @ energies)
    var = float(p @ (energies - mean) ** 2)
    return math.sqrt(max(var, 0.0))


def mean_excess_energy(energies: np.ndarray, p: np.ndarray) -> float:
    """Mean energy above the lowest occupied level of a state with support (energies, p)."""
    return float(p @ energies) - float(energies.min())


def default_horizon(energies: np.ndarray, mult: float = 1.0) -> Optional[float]:
    """Scan horizon 4*pi / (smallest gap of the occupied ``energies``), or None if static."""
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
    minimises m1), and ``sag`` = m2/8 bounds |z - chord|/h**2 on a cell of
    width h. ``scale`` = max |E - c| sets the rounding bound.
    """

    p: np.ndarray
    e: np.ndarray
    curv: float
    sag: float
    scale: float

    @classmethod
    def of(cls, energies: np.ndarray, p: np.ndarray) -> "_Curve":
        order = np.argsort(energies)
        c = energies[order][np.searchsorted(np.cumsum(p[order]), 0.5)]
        e = energies - c
        m1 = float(p @ np.abs(e))
        m2 = float(p @ (e * e))
        return cls(p, e, 2.0 * m1 * m1 + 2.0 * m2, m2 / 8.0, float(np.abs(e).max()))

    def rounding(self, t):
        return kernels.rounding_bound(t, self.e.size, self.scale)


def _chord_distance(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Distance from 0 to each segment [za, zb] of the complex plane."""
    d = zb - za
    dd = d.real * d.real + d.imag * d.imag
    s = np.divide(-(za.conj() * d).real, dd, out=np.zeros_like(dd), where=dd > 0.0)
    return np.abs(za + np.clip(s, 0.0, 1.0) * d)


def _first_events(curve: _Curve, a: np.ndarray, z: np.ndarray, h: float, deltas: np.ndarray):
    """Earliest passage of each target within the cells [a, a + h].

    ``a`` is increasing, z holds the amplitudes at a and at a[-1] + h, and f
    is certified above every target before ``a[0]``. A cell is cleared for
    the targets not yet reached before it when f stays above them on all of
    it by the curvature bound min(fa, fb) - curv*h**2/8 - r or, where that
    fails, by the chord bound (dist(0, [za, zb]) - sag*h**2 - r)**2, since
    |z - chord| <= m2*h**2/8, above delta + _TOUCH_ACCEPT. r is the rounding
    bound at the last cell's end (it increases with t); it bounds the error of
    za and zb with half to spare for the distance's own rounding.
    The cells neither bound clears are cut into _SPLIT parts, all of them at
    once. A cell where f comes down to a target is a crossing bracket once
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
    f = z.real * z.real + z.imag * z.imag
    za, zb, fa, fb = z[:-1], z[1:], f[:-1], f[1:]
    for depth in range(_MAX_DEPTH + 1):
        last = depth == _MAX_DEPTH
        fmin = np.minimum(fa, fb)
        cell = np.searchsorted(-np.minimum.accumulate(fmin), -deltas, side="left")
        start = np.full(deltas.size, np.inf)
        hit = cell < a.size
        start[hit] = a[cell[hit]]
        new = start < lo
        # a cell must be cleared for the targets whose earliest event lies after its start
        until = np.minimum(lo, start)
        order = np.argsort(until)
        above = np.maximum.accumulate(np.append(deltas[order], -np.inf)[::-1])[::-1]
        ceiling = above[np.searchsorted(until[order], a, side="right")] + _TOUCH_ACCEPT
        b = a + h
        rounding = curve.rounding(b[-1])
        keep = fmin - curve.curv * h * h / 8.0 - rounding <= ceiling
        held = np.nonzero(keep)[0]
        gap = _chord_distance(za[held], zb[held]) - curve.sag * h * h - rounding
        keep[held] = np.maximum(gap, 0.0) ** 2 <= ceiling[held]
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
        a, za, zb, fa, fb = a[keep], za[keep], zb[keep], fa[keep], fb[keep]
        if not a.size:
            break
        h /= _SPLIT
        v = kernels.amplitude_rows(p, e, a, h, _SPLIT)
        v[:, 0] = za  # the values already known, so that every cell agrees with its parent
        g = v.real * v.real + v.imag * v.imag
        zb = np.column_stack((v[:, 1:], zb)).ravel()
        fb = np.column_stack((g[:, 1:], fb)).ravel()
        za, fa = v.ravel(), g.ravel()
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


# the crossing brackets of a state without any: (curve, at, lo, hi) as _scan returns them
_NO_BRACKETS = (None, np.empty(0, dtype=np.intp), np.empty(0), np.empty(0))


def _scan(energies: np.ndarray, p: np.ndarray, deltas: np.ndarray,
          horizon: float) -> tuple[np.ndarray, tuple]:
    """First passage to each target of the increasing ``deltas``, up to refinement.

    The scan steps forward in chunks of a uniform grid with
    _SAMPLES_PER_FAST_PERIOD points per fastest period and certifies every
    cell before a reported time (:func:`_first_events`). It stops when every
    target is reached. Returns the passage times found so far (0 for a
    target met at the start, the time of a touch; nan for one not reached:
    provably unreachable, since f >= (2*p_max - 1)**2 when p_max > 1/2, or not
    reached within the point budget) and the crossings still to refine as
    (curve, at, lo, hi): f first comes down to deltas[at] in [lo, hi]. A time
    past ``horizon`` counts as not reached once the crossings are refined.
    """
    t_star = np.where(deltas >= 1.0, 0.0, np.nan)
    p_max = float(p.max())
    floor = (2.0 * p_max - 1.0) ** 2 if p_max > 0.5 else 0.0
    span = float(energies.max() - energies.min())
    todo = np.nonzero((deltas < 1.0) & (deltas + _TOUCH_ACCEPT >= floor))[0]
    if span <= 0.0 or not todo.size:
        return t_star, _NO_BRACKETS
    curve = _Curve.of(energies, p)
    dt = 2.0 * math.pi / (_SAMPLES_PER_FAST_PERIOD * span)
    steps = horizon / dt  # inf for an infinite horizon
    n_points = _POINT_BUDGET if steps >= _POINT_BUDGET else math.ceil(steps) + 1
    found_lo, found_hi, found_at = [], [], []
    k0, z_prev = 0, None
    while todo.size and k0 < n_points - 1:
        n = min(_CHUNK, n_points - 1 - k0)
        z = kernels.fidelity_grid(curve.p, curve.e, k0 * dt, dt, n + 1)
        if k0 == 0:
            met = deltas[todo] >= z[0].real * z[0].real + z[0].imag * z[0].imag
            t_star[todo[met]] = 0.0
            todo = todo[~met]
        else:
            z[0] = z_prev  # the previous chunk's last value, as certified there
        t = (k0 + np.arange(n)) * dt
        lo, hi, touch = _first_events(curve, t, z, dt, deltas[todo])
        touched = ~np.isnan(touch)
        t_star[todo[touched]] = touch[touched]
        bracketed = (lo < math.inf) & ~touched
        found_lo.append(lo[bracketed])
        found_hi.append(hi[bracketed])
        found_at.append(todo[bracketed])
        todo = todo[lo == math.inf]
        z_prev = z[-1]
        k0 += n
    return t_star, (curve, np.concatenate(found_at), np.concatenate(found_lo),
                    np.concatenate(found_hi))


def first_passage(state: QuantumState, delta: float, horizon: float) -> Optional[float]:
    """First time the fidelity curve comes down to ``delta``, or None.

    Scans forward at a fixed number of samples per period of the fastest
    oscillation and certifies every grid cell before the reported time: by
    the curvature bound on f or the chord bound on z (:func:`_first_events`)
    and the kernels' rounding bound, f stays above ``delta`` on it, or the
    cell is cut finer until that holds. So no dip below ``delta`` before the reported time is missed; a
    local minimum within 1e-12 of ``delta`` counts as reaching it. Absence of
    a crossing within the horizon (or within the scan's point budget) is a
    legitimate outcome, not an error.
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    if not horizon > 0.0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    deltas = np.array([float(delta)])
    t_star, (curve, at, lo, hi) = _scan(*state.support(), deltas, horizon)
    if at.size:
        t_star[at] = kernels.refine_crossing(curve.p, curve.e, lo, hi, deltas[at])
    t = float(t_star[0])
    return None if math.isnan(t) or t > horizon else t


def _limits(energies: np.ndarray, p: np.ndarray, ml_coeff: np.ndarray,
            mt_coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both speed limits per target of the state with support (energies, p).

    The excitation-energy limit is ml_coeff / <H - E0> with ml_coeff =
    (pi/2) * alpha(delta); the dispersion limit is mt_coeff / dE with
    mt_coeff = arccos(sqrt(delta)), the numerators. A limit whose denominator
    vanishes is inf.
    """
    excess, de = mean_excess_energy(energies, p), dispersion(energies, p)
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
_HIST_KEYS = [f"hist_rel_slack_le_{edge:g}" for edge in _HIST_EDGES] + ["hist_rel_slack_gt_1"]


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
    report.update(dict.fromkeys(_HIST_KEYS, 0))
    return report


def _tally(report: dict, t_star: np.ndarray, ml: np.ndarray, mt: np.ndarray) -> None:
    """Add to ``report`` the checks of the passage times ``t_star`` against the limits ml and mt.

    A nan time is a skip. A check's slack against an infinite limit is inf; it
    is a violation when either slack is below -1e-9, and it is binned by its
    relative slack t_star / min(ml, mt) - 1 when that limit is finite and positive.
    """
    checked = ~np.isnan(t_star)
    t, ml, mt = t_star[checked], ml[checked], mt[checked]
    report["skips"] += t_star.size - t.size
    if not t.size:
        return
    report["checks"] += t.size
    ml_slack = np.where(np.isfinite(ml), t - ml, math.inf)
    mt_slack = np.where(np.isfinite(mt), t - mt, math.inf)
    report["min_ml_slack"] = min(report["min_ml_slack"], float(ml_slack.min()))
    report["min_mt_slack"] = min(report["min_mt_slack"], float(mt_slack.min()))
    report["violations"] += int(np.count_nonzero((ml_slack < -1e-9) | (mt_slack < -1e-9)))
    binding = np.minimum(ml, mt)
    binned = np.isfinite(binding) & (binding > 0.0)
    rel = t[binned] / binding[binned] - 1.0
    # the first edge at or above each slack; past the last edge, the gt_1 bin
    bins = np.bincount(np.searchsorted(_HIST_EDGES, rel), minlength=len(_HIST_EDGES) + 1)
    for key, count in zip(_HIST_KEYS, bins.tolist()):
        report[key] += count


def _refine(t_star: np.ndarray, levels: np.ndarray, scans) -> None:
    """Refine in place, in one call, the crossings ``scans`` (curve, at, lo, hi) of several states.

    ``t_star`` and ``levels`` hold one row of times and of targets per state.
    Each bracket becomes a row of its state's (p, e), zero-padded to the widest.
    """
    pending = [(i, *b) for i, b in enumerate(scans) if b[1].size]
    if not pending:
        return
    trial, curves, ats, los, his = zip(*pending)
    slot = np.concatenate([i * t_star.shape[1] + at for i, at in zip(trial, ats)])
    # level-major, so that the kernel takes the rows' transpose as it is
    p, e = np.zeros((2, max(curve.p.size for curve in curves), slot.size))
    r = 0
    for curve, at in zip(curves, ats):
        p[:curve.p.size, r:r + at.size] = curve.p[:, None]
        e[:curve.e.size, r:r + at.size] = curve.e[:, None]
        r += at.size
    t_star.ravel()[slot] = kernels.refine_crossing(
        p.T, e.T, np.concatenate(los), np.concatenate(his), np.take(levels, slot))


def _settle(report: dict, block: list) -> None:
    """Refine the crossings of a block of scanned trials in one call, then tally the block.

    ``block`` holds (t_star, horizon, ml, mt, (curve, at, lo, hi)) per trial.
    """
    t_star, horizon, ml, mt, brackets = zip(*block)
    t_star = np.array(t_star)
    _refine(t_star, np.broadcast_to(DELTAS, t_star.shape), brackets)
    t_star[t_star > np.array(horizon)[:, None]] = np.nan
    _tally(report, t_star.ravel(), np.concatenate(ml), np.concatenate(mt))


def verify_limits(trials: int, d_max: int, seed: int, horizon_mult: float = 1.0) -> dict:
    """Monte-Carlo check that measured passage times respect both limits.

    Each trial draws a state (dimension uniform in {2..d_max}, energies in
    [0, 1], per-trial seed ``seed + trial``), measures the first passage for
    every target fidelity of DELTAS, and asserts t_star >= bound - 1e-9 for
    both limits. The trials are scanned one by one; their crossings are
    refined in blocks, by one kernels.refine_crossing call each time the
    pending brackets' zero-padded (p, e) rows reach _REFINE_CELLS entries,
    and each block is tallied at once. The saturating two-level states are
    included as designed cases, checked the same way, with their crossings
    refined in one call. Violations are counted, not raised.
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
    block, rows, width = [], 0, 0
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        energies, p = draw_state(rng, int(rng.integers(2, d_max + 1))).support()
        horizon = default_horizon(energies, horizon_mult)
        if horizon is None:
            t_star, brackets, horizon = np.full(DELTAS.size, np.nan), _NO_BRACKETS, math.inf
        else:
            t_star, brackets = _scan(energies, p, DELTAS, horizon)
        block.append((t_star, horizon, *_limits(energies, p, ml_coeff, mt_coeff), brackets))
        if brackets[1].size:
            rows, width = rows + brackets[1].size, max(width, p.size)
        if rows * width >= _REFINE_CELLS:
            _settle(report, block)
            block, rows, width = [], 0, 0
    if block:
        _settle(report, block)

    _, z_opts = bounds._upper_bound_argmin(DELTAS)
    u = 0.5 * (1.0 + z_opts)
    cases = np.nonzero((0.0 < u) & (u < 1.0))[0]
    states = [two_level_state(math.sqrt(u[i])).support() for i in cases.tolist()]
    horizon = np.array([default_horizon(e, max(horizon_mult, 1.0)) for e, _ in states])
    scans = [_scan(*state, DELTAS[i:i + 1], h) for i, state, h in zip(cases, states, horizon)]
    t_star = np.array([t for t, _ in scans])
    _refine(t_star, DELTAS[cases, None], [brackets for _, brackets in scans])
    t_star = t_star[:, 0]
    ml, mt = np.array([[limit[i] for limit in _limits(*state, ml_coeff, mt_coeff)]
                       for i, state in zip(cases, states)]).T
    reached = t_star <= horizon
    rel = np.abs(t_star[reached] / ml[reached] - 1.0)
    report["designed_cases"] += cases.size
    report["designed_violations"] += cases.size - rel.size + int(np.count_nonzero(rel > 1e-6))
    report["designed_max_rel_slack"] = float(rel.max(initial=0.0))
    _tally(report, t_star[reached], ml[reached], mt[reached])
    return report
