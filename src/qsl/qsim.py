"""Finite-dimensional pure-state evolution and speed-limit verification.

A state is a finite list of (energy, amplitude) pairs; its fidelity with the
initial state is |sum_k |c_k|^2 exp(-i E_k t)|^2. The module measures
first-passage times to a target fidelity and checks them against the two
speed limits on randomly sampled states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bounds, kernels
from .errors import DomainError

# amplitudes below this are treated as absent from the support
SUPPORT_EPS = 1e-15

# grid sizing for passage scans: at least this many samples per period of the
# fastest oscillation, within the global floor/cap
_SAMPLES_PER_FAST_PERIOD = 64
_GRID_FLOOR = 4096
_GRID_CAP = 65536

# a grid minimum this close to the target is refined as a possible tangential
# touch; the touch is accepted only if the refined minimum reaches the target
_TOUCH_BAND = 1e-4
_TOUCH_ACCEPT = 1e-12

_REFINE_ITERS = 80


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
        if not np.all(np.isfinite(self.energies)):
            raise DomainError("energies must be finite")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if norm == 0.0:
            raise DomainError("at least one amplitude must be nonzero")
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"state norm^2 = {norm}, expected 1 within 1e-12")

    @classmethod
    def from_levels(cls, levels: Sequence[tuple[float, complex]]) -> "QuantumState":
        energies = np.array([e for e, _ in levels], dtype=np.float64)
        amplitudes = np.array([a for _, a in levels], dtype=np.complex128)
        return cls(energies, amplitudes)

    @property
    def dimension(self) -> int:
        return int(self.energies.size)

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(energies, probabilities) restricted to levels that carry weight."""
        mask = np.abs(self.amplitudes) > SUPPORT_EPS
        p = np.abs(self.amplitudes[mask]) ** 2
        return self.energies[mask], p / p.sum()


@dataclass(frozen=True)
class PassageResult:
    """First-passage measurement: time of first fidelity down-crossing."""

    t_star: Optional[float]
    achieved_fidelity: float
    horizon: float


def fidelity(state: QuantumState, t: float) -> float:
    """Squared overlap between the initial and the time-``t`` state."""
    energies, p = state.support()
    return float(kernels.fidelity_scalar(p, energies, float(t)))


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


def _grid_size(state: QuantumState, horizon: float) -> int:
    energies, _ = state.support()
    span = float(energies.max() - energies.min())
    if span <= 0.0:
        return _GRID_FLOOR
    per_period = horizon * span / (2.0 * math.pi)
    n = int(math.ceil(per_period * _SAMPLES_PER_FAST_PERIOD))
    return max(_GRID_FLOOR, min(_GRID_CAP, n))


def _local_minima(f: np.ndarray) -> np.ndarray:
    """Indices of interior grid points that are local fidelity minima."""
    interior = f[1:-1]
    mask = (interior <= f[:-2]) & (interior <= f[2:])
    return np.nonzero(mask)[0] + 1


def _first_at_or_below(running_min: np.ndarray, level: float) -> int:
    """First grid index with value <= level, from the grid's running minimum; len if none."""
    return int(np.searchsorted(-running_min, -level, side="left"))


def _locate_passage(energies: np.ndarray, p: np.ndarray, f: np.ndarray, dt: float,
                    delta: float, idx: int, minima: np.ndarray) -> Optional[float]:
    """Locate the first passage given grid data.

    ``idx`` is the first grid index with f <= delta (== len(f) when absent);
    ``minima`` holds all interior local-minimum indices of the grid.
    Transversal crossings are refined by bisection on the fidelity itself;
    near-touching grid minima before the crossing are refined on the analytic
    time derivative and accepted only if the minimum actually reaches the
    target.
    """
    n = f.shape[0]
    candidates = minima[(minima < idx) & (f[minima] <= delta + _TOUCH_BAND)]
    for i in candidates:
        lo, hi = (i - 1) * dt, (i + 1) * dt
        if not (kernels.dfidelity_scalar(p, energies, lo) < 0.0 <
                kernels.dfidelity_scalar(p, energies, hi)):
            continue
        t_min = kernels.refine_minimum(p, energies, lo, hi, _REFINE_ITERS)
        f_min = kernels.fidelity_scalar(p, energies, t_min)
        if f_min <= delta - _TOUCH_ACCEPT:
            # a narrow dip the grid stepped over: refine its left crossing
            return float(kernels.refine_crossing(p, energies, lo, t_min, delta,
                                                 _REFINE_ITERS))
        if f_min <= delta + _TOUCH_ACCEPT:
            return float(t_min)
    if idx >= n:
        return None
    if idx == 0:
        return 0.0
    return float(kernels.refine_crossing(p, energies, (idx - 1) * dt, idx * dt,
                                         delta, _REFINE_ITERS))


def first_passage(state: QuantumState, delta: float, horizon: float,
                  n_grid: int = 4096) -> PassageResult:
    """First time the fidelity curve comes down to ``delta``.

    Scans a uniform grid over [0, horizon], then refines. Absence of a
    crossing within the horizon is a legitimate outcome, not an error; narrow
    dips between grid points can in principle be missed, which biases the
    measured time upward, never downward.
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    if not horizon > 0.0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    if n_grid < 16:
        raise DomainError(f"n_grid must be at least 16, got {n_grid}")
    if delta >= 1.0:
        return PassageResult(t_star=0.0, achieved_fidelity=1.0, horizon=horizon)
    energies, p = state.support()
    dt = horizon / (n_grid - 1)
    f = kernels.fidelity_grid(p, energies, 0.0, dt, n_grid)
    idx = _first_at_or_below(np.minimum.accumulate(f), delta)
    t_star = _locate_passage(energies, p, f, dt, delta, idx, _local_minima(f))
    if t_star is None:
        return PassageResult(t_star=None, achieved_fidelity=float(f.min()), horizon=horizon)
    achieved = float(kernels.fidelity_scalar(p, energies, t_star))
    return PassageResult(t_star=t_star, achieved_fidelity=achieved, horizon=horizon)


def ml_bound(state: QuantumState, delta: float) -> float:
    """Excitation-energy speed limit (pi/2) * alpha(delta) / <H - E0>."""
    excess = mean_excess_energy(state)
    if excess == 0.0:
        return math.inf
    return 0.5 * math.pi * bounds.alpha(delta) / excess


def mt_bound(state: QuantumState, delta: float) -> float:
    """Dispersion speed limit arccos(sqrt(delta)) / dE."""
    de = dispersion(state)
    if de == 0.0:
        return math.inf
    return bounds.mt_alpha(delta) / de


def two_level_state(xi: float, e0: float = 1.0) -> QuantumState:
    """Weight 1 - xi^2 on energy 0 and xi^2 on energy ``e0``."""
    if not 0.0 < xi < 1.0:
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    return QuantumState(np.array([0.0, e0]),
                        np.array([math.sqrt(1.0 - xi * xi), xi], dtype=np.complex128))


def _draw_state(rng: np.random.Generator, d: int, e_max: float) -> QuantumState:
    energies = np.sort(rng.uniform(0.0, e_max, d))
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    amps /= np.linalg.norm(amps)
    return QuantumState(energies, amps)


def sample_random_state(d: int, e_max: float, seed: int) -> QuantumState:
    """Energies uniform in [0, e_max] (sorted); amplitudes Haar-uniform."""
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    if not e_max > 0.0:
        raise DomainError(f"e_max must be positive, got {e_max}")
    return _draw_state(np.random.default_rng(seed), d, e_max)


_HIST_EDGES = (1e-6, 1e-3, 1e-2, 1e-1, 1.0)


def _empty_report(trials: int, d_max: int, delta_grid: Sequence[float],
                  seed: int, horizon_mult: float) -> dict:
    report = {
        "trials": trials,
        "d_max": d_max,
        "deltas": ",".join(f"{d:g}" for d in delta_grid),
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


def verify_limits(trials: int, d_max: int, delta_grid: Sequence[float], seed: int,
                  horizon_mult: float = 1.0, e_max: float = 1.0) -> dict:
    """Monte-Carlo check that measured passage times respect both limits.

    Each trial draws a state (dimension uniform in {2..d_max}, per-trial seed
    ``seed + trial``), measures the first passage for every target fidelity,
    and asserts t_star >= bound - 1e-9 for both limits. The saturating
    two-level states are included as designed cases. Violations are counted,
    not raised.
    """
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    if d_max < 2:
        raise DomainError(f"d_max must be at least 2, got {d_max}")
    deltas = [float(d) for d in delta_grid]
    for d in deltas:
        if not 0.0 <= d <= 1.0:
            raise DomainError(f"delta grid entry {d} outside [0, 1]")
    report = _empty_report(trials, d_max, deltas, seed, horizon_mult)
    if trials == 0:
        return report

    ml_coeff = {d: 0.5 * math.pi * bounds.alpha(d) for d in deltas}
    mt_coeff = {d: bounds.mt_alpha(d) for d in deltas}

    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        d = int(rng.integers(2, d_max + 1))
        state = _draw_state(rng, d, e_max)
        horizon = default_horizon(state, horizon_mult)
        if horizon is None:
            report["skips"] += len(deltas)
            continue
        energies, p = state.support()
        n = _grid_size(state, horizon)
        dt = horizon / (n - 1)
        f = kernels.fidelity_grid(p, energies, 0.0, dt, n)
        running_min = np.minimum.accumulate(f)
        minima = _local_minima(f)
        excess = mean_excess_energy(state)
        de = dispersion(state)
        for delta in deltas:
            idx = _first_at_or_below(running_min, delta)
            t_star = _locate_passage(energies, p, f, dt, delta, idx, minima)
            if t_star is None:
                report["skips"] += 1
                continue
            ml = ml_coeff[delta] / excess if excess > 0.0 else math.inf
            mt = mt_coeff[delta] / de if de > 0.0 else math.inf
            _record_check(report, t_star, ml, mt)

    for delta in deltas:
        _, z_opt = bounds._upper_bound_argmin(delta)
        u = 0.5 * (1.0 + z_opt)
        if not 0.0 < u < 1.0:
            continue
        state = two_level_state(math.sqrt(u))
        horizon = default_horizon(state, max(horizon_mult, 1.0))
        result = first_passage(state, delta, horizon)
        report["designed_cases"] += 1
        if result.t_star is None:
            report["designed_violations"] += 1
            continue
        ml = ml_bound(state, delta)
        mt = mt_bound(state, delta)
        _record_check(report, result.t_star, ml, mt)
        rel = abs(result.t_star / ml - 1.0)
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
