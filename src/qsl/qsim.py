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
# grid points in a row's first scan chunk, where most targets are met
_CHUNK = 4096
# grid points in each later chunk, mostly of rows that still seek delta = 0: 5
# block passes instead of 16 over the point budget (16 * _CHUNK held 3.3 MB more)
_TAIL_CHUNK = 4 * _CHUNK
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
# verify_limits scans its trials in blocks of as many as keep the block's
# crossing brackets, DELTAS.size per trial at most, within this many entries of
# zero-padded (p, e) rows (204 trials at --dmax 8), so that a block's memory
# stays bounded at any --dmax
_BLOCK_CELLS = 1 << 14


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
        return _support(self.energies, self.amplitudes)


def _support(energies: np.ndarray, amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QuantumState.support of (energies, amplitudes), without the state's checks."""
    mask = np.abs(amplitudes) > SUPPORT_EPS
    p = np.abs(amplitudes[mask]) ** 2
    return energies[mask], p / p.sum()


def _dot(a: np.ndarray, b: np.ndarray):
    """a @ b along the last axis, row by row: one dot product per row, as for each row alone."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def dispersion(energies: np.ndarray, p: np.ndarray):
    """Energy standard deviation of a state with support (energies, p), per row of 2-d arrays."""
    mean = _dot(p, energies)
    var = _dot(p, (energies - np.expand_dims(mean, -1)) ** 2)
    return np.sqrt(np.maximum(var, 0.0))


def mean_excess_energy(energies: np.ndarray, p: np.ndarray):
    """Mean energy above the lowest occupied level of the support (energies, p), per row."""
    return _dot(p, energies) - energies.min(axis=-1)


def default_horizon(energies: np.ndarray, mult: float = 1.0):
    """Scan horizon 4*pi / (smallest gap of the occupied ``energies``) per row, nan if static."""
    gaps = np.diff(np.sort(energies, axis=-1), axis=-1)
    gap = np.where(gaps > SUPPORT_EPS, gaps, np.inf).min(axis=-1, initial=np.inf)
    return np.where(gap < np.inf, mult * 4.0 * math.pi / gap, np.nan)[()]


class _Rows(NamedTuple):
    """A block of states, one row each, their supports zero-padded to the widest.

    ``p`` holds each support's weights and ``e`` its energies shifted to their
    weighted median c; ``d`` is the support size. ``curv`` = 2*m1**2 + 2*m2
    bounds |f''|, where m1 = sum p|E - c| bounds |z'| and m2 = sum p(E - c)**2
    bounds |z''| (for any c; the median minimises m1), and ``sag`` = m2/8
    bounds |z - chord|/h**2 on a cell of width h. ``scale`` = max |E - c| sets
    the rounding bound. ``span`` = E_max - E_min and ``p_max`` is the largest
    weight. ``excess`` = <H - E0> and ``de`` = dE are the limits' denominators,
    and ``horizon`` the scan horizon (:func:`default_horizon`).
    """

    p: np.ndarray
    e: np.ndarray
    d: np.ndarray
    curv: np.ndarray
    sag: np.ndarray
    scale: np.ndarray
    span: np.ndarray
    p_max: np.ndarray
    excess: np.ndarray
    de: np.ndarray
    horizon: np.ndarray

    def rounding(self, t, rows):
        """The kernels' rounding bound at times ``t`` for the states ``rows``."""
        return kernels.rounding_bound(t, self.d[rows], self.scale[rows])


def _rows(supports: list, horizon_mult: float = 1.0) -> _Rows:
    """The block of the states with the given supports, (energies, p) pairs, one row each.

    The rows of one support size are set up together on arrays of that exact
    width, so that every sum runs over the same levels in the same order as
    for the state alone.
    """
    sizes = np.array([p.size for _, p in supports])
    p, e = np.zeros((2, sizes.size, sizes.max()))
    per_row = np.empty((8, sizes.size))
    for d in sorted(set(sizes.tolist())):
        rows = np.nonzero(sizes == d)[0]
        energies = np.array([supports[i][0] for i in rows.tolist()])
        weights = np.array([supports[i][1] for i in rows.tolist()])
        order = np.argsort(energies, axis=1)
        cum = np.cumsum(np.take_along_axis(weights, order, axis=1), axis=1)
        median = np.count_nonzero(cum < 0.5, axis=1, keepdims=True)
        shifted = energies - np.take_along_axis(energies, np.take_along_axis(order, median, 1), 1)
        m1, m2 = _dot(weights, np.abs(shifted)), _dot(weights, shifted * shifted)
        p[rows, :d], e[rows, :d] = weights, shifted
        per_row[:, rows] = (2.0 * m1 * m1 + 2.0 * m2, m2 / 8.0, np.abs(shifted).max(axis=1),
                            energies.max(axis=1) - energies.min(axis=1), weights.max(axis=1),
                            mean_excess_energy(energies, weights), dispersion(energies, weights),
                            default_horizon(energies, horizon_mult))
    return _Rows(p, e, sizes, *per_row)


def _chord_distance(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Distance from 0 to each segment [za, zb] of the complex plane."""
    d = zb - za
    dd = d.real * d.real + d.imag * d.imag
    s = np.divide(-(za.conj() * d).real, dd, out=np.zeros_like(dd), where=dd > 0.0)
    return np.abs(za + np.clip(s, 0.0, 1.0) * d)


def _uncleared(fmin, za, zb, curv_h2, sag_h2, r, ceiling, row, chord: bool = True) -> np.ndarray:
    """The cells that neither the curvature nor (``chord``) the chord bound clears; ``curv_h2``,
    ``sag_h2`` and ``r`` hold one value per row, and ``row`` is one row or one per cell."""
    keep = fmin - curv_h2[row] / 8.0 - r[row] <= ceiling
    if chord:
        sel = np.nonzero(keep)[0]
        at = row[sel] if np.ndim(row) else row
        gap = _chord_distance(za[sel], zb[sel]) - sag_h2[at] - r[at]
        keep[sel] = np.maximum(gap, 0.0) ** 2 <= ceiling[sel]
    return keep


def _first_cells(mask: np.ndarray, row: np.ndarray, n_rows: int) -> np.ndarray:
    """Per (row, column) of ``mask``: the first cell of that row where the column is True.

    ``mask`` holds one line per cell and ``row`` the row of each cell, each
    row's cells one contiguous run; a row without one gets mask.shape[0].
    """
    n = mask.shape[0]
    first = np.full((n_rows, mask.shape[1]), n)
    head = np.flatnonzero(np.diff(row, prepend=-1))  # each run's first cell; none if n == 0
    first[row[head]] = np.minimum.reduceat(np.where(mask, np.arange(n)[:, None], n), head)
    return first


def _first_events(rows: _Rows, grids, k0: int, h: np.ndarray, deltas: np.ndarray,
                  todo: np.ndarray):
    """Earliest passage of each sought target within one chunk of each scanned row's grid.

    ``grids`` yields (i, z) for each row i scanned in this chunk: its cells
    are [a, a + h] with a = (k0 + j)*h, j < z.size - 1, and z holds the
    amplitudes at each a and at the last cell's end. ``h`` holds each row's
    grid step and ``todo`` marks the targets, of the increasing ``deltas``,
    that each row still seeks. f is certified above every sought target
    before the chunk. A cell is cleared for the targets not yet reached
    before it when f stays above them on all of it by the curvature bound
    min(fa, fb) - curv*h**2/8 - r or, where that fails, by the chord bound
    (dist(0, [za, zb]) - sag*h**2 - r)**2, since |z - chord| <= m2*h**2/8,
    above delta + _TOUCH_ACCEPT. r is the rounding bound at the row's last
    cell's end (it increases with t); it bounds the error of za and zb with
    half to spare for the distance's own rounding. The cells neither bound
    clears are cut into _SPLIT parts, all of them at once. A cell where f
    comes down to a target is a crossing bracket once f' <= (f'(a) + f'(b))/2
    + curv*h/2 < 0 certifies that f decreases on it. At the last depth, 16**-5
    of the grid step, a crossing cell is a bracket as it is, and a cell still
    uncleared is searched for a local minimum, which reaches the targets
    within _TOUCH_ACCEPT of it.

    Depth 0's curvature test, and on a tail chunk (k0 > 0) its chord test,
    runs row by row over the whole chunk by the flat phase's _uncleared; the
    cells kept and the crossing cells go on as one flat block of cells, each
    carrying its row, on which every depth finds the crossing cells, the
    ceilings and the cells to keep by one rule. A row's ceiling of a cell, the
    highest sought target whose first crossing cell lies after it, is the flat
    phase's at depth 0, so the row drops only cells the flat phase would drop.

    Returns (lo, hi, touch) over (rows, targets): a crossing bracket [lo, hi],
    or a touch at ``touch`` (where it is not nan) in the cell starting at lo;
    lo is inf for a sought target not reached in this chunk, -inf for one not sought.
    """
    r = np.zeros(todo.shape[0])  # each row's rounding bound at its current depth
    # depth 0, row by row: each row's whole chunk, cut down to the cells the
    # curvature (and on a tail chunk the chord) test keeps and its crossing cells
    parts = []
    h_row, curv_h2, sag_h2 = h.tolist(), rows.curv * h * h, rows.sag * h * h
    for i, z in grids:
        sq = np.square(z.view(np.float64))  # z.real**2, z.imag**2 interleaved, in one pass
        f = sq[0::2] + sq[1::2]
        fmin = np.minimum(f[:-1], f[1:])
        n = fmin.size
        sought = deltas[todo[i]]
        # the first cell down to each target, no later for a higher one
        below = fmin <= sought[:, None]
        cell = np.where(below.any(axis=1), below.argmax(axis=1), n)
        # the ceiling of a cell: the highest target whose first cell lies after it
        top = np.repeat(np.append(sought[::-1], -np.inf) + _TOUCH_ACCEPT,
                        np.diff(np.concatenate(([0], cell[::-1], [n]))))
        r[i] = rows.rounding((k0 + n - 1) * h_row[i] + h_row[i], i)
        keep = _uncleared(fmin, z[:-1], z[1:], curv_h2, sag_h2, r, top, i, chord=k0 > 0)
        keep[cell[cell < n]] = True
        kept = np.nonzero(keep)[0]
        parts.append((i, kept, z[kept], z[kept + 1]))
    lo = np.where(todo, np.inf, -np.inf)
    hi = np.full(todo.shape, np.inf)
    touch = np.full(todo.shape, np.nan)
    if not parts:
        return lo, hi, touch
    # every depth, once for the block: flat arrays of cells, each with its row
    live, cand, z_a, z_b = zip(*parts)
    row = np.repeat(live, [c.size for c in cand])
    a = (k0 + np.concatenate(cand)) * h[row]
    za, zb = np.concatenate(z_a), np.concatenate(z_b)
    fa, fb = (z.real * z.real + z.imag * z.imag for z in (za, zb))
    for depth in range(_MAX_DEPTH + 1):
        last = depth == _MAX_DEPTH
        b = a + h[row]
        fmin = np.minimum(fa, fb)
        cells = _first_cells(fmin[:, None] <= deltas, row, todo.shape[0])
        if depth:
            end = np.nonzero(np.append(row[1:] != row[:-1], True))[0]
            r[row[end]] = rows.rounding(b[end], row[end])
        start = np.append(a, np.inf)[cells]
        new = start < lo
        # a cell must be cleared for the targets whose earliest event lies after its start
        until = np.minimum(lo, start)
        ceiling = np.where(until[row] > a[:, None], deltas, -np.inf).max(axis=1) + _TOUCH_ACCEPT
        keep = _uncleared(fmin, za, zb, rows.curv * h * h, rows.sag * h * h, r, ceiling, row)
        # marked rather than np.unique, whose first call costs 0.75 MB of resident memory
        crossing = np.zeros(a.size + 1, dtype=bool)
        crossing[cells[new]] = True
        crossing = np.nonzero(crossing[:-1])[0]
        if crossing.size:
            at = row[crossing]
            both = np.concatenate((at, at))
            slope = kernels.dfidelity_scalar(rows.p[both], rows.e[both],
                                             np.concatenate((a[crossing], b[crossing])))
            bound = ((slope[:crossing.size] + slope[crossing.size:]) / 2.0
                     + rows.curv[at] * h[at] / 2.0
                     + 2.0 * rows.scale[at] * rows.rounding(b[crossing], at))
            certified = np.zeros(a.size + 1, dtype=bool)
            certified[crossing] = (bound < 0.0) | last
            keep[crossing] |= ~certified[crossing]
            done = new & certified[cells]
            lo[done] = a[cells[done]]
            hi[done] = b[cells[done]]
        if last:
            _touches(rows, row[keep], a[keep], b[keep], a[keep, None] < until[row[keep]],
                     deltas, lo, hi, touch)
            break
        sel = np.nonzero(keep)[0]
        if not sel.size:
            break
        a, za, zb, fa, fb, row = a[sel], za[sel], zb[sel], fa[sel], fb[sel], row[sel]
        h = h / _SPLIT
        v = kernels.amplitude_rows(rows.p[row], rows.e[row], a, h[row], _SPLIT)
        v[:, 0] = za  # the values already known, so that every cell agrees with its parent
        g = v.real * v.real + v.imag * v.imag
        zb = np.column_stack((v[:, 1:], zb)).ravel()
        fb = np.column_stack((g[:, 1:], fb)).ravel()
        za, fa = v.ravel(), g.ravel()
        a = (a[:, None] + h[row, None] * np.arange(_SPLIT)).ravel()
        row = np.repeat(row, _SPLIT)
    return lo, hi, touch


def _touches(rows: _Rows, row, a, b, relevant, deltas, lo, hi, touch) -> None:
    """Record, in place, the earliest local minimum in the cells [a, b] of each row that reaches
    each target."""
    if not a.size:
        return
    both = np.concatenate((row, row))
    slope = kernels.dfidelity_scalar(rows.p[both], rows.e[both], np.concatenate((a, b)))
    dip = (slope[:a.size] < 0.0) & (slope[a.size:] > 0.0)
    if not dip.any():
        return
    row, a, b, relevant = row[dip], a[dip], b[dip], relevant[dip]
    t_min = kernels.refine_minimum(rows.p[row], rows.e[row], a, b)
    f_min = kernels.fidelity_scalar(rows.p[row], rows.e[row], t_min)
    reach = relevant & (f_min[:, None] <= deltas + _TOUCH_ACCEPT)
    first = _first_cells(reach, row, lo.shape[0])
    i, j = np.nonzero(first < a.size)
    c = first[i, j]
    lo[i, j] = a[c]
    through = f_min[c] <= deltas[j] - _TOUCH_ACCEPT
    # a dip through the target brackets its left crossing
    hi[i[through], j[through]] = t_min[c[through]]
    touch[i[~through], j[~through]] = t_min[c[~through]]


def _scan(rows: _Rows, deltas: np.ndarray, sought: np.ndarray, horizon: np.ndarray) -> np.ndarray:
    """First passage of each row's state to its ``sought`` targets among the increasing ``deltas``.

    The block steps forward chunk by chunk, all rows together: each row's
    chunk of a uniform grid with _SAMPLES_PER_FAST_PERIOD points per fastest
    period of its own state (_CHUNK points first, _TAIL_CHUNK after), one
    kernels.fidelity_grid call each, and then one :func:`_first_events` for
    the block, which certifies every cell before a reported time, whatever
    the grid's fold. A row stops when all its targets are reached. Then the
    crossings of the whole block are refined by one kernels.refine_crossing
    call on the rows' zero-padded (p, e). Returns the times over (rows,
    targets): 0 for a target met at the start, the time of a touch or of a
    crossing, and nan for a target not sought or not reached. A target is not
    reached when it is provably unreachable (f >= (2*p_max - 1)**2 when p_max
    > 1/2), when its time lies past the row's ``horizon``, or when it lies
    beyond the scan's point budget.
    """
    t_star = np.where(sought & (deltas >= 1.0), 0.0, np.nan)
    floor = np.where(rows.p_max > 0.5, (2.0 * rows.p_max - 1.0) ** 2, 0.0)
    moving = (rows.span > 0.0) & (horizon > 0.0)
    todo = sought & (deltas < 1.0) & (deltas + _TOUCH_ACCEPT >= floor[:, None]) & moving[:, None]
    span = np.where(moving, rows.span, 1.0)
    dt = 2.0 * math.pi / (_SAMPLES_PER_FAST_PERIOD * span)
    steps = np.where(moving, horizon, 0.0) / dt  # inf for an infinite horizon
    n_points = np.where(steps >= _POINT_BUDGET, _POINT_BUDGET,
                        np.ceil(np.minimum(steps, _POINT_BUDGET)) + 1).astype(int)
    z_prev = np.zeros(t_star.shape[0], dtype=complex)

    def grids(live, k0, chunk):
        # one chunk of each live row's grid, made as _first_events takes it, so
        # that one grid is held at a time
        for i in live.tolist():
            n = min(chunk, int(n_points[i]) - 1 - k0)
            d = rows.d[i]
            z = kernels.fidelity_grid(rows.p[i, :d], rows.e[i, :d], k0 * dt[i], dt[i], n + 1)
            if k0 == 0:
                met = todo[i] & (deltas >= z[0].real * z[0].real + z[0].imag * z[0].imag)
                t_star[i, met] = 0.0
                todo[i] &= ~met
            else:
                z[0] = z_prev[i]  # the previous chunk's last value, as certified there
            z_prev[i] = z[-1]
            if todo[i].any():
                yield i, z

    found = []
    k0 = 0
    while True:
        live = np.nonzero(todo.any(axis=1) & (k0 < n_points - 1))[0]
        if not live.size:
            break
        chunk = _TAIL_CHUNK if k0 else _CHUNK
        lo, hi, touch = _first_events(rows, grids(live, k0, chunk), k0, dt, deltas, todo)
        touched = ~np.isnan(touch)
        t_star[touched] = touch[touched]
        bracketed = todo & (lo < np.inf) & ~touched
        if bracketed.any():
            found.append((*np.nonzero(bracketed), lo[bracketed], hi[bracketed]))
        todo &= lo == np.inf
        k0 += chunk
    if found:
        i, j, lo, hi = (np.concatenate(x) for x in zip(*found))
        t_star[i, j] = kernels.refine_crossing(rows.p[i], rows.e[i], lo, hi, deltas[j])
    t_star[t_star > horizon[:, None]] = np.nan
    return t_star


def first_passage(state: QuantumState, delta: float, horizon: float) -> Optional[float]:
    """First time the fidelity curve comes down to ``delta``, or None.

    Scans forward at a fixed number of samples per period of the fastest
    oscillation and certifies every grid cell before the reported time: by
    the curvature bound on f or the chord bound on z (:func:`_first_events`)
    and the kernels' rounding bound, f stays above ``delta`` on it, or the
    cell is cut finer until that holds. So no dip below ``delta`` before the
    reported time is missed; a local minimum within 1e-12 of ``delta`` counts
    as reaching it. Absence of a crossing within the horizon (or within the
    scan's point budget) is a legitimate outcome, not an error. The state is
    scanned as a block of one (:func:`_scan`).
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    if not horizon > 0.0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    (t,), = _scan(_rows([state.support()]), np.array([float(delta)]), np.ones((1, 1), dtype=bool),
                  np.array([float(horizon)]))
    return None if math.isnan(t) else float(t)


def _limits(rows: _Rows, ml_coeff: np.ndarray,
            mt_coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both speed limits per row and target.

    The excitation-energy limit is ml_coeff / <H - E0> with ml_coeff =
    (pi/2) * alpha(delta); the dispersion limit is mt_coeff / dE with
    mt_coeff = arccos(sqrt(delta)), the numerators. A limit whose denominator
    vanishes is inf.
    """
    def over(coeff, denominator):
        denominator = denominator[:, None]
        return np.divide(coeff, denominator, where=denominator > 0.0,
                         out=np.full((denominator.size, coeff.size), math.inf))

    return over(ml_coeff, rows.excess), over(mt_coeff, rows.de)


def two_level_state(xi: float) -> QuantumState:
    """Weight 1 - xi^2 on energy 0 and xi^2 on energy 1."""
    if not 0.0 < xi < 1.0:
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    return QuantumState(np.array([0.0, 1.0]),
                        np.array([math.sqrt(1.0 - xi * xi), xi], dtype=np.complex128))


def _draw(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A random (energies, amplitudes): energies uniform in [0, 1] (sorted); amplitudes Haar."""
    energies = np.sort(rng.uniform(0.0, 1.0, d))
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    amps /= np.linalg.norm(amps)
    return energies, amps


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
    report.update(dict.fromkeys(_HIST_KEYS, 0), overall="pass")
    return report


def _tolerance(rows: _Rows, row: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Bound on |t/limit - 1| from rounding alone, at the passage times ``t`` of ``row``.

    t errs by 2r/|f'| at a crossing refined to |f - delta| <= r, the rounding bound, or by
    (|f'| + 2*scale*r)/|f''| at a touch refined to f' = 0 (f' rounds by 2*scale*r), the smaller,
    and 2 ulps; a limit by alpha's 4 ulp, pi/2, the quotient and d in <H - E0> or dE (which do
    not cancel at E0 = 0, as for the designed states); t/limit - 1 by 2 more.
    """
    p, e, r = rows.p[row], rows.e[row], rows.rounding(t, row)
    slope, curv = np.abs(kernels.dfidelity_scalar(p, e, t)), np.abs(kernels.d2fidelity(p, e, t))
    with np.errstate(divide="ignore", invalid="ignore"):
        time = np.minimum(2.0 * r / slope, (slope + 2.0 * rows.scale[row] * r) / curv) / t
    return time + (10.0 + rows.d[row]) * np.finfo(np.float64).eps


def _tally(report: dict, t_star: np.ndarray, ml: np.ndarray, mt: np.ndarray,
           tol: np.ndarray) -> None:
    """Add to ``report`` the checks of the passage times ``t_star`` against the limits ml and mt.

    A nan time is a skip. A check's slack against an infinite limit is inf; it is a violation
    when t_star < limit * (1 - tol) for either finite limit, and it is binned by its relative
    slack t_star / min(ml, mt) - 1 when that limit is finite and positive.
    """
    checked = ~np.isnan(t_star)
    t, ml, mt, tol = t_star[checked], ml[checked], mt[checked], tol[checked]
    report["skips"] += t_star.size - t.size
    if not t.size:
        return
    report["checks"] += t.size
    ml_slack = np.where(np.isfinite(ml), t - ml, math.inf)
    mt_slack = np.where(np.isfinite(mt), t - mt, math.inf)
    report["min_ml_slack"] = min(report["min_ml_slack"], float(ml_slack.min()))
    report["min_mt_slack"] = min(report["min_mt_slack"], float(mt_slack.min()))
    below = (np.isfinite(ml) & (t < ml * (1.0 - tol))) | (np.isfinite(mt) & (t < mt * (1.0 - tol)))
    report["violations"] += int(np.count_nonzero(below))
    binding = np.minimum(ml, mt)
    binned = np.isfinite(binding) & (binding > 0.0)
    rel = t[binned] / binding[binned] - 1.0
    # the first edge at or above each slack; past the last edge, the gt_1 bin
    bins = np.bincount(np.searchsorted(_HIST_EDGES, rel), minlength=len(_HIST_EDGES) + 1)
    for key, count in zip(_HIST_KEYS, bins.tolist()):
        report[key] += count


def verify_limits(trials: int, d_max: int, seed: int, horizon_mult: float = 1.0) -> dict:
    """Monte-Carlo check that measured passage times respect both limits.

    Each trial draws a state (dimension uniform in {2..d_max}, energies in
    [0, 1], per-trial seed ``seed + trial``), measures the first passage for
    every target fidelity of DELTAS, and checks t_star >= limit * (1 - tol)
    for both limits (:func:`_tolerance`). The trials are scanned in blocks
    (:func:`_scan`) of as many as keep their brackets' zero-padded (p, e) rows
    within _BLOCK_CELLS entries; each is set up with array operations, steps
    through its chunks together, is refined by one kernels.refine_crossing call
    and is tallied at once. The saturating two-level states are designed cases,
    one block whose rows each seek one target. Violations are counted, not raised;
    any one, random or designed, sets ``overall`` to fail.
    """
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    if d_max < 2:
        raise DomainError(f"d_max must be at least 2, got {d_max}")
    report = _empty_report(trials, d_max, seed, horizon_mult)
    if trials == 0:
        return report

    ml_coeff = 0.5 * math.pi * bounds.alpha(DELTAS)
    mt_coeff = bounds.mt_alpha(DELTAS)
    block = max(1, _BLOCK_CELLS // (DELTAS.size * d_max))
    for first in range(0, trials, block):
        supports = []
        for trial in range(first, min(first + block, trials)):
            rng = np.random.default_rng(seed + trial)
            supports.append(_support(*_draw(rng, int(rng.integers(2, d_max + 1)))))
        rows = _rows(supports, horizon_mult)
        t_star = _scan(rows, DELTAS, np.ones((rows.d.size, DELTAS.size), dtype=bool), rows.horizon)
        ml, mt = _limits(rows, ml_coeff, mt_coeff)
        tol = _tolerance(rows, np.repeat(np.arange(rows.d.size), DELTAS.size), t_star.ravel())
        _tally(report, t_star.ravel(), ml.ravel(), mt.ravel(), tol)

    _, z_opts = bounds._upper_bound_argmin(DELTAS)
    u = 0.5 * (1.0 + z_opts)
    cases = np.nonzero((0.0 < u) & (u < 1.0))[0]
    rows = _rows([two_level_state(math.sqrt(u[i])).support() for i in cases.tolist()],
                 max(horizon_mult, 1.0))
    sought = np.zeros((cases.size, DELTAS.size), dtype=bool)
    case = (np.arange(cases.size), cases)
    sought[case] = True
    t_star = _scan(rows, DELTAS, sought, rows.horizon)[case]
    ml, mt = (limit[case] for limit in _limits(rows, ml_coeff, mt_coeff))
    reached = ~np.isnan(t_star)
    tol = _tolerance(rows, case[0][reached], t_star[reached])
    rel = np.abs(t_star[reached] / ml[reached] - 1.0)
    report["designed_cases"] += cases.size
    report["designed_violations"] += cases.size - rel.size + int(np.count_nonzero(rel > tol))
    report["designed_max_rel_slack"] = float(rel.max(initial=0.0))
    _tally(report, t_star[reached], ml[reached], mt[reached], tol)
    report["overall"] = "fail" if report["violations"] or report["designed_violations"] else "pass"
    return report
