"""Data consumer's utility: per-grid saturation curve, the measured average-utility
surface over (vehicle count, sampling frequency), and its closed-form fit."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Collection, Sequence

import numpy as np

from .fitting import fit_least_squares
from .trajectories import GridSpec, Trajectory, _check_count_mode, _Fleet, _grid, _kept_index

DEFAULT_GRID_SHAPE = 100.0  # per-grid saturation parameter


@dataclass(frozen=True)
class UtilityModel:
    """Fitted consumer-utility parameters: U(v, f_d) = alpha * (1 - exp(-beta * v * f_d))."""

    alpha: float = 0.99
    beta: float = 0.45
    a: float = DEFAULT_GRID_SHAPE

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not self.beta > 0:  # NaN fails too
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")


def grid_utility(n: float, a: float = DEFAULT_GRID_SHAPE) -> float:
    """Utility of one grid cell holding n contributing vehicles.

    1 - 1/(1 + a*exp(-1/sqrt(n))), saturating toward a/(1+a); the n = 0 case
    takes the formula's right-limit, 0.
    """
    if n < 0:
        raise ValueError(f"vehicle count must be nonnegative, got {n}")
    if a <= 0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if n == 0:
        return 0.0
    return 1.0 - 1.0 / (1.0 + a * math.exp(-1.0 / math.sqrt(n)))


def eval_utility(model: UtilityModel, v: float, f_d: float) -> float:
    """Consumer utility alpha * (1 - exp(-beta * v * f_d))."""
    if v < 0 or f_d < 0:
        raise ValueError("v and f_d must be nonnegative")
    return model.alpha * (1.0 - math.exp(-model.beta * v * f_d))


@dataclass(frozen=True)
class UtilitySurface:
    """Measured average utility per (number of vehicles, sampling frequency)."""

    points: tuple[tuple[float, float, float], ...]  # (n_vehicles, f_d, avg_utility)

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("utility surface needs at least one point")
        for n, f, u in self.points:
            if not (0.0 <= u <= 1.0):
                raise ValueError(f"avg utility {u} at (v={n}, f_d={f}) outside [0, 1]")


def _check_average_over(average_over: str) -> None:
    if average_over not in ("ever_occupied", "occupied", "all"):
        raise ValueError(f"unknown average_over mode {average_over!r}")


def build_utility_surface(
    trajs: Sequence[Trajectory] | _Fleet,
    spec: GridSpec,
    vehicle_counts: Sequence[int],
    freqs: Sequence[float],
    a: float = DEFAULT_GRID_SHAPE,
    seed: int = 0,
    average_over: str = "ever_occupied",
    count_mode: str = "vehicles",
) -> UtilitySurface:
    """Average per-cell utility for seeded random sub-fleets at each (count, frequency).

    For every combination, draws that many vehicles without replacement,
    subsamples each at the frequency, grids the result, and averages
    grid_utility over the eligible cell set: cells ever occupied by the full
    fleet (default), only currently occupied cells, or every cell the grid
    spans (`average_over` = ever_occupied | occupied | all).

    The fleet is gridded once. Each row's cell is its key's position in that
    full map, and a sub-fleet's map is one bincount over the cells of its
    tracks' kept rows: each track's distinct cells in `vehicles` mode, every
    kept row's cell in `samples` mode.
    """
    fleet = _Fleet.of(trajs)
    n_tracks = len(fleet.ids)
    if not n_tracks:
        raise ValueError("need at least one trajectory")
    if not vehicle_counts or not freqs:
        raise ValueError("vehicle_counts and freqs must be nonempty")
    _check_average_over(average_over)
    for count in vehicle_counts:
        if count < 0:
            raise ValueError(f"vehicle count must be >= 0, got {count}")
        if count > n_tracks:
            raise ValueError(f"vehicle count {count} exceeds dataset size {n_tracks}")
    _check_count_mode(count_mode)

    cell, keys, _, _ = _grid(fleet, spec)
    n_cells = keys.shape[1]
    if average_over == "all":
        nx, ny = spec.n_cells
        n_time = int(keys[2].max()) - int(keys[2].min()) + 1 if n_cells else 1
        denom_all = nx * ny * n_time
    # A row outside the bbox counts in an extra last cell, which is dropped.
    row_cell = np.where(cell < 0, n_cells, cell).tolist()

    times = fleet.txy[:, 0].tolist()
    starts = fleet.offsets.tolist()
    kept: dict[tuple[int, float], Collection[int]] = {}  # (i, f) -> cells, made on first use
    points = []
    point_idx = 0
    for count in vehicle_counts:
        for f in freqs:
            rng = np.random.default_rng(np.random.SeedSequence([seed, point_idx]))
            point_idx += 1
            if count == 0:
                points.append((float(count), float(f), 0.0))
                continue
            chosen = sorted(rng.choice(n_tracks, size=count, replace=False))
            for i in chosen:
                if (i, f) not in kept:
                    track = slice(starts[i], starts[i + 1])
                    cells = itemgetter(*_kept_index(times[track], f, fleet.ids[i]))(row_cell[track])
                    kept[i, f] = set(cells) if count_mode == "vehicles" else cells
            cells = np.fromiter(chain.from_iterable(kept[i, f] for i in chosen), dtype=np.intp)
            per_cell = np.bincount(cells, minlength=n_cells + 1)[:n_cells]
            values, multiplicity = np.unique(per_cell[per_cell > 0], return_counts=True)
            # One grid_utility per distinct count; fsum's exact sum ignores order.
            utilities = chain.from_iterable(
                repeat(grid_utility(c, a), k) for c, k in zip(values.tolist(), multiplicity.tolist())
            )
            if average_over == "ever_occupied":
                denom = n_cells
            elif average_over == "occupied":
                denom = int(multiplicity.sum())
            else:
                denom = denom_all
            avg = math.fsum(utilities) / denom if denom else 0.0
            points.append((float(count), float(f), avg))
    return UtilitySurface(tuple(points))


@dataclass(frozen=True)
class UtilityFit:
    """Raw fit of the closed-form utility; `valid` marks a usable parameter pair."""

    alpha: float
    beta: float
    residual_rms: float
    converged: bool

    @property
    def valid(self) -> bool:
        return 0.0 < self.alpha <= 1.0 and self.beta > 0.0

    def to_json_dict(self) -> dict:
        return {**asdict(self), "valid": self.valid}


def fit_utility(surface: UtilitySurface) -> UtilityFit:
    """Least-squares fit of avg_utility against x = v * f_d with alpha * (1 - exp(-beta * x))."""
    xs = np.array([n * f for n, f, _ in surface.points])
    ys = np.array([u for _, _, u in surface.points])
    if len(set(xs.tolist())) < 3:
        raise ValueError("underdetermined fit: need at least 3 distinct v*f_d products")

    alpha0 = min(max(float(ys.max()), 1e-3), 1.0)
    beta0 = 1.0
    # Seed beta from the point closest to half saturation.
    half = np.argmin(np.abs(ys - 0.5 * alpha0))
    if 0 < ys[half] < alpha0 and xs[half] > 0:
        beta0 = max(-math.log(1.0 - ys[half] / alpha0) / xs[half], 1e-6)

    fit = fit_least_squares(
        lambda p: p[0] * (1.0 - np.exp(-p[1] * xs)) - ys, [alpha0, beta0]
    )
    return UtilityFit(
        alpha=float(fit.params[0]),
        beta=float(fit.params[1]),
        residual_rms=fit.residual_rms,
        converged=fit.converged,
    )
