"""Data consumer's utility: per-grid saturation curve, the measured average-utility
surface over (vehicle count, sampling frequency), and its closed-form fit."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .fitting import fit_least_squares
from .trajectories import GridSpec, Trajectory, build_map, subsample

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
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.a <= 0:
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

    def write_csv(self, fileobj) -> None:
        fileobj.write("n_vehicles,f_d,avg_utility\n")
        for n, f, u in self.points:
            fileobj.write(f"{n},{f},{u}\n")


def build_utility_surface(
    trajs: Sequence[Trajectory],
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
    """
    trajs = list(trajs)
    if not trajs:
        raise ValueError("need at least one trajectory")
    if not vehicle_counts or not freqs:
        raise ValueError("vehicle_counts and freqs must be nonempty")
    if average_over not in ("ever_occupied", "occupied", "all"):
        raise ValueError(f"unknown average_over mode {average_over!r}")
    for count in vehicle_counts:
        if count < 0 or count > len(trajs):
            raise ValueError(f"vehicle count {count} exceeds dataset size {len(trajs)}")

    full_map = build_map(trajs, spec, count_mode=count_mode)
    ever_occupied = full_map.occupied_cells()
    if average_over == "all":
        nx, ny = spec.n_cells
        t_bins = {k[2] for k in ever_occupied}
        n_time = (max(t_bins) - min(t_bins) + 1) if t_bins else 1
        denom_all = nx * ny * n_time

    points = []
    point_idx = 0
    for count in vehicle_counts:
        for f in freqs:
            rng = np.random.default_rng(np.random.SeedSequence([seed, point_idx]))
            point_idx += 1
            if count == 0:
                points.append((float(count), float(f), 0.0))
                continue
            chosen = rng.choice(len(trajs), size=count, replace=False)
            sub = [subsample(trajs[i], f) for i in sorted(chosen)]
            m = build_map(sub, spec, count_mode=count_mode)
            # One grid_utility per distinct count; fsum's exact sum ignores order.
            per_count = {c: grid_utility(c, a) for c in set(m.counts.values())}
            utilities = [per_count[c] for c in m.counts.values()]
            if average_over == "ever_occupied":
                denom = len(ever_occupied)
            elif average_over == "occupied":
                denom = len(m.counts)
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
