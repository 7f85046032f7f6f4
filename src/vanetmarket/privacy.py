"""Path-reconstruction privacy: discrete Fréchet distance, similarity scoring,
per-server loss calibration, and the total privacy-loss function."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .fitting import fit_least_squares
from .trajectories import PlanarPath, Trajectory, project_planar, subsample

# Sub-sampling ladder used for the per-server loss measurement: one sample
# every 2, 3, ..., 10 minutes.
DEFAULT_CALIBRATION_FREQS = tuple(1.0 / m for m in range(2, 11))


# Rows of the distance matrix computed per numpy call; bounds the kernel's
# scratch memory to O(_ROW_BLOCK * |q|) floats, as in PlanarPath.diameter.
_ROW_BLOCK = 512


def _dfd_core(p, q):
    """Eiter & Mannila's DP, one row at a time over plain Python floats.

    Distances come from numpy in row blocks as sqrt(dx*dx + dy*dy), the same
    float64 operations in the same order as a scalar loop, so the result is
    bitwise that of the naive recursion.
    """
    m = q.shape[0]
    qx = q[:, 0]
    qy = q[:, 1]
    dp = None  # the DP row of the previous point of p
    for start in range(0, p.shape[0], _ROW_BLOCK):
        block = p[start : start + _ROW_BLOCK]
        dx = block[:, 0, None] - qx
        dy = block[:, 1, None] - qy
        for row in np.sqrt(dx * dx + dy * dy).tolist():
            if dp is None:  # first row: running maximum along q
                dp = row
                for j in range(1, m):
                    if dp[j - 1] > dp[j]:
                        dp[j] = dp[j - 1]
                continue
            # Overwrite the previous row in place, left to right; `diag`
            # keeps the previous row's value at j - 1.
            diag = dp[0]
            d = row[0]
            left = diag if diag > d else d
            dp[0] = left
            for j in range(1, m):
                up = dp[j]
                d = row[j]
                c = up if up < diag else diag
                if left < c:
                    c = left
                left = c if c > d else d
                dp[j] = left
                diag = up
    return dp[-1]


# The Fréchet backend; there is only the one above (the benchmark harness
# reports `_dfd_kernel is _dfd_core` as the `python` backend).
_dfd_kernel = _dfd_core


def discrete_frechet(p: PlanarPath | np.ndarray, q: PlanarPath | np.ndarray) -> float:
    """Discrete Fréchet distance between two planar polylines, in meters.

    Dynamic program over all monotone couplings of the two vertex sequences
    (Eiter & Mannila); O(|p|·|q|) time.
    """
    pa = p.points if isinstance(p, PlanarPath) else PlanarPath(p).points
    qa = q.points if isinstance(q, PlanarPath) else PlanarPath(q).points
    return float(_dfd_kernel(pa, qa))


def path_similarity(
    full: PlanarPath, reconstructed: PlanarPath, diameter: float | None = None
) -> float:
    """Similarity in [0, 1] between a full path and a reconstruction of it.

    1 - min(1, frechet / diameter(full)): 1.0 for an exact reconstruction,
    0.0 once the reconstruction strays by the full path's own extent.
    `diameter` is `full.diameter()` when the caller already has it.
    """
    if len(full) < 2 or len(reconstructed) < 2:
        raise ValueError("path similarity requires at least 2 points per path")
    diam = full.diameter() if diameter is None else diameter
    if diam <= 0.0:
        raise ValueError("full path has zero diameter; similarity undefined")
    d = discrete_frechet(full, reconstructed)
    return 1.0 - min(1.0, d / diam)


@dataclass(frozen=True)
class LossModel:
    """Calibrated privacy-loss parameters.

    k scales the per-server sampling rate f_d/s, p the raw frequency term,
    q the server-count term; the evaluated loss is clamped to
    [eps_clamp, 1] because the closed form can go (slightly) negative.
    """

    k: float = 12.447
    p: float = 0.1
    q: float = 10.0
    eps_clamp: float = 1e-9

    def __post_init__(self) -> None:
        if self.k <= 0 or self.p <= 0 or self.q <= 0:
            raise ValueError("loss coefficients k, p, q must be positive")
        if not (0.0 < self.eps_clamp < 1.0):
            raise ValueError("eps_clamp must lie in (0, 1)")


def total_loss_raw(model: LossModel, f_d: float, s: float) -> float:
    """Unclamped privacy loss 1 - exp(-k*f_d/s) - exp(-p*f_d) - exp(-q/s)."""
    if f_d <= 0:
        raise ValueError(f"f_d must be positive, got {f_d}")
    if s < 1:
        raise ValueError(f"server count must be >= 1, got {s}")
    return (
        1.0
        - math.exp(-model.k * f_d / s)
        - math.exp(-model.p * f_d)
        - math.exp(-model.q / s)
    )


def total_loss(model: LossModel, f_d: float, s: float) -> float:
    """Privacy loss clamped into [eps_clamp, 1]."""
    return min(1.0, max(model.eps_clamp, total_loss_raw(model, f_d, s)))


@dataclass(frozen=True)
class CalibrationReport:
    """Result of fitting the per-server decay 1 - exp(-k*f) to measured similarities."""

    fitted_k: float
    residual_rms: float
    points: tuple[tuple[float, float], ...]  # (f_d, mean similarity)
    converged: bool = True

    def __post_init__(self) -> None:
        if self.residual_rms < 0:
            raise ValueError("residual_rms must be nonnegative")
        if not self.points:
            raise ValueError("calibration report needs at least one point")
        for f, sim in self.points:
            if not (0.0 <= sim <= 1.0):
                raise ValueError(f"similarity {sim} at f_d={f} outside [0, 1]")

    def prediction(self, f_d: float) -> float:
        return 1.0 - math.exp(-self.fitted_k * f_d)

    def to_json_dict(self) -> dict:
        return asdict(self)


def fit_per_server_decay(points: Sequence[tuple[float, float]]) -> CalibrationReport:
    """Least-squares fit of loss(f) = 1 - exp(-k*f) to (frequency, similarity) points."""
    freqs = [f for f, _ in points]
    if len(set(freqs)) < 2:
        raise ValueError("underdetermined fit: need at least 2 distinct frequencies")
    fs = np.array(freqs)
    ys = np.array([y for _, y in points])

    # Seed k from the point nearest the middle of the response range.
    k0 = 1.0
    usable = [(f, y) for f, y in points if 0.0 < y < 1.0]
    if usable:
        f_mid, y_mid = usable[len(usable) // 2]
        k0 = max(-math.log(1.0 - y_mid) / f_mid, 1e-6)

    fit = fit_least_squares(lambda p: (1.0 - np.exp(-p[0] * fs)) - ys, [k0])
    return CalibrationReport(
        fitted_k=float(fit.params[0]),
        residual_rms=fit.residual_rms,
        points=tuple((float(f), float(y)) for f, y in points),
        converged=fit.converged,
    )


class _FullPath(NamedTuple):
    """A vehicle's full path projected about its centroid, and its diameter."""

    origin: tuple[float, float]
    path: PlanarPath
    diameter: float


def _full_paths(trajs: Sequence[Trajectory]) -> list[_FullPath]:
    fulls = []
    for traj in trajs:
        origin = traj.centroid()
        path = project_planar(traj, origin=origin)
        fulls.append(_FullPath(origin, path, path.diameter()))
    return fulls


def mean_similarity_by_frequency(
    trajs: Iterable[Trajectory], freqs: Sequence[float]
) -> list[tuple[float, float]]:
    """Mean over vehicles of similarity(full path, path subsampled at f), per frequency.

    Means use exact summation, so the result is independent of vehicle order.
    """
    trajs = list(trajs)
    if not trajs:
        raise ValueError("need at least one trajectory")
    if not freqs:
        raise ValueError("need at least one frequency")
    sims: dict[float, list[float]] = {f: [] for f in freqs}
    for traj, full in zip(trajs, _full_paths(trajs)):
        for f in freqs:
            sub = project_planar(subsample(traj, f), origin=full.origin)
            sims[f].append(path_similarity(full.path, sub, full.diameter))
    return [(f, math.fsum(sims[f]) / len(sims[f])) for f in freqs]


def calibrate_per_server_loss(
    trajs: Iterable[Trajectory], freqs: Sequence[float] = DEFAULT_CALIBRATION_FREQS
) -> CalibrationReport:
    """Measure mean path similarity per sampling frequency and fit the decay coefficient."""
    return fit_per_server_decay(mean_similarity_by_frequency(trajs, freqs))
