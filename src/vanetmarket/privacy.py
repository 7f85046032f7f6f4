"""Path-reconstruction privacy: discrete Fréchet distance, similarity scoring,
per-server loss calibration, and the total privacy-loss function."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fitting import fit_least_squares
from .trajectories import PlanarPath, Trajectory, _Fleet, _kept_index, _planar, _planar_points

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


# Padded DP cells (pairs times the chunk's longest |p| and |q|) that one
# `_frechet_many` chunk holds; bounds its scratch memory to about two
# float64 arrays of this many cells, as _ROW_BLOCK bounds `_dfd_core`'s.
_FRECHET_CELLS = 1 << 16


def _frechet_block(ps: Sequence[np.ndarray], qs: Sequence[np.ndarray]) -> list[float]:
    """`_dfd_core` of every pair of one chunk.

    The pairs are padded with 0.0 to an (n, m, B) block of distances, n and m
    the longest |p| and |q|, with the batch on the last axis; padded cells
    never feed a pair's own cells. The block gets a +inf border row and column
    with a -inf corner, so the DP needs no edge cases, and is overwritten in
    place one anti-diagonal at a time, each reading the two before it.
    """
    b, n, m = len(ps), max(map(len, ps)), max(map(len, qs))
    pts = np.zeros((2, n, b))
    qts = np.zeros((2, m, b))
    for k, (p, q) in enumerate(zip(ps, qs)):
        pts[:, : len(p), k] = p.T
        qts[:, : len(q), k] = q.T
    block = np.empty((n + 1, m + 1, b))
    dist = block[1:, 1:]
    # sqrt(dx*dx + dy*dy) with p - q operands, as `_dfd_core` computes them.
    np.subtract(pts[0, :, None], qts[0, None], out=dist)
    dy = pts[1, :, None] - qts[1, None]
    dist *= dist
    dy *= dy
    dist += dy
    np.sqrt(dist, out=dist)
    block[0] = np.inf
    block[:, 0] = np.inf
    block[0, 0] = -np.inf

    # Cell (i, j) is row (i + 1) * w + j + 1 of `flat`; one anti-diagonal is a
    # slice with step m, and its upper, left and diagonal neighbours are the
    # same slice shifted back by w, 1 and w + 1 rows.
    w = m + 1
    flat = block.reshape(-1, b)
    low = np.empty((min(n, m), b))
    for diag in range(n + m - 1):
        first = max(0, diag - m + 1)
        last = min(diag, n - 1)
        start = (first + 1) * w + diag - first + 1
        stop = (last + 1) * w + diag - last + 2
        lows = low[: last - first + 1]
        diagonal = flat[start - w - 1 : stop - w - 1 : m]
        np.minimum(flat[start - w : stop - w : m], diagonal, out=lows)
        np.minimum(lows, flat[start - 1 : stop - 1 : m], out=lows)
        cells = flat[start:stop:m]
        np.maximum(cells, lows, out=cells)
    return [block[len(p), len(q), k].item() for k, (p, q) in enumerate(zip(ps, qs))]


def _frechet_many(ps: Sequence[np.ndarray], qs: Sequence[np.ndarray]) -> list[float]:
    """Discrete Fréchet distance of every pair (ps[k], qs[k]) of checked
    (n, 2) float64 arrays, each bitwise `_dfd_core(ps[k], qs[k])`.

    The pairs run in chunks of similar sizes (sorted by (|p|, |q|)), each of at
    most _FRECHET_CELLS padded cells, through `_frechet_block`. A pair over
    that budget on its own goes through `_dfd_core`. Min and max are exact and
    the distances are the same float64 operations, so batching changes no bit.
    """
    out = [0.0] * len(ps)
    order = sorted(range(len(ps)), key=lambda k: (len(ps[k]), len(qs[k])))
    start = 0
    while start < len(order):
        n, m = len(ps[order[start]]), len(qs[order[start]])
        stop = start + 1
        while stop < len(order):
            grown_n = max(n, len(ps[order[stop]]))
            grown_m = max(m, len(qs[order[stop]]))
            if grown_n * grown_m * (stop + 1 - start) > _FRECHET_CELLS:
                break
            n, m, stop = grown_n, grown_m, stop + 1
        chunk = order[start:stop]
        if n * m > _FRECHET_CELLS:
            dists = [_dfd_core(ps[k], qs[k]) for k in chunk]
        else:
            dists = _frechet_block([ps[k] for k in chunk], [qs[k] for k in chunk])
        for k, d in zip(chunk, dists):
            out[k] = d
        start = stop
    return out


def discrete_frechet(p: PlanarPath | np.ndarray, q: PlanarPath | np.ndarray) -> float:
    """Discrete Fréchet distance between two planar polylines, in meters.

    Dynamic program over all monotone couplings of the two vertex sequences
    (Eiter & Mannila); O(|p|·|q|) time.
    """
    pa = p.points if isinstance(p, PlanarPath) else _planar_points(p)
    qa = q.points if isinstance(q, PlanarPath) else _planar_points(q)
    return float(_dfd_kernel(pa, qa))


def path_similarity(
    full: PlanarPath, reconstructed: PlanarPath | np.ndarray, diameter: float | None = None
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
    return _similarity(discrete_frechet(full, reconstructed), diam)


def _similarity(frechet: float, diameter: float) -> float:
    """1 - min(1, frechet / diameter): the score of a reconstruction whose
    Fréchet distance to a full path of that diameter is `frechet`."""
    return 1.0 - min(1.0, frechet / diameter)


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
        if not (self.k > 0 and self.p > 0 and self.q > 0):  # NaN fails too
            raise ValueError("loss coefficients k, p, q must be positive")
        if not (0.0 < self.eps_clamp < 1.0):
            raise ValueError("eps_clamp must lie in (0, 1)")


def total_loss_raw(model: LossModel, f_d: float, s: float) -> float:
    """Unclamped privacy loss 1 - exp(-k*f_d/s) - exp(-p*f_d) - exp(-q/s)."""
    if not f_d > 0:
        raise ValueError(f"f_d must be positive, got {f_d}")
    if not s >= 1:
        raise ValueError(f"server count must be >= 1, got {s}")
    return (
        1.0
        - math.exp(-model.k * f_d / s)
        - math.exp(-model.p * f_d)
        - math.exp(-model.q / s)
    )


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


def _full_paths(trajs: Sequence[Trajectory] | _Fleet) -> list[_FullPath]:
    """Each track's full path, projected about its centroid: the exact mean of
    its latitudes and of its longitudes, as `Trajectory.centroid` takes it."""
    fleet = _Fleet.of(trajs)
    lat = fleet.txy[:, 1].tolist()
    lon = fleet.txy[:, 2].tolist()
    fulls = []
    for vid, a, b in fleet._spans():
        origin = (math.fsum(lat[a:b]) / (b - a), math.fsum(lon[a:b]) / (b - a))
        path = _planar(fleet.txy[a:b], origin)
        diameter = path.diameter()
        if diameter <= 0.0:
            raise ValueError(
                f"vehicle {vid!r} never moves: its full path has zero "
                "diameter, so similarity is undefined"
            )
        fulls.append(_FullPath(origin, path, diameter))
    return fulls


def mean_similarity_by_frequency(
    trajs: Sequence[Trajectory] | _Fleet, freqs: Sequence[float]
) -> list[tuple[float, float]]:
    """Mean over vehicles of similarity(full path, path subsampled at f), per frequency.

    A subsampled path is the rows of the full path's projection that `subsample`
    keeps, bitwise its own projection. Means use exact summation, so the
    result is independent of vehicle order.
    """
    fleet = _Fleet.of(trajs)
    if not fleet.ids:
        raise ValueError("need at least one trajectory")
    if not freqs:
        raise ValueError("need at least one frequency")
    sims: dict[float, list[float]] = {f: [] for f in freqs}
    for track, full in zip(fleet.tracks(), _full_paths(fleet)):
        for f in freqs:
            rows = full.path.points[_kept_index(track, f)]
            sims[f].append(path_similarity(full.path, rows, full.diameter))
    return [(f, math.fsum(sims[f]) / len(sims[f])) for f in freqs]


def calibrate_per_server_loss(
    trajs: Sequence[Trajectory] | _Fleet, freqs: Sequence[float] = DEFAULT_CALIBRATION_FREQS
) -> CalibrationReport:
    """Measure mean path similarity per sampling frequency and fit the decay coefficient."""
    return fit_per_server_decay(mean_similarity_by_frequency(trajs, freqs))
