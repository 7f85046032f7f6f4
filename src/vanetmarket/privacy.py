"""Path-reconstruction privacy: discrete Fréchet distance, similarity scoring,
per-server loss calibration, and the total privacy-loss function."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fitting import fit_least_squares
from .trajectories import PlanarPath, Trajectory, _distances, _Fleet, _planar, _planar_points
from .trajectories import _squared_distances

# Sub-sampling ladder used for the per-server loss measurement: one sample
# every 2, 3, ..., 10 minutes.
DEFAULT_CALIBRATION_FREQS = tuple(1.0 / m for m in range(2, 11))


# Rows of the distance matrix computed per numpy call; bounds each kernel's
# scratch memory to O(_ROW_BLOCK * |q|) floats per pair, as in PlanarPath.diameter.
_ROW_BLOCK = 512

# Pairs of more than this many cells |p|·|q| take the bounds of `_bounds`
# before `_dfd_core`'s dynamic program: below it the bounds' numpy calls cost
# more than the cells they could save.
_BOUNDED_CELLS = 1024


class _Pairs(NamedTuple):
    """Fréchet pairs as rows of one coordinate table: pair k's p is the n_p[k]
    columns of xy from p_start[k], and its q the columns listed in
    q_rows[q_start[k] : q_start[k] + n_q[k]], which are rows of its p in
    increasing order. xy is (2, N + 2), its last two columns the +inf and
    -inf points that pad p and q."""

    xy: np.ndarray
    p_start: np.ndarray
    n_p: np.ndarray
    q_rows: np.ndarray
    q_start: np.ndarray
    n_q: np.ndarray


def _pairs_of(points: Sequence[np.ndarray], p_start, n_p, q_rows, n_q) -> _Pairs:
    """`_Pairs` over the rows of (n, 2) arrays of points, in order."""
    xy = np.empty((2, sum(map(len, points)) + 2))
    np.concatenate(points, out=xy[:, :-2].T)
    xy[:, -2] = np.inf
    xy[:, -1] = -np.inf
    return _Pairs(xy, p_start, n_p, q_rows, np.cumsum(n_q) - n_q, n_q)


def _pack(pairs: _Pairs, chunk: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_bounds`' arguments for the pairs `chunk`: their coordinates as
    (2, B, n) and (2, B, m) arrays, n and m the longest |p| and |q|, |p| and
    |q|, and each q point's row of p (column j past |q| at n + j). p is
    padded with +inf and q with -inf, so every padded cell's distance is +inf
    and no subtraction meets inf - inf."""
    n_p, n_q = pairs.n_p[chunk], pairs.n_q[chunk]
    n, m = n_p.max(), n_q.max()
    pad = pairs.xy.shape[1] - 2
    p_start = pairs.p_start[chunk, None]
    p_rows = p_start + np.arange(n)
    if n_p.min() < n:
        p_rows[np.arange(n) >= n_p[:, None]] = pad
    past_q = np.arange(m) >= n_q[:, None]
    q_rows = pairs.q_rows.take(pairs.q_start[chunk, None] + np.arange(m), mode="clip")
    q_rows[past_q] = pad + 1
    pts, qts = pairs.xy.take(p_rows, axis=1), pairs.xy.take(q_rows, axis=1)
    return pts, qts, n_p, n_q, np.where(past_q, n + np.arange(m), q_rows - p_start)


def _bounds(
    pts: np.ndarray,
    qts: np.ndarray,
    n_p: np.ndarray,
    n_q: np.ndarray,
    anchor: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds L <= d_F <= U on the discrete Fréchet distance of each pair k of
    packed coordinates (its first n_p[k] points of p and n_q[k] of q), with
    L == U exactly when max(max_i min_j d(p_i, q_j), d(p_0, q_0), d(p_n, q_m))
    == U. That max is a lower bound, since every coupling pairs each p_i with
    some q_j and holds both end pairs.

    U is the cost of the natural coupling of a q made of p's rows. q_j's
    anchor a_j is a row of p at the same point, a zero distance: its own row
    when the caller passes `anchor`, else the first row that equals it;
    rows up to a_0 go to q_0 and rows after the last anchor to q_m; the rows
    of each gap (a_{j-1}, a_j] split once, the first ones to q_{j-1} and the
    rest, a_j among them, to q_j. Any strictly increasing anchors give a
    valid coupling, so d_F <= U; without them U = inf and L = 0.

    The best split of a gap costs the max over its rows r of min(A_r, b_r),
    b_r being row r's distance to q_j and A_r the largest distance to q_{j-1}
    of the gap's rows up to r. No split costs less: row r goes right, or a row
    at or before it goes left. Splitting just before the first row farther
    than that from q_{j-1} costs no more. Before a_0 and after the last anchor
    both sides are one point, and the formula gives the max. So U is the max
    of min(A_r, b_r) over all rows, and A is the only scan: by doubling
    (Hillis & Steele), a round per power of two below the widest gap.

    A row's min reaches U only if its distances to both its coupled points
    do, so L takes the end pairs and the mins of those rows alone, and no
    distance matrix is built. L and U are entries of the distance matrix, so
    when they meet they are d_F to the bit, whichever anchors U took. Points
    are compared, and those rows' mins taken, _ROW_BLOCK rows at a time.
    """
    b, n = pts.shape[1:]
    m = qts.shape[2]
    if anchor is None:
        anchor = np.arange(n, n + m)  # past p's rows until found, and in order
        for start in range(0, n, _ROW_BLOCK):
            # (2, B, 1, rows) of p against (2, B, m, 1) of q
            blk = pts[:, :, None, start : start + _ROW_BLOCK]
            equal = (blk[0] == qts[0, :, :, None]) & (blk[1] == qts[1, :, :, None])
            first = np.where(equal.any(axis=2), equal.argmax(axis=2) + start, n + m)
            anchor = np.minimum(anchor, first)
    # Strictly increasing anchors, the last of a pair's own q found in p, are
    # all found; a pair's padded columns keep their increasing n + j.
    pairs = np.arange(b)
    widths = anchor[:, 1:] - anchor[:, :-1]
    ok = (anchor[pairs, n_q - 1] < n) & (widths > 0).all(axis=1)
    if not ok.any():
        return np.zeros(b), np.full(b, np.inf)
    # Row r's gap is the number of anchors above it: gap j in 1..|q|-1 holds
    # the rows of (a_{j-1}, a_j], gap 0 the rows up to a_0 and gap |q| the rows
    # after the last anchor, the last two with one point on both sides.
    step = np.zeros((b, n + m + 1), dtype=np.intp)
    step[pairs[:, None], anchor + 1] = 1
    gap = step[:, :n].cumsum(axis=1)
    sides = np.stack([np.maximum(gap - 1, 0), np.minimum(gap, n_q[:, None] - 1)])
    sides += pairs[:, None] * m
    to_left, to_right = _distances(pts[0], pts[1], qts[0].take(sides), qts[1].take(sides))
    reach = np.minimum(to_left, to_right)
    padded = n_p.min() < n or n_q.min() < m
    if padded:  # +inf rows past a pair's p; gaps into its padded columns
        row_pad = np.arange(n) >= n_p[:, None]
        reach[row_pad] = -np.inf
        widths[np.arange(1, m) >= n_q[:, None]] = 0
    widest = widths[ok].max(initial=0)
    shift = 1
    while shift < widest:
        same = gap[:, shift:] == gap[:, :-shift]
        np.maximum(
            to_left[:, shift:], np.where(same, to_left[:, :-shift], 0.0), out=to_left[:, shift:]
        )
        shift *= 2
    cost = np.minimum(to_left, to_right)
    if padded:
        cost[row_pad] = 0.0
    upper = np.where(ok, cost.max(axis=1), np.inf)
    # The end pairs (0, 0) and (n, m) are coupled, on one point each side:
    # their cost is their distance.
    lower = np.where(ok, np.maximum(cost[:, 0], cost[pairs, n_p - 1]), 0.0)
    pair, row = np.nonzero((reach >= upper[:, None]) & ok[:, None])
    for start in range(0, len(row), _ROW_BLOCK):
        k = pair[start : start + _ROW_BLOCK]
        r = row[start : start + _ROW_BLOCK]
        dist = _distances(pts[0, k, r, None], pts[1, k, r, None], qts[0, k], qts[1, k])
        np.maximum.at(lower, k, dist.min(axis=1))
    return lower, upper


def _dfd_core(p, q):
    """Eiter & Mannila's DP, one row at a time over plain Python floats.

    A pair of more than _BOUNDED_CELLS cells takes `_bounds` first: it
    returns L when L == U, and otherwise fills only each row's hull of cells
    with d <= U, from the first such column to the last. A cell with d > U >=
    d_F lies on no optimal coupling, and every cell of one lies in a hull, so
    the corner's value is unchanged. Smaller pairs, and pairs without a
    finite U, fill every cell. Distances come from `_distances` in row
    blocks, the same float64 operations in the same order as a scalar loop,
    and min and max are exact, so the result is bitwise that of the naive
    recursion. Scratch memory stays O(_ROW_BLOCK * |q|).
    """
    n, m = p.shape[0], q.shape[0]
    upper = math.inf
    if n * m > _BOUNDED_CELLS:
        lower, upper = (
            x.item() for x in _bounds(p.T[:, None], q.T[:, None], np.array([n]), np.array([m]))
        )
        if lower == upper:
            return lower
    # dp[j + 1] is cell j of the last row filled, +inf outside its hull;
    # dp[0] is the border: -inf above-left of cell (0, 0), then +inf.
    dp = [math.inf] * (m + 1)
    dp[0] = -math.inf
    prev_lo = prev_hi = 0  # the last row's hull, as dp indices prev_lo + 1 .. prev_hi
    for start in range(0, n, _ROW_BLOCK):
        block = p[start : start + _ROW_BLOCK]
        dist = _distances(block[:, 0, None], block[:, 1, None], q[:, 0], q[:, 1])
        if upper < math.inf:
            near = dist <= upper  # every row has one: U >= d_F >= the row's min
            los = near.argmax(axis=1)
            his = m - near[:, ::-1].argmax(axis=1)
            cols = np.arange(m)
            cells = dist[(cols >= los[:, None]) & (cols < his[:, None])].tolist()
            stops = np.cumsum(his - los).tolist()
            rows = zip(los.tolist(), [cells[a:b] for a, b in zip([0, *stops], stops)])
        else:
            rows = zip([0] * len(block), dist.tolist())
        for lo, row in rows:
            # Overwrite the last row in place, left to right; `diag` keeps
            # its value at j - 1.
            diag = dp[lo]
            left = math.inf
            j = lo
            for d in row:
                j += 1
                up = dp[j]
                c = up if up < diag else diag
                if left < c:
                    c = left
                left = c if c > d else d
                dp[j] = left
                diag = up
            dp[0] = math.inf
            if lo > prev_lo or j < prev_hi:  # the last row's cells outside this hull
                dp[prev_lo + 1 : lo + 1] = [math.inf] * (lo - prev_lo)
                dp[j + 1 : prev_hi + 1] = [math.inf] * (prev_hi - j)
            prev_lo = lo
            prev_hi = j
    return dp[m]


# The Fréchet backend; there is only the one above (the benchmark harness
# reports `_dfd_kernel is _dfd_core` as the `python` backend).
_dfd_kernel = _dfd_core


# Padded points (pairs times the chunk's longest |p| plus longest |q|) that one
# `_frechet_rows` chunk holds: `_bounds`, anchored at a capture's own rows, and
# `_frechet_block` each keep a few float64 arrays of about this many values.
_FRECHET_POINTS = 1 << 13


def _frechet_block(pairs: _Pairs, chunk: np.ndarray) -> np.ndarray:
    """`_dfd_core` of every pair of one chunk, packed by `_pack`.

    The DP table, n and m the longest |p| and |q|, has a +inf border row and
    column and a -inf corner, so it needs no edge cases; padded cells are +inf
    and never feed a pair's own. It is swept one anti-diagonal t = i + j at a
    time with the batch on the last axis, keeping three (n + 1, B) diagonals
    indexed by i: cell (i, t - i) reads diagonal t - 1 at rows i - 1 and i and
    t - 2 at row i - 1. Its squared distances are a run of p's rows against a
    reversed run of q's, so every operand is contiguous, and a pair's corner is
    read as diagonal n_p + n_q passes. The DP takes only min and max, which
    commute with the monotone, correctly rounded sqrt, so the sqrt of a corner
    is bitwise the DP over `_distances`.
    """
    pts, qts, n_p, n_q, _ = _pack(pairs, chunk)
    b, n = pts.shape[1:]
    m = qts.shape[2]
    # (n, B) of p and (m, B) of q reversed: the batch on the last axis, contiguous.
    px, py = np.ascontiguousarray(pts.transpose(0, 2, 1))
    qx, qy = np.ascontiguousarray(qts[:, :, ::-1].transpose(0, 2, 1))
    ends: dict[int, list[int]] = {}  # diagonal -> the pairs whose corner is on it
    for k, end in enumerate((n_p + n_q).tolist()):
        ends.setdefault(end, []).append(k)
    corners = np.empty(b)
    diagonals = np.full((3, n + 1, b), np.inf)
    diagonals[0, 0] = -np.inf
    for t in range(2, n + m + 1):
        here, up, diagonal = diagonals[t % 3], diagonals[(t - 1) % 3], diagonals[(t - 2) % 3]
        lo, hi = max(1, t - m), min(n, t - 1)
        # p's rows lo - 1 .. hi - 1 against q's t - lo - 1 down to t - hi - 1
        p_run, q_run = slice(lo - 1, hi), slice(m - t + lo, m - t + hi + 1)
        dist = _squared_distances(px[p_run], py[p_run], qx[q_run], qy[q_run])
        lows = np.minimum(up[p_run], up[lo : hi + 1])
        np.minimum(lows, diagonal[p_run], out=lows)
        np.maximum(dist, lows, out=here[lo : hi + 1])
        if t == 2:
            diagonal[0] = np.inf  # diagonal 3 takes these rows: (0, 3) is border
        if t in ends:
            k = ends[t]
            corners[k] = here[n_p[k], k]
    return np.sqrt(corners)


def _chunks(order: np.ndarray, n_p: np.ndarray, n_q: np.ndarray):
    """Runs of `order` (pairs sorted by (|p|, |q|)) of at most _FRECHET_POINTS
    padded points each; a pair over that budget is a run by itself."""
    lens_p, lens_q = n_p[order].tolist(), n_q[order].tolist()
    start = 0
    while start < len(order):
        n, m = lens_p[start], lens_q[start]
        stop = start + 1
        while stop < len(order):
            grown_n = max(n, lens_p[stop])
            grown_m = max(m, lens_q[stop])
            if (grown_n + grown_m) * (stop + 1 - start) > _FRECHET_POINTS:
                break
            n, m, stop = grown_n, grown_m, stop + 1
        yield order[start:stop]
        start = stop


def _frechet_rows(
    points: Sequence[np.ndarray],
    p_start: np.ndarray,
    n_p: np.ndarray,
    q_rows: np.ndarray,
    n_q: np.ndarray,
) -> list[float]:
    """Discrete Fréchet distance of every pair k over one table, the rows of
    the (n, 2) arrays `points` in order: p the n_p[k] rows from p_start[k],
    q the next n_q[k] rows listed in `q_rows`, which are rows of p in
    increasing order. Each result is bitwise `_dfd_core` of the pair's points.

    The pairs run in chunks of similar sizes (sorted by (|p|, |q|)), each of at
    most _FRECHET_POINTS padded points or one pair. `_bounds` takes each
    chunk's L and U, with q's own rows as anchors, so no point is compared,
    and settles every pair with L == U. The rest are chunked again and swept
    by `_frechet_block`. Min and max are exact and the distances are the same
    float64 operations, so neither the bounds nor batching changes a bit.
    """
    pairs = _pairs_of(points, p_start, n_p, q_rows, n_q)
    out = np.empty(len(n_p))
    unresolved = []
    for chunk in _chunks(np.lexsort((n_q, n_p)), n_p, n_q):
        lower, upper = _bounds(*_pack(pairs, chunk))
        settled = lower == upper
        out[chunk[settled]] = lower[settled]
        unresolved.append(chunk[~settled])
    if unresolved:
        for chunk in _chunks(np.concatenate(unresolved), n_p, n_q):
            out[chunk] = _frechet_block(pairs, chunk)
    return out.tolist()


def discrete_frechet(p: PlanarPath | np.ndarray, q: PlanarPath | np.ndarray) -> float:
    """Discrete Fréchet distance between two planar polylines, in meters.

    Dynamic program over all monotone couplings of the two vertex sequences
    (Eiter & Mannila); O(|p|·|q|) time at most. Through `_dfd_core`, a pair of
    more than _BOUNDED_CELLS cells first takes cheap bounds L <= d_F <= U and
    returns L when they meet, which they often do when q is a row subset of p
    (a subsampled or captured path); otherwise the program skips every cell
    farther apart than U. The result is bitwise that of the full program.
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
    `diameter` is `full.diameter()` when the caller already has it; a
    diameter outside (0, inf) is a ValueError.
    """
    if len(full) < 2 or len(reconstructed) < 2:
        raise ValueError("path similarity requires at least 2 points per path")
    diam = full.diameter() if diameter is None else diameter
    if not 0.0 < diam < math.inf:  # NaN fails too
        raise ValueError(
            f"full path diameter must be positive and finite, got {diam}; similarity undefined"
        )
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
    fulls = _full_paths(fleet)
    means = []
    for f in freqs:
        paths = zip(fleet.kept(f), fulls)
        sims = [path_similarity(p.path, p.path.points[kept], p.diameter) for kept, p in paths]
        means.append((f, math.fsum(sims) / len(sims)))
    return means


def calibrate_per_server_loss(
    trajs: Sequence[Trajectory] | _Fleet, freqs: Sequence[float] = DEFAULT_CALIBRATION_FREQS
) -> CalibrationReport:
    """Measure mean path similarity per sampling frequency and fit the decay coefficient."""
    return fit_per_server_decay(mean_similarity_by_frequency(trajs, freqs))
