"""Vehicle trajectory substrate: parsing, synthesis, subsampling, projection, gridding."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain
from operator import itemgetter
from typing import IO, Iterable, NamedTuple

import numpy as np

EARTH_RADIUS_M = 6371000.0

# Default synthesis area, roughly a 20 km x 20 km urban box.
DEFAULT_BBOX = (39.80, 40.00, 116.25, 116.50)

TRACE_HEADER = ["vehicle_id", "timestamp", "lat", "lon"]


class TraceParseError(ValueError):
    """Raised when an input trace file violates the expected CSV layout."""


class GeoSample(NamedTuple):
    t: float  # minutes since epoch, real-valued
    lat: float
    lon: float


@dataclass(frozen=True)
class Trajectory:
    """One vehicle's ordered, timestamped geographic samples."""

    vehicle_id: str
    samples: tuple[GeoSample, ...]

    def __post_init__(self) -> None:
        if len(self.samples) < 1:
            raise ValueError(f"trajectory {self.vehicle_id!r} has no samples")
        prev_t = -math.inf
        for s in self.samples:
            if not math.isfinite(s.t):
                raise ValueError(f"trajectory {self.vehicle_id!r}: non-finite timestamp {s.t}")
            if not (-90.0 <= s.lat <= 90.0):
                raise ValueError(f"trajectory {self.vehicle_id!r}: latitude {s.lat} out of range")
            if not (-180.0 <= s.lon <= 180.0):
                raise ValueError(f"trajectory {self.vehicle_id!r}: longitude {s.lon} out of range")
            if s.t <= prev_t:
                raise ValueError(
                    f"trajectory {self.vehicle_id!r}: timestamps not strictly increasing at t={s.t}"
                )
            prev_t = s.t

    def __len__(self) -> int:
        return len(self.samples)

    def centroid(self) -> tuple[float, float]:
        lat = math.fsum(s.lat for s in self.samples) / len(self.samples)
        lon = math.fsum(s.lon for s in self.samples) / len(self.samples)
        return lat, lon


def _planar_points(points) -> np.ndarray:
    """points as a float64 (n, 2) array of finite coordinates with n >= 1: the
    checks of a `PlanarPath`, without building one."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise ValueError(f"planar path must be an (n, 2) array with n >= 1, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("planar path contains non-finite coordinates")
    return pts


@dataclass
class PlanarPath:
    """Ordered planar polyline in meters, the metric substrate for path comparison."""

    points: np.ndarray

    def __post_init__(self) -> None:
        self.points = _planar_points(self.points)

    def __len__(self) -> int:
        return self.points.shape[0]

    def diameter(self) -> float:
        """Maximum pairwise point distance."""
        pts = self.points
        best = 0.0
        # Blockwise pairwise distances keep memory bounded on long paths.
        for i in range(0, len(pts), 512):
            block = pts[i : i + 512]
            d2 = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            best = max(best, float(d2.max()))
        return math.sqrt(best)


@dataclass(frozen=True)
class GridSpec:
    """Spatio-temporal grid: bbox in degrees, square cells in meters, time bins in minutes."""

    bbox: tuple[float, float, float, float]  # (lat_min, lat_max, lon_min, lon_max)
    cell_size: float = 1000.0
    time_bin: float = 10.0

    def __post_init__(self) -> None:
        lat_min, lat_max, lon_min, lon_max = self.bbox
        if not (lat_min < lat_max and lon_min < lon_max):
            raise ValueError(f"degenerate bbox {self.bbox}")
        if not self.cell_size > 0:  # NaN fails too
            raise ValueError("cell_size must be positive")
        if not self.time_bin > 0:
            raise ValueError("time_bin must be positive")

    @property
    def _meters_per_deg(self) -> tuple[float, float]:
        lat_min, lat_max, _, _ = self.bbox
        mid_lat = 0.5 * (lat_min + lat_max)
        m_lat = EARTH_RADIUS_M * math.pi / 180.0
        m_lon = m_lat * math.cos(math.radians(mid_lat))
        return m_lat, m_lon

    @property
    def n_cells(self) -> tuple[int, int]:
        lat_min, lat_max, lon_min, lon_max = self.bbox
        m_lat, m_lon = self._meters_per_deg
        nx = max(1, math.ceil((lon_max - lon_min) * m_lon / self.cell_size))
        ny = max(1, math.ceil((lat_max - lat_min) * m_lat / self.cell_size))
        return nx, ny


@dataclass
class SpatioTemporalMap:
    """Sparse vehicle counts keyed by (cell_x, cell_y, time_idx); zero cells are absent."""

    spec: GridSpec
    counts: dict[tuple[int, int, int], int] = field(default_factory=dict)
    dropped_outside: int = 0

    def occupied_cells(self) -> set[tuple[int, int, int]]:
        return set(self.counts)

    def write_csv(self, fileobj: IO[str]) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(["cell_x", "cell_y", "time_idx", "count"])
        for key in sorted(self.counts):
            writer.writerow([key[0], key[1], key[2], self.counts[key]])

    def to_json_dict(self) -> dict:
        return {
            "bbox": list(self.spec.bbox),
            "cell_size": self.spec.cell_size,
            "time_bin": self.spec.time_bin,
            "dropped_outside": self.dropped_outside,
            "counts": [[k[0], k[1], k[2], v] for k, v in sorted(self.counts.items())],
        }


def _parse_timestamp(raw: str) -> float:
    """Timestamp as real minutes since epoch; accepts a bare number or ISO-8601."""
    try:
        return float(raw)
    except ValueError:
        pass
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp() / 60.0


def parse_traces(stream: IO[bytes] | IO[str]) -> list[Trajectory]:
    """Parse a trace file into one Trajectory per vehicle, samples sorted by time.

    Duplicate (vehicle, timestamp) rows collapse keeping the first occurrence.
    A binary stream is read as UTF-8 and left open.
    """
    if isinstance(stream, io.BufferedIOBase) or (
        hasattr(stream, "read") and isinstance(getattr(stream, "mode", ""), str) and "b" in getattr(stream, "mode", "")
    ):
        text = io.TextIOWrapper(stream, encoding="utf-8")  # type: ignore[arg-type]
        try:
            return _parse_rows(text)
        finally:
            text.detach()  # closing the wrapper would close the caller's stream
    return _parse_rows(stream)  # type: ignore[arg-type]


def _parse_rows(stream: IO[str]) -> list[Trajectory]:
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise TraceParseError("no trajectories: input is empty")
    if [h.strip() for h in header] != TRACE_HEADER:
        raise TraceParseError(
            f"line 1: expected header {','.join(TRACE_HEADER)!r}, got {','.join(header)!r}"
        )

    per_vehicle: dict[str, dict[float, GeoSample]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise TraceParseError(f"line {lineno}: expected 4 fields, got {len(row)}")
        vid = row[0].strip()
        if not vid:
            raise TraceParseError(f"line {lineno}: empty vehicle_id")
        try:
            t = _parse_timestamp(row[1])
            lat = float(row[2])
            lon = float(row[3])
        except (ValueError, TypeError) as exc:
            raise TraceParseError(f"line {lineno}: {exc}") from exc
        if not math.isfinite(t):
            raise TraceParseError(f"line {lineno}: non-finite timestamp")
        if not (-90.0 <= lat <= 90.0):
            raise TraceParseError(f"line {lineno}: latitude {lat} out of range [-90, 90]")
        if not (-180.0 <= lon <= 180.0):
            raise TraceParseError(f"line {lineno}: longitude {lon} out of range [-180, 180]")
        samples = per_vehicle.setdefault(vid, {})
        if t not in samples:  # keep the first row for a duplicated timestamp
            samples[t] = GeoSample(t, lat, lon)

    if not per_vehicle:
        raise TraceParseError("no trajectories: file has a header but no data rows")
    return [
        Trajectory(vid, tuple(samples[t] for t in sorted(samples)))
        for vid, samples in per_vehicle.items()
    ]


def generate_synthetic(
    n_vehicles: int,
    duration: int,
    seed: int,
    bbox: tuple[float, float, float, float] = DEFAULT_BBOX,
    speed_range: tuple[float, float] = (250.0, 750.0),
) -> list[Trajectory]:
    """Seeded random-waypoint walks sampled once per minute inside `bbox`.

    Each vehicle draws a base speed (meters/minute) from `speed_range` and
    drives between uniformly random waypoints, with per-minute speed jitter
    standing in for traffic; samples are taken at t = 0 .. duration-1.
    Deterministic for a fixed seed.
    """
    if n_vehicles < 1:
        raise ValueError("n_vehicles must be >= 1")
    if duration < 2:
        raise ValueError("duration must be >= 2 minutes")
    lat_min, lat_max, lon_min, lon_max = bbox
    mid_lat = 0.5 * (lat_min + lat_max)
    m_lat = EARTH_RADIUS_M * math.pi / 180.0
    m_lon = m_lat * math.cos(math.radians(mid_lat))
    width = (lon_max - lon_min) * m_lon
    height = (lat_max - lat_min) * m_lat

    trajs = []
    for i in range(n_vehicles):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        speed = float(rng.uniform(*speed_range))
        pos = np.array([rng.uniform(0, width), rng.uniform(0, height)])
        wp = np.array([rng.uniform(0, width), rng.uniform(0, height)])
        samples = []
        for t in range(duration):
            lat = lat_min + pos[1] / m_lat
            lon = lon_min + pos[0] / m_lon
            samples.append(GeoSample(float(t), lat, lon))
            remaining = speed * rng.uniform(0.5, 1.5)
            while remaining > 0:
                leg = wp - pos
                dist = float(np.hypot(*leg))
                if dist <= remaining:
                    pos = wp.copy()
                    remaining -= dist
                    wp = np.array([rng.uniform(0, width), rng.uniform(0, height)])
                else:
                    pos = pos + leg * (remaining / dist)
                    remaining = 0.0
        trajs.append(Trajectory(f"v{i:04d}", tuple(samples)))
    return trajs


def _kept_index(traj: Trajectory, f_d: float) -> list[int]:
    """Positions of the samples `subsample(traj, f_d)` keeps: the first, each
    one at or past the next due time t0 + n/f_d - 1e-9, and the last."""
    if f_d <= 0:
        raise ValueError(f"sampling frequency must be positive, got {f_d}")
    if len(traj) < 2:
        raise ValueError("cannot subsample a trajectory with fewer than 2 samples")
    period = 1.0 / f_d
    t0 = traj.samples[0].t
    kept = []
    n_target = 0
    due = t0 + n_target * period - 1e-9
    for i, s in enumerate(traj.samples):
        t = s.t
        if t >= due:
            kept.append(i)
            n_target = math.floor((t - t0) / period + 1e-9) + 1
            due = t0 + n_target * period - 1e-9
    last = len(traj) - 1
    if kept[-1] != last:
        kept.append(last)
    return kept


def subsample(traj: Trajectory, f_d: float) -> Trajectory:
    """Thin a trajectory to one sample per 1/f_d minutes, keeping the first and last samples."""
    # At least two positions (the first and last), so itemgetter gives a tuple.
    return Trajectory(traj.vehicle_id, itemgetter(*_kept_index(traj, f_d))(traj.samples))


def project_planar(traj: Trajectory, origin: tuple[float, float] | None = None) -> PlanarPath:
    """Equirectangular projection to meters about `origin` (default: the trajectory centroid)."""
    lat0, lon0 = origin if origin is not None else traj.centroid()
    scale = EARTH_RADIUS_M * math.pi / 180.0
    cos0 = math.cos(math.radians(lat0))
    pts = np.array(
        [((s.lon - lon0) * scale * cos0, (s.lat - lat0) * scale) for s in traj.samples]
    )
    return PlanarPath(pts)


def build_map(
    trajs: Iterable[Trajectory], spec: GridSpec, count_mode: str = "vehicles"
) -> SpatioTemporalMap:
    """Aggregate trajectories onto the grid.

    `vehicles` mode counts distinct contributing vehicle ids per cell; `samples`
    counts raw samples. Samples outside the bbox (bounds inclusive) are
    dropped and tallied. A sample's key is (cell_x, cell_y, time_idx) with
    cell_x = min((lon - lon_min) * m_lon // cell_size, nx - 1), likewise
    cell_y from lat, and time_idx = floor(t / time_bin), evaluated over
    arrays; `scalar_build_map` in `tests/reference_impls.py` is the
    per-sample reference it matches.
    """
    if count_mode not in ("vehicles", "samples"):
        raise ValueError(f"count_mode must be 'vehicles' or 'samples', got {count_mode!r}")
    trajs = list(trajs)
    lengths = [len(traj.samples) for traj in trajs]
    n = sum(lengths)
    txy = np.fromiter(
        chain.from_iterable(chain.from_iterable(traj.samples for traj in trajs)),
        dtype=np.float64,
        count=3 * n,
    ).reshape(n, 3)
    t, lat, lon = txy.T
    lat_min, lat_max, lon_min, lon_max = spec.bbox
    inside = (lat_min <= lat) & (lat <= lat_max) & (lon_min <= lon) & (lon <= lon_max)
    dropped = n - int(np.count_nonzero(inside))
    if dropped == n:
        return SpatioTemporalMap(spec, {}, dropped)
    t, lat, lon = txy[inside].T

    m_lat, m_lon = spec._meters_per_deg
    nx, ny = spec.n_cells
    # Columns stay float64 until the keys become Python ints, so a time bin
    # beyond the int64 range groups and converts exactly as
    # int(math.floor(t / time_bin)) does.
    columns = np.stack(
        [
            np.minimum((lon - lon_min) * m_lon // spec.cell_size, nx - 1),
            np.minimum((lat - lat_min) * m_lat // spec.cell_size, ny - 1),
            np.floor(t / spec.time_bin),
        ]
    )
    overflow = ~np.isfinite(columns[2])
    if overflow.any():
        raise ValueError(
            f"timestamp {float(t[overflow][0])!r} overflows time bin {spec.time_bin!r}"
        )
    ids: dict[str, int] = {}
    codes = [ids.setdefault(traj.vehicle_id, len(ids)) for traj in trajs]
    owner = np.repeat(codes, lengths)[inside]
    # Sort by cell, then time bin, then owner, so each key is one run of rows.
    order = np.lexsort((owner, columns[2], columns[1], columns[0]))
    columns = columns[:, order]
    new_key = np.ones(columns.shape[1], dtype=bool)
    new_key[1:] = (columns[:, 1:] != columns[:, :-1]).any(axis=0)
    starts = np.flatnonzero(new_key)
    if count_mode == "samples":
        counts = np.diff(starts, append=columns.shape[1])
    else:
        owner = owner[order]
        new_owner = new_key.copy()
        new_owner[1:] |= owner[1:] != owner[:-1]
        counts = np.add.reduceat(new_owner, starts, dtype=np.int64)
    keys = zip(*(map(int, column) for column in columns[:, starts].tolist()))
    return SpatioTemporalMap(spec, dict(zip(keys, counts.tolist())), dropped)
