"""Vehicle trajectory substrate: parsing, synthesis, subsampling, projection, gridding."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, count, repeat
from operator import itemgetter
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np

EARTH_RADIUS_M = 6371000.0
_M_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0  # meters per degree of a great circle

# Default synthesis area, roughly a 20 km x 20 km urban box.
DEFAULT_BBOX = (39.80, 40.00, 116.25, 116.50)
SPEED_RANGE = (250.0, 750.0)  # synthetic vehicles' base speeds, meters per minute
# The shortest side, in meters, of a synthetic bbox. A minute's walk crosses
# about speed / side waypoint legs, so its cost grows as the box shrinks; at
# this floor a minute at the fastest base speed spans eight sides.
MIN_SYNTHETIC_SIDE_M = SPEED_RANGE[1] / 8

TRACE_HEADER = ["vehicle_id", "timestamp", "lat", "lon"]


class TraceParseError(ValueError):
    """Raised when an input trace file violates the expected CSV layout."""


class GeoSample(NamedTuple):
    t: float  # minutes since epoch, real-valued
    lat: float
    lon: float


_TIME = itemgetter(0)  # a GeoSample's t


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

    @classmethod
    def _trusted(cls, vehicle_id: str, samples: tuple[GeoSample, ...]) -> Trajectory:
        """A trajectory built without `__post_init__`'s checks, for samples that
        have passed them already: the rows of a `_Fleet`, or a subsequence of
        a checked trajectory."""
        traj = object.__new__(cls)
        object.__setattr__(traj, "vehicle_id", vehicle_id)
        object.__setattr__(traj, "samples", samples)
        return traj

    def __len__(self) -> int:
        return len(self.samples)

    def centroid(self) -> tuple[float, float]:
        lat = math.fsum(s.lat for s in self.samples) / len(self.samples)
        lon = math.fsum(s.lon for s in self.samples) / len(self.samples)
        return lat, lon


def _check_distinct(ids: Iterable[str]) -> None:
    """A vehicle id names one vehicle, as in a trace file: raise on the first repeat."""
    seen: set[str] = set()
    for vid in ids:
        if vid in seen:
            raise ValueError(f"duplicate vehicle id {vid!r}: a vehicle id names one vehicle")
        seen.add(vid)


class _Fleet(NamedTuple):
    """Trajectories as columns: track k is ids[k], with rows
    offsets[k]:offsets[k + 1] of txy, one (t, lat, lon) row per sample in time
    order. The ids are distinct: read from a trace file, in the order they
    first appear; built from trajectories, in theirs."""

    ids: list[str]
    offsets: np.ndarray
    txy: np.ndarray

    @classmethod
    def of(cls, trajs: Iterable[Trajectory] | _Fleet) -> _Fleet:
        """The fleet of the trajectories, or the fleet itself, unchanged. A
        repeated vehicle id is a ValueError that names it."""
        if isinstance(trajs, _Fleet):
            return trajs
        trajs = list(trajs)
        _check_distinct(traj.vehicle_id for traj in trajs)
        lengths = [len(traj.samples) for traj in trajs]
        n = sum(lengths)
        txy = np.fromiter(
            chain.from_iterable(chain.from_iterable(traj.samples for traj in trajs)),
            dtype=np.float64,
            count=3 * n,
        ).reshape(n, 3)
        offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))
        return cls([traj.vehicle_id for traj in trajs], offsets, txy)

    def _rows(self, rows: np.ndarray) -> _Fleet:
        """The fleet of the given rows, in increasing order, over the same tracks."""
        return _Fleet(self.ids, np.searchsorted(rows, self.offsets), self.txy[rows])

    def _spans(self) -> Iterable[tuple[str, int, int]]:
        bounds = self.offsets.tolist()
        return zip(self.ids, bounds, bounds[1:])

    def trajectories(self) -> list[Trajectory]:
        # One list of every value, so each sample's three floats are made together.
        values = iter(self.txy.ravel().tolist())
        samples = list(map(GeoSample._make, zip(values, values, values)))
        return [Trajectory._trusted(vid, tuple(samples[a:b])) for vid, a, b in self._spans()]

    def kept(self, f_d: float) -> list[list[int]]:
        """Each track's positions `_kept_index` keeps at f_d, in track order."""
        times = self.txy[:, 0].tolist()
        return [_kept_index(times[a:b], f_d, vid) for vid, a, b in self._spans()]

    def _kept_rows(self, f_d: float) -> np.ndarray:
        """The rows of txy that `kept` keeps at f_d, in increasing order."""
        kept = self.kept(f_d)
        rows = np.fromiter(chain.from_iterable(kept), dtype=np.intp)
        rows += np.repeat(self.offsets[:-1], list(map(len, kept)))
        return rows


def _squared_distances(px, py, qx, qy) -> np.ndarray:
    """Squared point distances dx*dx + dy*dy with p - q operands, broadcast
    over the coordinate arrays."""
    dist = px - qx
    dy = py - qy
    dist *= dist
    dy *= dy
    dist += dy
    return dist


def _distances(px, py, qx, qy) -> np.ndarray:
    """Point distances sqrt(dx*dx + dy*dy), the square root of
    `_squared_distances`: the one formula of `PlanarPath.diameter` and the
    Fréchet kernels, so all read the same float64 for the same pair of points."""
    dist = _squared_distances(px, py, qx, qy)
    return np.sqrt(dist, out=dist)


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
        x, y = self.points.T
        # Blockwise pairwise distances keep memory bounded on long paths.
        return max(
            float(_distances(x[i : i + 512, None], y[i : i + 512, None], x, y).max())
            for i in range(0, len(x), 512)
        )


@dataclass(frozen=True)
class GridSpec:
    """Spatio-temporal grid: bbox in degrees, square cells in meters, time bins in minutes."""

    bbox: tuple[float, float, float, float]  # (lat_min, lat_max, lon_min, lon_max)
    cell_size: float = 1000.0
    time_bin: float = 10.0

    def __post_init__(self) -> None:
        lat_min, lat_max, lon_min, lon_max = self.bbox
        if not (lat_min < lat_max and lon_min < lon_max):  # NaN fails too
            raise ValueError(f"degenerate bbox {self.bbox}")
        if not self.cell_size > 0:  # NaN fails too
            raise ValueError("cell_size must be positive")
        if not self.time_bin > 0:
            raise ValueError("time_bin must be positive")

    @property
    def _meters_per_deg(self) -> tuple[float, float]:
        """Meters per degree of latitude and of longitude at the middle latitude."""
        lat_min, lat_max, _, _ = self.bbox
        return _M_PER_DEG, _M_PER_DEG * math.cos(math.radians(0.5 * (lat_min + lat_max)))

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
    return _read_fleet(stream).trajectories()


def _read_fleet(stream: IO[bytes] | IO[str]) -> _Fleet:
    """`parse_traces`' result as a fleet, without building its trajectories.

    The whole stream is read and taken into columns in one pass where
    `_columns` accepts the text. Unusual input goes through the row loop,
    which accepts it or raises its `TraceParseError`, over the lines
    iterating the stream gives. For a binary stream those lines come from a
    UTF-8 text wrapper with universal newlines, so an undecodable byte
    raises where the row loop reaches it; `_columns` sees the bytes decoded
    whole, carriage returns kept, and leaves those to the row loop. Both end
    in `_assemble`.
    """
    if isinstance(stream, io.BufferedIOBase) or (
        hasattr(stream, "read") and isinstance(getattr(stream, "mode", ""), str) and "b" in getattr(stream, "mode", "")
    ):
        data = stream.read()
        try:
            fleet = _columns(data.decode("utf-8"))
        except UnicodeDecodeError:
            fleet = None
        lines: Iterable[str] = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    else:
        lines = list(stream)
        text = "".join(lines)
        # Only a stream that splits lines at each "\n" splits them as _columns does.
        same_split = len(lines) == text.count("\n") + (not text.endswith("\n"))
        fleet = _columns(text) if same_split else None
    return _parse_rows(lines) if fleet is None else fleet


def _columns(text: str) -> _Fleet | None:
    """The fleet of a trace file's text, or None where the row loop must read it.

    Every numeric field goes through float(), in row order, as in the row
    loop, so the values are its values bit for bit. Anything unusual is left
    to the row loop, which accepts it or raises its TraceParseError: a quote,
    a carriage return or a NUL, a line without exactly three commas (a blank
    line included) or longer than the csv field limit, a field float()
    rejects (an ISO-8601 timestamp), a non-finite timestamp, an out-of-range
    latitude or longitude, an empty vehicle id, a bad header, no data rows.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    header, _, body = text.partition("\n")
    if [h.strip() for h in header.split(",")] != TRACE_HEADER:
        return None
    lines = body.split("\n")
    if not lines[-1]:
        del lines[-1]  # the text ends with a newline
    if set(map(str.count, lines, repeat(","))) != {3}:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    fields = ",".join(lines).split(",")
    vids = list(map(str.strip, fields[0::4]))
    del fields[0::4]
    try:
        txy = np.fromiter(map(float, fields), dtype=np.float64, count=len(fields)).reshape(-1, 3)
    except ValueError:
        return None
    t, lat, lon = txy.T
    valid = np.isfinite(t) & (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0)
    if not valid.all() or "" in vids:
        return None
    return _assemble(vids, txy)


def _assemble(vids: list[str], txy: np.ndarray) -> _Fleet:
    """The fleet of checked trace rows, row r being vehicle vids[r] at txy[r]:
    vehicles in the order they first appear, each track sorted stably by
    time, and of a duplicated timestamp (-0.0 and 0.0 are one) its first row."""
    # Each row's vehicle as the row number of its first appearance, so sorting
    # by it orders vehicles as they first appear.
    first_seen: dict[str, int] = {}
    vehicle = np.fromiter(map(first_seen.setdefault, vids, count()), dtype=np.intp, count=len(vids))
    order = np.lexsort((txy[:, 0], vehicle))  # stable: a duplicated timestamp keeps its first row
    vehicle, t = vehicle[order], txy[order, 0]
    new_vehicle = np.ones(len(order), dtype=bool)
    new_vehicle[1:] = vehicle[1:] != vehicle[:-1]
    keep = new_vehicle | np.concatenate(([True], t[1:] != t[:-1]))
    offsets = np.append(np.flatnonzero(new_vehicle[keep]), np.count_nonzero(keep))
    return _Fleet(list(first_seen), offsets, txy[order[keep]])


def _parse_rows(lines: Iterable[str]) -> _Fleet:
    """The row loop: csv rows one at a time, each checked as it is read, then
    assembled as `_columns` assembles its rows."""
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise TraceParseError("no trajectories: input is empty")
    if [h.strip() for h in header] != TRACE_HEADER:
        raise TraceParseError(
            f"line 1: expected header {','.join(TRACE_HEADER)!r}, got {','.join(header)!r}"
        )

    vids: list[str] = []
    values: list[float] = []
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
        vids.append(vid)
        values += (t, lat, lon)

    if not vids:
        raise TraceParseError("no trajectories: file has a header but no data rows")
    return _assemble(vids, np.array(values, dtype=np.float64).reshape(-1, 3))


def generate_synthetic(
    n_vehicles: int,
    duration: int,
    seed: int,
    bbox: tuple[float, float, float, float] = DEFAULT_BBOX,
) -> list[Trajectory]:
    """Seeded random-waypoint walks sampled once per minute inside `bbox`.

    Each vehicle draws a base speed (meters/minute) from `SPEED_RANGE` and
    drives between uniformly random waypoints, with per-minute speed jitter
    standing in for traffic; samples are taken at t = 0 .. duration-1.
    Deterministic for a fixed seed. A bbox with a side shorter than
    `MIN_SYNTHETIC_SIDE_M` is a ValueError.
    """
    if n_vehicles < 1:
        raise ValueError("n_vehicles must be >= 1")
    if duration < 2:
        raise ValueError("duration must be >= 2 minutes")
    m_lat, m_lon = GridSpec(bbox)._meters_per_deg  # the bbox is checked as a grid's
    lat_min, lat_max, lon_min, lon_max = bbox
    width = (lon_max - lon_min) * m_lon
    height = (lat_max - lat_min) * m_lat
    if min(width, height) < MIN_SYNTHETIC_SIDE_M:
        raise ValueError(
            f"synthetic bbox {bbox} has a side of {min(width, height):.3g} m, "
            f"below the {MIN_SYNTHETIC_SIDE_M} m floor"
        )

    trajs = []
    for i in range(n_vehicles):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        speed = float(rng.uniform(*SPEED_RANGE))
        pos = np.array([rng.uniform(0, width), rng.uniform(0, height)])
        wp = np.array([rng.uniform(0, width), rng.uniform(0, height)])
        samples = []
        for t in range(duration):
            lat = lat_min + float(pos[1]) / m_lat
            lon = lon_min + float(pos[0]) / m_lon
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


def _kept_index(times: Sequence[float], f_d: float, vehicle_id: str) -> list[int]:
    """Positions of the times of vehicle_id's track that `subsample` keeps at
    f_d: the first, each one at or past the next due time t0 + n/f_d - 1e-9,
    and the last."""
    if not f_d > 0:  # NaN fails too
        raise ValueError(f"sampling frequency must be positive, got {f_d}")
    period = 1.0 / f_d
    if not 0.0 < period < math.inf:
        raise ValueError(f"sampling frequency {f_d} has no finite, positive period 1/f_d")
    if len(times) < 2:
        raise ValueError(
            f"vehicle {vehicle_id!r}: cannot subsample a trajectory with fewer than 2 samples"
        )
    t0 = times[0]
    kept = []
    n_target = 0
    due = t0 + n_target * period - 1e-9
    try:
        for i, t in enumerate(times):
            if t >= due:
                kept.append(i)
                n_target = math.floor((t - t0) / period + 1e-9) + 1
                due = t0 + n_target * period - 1e-9
    except OverflowError:  # math.floor of an infinite count of periods
        raise ValueError(
            f"vehicle {vehicle_id!r}: sampling frequency {f_d} is too high for its track:"
            f" the periods 1/f_d from {t0} to {times[-1]} overflow a float"
        ) from None
    last = len(times) - 1
    if kept[-1] != last:
        kept.append(last)
    return kept


def subsample(traj: Trajectory, f_d: float) -> Trajectory:
    """Thin a trajectory to one sample per 1/f_d minutes, keeping the first and last samples."""
    kept = _kept_index(list(map(_TIME, traj.samples)), f_d, traj.vehicle_id)
    # At least two positions (the first and last), so itemgetter gives a tuple.
    return Trajectory._trusted(traj.vehicle_id, itemgetter(*kept)(traj.samples))


def project_planar(traj: Trajectory, origin: tuple[float, float] | None = None) -> PlanarPath:
    """Equirectangular projection to meters about `origin` (default: the trajectory centroid)."""
    origin = origin if origin is not None else traj.centroid()
    return _planar(np.array(traj.samples, dtype=np.float64), origin)


def _planar(txy: np.ndarray, origin: tuple[float, float]) -> PlanarPath:
    """`project_planar` of (t, lat, lon) rows about origin = (lat0, lon0): x is
    (lon - lon0) * scale * cos0 and y is (lat - lat0) * scale, evaluated in that
    order, with cos0 from libm's cos as the scalar formula takes it."""
    lat0, lon0 = origin
    cos0 = math.cos(math.radians(lat0))
    x = (txy[:, 2] - lon0) * _M_PER_DEG * cos0
    return PlanarPath(np.column_stack((x, (txy[:, 1] - lat0) * _M_PER_DEG)))


def build_map(
    trajs: Sequence[Trajectory] | _Fleet, spec: GridSpec, count_mode: str = "vehicles"
) -> SpatioTemporalMap:
    """Aggregate trajectories, or a fleet's tracks, onto the grid.

    `vehicles` mode counts the vehicles with a sample in each cell; `samples`
    counts raw samples. Samples outside the bbox (bounds inclusive) are
    dropped and tallied. A sample's key is (cell_x, cell_y, time_idx) with
    cell_x = min((lon - lon_min) * m_lon // cell_size, nx - 1), likewise
    cell_y from lat, and time_idx = floor(t / time_bin), evaluated over
    arrays; `scalar_build_map` in `tests/reference_impls.py` is the
    per-sample reference it matches.
    """
    fleet = _Fleet.of(trajs)
    _check_count_mode(count_mode)
    cell, keys, vehicles, dropped = _grid(fleet, spec)
    if count_mode == "samples":
        counts = np.bincount(cell[cell >= 0], minlength=keys.shape[1])
    else:
        counts = vehicles
    pairs = zip(*(map(int, column) for column in keys.tolist()))
    return SpatioTemporalMap(spec, dict(zip(pairs, counts.tolist())), dropped)


def _check_count_mode(count_mode: str) -> None:
    if count_mode not in ("vehicles", "samples"):
        raise ValueError(f"count_mode must be 'vehicles' or 'samples', got {count_mode!r}")


def _grid(fleet: _Fleet, spec: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Key every row of the fleet: (cell, keys, vehicles, dropped).

    keys holds the occupied (cell_x, cell_y, time_idx) keys as the columns of a
    (3, m) float64 array, in sorted order; cell[r] is row r's column in keys,
    or -1 for a row outside the bbox; vehicles[k] is the number of vehicles
    with a row in key k; dropped counts the rows outside.
    """
    n = len(fleet.txy)
    t, lat, lon = fleet.txy.T
    lat_min, lat_max, lon_min, lon_max = spec.bbox
    inside = np.flatnonzero((lat_min <= lat) & (lat <= lat_max) & (lon_min <= lon) & (lon <= lon_max))
    dropped = n - len(inside)
    cell = np.full(n, -1, dtype=np.intp)
    if dropped == n:
        return cell, np.empty((3, 0)), np.empty(0, dtype=np.int64), dropped
    t, lat, lon = fleet.txy[inside].T

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
    owner = np.repeat(np.arange(len(fleet.ids)), np.diff(fleet.offsets))[inside]
    # Sort by cell, then time bin, then owner, so each key is one run of rows.
    order = np.lexsort((owner, columns[2], columns[1], columns[0]))
    columns = columns[:, order]
    new_key = np.ones(columns.shape[1], dtype=bool)
    new_key[1:] = (columns[:, 1:] != columns[:, :-1]).any(axis=0)
    starts = np.flatnonzero(new_key)
    owner = owner[order]
    new_owner = new_key.copy()
    new_owner[1:] |= owner[1:] != owner[:-1]
    cell[inside[order]] = np.cumsum(new_key) - 1
    return cell, columns[:, starts], np.add.reduceat(new_owner, starts, dtype=np.int64), dropped
