"""Seeded random-waypoint trace generator owned by the benchmark.

The program under test only ever sees the CSV this module writes, so the
benchmark's inputs stay fixed when the program's own synthetic generator or
its random draw order changes. Pure standard library: the same seed gives the
same file on any Python 3.
"""

from __future__ import annotations

import math
import random

# The program's default synthesis/grid box (lat_min, lat_max, lon_min, lon_max),
# copied so that every generated sample lies inside it.
BBOX = (39.80, 40.00, 116.25, 116.50)
EARTH_RADIUS_M = 6371000.0
SPEED_RANGE = (250.0, 750.0)  # meters per minute


def random_waypoint_rows(seed: int, n_vehicles: int, n_samples: int):
    """Yield (vehicle_id, t, lat, lon) rows, one sample per minute per vehicle.

    Each vehicle draws a base speed and drives between uniformly random
    waypoints in the box, with per-minute speed jitter. Positions are convex
    combinations of points in the box, so no sample leaves it.
    """
    lat_min, lat_max, lon_min, lon_max = BBOX
    m_lat = EARTH_RADIUS_M * math.pi / 180.0
    m_lon = m_lat * math.cos(math.radians(0.5 * (lat_min + lat_max)))
    width = (lon_max - lon_min) * m_lon
    height = (lat_max - lat_min) * m_lat
    rng = random.Random(seed)
    for v in range(n_vehicles):
        vid = f"b{v:04d}"
        speed = rng.uniform(*SPEED_RANGE)
        x, y = rng.uniform(0.0, width), rng.uniform(0.0, height)
        wx, wy = rng.uniform(0.0, width), rng.uniform(0.0, height)
        for t in range(n_samples):
            lat = min(max(lat_min + y / m_lat, lat_min), lat_max)
            lon = min(max(lon_min + x / m_lon, lon_min), lon_max)
            yield vid, float(t), lat, lon
            remaining = speed * rng.uniform(0.5, 1.5)
            while remaining > 0.0:
                dist = math.hypot(wx - x, wy - y)
                if dist <= remaining:
                    x, y = wx, wy
                    remaining -= dist
                    wx, wy = rng.uniform(0.0, width), rng.uniform(0.0, height)
                else:
                    x += (wx - x) * (remaining / dist)
                    y += (wy - y) * (remaining / dist)
                    remaining = 0.0


def write_traces(path: str, seed: int, n_vehicles: int, n_samples: int) -> int:
    """Write a `vehicle_id,timestamp,lat,lon` CSV; returns the number of samples."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("vehicle_id,timestamp,lat,lon\n")
        for vid, t, lat, lon in random_waypoint_rows(seed, n_vehicles, n_samples):
            fh.write(f"{vid},{t!r},{lat!r},{lon!r}\n")
            n += 1
    return n
