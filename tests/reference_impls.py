"""Scalar reference implementations that the package's fused or array code is
checked against, bitwise where the tests say so.

The package computes profit in one straight line (`econ._profit_function`),
evaluates the certifying grid over arrays (`econ.profit_slabs`), projects
and grids samples over arrays (`trajectories.project_planar`,
`trajectories.build_map`), counts the utility surface
from per-row cell ids (`utility.build_utility_surface`), scores the
privacy curve's captures in batches (`smpc.empirical_privacy_curve`),
routes the aggregation round over fleet rows (`smpc._route`) and takes a
path's diameter from its coordinate columns (`PlanarPath.diameter`). The
helper chains and loops they replaced live here, as tests use them, and
nowhere in `src/`.
"""

from __future__ import annotations

import math
from itertools import compress, groupby
from operator import itemgetter

import numpy as np

from vanetmarket import (
    Trajectory,
    build_map,
    eval_utility,
    grid_utility,
    path_similarity,
    profit,
    project_planar,
    route_samples,
    subsample,
    total_loss_raw,
)
from vanetmarket.optimize import _finalize
from vanetmarket.privacy import _full_paths

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def lognormal_cdf(x: float, mu: float, sigma: float) -> float:
    """Log-normal CDF; zero for x <= 0 (no mass below zero)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if x <= 0:
        return 0.0
    return 0.5 * (1.0 + math.erf((math.log(x) - mu) / sigma / _SQRT2))


def lognormal_pdf(x: float, mu: float, sigma: float) -> float:
    """Log-normal density; zero for x <= 0."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if x <= 0:
        return 0.0
    z = (math.log(x) - mu) / sigma
    return math.exp(-0.5 * z * z) / (x * sigma * _SQRT_2PI)


def total_loss(model, f_d: float, s: float) -> float:
    """Privacy loss clamped into [eps_clamp, 1]."""
    return min(1.0, max(model.eps_clamp, total_loss_raw(model, f_d, s)))


def expected_participants(params, c1: float, f_d: float, s: float) -> float:
    """Expected number of vehicles whose sensitivity clears the sharing threshold.

    The threshold ratio is r = c1*f_d / L(f_d, s); participation is V times
    the log-normal CDF at r (default) or V times the density at r in
    `pdf_as_written` mode. Clipped into [0, V].
    """
    if c1 < 0:
        raise ValueError(f"c1 must be nonnegative, got {c1}")
    loss = total_loss(params.loss, f_d, s)
    ratio = c1 * f_d / loss
    if params.participation_model == "cdf":
        v = params.V * lognormal_cdf(ratio, params.mu, params.sigma)
    else:
        v = params.V * lognormal_pdf(ratio, params.mu, params.sigma)
    return min(max(v, 0.0), params.V)


def per_server_cost(params, c1: float, f_d: float, s: float) -> float:
    """Cost borne by one server: computation on its share of traffic plus upkeep."""
    v = expected_participants(params, c1, f_d, s)
    return params.c2 * v * f_d / s + params.c3


def helper_chain_terms(params, c1, f_d, s):
    """`profit_terms` composed from the helpers above: (v, (utility, server
    cost, payments, profit)), the bitwise reference for its straight line."""
    v = expected_participants(params, c1, f_d, s)
    utility = eval_utility(params.utility, v, f_d)
    server = per_server_cost(params, c1, f_d, s)
    if params.server_cost_model == "total_times_s":
        server *= s
    payments = c1 * v * f_d
    return v, (utility, server, payments, utility - server - payments)


def lattice_axes(bounds, resolution):
    """`grid_oracle`'s (c1s, f_ds, ss): c1 log-uniform through libm's exp with
    the endpoints pinned to the bounds, f_d and s uniform."""
    log_c1s = np.linspace(math.log(bounds.c1[0]), math.log(bounds.c1[1]), resolution)
    c1s = [bounds.c1[0], *(math.exp(v) for v in log_c1s[1:-1].tolist()), bounds.c1[1]]
    f_ds = np.linspace(bounds.f_d[0], bounds.f_d[1], resolution).tolist()
    ss = np.linspace(bounds.s[0], bounds.s[1], resolution).tolist()
    return c1s, f_ds, ss


def scalar_lattice(params, c1s, f_ds, ss):
    """`profit` on every cell of c1s x f_ds x ss, one call each, in loop order."""
    return np.array([[[profit(params, c1, f_d, s) for s in ss] for f_d in f_ds] for c1 in c1s])


def scalar_grid_oracle(params, bounds, resolution=41):
    """The lexicographic loop of one `profit` call per lattice cell that
    `grid_oracle` replaced: the reference for its slab-wise argmax."""
    c1s, f_ds, ss = lattice_axes(bounds, resolution)
    best = -math.inf
    best_point = (c1s[0], f_ds[0], ss[0])
    for c1 in c1s:
        for f_d in f_ds:
            for s in ss:
                value = profit(params, c1, f_d, s)
                if value > best:  # lexicographic iteration order breaks exact ties
                    best = value
                    best_point = (c1, f_d, s)
    return _finalize(params, bounds, best_point, resolution**3, True)


def trajectory_times(traj) -> np.ndarray:
    return np.array([s.t for s in traj.samples])


def native_rate(traj) -> float:
    """Samples per minute, estimated from the median inter-sample gap."""
    if len(traj.samples) < 2:
        raise ValueError("native rate undefined for a single-sample trajectory")
    gaps = np.diff(trajectory_times(traj))
    return 1.0 / float(np.median(gaps))


def scalar_subsample(traj, f_d: float) -> tuple:
    """The samples `subsample` keeps, by its greedy rule written as one loop
    over samples that recomputes the next due time at every sample."""
    period = 1.0 / f_d
    t0 = traj.samples[0].t
    kept = []
    n_target = 0
    for s in traj.samples:
        if s.t >= t0 + n_target * period - 1e-9:
            kept.append(s)
            n_target = math.floor((s.t - t0) / period + 1e-9) + 1
    if kept[-1] != traj.samples[-1]:
        kept.append(traj.samples[-1])
    return tuple(kept)


def blocked_diameter(points) -> float:
    """`PlanarPath.diameter` as it was: squares of (rows, n, 2) coordinate
    differences summed over the last axis, 512 rows of the path at a time."""
    pts = np.asarray(points, dtype=np.float64)
    best = 0.0
    for i in range(0, len(pts), 512):
        block = pts[i : i + 512]
        d2 = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


def scalar_projection(traj, origin) -> np.ndarray:
    """The per-sample equirectangular formula `project_planar` evaluates over
    arrays: Python floats, cos0 from libm, each product left to right."""
    lat0, lon0 = origin
    scale = 6371000.0 * math.pi / 180.0
    cos0 = math.cos(math.radians(lat0))
    return np.array([((s.lon - lon0) * scale * cos0, (s.lat - lat0) * scale) for s in traj.samples])


def cell_of(spec, lat: float, lon: float) -> tuple[int, int] | None:
    """Cell indices for a location, or None when it falls outside the bbox."""
    lat_min, lat_max, lon_min, lon_max = spec.bbox
    if not (lat_min <= lat <= lat_max and lon_min <= lon <= lon_max):
        return None
    m_lat, m_lon = spec._meters_per_deg
    nx, ny = spec.n_cells
    cx = min(int((lon - lon_min) * m_lon // spec.cell_size), nx - 1)
    cy = min(int((lat - lat_min) * m_lat // spec.cell_size), ny - 1)
    return cx, cy


def time_index(spec, t: float) -> int:
    return int(math.floor(t / spec.time_bin))


def map_total(stmap) -> int:
    """Sum of a SpatioTemporalMap's cell counts."""
    return sum(stmap.counts.values())


def scalar_build_map(trajs, spec, count_mode="vehicles"):
    """The per-sample loop `build_map` replaced: ({key: count}, dropped), the
    bitwise reference for its array form."""
    dropped = 0
    seen = {}
    for traj in trajs:
        for s in traj.samples:
            cell = cell_of(spec, s.lat, s.lon)
            if cell is None:
                dropped += 1
                continue
            key = (cell[0], cell[1], time_index(spec, s.t))
            if count_mode == "samples":
                seen[key] = seen.get(key, 0) + 1
            else:
                seen.setdefault(key, set()).add(traj.vehicle_id)
    if count_mode == "vehicles":
        seen = {k: len(v) for k, v in seen.items()}
    return seen, dropped


def regrouped_partial_maps(trajs, f_d, s, seed, spec, count_mode="vehicles"):
    """The aggregation round `simulate` ran before `smpc._route`: route samples
    into inboxes, regroup each inbox by vehicle into fresh trajectories and
    grid those, one partial map per server."""
    partials = []
    for inbox in route_samples(trajs, f_d, s, seed):
        # route_samples keeps each vehicle's samples contiguous and in time order.
        mini = [
            Trajectory(vid, tuple(sample for _, sample in group))
            for vid, group in groupby(inbox.received, key=itemgetter(0))
        ]
        partials.append(build_map(mini, spec, count_mode=count_mode))
    return partials


def per_seed_privacy_curve(trajs, f_d_values, s_values, n_compromised=1, seeds=(0,)):
    """`empirical_privacy_curve` one capture at a time: every (s, seed) draws
    its servers one vehicle at a time from the seed's generator, projects
    each vehicle's captured samples about its full path's centroid, and
    scores them with `path_similarity`; a capture of fewer than 2 samples
    scores 0."""
    fulls = _full_paths(trajs)
    points = []
    for f_d in f_d_values:
        kept = [subsample(traj, f_d) for traj in trajs]
        for s in s_values:
            sims = []
            for seed in seeds:
                rng = np.random.default_rng(np.random.SeedSequence([seed]))
                draws = [rng.integers(0, s, size=len(sub)) for sub in kept]
                for sub, full, servers in zip(kept, fulls, draws):
                    samples = tuple(compress(sub.samples, (servers < n_compromised).tolist()))
                    if len(samples) < 2:
                        sims.append(0.0)
                        continue
                    path = project_planar(Trajectory(sub.vehicle_id, samples), origin=full.origin)
                    sims.append(path_similarity(full.path, path, full.diameter))
            points.append((float(f_d), int(s), math.fsum(sims) / len(sims)))
    return points


def loop_utility_surface(
    trajs, spec, vehicle_counts, freqs, a=100.0, seed=0, average_over="ever_occupied",
    count_mode="vehicles",
):
    """`build_utility_surface`'s points by the loop it replaced: every point
    draws its sub-fleet, subsamples each drawn vehicle (once per frequency)
    and grids the subsampled trajectories with `build_map`."""
    trajs = list(trajs)
    full_map = build_map(trajs, spec, count_mode=count_mode)
    ever_occupied = full_map.occupied_cells()
    if average_over == "all":
        nx, ny = spec.n_cells
        t_bins = {k[2] for k in ever_occupied}
        n_time = (max(t_bins) - min(t_bins) + 1) if t_bins else 1
        denom_all = nx * ny * n_time

    kept = {}  # (i, f) -> subsample, made on first use
    points = []
    point_idx = 0
    for count in vehicle_counts:
        for f in freqs:
            rng = np.random.default_rng(np.random.SeedSequence([seed, point_idx]))
            point_idx += 1
            if count == 0:
                points.append((float(count), float(f), 0.0))
                continue
            chosen = sorted(rng.choice(len(trajs), size=count, replace=False))
            for i in chosen:
                if (i, f) not in kept:
                    kept[i, f] = subsample(trajs[i], f)
            m = build_map([kept[i, f] for i in chosen], spec, count_mode=count_mode)
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
    return tuple(points)
