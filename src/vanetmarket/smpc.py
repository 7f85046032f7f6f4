"""Simulated distributed collection: random vehicle-to-server routing, additive
secret sharing over a prime field, aggregation into a central map, and the
adversary's path-reconstruction experiment."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .privacy import _frechet_rows, _full_paths, _similarity, path_similarity
from .trajectories import GeoSample, PlanarPath, SpatioTemporalMap, Trajectory, _check_distinct
from .trajectories import _Fleet, project_planar, subsample

FIELD_PRIME = 2**61 - 1  # Mersenne prime; counts stay far below it

_PRIME = np.uint64(FIELD_PRIME)


def _check_field(x: int) -> None:
    if not (0 <= x < FIELD_PRIME):
        raise ValueError(f"field element {x} outside [0, {FIELD_PRIME})")


def _field_sum(rows: np.ndarray) -> np.ndarray:
    """Sum along the first axis mod FIELD_PRIME of uint64 field elements, reduced
    after every add: 8 or more unreduced elements below 2**61 overflow uint64."""
    total = np.zeros(rows.shape[1:], dtype=np.uint64)
    for row in rows:
        total = (total + row) % _PRIME
    return total


@dataclass
class ServerInbox:
    """Samples one server received, as (vehicle_id, sample) in arrival order."""

    server_id: int
    received: list[tuple[str, GeoSample]] = field(default_factory=list)


def _check_server_count(s: int) -> None:
    """A server count is an integer, as `operator.index` takes one, of at least 1."""
    try:
        operator.index(s)
    except TypeError:
        raise ValueError(f"server count must be an integer, got {s!r}") from None
    if s < 1:
        raise ValueError(f"server count must be >= 1, got {s}")


def _draw_servers(n: int, s: int, seed: int) -> np.ndarray:
    """The server each of n kept samples goes to, in input order: uniform over
    s servers, from the seed's generator, in one call. numpy draws the same
    stream when that call is split into one per vehicle (a test pins this),
    so it is the per-vehicle draw of `route_samples`' documented routing."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return rng.integers(0, s, size=n)


def route_samples(
    trajs: Sequence[Trajectory], f_d: float, s: int, seed: int
) -> list[ServerInbox]:
    """Subsample each trajectory at f_d and send every retained sample to an
    independently, uniformly chosen server. Deterministic per seed.

    Each inbox receives the trajectories in input order, with each vehicle's
    samples contiguous and in time order. A sample carries only its vehicle
    id, so a repeated id is a ValueError that names it, as in `build_map`.
    """
    _check_server_count(s)
    kept = [subsample(traj, f_d) for traj in trajs]
    _check_distinct(sub.vehicle_id for sub in kept)
    inboxes = [ServerInbox(i) for i in range(s)]
    sizes = [len(sub) for sub in kept]
    picks = np.split(_draw_servers(sum(sizes), s, seed), np.cumsum(sizes[:-1]))
    for sub, servers in zip(kept, picks):
        for sample, pick in zip(sub.samples, servers.tolist()):
            inboxes[pick].received.append((sub.vehicle_id, sample))
    return inboxes


def _route(fleet: _Fleet, rows: np.ndarray, s: int, seed: int) -> list[_Fleet]:
    """`route_samples` over a fleet's kept rows (`fleet._kept_rows(f_d)`):
    each server's share of them, as a fleet over the same tracks. The draw is
    `route_samples`' draw, so server i's rows are inbox i's samples."""
    _check_server_count(s)
    servers = _draw_servers(len(rows), s, seed)
    return [fleet._rows(rows[servers == i]) for i in range(s)]


def _is_partition(servers: Sequence[_Fleet], fleet: _Fleet) -> bool:
    """Whether the servers' rows, all together, are the fleet's rows, each
    exactly once: the two multisets of (track, t, lat, lon) rows compared in
    one sorted order."""

    def sorted_rows(parts: Sequence[_Fleet]) -> np.ndarray:
        rows = np.concatenate([
            np.column_stack([np.repeat(np.arange(len(part.ids)), np.diff(part.offsets)), part.txy])
            for part in parts
        ])
        return rows[np.lexsort(rows.T[::-1])]

    return sorted_rows(servers).tobytes() == sorted_rows([fleet]).tobytes()


def secret_share(x: int, n: int, seed: int | np.random.Generator = 0) -> list[int]:
    """Split x into n additive shares summing to x mod FIELD_PRIME.

    The first n-1 shares are uniform field elements, so any strict subset of
    shares carries no information about x.
    """
    if n < 1:
        raise ValueError(f"share count must be >= 1, got {n}")
    _check_field(x)
    if n == 1:
        return [x]
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(
        np.random.SeedSequence([seed])
    )
    head = [int(v) for v in rng.integers(0, FIELD_PRIME, size=n - 1, dtype=np.int64)]
    last = (x - sum(head)) % FIELD_PRIME
    return head + [last]


@dataclass
class AggregationTranscript:
    """Everything the servers exchanged while aggregating, plus the reconstruction.

    share_matrix[i, j] is the uint64 vector of shares server i sent to server j,
    one entry per cell in `cells`; per_server_sums[j] is what server j summed.
    """

    cells: tuple[tuple[int, int, int], ...]
    share_matrix: np.ndarray
    per_server_sums: np.ndarray
    reconstructed: SpatioTemporalMap

    def to_json_dict(self, keep_shares: bool = False, share_limit: int = 10000) -> dict:
        elide = not keep_shares and self.share_matrix.size > share_limit
        return {
            "n_servers": len(self.share_matrix),
            "cells": [list(c) for c in self.cells],
            "share_matrix": None if elide else self.share_matrix.tolist(),
            "shares_elided": elide,
            "per_server_sums": self.per_server_sums.tolist(),
            "reconstructed": self.reconstructed.to_json_dict(),
        }


def aggregate_secure(
    partials: Sequence[SpatioTemporalMap], seed: int = 0
) -> AggregationTranscript:
    """Sum per-server partial maps without any server revealing its own counts.

    Every server splits each of its cell counts into additive shares, one per
    server; each server sums what it received; the central reconstruction sums
    those per-server sums. The result equals the plaintext cell-wise sum.
    """
    if not partials:
        raise ValueError("need at least one partial map")
    spec = partials[0].spec
    for p in partials[1:]:
        if p.spec != spec:
            raise ValueError("partial maps use mismatched grid specs")
    s = len(partials)
    cells = tuple(sorted(set().union(*(p.counts.keys() for p in partials))))
    rng = np.random.default_rng(np.random.SeedSequence([seed]))

    # Server i's shares of cell c are the s-1 heads secret_share would draw
    # for it (one draw over all cells reads the same generator stream) and
    # the last share x - sum(heads) mod P.
    share_matrix = np.empty((s, s, len(cells)), dtype=np.uint64)
    for shares, partial in zip(share_matrix, partials):
        x = [partial.counts.get(cell, 0) for cell in cells]
        if x:
            _check_field(min(x))
            _check_field(max(x))
        heads = rng.integers(0, FIELD_PRIME, size=(len(cells), s - 1), dtype=np.int64)
        shares[:-1] = heads.T
        shares[-1] = (np.array(x, dtype=np.uint64) + (_PRIME - _field_sum(shares[:-1]))) % _PRIME

    per_server_sums = _field_sum(share_matrix)
    totals = _field_sum(per_server_sums).tolist()
    counts = {cell: t for cell, t in zip(cells, totals) if t > 0}
    dropped = sum(p.dropped_outside for p in partials)
    return AggregationTranscript(
        cells=cells,
        share_matrix=share_matrix,
        per_server_sums=per_server_sums,
        reconstructed=SpatioTemporalMap(spec, counts, dropped),
    )


class VehicleReconstruction(NamedTuple):
    path: PlanarPath | None
    similarity: float


def adversary_reconstruct(
    inboxes: Sequence[ServerInbox],
    compromised: Iterable[int],
    trajs: Sequence[Trajectory],
) -> dict[str, VehicleReconstruction]:
    """Reconstruct each vehicle's path from the samples that reached the
    compromised servers (any collection of server ids); routing assignments are
    assumed known.

    Pools captured samples per vehicle id, orders them by time, and scores the
    resulting polyline, projected about the full path's centroid, against the
    full path. Vehicles with fewer than 2 captured samples score 0, and those
    with none have no path.
    """
    compromised = sorted(set(compromised))
    if not compromised:
        raise ValueError("no adversary: the compromised server set is empty")
    for sid in compromised:
        if not (0 <= sid < len(inboxes)):
            raise ValueError(f"compromised server {sid} does not exist")
    fleet = _Fleet.of(trajs)

    captured: dict[str, list[GeoSample]] = {}
    for sid in compromised:
        for vid, sample in inboxes[sid].received:
            captured.setdefault(vid, []).append(sample)

    results: dict[str, VehicleReconstruction] = {}
    for vid, full in zip(fleet.ids, _full_paths(fleet)):
        samples = sorted(captured.get(vid, []), key=lambda g: g.t)
        pooled = Trajectory(vid, tuple(samples)) if samples else None
        path = None if pooled is None else project_planar(pooled, origin=full.origin)
        score = path_similarity(full.path, path, full.diameter) if len(samples) >= 2 else 0.0
        results[vid] = VehicleReconstruction(path, score)
    return results


class CurvePoint(NamedTuple):
    f_d: float
    s: int
    mean_similarity: float


def empirical_privacy_curve(
    trajs: Sequence[Trajectory] | _Fleet,
    f_d_values: Sequence[float],
    s_values: Sequence[int],
    n_compromised: int = 1,
    seeds: Sequence[int] = (0,),
) -> list[CurvePoint]:
    """Monte Carlo mean adversary similarity per (f_d, s) with the first
    `n_compromised` servers compromised, routing with `route_samples`' draw.

    Per f_d, each vehicle's kept samples are the rows of its projected full
    path that `subsample` keeps, and a capture is the rows its compromised
    servers drew, one draw per round for the whole fleet. Captures of fewer
    than 2 samples score 0; all others of one f_d are scored in one
    `_frechet_rows` batch, as rows of the full paths. At s = n_compromised the
    adversary captures every kept sample whatever the seed, so that capture is
    scored once and counted for every seed."""
    fleet = _Fleet.of(trajs)
    if not fleet.ids:
        raise ValueError("need at least one trajectory")
    if not f_d_values or not s_values:
        raise ValueError("f_d_values and s_values must be nonempty")
    if not seeds:
        raise ValueError("need at least one seed")
    for s in s_values:
        _check_server_count(s)
        if n_compromised < 1 or n_compromised > s:
            raise ValueError(f"n_compromised={n_compromised} invalid for s={s} servers")
    # Each vehicle's full path and diameter are the same for every (f_d, s, seed).
    fulls = _full_paths(fleet)
    table = [full.path.points for full in fulls]
    diameters = [full.diameter for full in fulls]
    lengths = np.diff(fleet.offsets)
    points = []
    for f_d in f_d_values:
        rows = fleet._kept_rows(f_d)
        vehicle = np.searchsorted(fleet.offsets, rows, side="right") - 1
        # Per s, each round's capture as a mask over the kept rows.
        rounds = [
            [np.ones(len(rows), dtype=bool)] if s == n_compromised
            else [_draw_servers(len(rows), s, seed) < n_compromised for seed in seeds]
            for s in s_values
        ]
        masks = list(chain.from_iterable(rounds))
        counts = [np.bincount(vehicle[mask], minlength=len(fleet.ids)) for mask in masks]
        scored = np.concatenate([np.flatnonzero(count >= 2) for count in counts])
        captured = [rows[mask & (count >= 2)[vehicle]] for mask, count in zip(masks, counts)]
        dists = iter(_frechet_rows(
            table,
            fleet.offsets[scored],
            lengths[scored],
            np.concatenate(captured),
            np.concatenate([count[count >= 2] for count in counts]),
        ))
        scores = iter([
            [
                _similarity(next(dists), diameter) if n >= 2 else 0.0
                for n, diameter in zip(count.tolist(), diameters)
            ]
            for count in counts
        ])
        for s, captures in zip(s_values, rounds):
            sims = list(chain.from_iterable(next(scores) for _ in captures))
            if s == n_compromised:
                sims *= len(seeds)
            points.append(CurvePoint(float(f_d), int(s), math.fsum(sims) / len(sims)))
    return points

