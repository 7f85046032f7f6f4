"""Simulated distributed collection: random vehicle-to-server routing, additive
secret sharing over a prime field, aggregation into a central map, and the
adversary's path-reconstruction experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .privacy import _FullPath, _full_paths, path_similarity
from .trajectories import (
    GeoSample,
    PlanarPath,
    SpatioTemporalMap,
    Trajectory,
    project_planar,
    subsample,
)

FIELD_PRIME = 2**61 - 1  # Mersenne prime; counts stay far below it

FieldElement = int  # integer in [0, FIELD_PRIME)

_PRIME = np.uint64(FIELD_PRIME)


def _check_field(x: int) -> int:
    if not (0 <= x < FIELD_PRIME):
        raise ValueError(f"field element {x} outside [0, {FIELD_PRIME})")
    return x


def _field_sum(rows: np.ndarray) -> np.ndarray:
    """Column sums mod FIELD_PRIME of a uint64 array of field elements, reduced
    after every add: 8 or more unreduced elements below 2**61 overflow uint64."""
    total = np.zeros(rows.shape[1], dtype=np.uint64)
    for row in rows:
        total = (total + row) % _PRIME
    return total


@dataclass
class ServerInbox:
    """Samples one server received, as (vehicle_id, sample) in arrival order."""

    server_id: int
    received: list[tuple[str, GeoSample]] = field(default_factory=list)


def route_samples(
    trajs: Sequence[Trajectory], f_d: float, s: int, seed: int
) -> list[ServerInbox]:
    """Subsample each trajectory at f_d and send every retained sample to an
    independently, uniformly chosen server. Deterministic per seed.

    Each inbox receives the trajectories in input order, with each vehicle's
    samples contiguous and in time order.
    """
    if s < 1:
        raise ValueError(f"server count must be >= 1, got {s}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    inboxes = [ServerInbox(i) for i in range(s)]
    for traj in trajs:
        kept = subsample(traj, f_d)
        picks = rng.integers(0, s, size=len(kept))
        for sample, pick in zip(kept.samples, picks):
            inboxes[int(pick)].received.append((traj.vehicle_id, sample))
    return inboxes


def secret_share(
    x: FieldElement, n: int, seed: int | np.random.Generator = 0
) -> list[FieldElement]:
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

    share_matrix[i][j] is the vector of shares server i sent to server j,
    one entry per cell in `cells`.
    """

    cells: tuple[tuple[int, int, int], ...]
    share_matrix: list[list[list[FieldElement]]]
    per_server_sums: list[list[FieldElement]]
    reconstructed: SpatioTemporalMap

    def to_json_dict(self, keep_shares: bool = False, share_limit: int = 10000) -> dict:
        n_shares = len(self.share_matrix) ** 2 * len(self.cells)
        elide = not keep_shares and n_shares > share_limit
        return {
            "n_servers": len(self.share_matrix),
            "cells": [list(c) for c in self.cells],
            "share_matrix": None if elide else self.share_matrix,
            "shares_elided": elide,
            "per_server_sums": self.per_server_sums,
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
    share_matrix = []
    sums = np.zeros((s, len(cells)), dtype=np.uint64)
    for partial in partials:
        x = [partial.counts.get(cell, 0) for cell in cells]
        if x:
            _check_field(min(x))
            _check_field(max(x))
        heads = rng.integers(0, FIELD_PRIME, size=(len(cells), s - 1), dtype=np.int64)
        shares = np.empty((s, len(cells)), dtype=np.uint64)
        shares[:-1] = heads.T
        shares[-1] = (np.array(x, dtype=np.uint64) + (_PRIME - _field_sum(shares[:-1]))) % _PRIME
        sums = (sums + shares) % _PRIME
        share_matrix.append(shares.tolist())

    per_server_sums = sums.tolist()
    totals = _field_sum(sums).tolist()
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


def _reconstruct(
    inboxes: Sequence[ServerInbox],
    compromised: Iterable[int],
    trajs: Sequence[Trajectory],
    fulls: Sequence[_FullPath],
) -> dict[str, VehicleReconstruction]:
    """adversary_reconstruct against precomputed full paths (one per trajectory)."""
    compromised = sorted(set(compromised))
    if not compromised:
        raise ValueError("no adversary: the compromised server set is empty")
    for sid in compromised:
        if not (0 <= sid < len(inboxes)):
            raise ValueError(f"compromised server {sid} does not exist")

    captured: dict[str, list[GeoSample]] = {}
    for sid in compromised:
        for vid, sample in inboxes[sid].received:
            captured.setdefault(vid, []).append(sample)

    results: dict[str, VehicleReconstruction] = {}
    for traj, full in zip(trajs, fulls):
        samples = sorted(captured.get(traj.vehicle_id, []), key=lambda g: g.t)
        if not samples:
            results[traj.vehicle_id] = VehicleReconstruction(None, 0.0)
            continue
        reconstructed = project_planar(
            Trajectory(traj.vehicle_id, tuple(samples)), origin=full.origin
        )
        score = (
            path_similarity(full.path, reconstructed, full.diameter)
            if len(samples) >= 2
            else 0.0
        )
        results[traj.vehicle_id] = VehicleReconstruction(reconstructed, score)
    return results


def adversary_reconstruct(
    inboxes: Sequence[ServerInbox],
    compromised: Iterable[int],
    trajs: Sequence[Trajectory],
) -> dict[str, VehicleReconstruction]:
    """Reconstruct each vehicle's path from the samples that reached the
    compromised servers (any collection of server ids); routing assignments are
    assumed known.

    Pools captured samples per vehicle, orders them by time, and scores the
    resulting polyline against the vehicle's full path. Vehicles with fewer
    than 2 captured samples score 0.
    """
    return _reconstruct(inboxes, compromised, trajs, _full_paths(trajs))


class CurvePoint(NamedTuple):
    f_d: float
    s: int
    mean_similarity: float


def empirical_privacy_curve(
    trajs: Sequence[Trajectory],
    f_d_values: Sequence[float],
    s_values: Sequence[int],
    n_compromised: int = 1,
    seeds: Sequence[int] = (0,),
) -> list[CurvePoint]:
    """Monte Carlo mean adversary similarity per (f_d, s) with the first
    `n_compromised` servers compromised."""
    if not f_d_values or not s_values:
        raise ValueError("f_d_values and s_values must be nonempty")
    if not seeds:
        raise ValueError("need at least one seed")
    # Each vehicle's full path and diameter are the same for every (f_d, s, seed).
    fulls = _full_paths(trajs)
    points = []
    for f_d in f_d_values:
        for s in s_values:
            if n_compromised < 1 or n_compromised > s:
                raise ValueError(
                    f"n_compromised={n_compromised} invalid for s={s} servers"
                )
            sims: list[float] = []
            for seed in seeds:
                inboxes = route_samples(trajs, f_d, s, seed)
                recon = _reconstruct(inboxes, range(n_compromised), trajs, fulls)
                sims.extend(r.similarity for r in recon.values())
            points.append(CurvePoint(float(f_d), int(s), math.fsum(sims) / len(sims)))
    return points


def write_privacy_curve_csv(
    points: Sequence[CurvePoint], per_server_k: float, fileobj
) -> None:
    """Plot-ready comparison of the empirical curve to 1 - exp(-k * f_d/s)."""
    fileobj.write("f_d,s,mean_similarity,model_prediction\n")
    for pt in points:
        prediction = 1.0 - math.exp(-per_server_k * pt.f_d / pt.s)
        fileobj.write(f"{pt.f_d},{pt.s},{pt.mean_similarity},{prediction}\n")
