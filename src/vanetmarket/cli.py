"""Command-line front door: generate or ingest traces, calibrate the loss and
utility models, optimize, sweep, simulate the collection network, and bundle
reports. Every run writes complete artifact files plus a manifest."""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
from dataclasses import fields
from itertools import groupby
from operator import itemgetter
from typing import Callable

import numpy as np
import scipy

from . import __version__
from .config import RunConfig, load_config
from .econ import profit, profit_terms, validate_params
from .fitting import FitDivergence
from .optimize import SWEEPABLE, NonFiniteObjective, grid_oracle, optimize_profit, sweep
from .privacy import calibrate_per_server_loss
from .smpc import (
    aggregate_secure,
    empirical_privacy_curve,
    route_samples,
    write_privacy_curve_csv,
)
from .trajectories import (
    Trajectory,
    build_map,
    generate_synthetic,
    parse_traces,
    subsample,
)
from .utility import build_utility_surface, fit_utility

PARTICIPATION_FLAG = {"cdf": "cdf", "pdf": "pdf_as_written"}
COST_FLAG = {"as-written": "per_server_as_written", "times-s": "total_times_s"}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems are config errors: exit 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _file_mode() -> int:
    """The mode open() gives a new file: 0o666 under the process umask."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, _file_mode())  # mkstemp creates the file 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_trajectories(config: RunConfig) -> list[Trajectory]:
    if config.traces:
        with open(config.traces, "rb") as fh:
            return parse_traces(fh)
    if config.synthetic:
        return generate_synthetic(
            config.synthetic_vehicles, config.synthetic_duration, config.seed, config.bbox
        )
    raise ValueError("no input data: pass --traces FILE or --synthetic")


def cmd_gen(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    trajs = generate_synthetic(
        config.synthetic_vehicles, config.synthetic_duration, config.seed, config.bbox
    )
    buf = io.StringIO()
    buf.write("vehicle_id,timestamp,lat,lon\n")
    for traj in trajs:
        for s in traj.samples:
            buf.write(f"{traj.vehicle_id},{s.t},{s.lat},{s.lon}\n")
    return {"traces.csv": buf.getvalue()}


def cmd_ingest(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    if not config.traces:
        raise ValueError("ingest requires --traces FILE")
    trajs = _load_trajectories(config)
    stmap = build_map(trajs, config.grid_spec(), count_mode=config.count_mode)
    csv_buf = io.StringIO()
    stmap.write_csv(csv_buf)
    summary = {
        "n_vehicles": len(trajs),
        "n_samples": sum(len(t) for t in trajs),
        "n_occupied_cells": len(stmap.counts),
        "dropped_outside": stmap.dropped_outside,
    }
    return {
        "map.csv": csv_buf.getvalue(),
        "map.json": _json_text(stmap.to_json_dict()),
        "ingest_summary.json": _json_text(summary),
    }


def cmd_calibrate_loss(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    trajs = _load_trajectories(config)
    report = calibrate_per_server_loss(trajs, config.calibration_freqs)
    csv_buf = io.StringIO()
    csv_buf.write("f_d,mean_similarity,fitted_prediction\n")
    for f, sim in report.points:
        csv_buf.write(f"{f},{sim},{report.prediction(f)}\n")
    return {
        "loss_calibration.json": _json_text(report.to_json_dict()),
        "loss_calibration.csv": csv_buf.getvalue(),
    }


def cmd_calibrate_utility(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    trajs = _load_trajectories(config)
    counts = config.surface_vehicle_counts
    if not counts:
        n = len(trajs)
        counts = tuple(sorted({0, n // 4, n // 2, (3 * n) // 4, n}))
    surface = build_utility_surface(
        trajs,
        config.grid_spec(),
        counts,
        config.surface_freqs,
        a=config.econ.utility.a,
        seed=config.seed,
        average_over=config.average_over,
        count_mode=config.count_mode,
    )
    fit = fit_utility(surface)
    csv_buf = io.StringIO()
    surface.write_csv(csv_buf)
    return {
        "utility_surface.csv": csv_buf.getvalue(),
        "utility_fit.json": _json_text(fit.to_json_dict()),
    }


def _decomposition_rows(config: RunConfig, points: list[tuple[float, float, float]]) -> str:
    buf = io.StringIO()
    buf.write("c1,f_d,s,utility,server_cost,payments,profit\n")
    for c1, f_d, s in points:
        terms = profit_terms(config.econ, c1, f_d, s)
        buf.write(
            f"{c1},{f_d},{s},{terms.utility},{terms.server_cost},{terms.payments},{terms.profit}\n"
        )
    return buf.getvalue()


def cmd_optimize(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    solution = optimize_profit(config.econ, config.bounds, config.n_starts, config.seed)
    ref_c1, ref_fd, ref_s = config.reference_point
    ref_profit = profit(config.econ, ref_c1, ref_fd, ref_s)

    def rel(found: float, ref: float) -> float:
        return abs(found - ref) / abs(ref)

    comparison = {
        "reference": {"c1": ref_c1, "f_d": ref_fd, "s": ref_s, "profit": ref_profit},
        "relative_difference": {
            "c1": rel(solution.c1_star, ref_c1),
            "f_d": rel(solution.f_d_star, ref_fd),
            "s": rel(solution.s_star, ref_s),
        },
        "within_25pct": (
            rel(solution.c1_star, ref_c1) <= 0.25
            and rel(solution.f_d_star, ref_fd) <= 0.25
            and rel(solution.s_star, ref_s) <= 0.25
        ),
        "found_dominates_reference": solution.profit_star >= ref_profit,
    }
    payload = {
        "solution": solution.to_json_dict(),
        "reference_comparison": comparison,
        "scale_warnings": validate_params(config.econ, solution.c1_star, solution.s_star),
    }
    if args.certify:
        oracle = grid_oracle(config.econ, config.bounds, config.grid_resolution)
        payload["grid_certificate"] = {
            "resolution": config.grid_resolution,
            "oracle": oracle.to_json_dict(),
            "optimizer_dominates_oracle": solution.profit_star >= oracle.profit_star - 1e-9,
        }
    decomposition = _decomposition_rows(
        config,
        [
            (solution.c1_star, solution.f_d_star, solution.s_star),
            (ref_c1, ref_fd, ref_s),
        ],
    )
    return {
        "solution.json": _json_text(payload),
        "profit_decomposition.csv": decomposition,
    }


def cmd_sweep(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    if not config.sweep_values:
        raise ValueError("sweep requires --values (comma-separated numbers)")
    result = sweep(
        config.econ,
        config.bounds,
        config.sweep_param,
        config.sweep_values,
        config.n_starts,
        config.seed,
    )
    csv_buf = io.StringIO()
    result.write_csv(csv_buf)
    return {"sweep.csv": csv_buf.getvalue(), "sweep.json": _json_text(result.to_json_dict())}


def cmd_simulate(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    trajs = _load_trajectories(config)
    seeds = [config.seed + trial for trial in range(config.sim_trials)]
    curve = empirical_privacy_curve(
        trajs,
        config.calibration_freqs,
        config.sim_s_values,
        n_compromised=config.n_compromised,
        seeds=seeds,
    )
    csv_buf = io.StringIO()
    write_privacy_curve_csv(curve, config.econ.loss.k, csv_buf)

    # One full routing + secure-aggregation round at the native rate.
    s_demo = max(config.sim_s_values)
    inboxes = route_samples(trajs, 1.0, s_demo, config.seed)
    spec = config.grid_spec()
    partials = []
    for inbox in inboxes:
        # route_samples keeps each vehicle's samples contiguous and in time order.
        mini = [
            Trajectory(vid, tuple(sample for _, sample in group))
            for vid, group in groupby(inbox.received, key=itemgetter(0))
        ]
        partials.append(build_map(mini, spec, count_mode=config.count_mode))
    transcript = aggregate_secure(partials, seed=config.seed)

    n_routed = sum(len(i.received) for i in inboxes)
    n_retained = sum(len(subsample(t, 1.0)) for t in trajs)
    summary = {
        "n_vehicles": len(trajs),
        "n_servers": s_demo,
        "n_routed_samples": n_routed,
        "routing_partition_ok": n_routed == n_retained,
        "aggregated_cells": len(transcript.reconstructed.counts),
        "seeds": seeds,
    }
    return {
        "privacy_curve.csv": csv_buf.getvalue(),
        "transcript.json": _json_text(transcript.to_json_dict(keep_shares=config.keep_shares)),
        "simulation_summary.json": _json_text(summary),
    }


def cmd_report(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    manifest_path = os.path.join(config.out_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ValueError(f"no prior run found: {manifest_path} is missing")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    # Decompose with the settings of the run being reported on.
    source = RunConfig.from_json_dict(manifest["config"])

    bundle: dict = {"source_manifest": manifest, "artifacts": {}}
    for name in manifest.get("artifacts", []):
        path = os.path.join(config.out_dir, name)
        if name.endswith(".json") and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                bundle["artifacts"][name] = json.load(fh)

    solution = bundle["artifacts"].get("solution.json", {}).get("solution")
    if solution:
        point = (solution["c1"], solution["f_d"], solution["s"])
    else:
        point = source.reference_point
    terms = profit_terms(source.econ, *point)
    bundle["profit_decomposition"] = dict(zip(("c1", "f_d", "s"), point), **terms._asdict())
    bundle["scale_warnings"] = validate_params(source.econ, point[0], point[2])
    return {"report.json": _json_text(bundle)}


COMMANDS: dict[str, Callable[[RunConfig, argparse.Namespace], dict[str, str]]] = {
    "gen": cmd_gen,
    "ingest": cmd_ingest,
    "calibrate-loss": cmd_calibrate_loss,
    "calibrate-utility": cmd_calibrate_utility,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    """Each flag's dest names the RunConfig field it overrides, except --config,
    --certify and the --mode-* flags."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--seed", type=int, help="root seed for all randomness")
    common.add_argument("--out", dest="out_dir", help="output directory (default: out)")
    common.add_argument("--traces", help="input trace CSV (vehicle_id,timestamp,lat,lon)")
    common.add_argument(
        "--synthetic",
        action="store_true",
        default=None,
        help="use the seeded synthetic fleet instead of traces",
    )
    common.add_argument("--mode-participation", choices=sorted(PARTICIPATION_FLAG))
    common.add_argument("--mode-cost", choices=sorted(COST_FLAG))
    common.add_argument(
        "--keep-shares",
        action="store_true",
        default=None,
        help="retain full share matrices in transcripts",
    )

    parser = _Parser(prog="vanetmarket", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vanetmarket {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="write a synthetic trace CSV")
    p.add_argument("--vehicles", dest="synthetic_vehicles", type=int, help="fleet size")
    p.add_argument("--duration", dest="synthetic_duration", type=int, help="minutes per vehicle")

    sub.add_parser("ingest", parents=[common], help="parse traces and grid them")
    sub.add_parser("calibrate-loss", parents=[common], help="fit the per-server privacy decay")
    sub.add_parser(
        "calibrate-utility", parents=[common], help="measure and fit the consumer utility surface"
    )

    p = sub.add_parser("optimize", parents=[common], help="maximize profit over (c1, f_d, s)")
    p.add_argument("--n-starts", type=int, help="multi-start count")
    p.add_argument(
        "--certify", action="store_true", help="also certify against the brute-force grid"
    )
    p.add_argument("--grid-resolution", type=int, help="grid points per axis for --certify")

    p = sub.add_parser("sweep", parents=[common], help="re-optimize across one parameter")
    p.add_argument("--param", dest="sweep_param", choices=SWEEPABLE)
    p.add_argument(
        "--values", dest="sweep_values", type=float_list, help="comma-separated parameter values"
    )
    p.add_argument("--n-starts", type=int, help="multi-start count")

    p = sub.add_parser("simulate", parents=[common], help="run the routed collection network")
    p.add_argument(
        "--s-values", dest="sim_s_values", type=int_list, help="comma-separated server counts"
    )
    p.add_argument("--trials", dest="sim_trials", type=int, help="Monte Carlo trials per point")
    p.add_argument("--n-compromised", type=int, help="servers the adversary controls")

    sub.add_parser("report", parents=[common], help="bundle the latest run into one JSON")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    config = config.with_overrides(**{f.name: getattr(args, f.name, None) for f in fields(config)})
    if args.mode_participation or args.mode_cost:
        config = config.with_overrides(
            econ=config.econ.with_modes(
                PARTICIPATION_FLAG.get(args.mode_participation),
                COST_FLAG.get(args.mode_cost),
            )
        )
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        artifacts = COMMANDS[args.command](config, args)

        os.makedirs(config.out_dir, exist_ok=True)
        for name, text in artifacts.items():
            _atomic_write(os.path.join(config.out_dir, name), text)
        manifest = {
            "command": args.command,
            "config_hash": config.config_hash(),
            "root_seed": config.seed,
            "config": config.to_json_dict(),
            "versions": {
                "vanetmarket": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "artifacts": sorted(artifacts),
        }
        _atomic_write(os.path.join(config.out_dir, "manifest.json"), _json_text(manifest))
    except (FitDivergence, NonFiniteObjective, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in sorted(artifacts):
        print(os.path.join(config.out_dir, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
