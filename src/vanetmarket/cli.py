"""Command-line front door: generate or ingest traces, calibrate the loss and
utility models, optimize, sweep, simulate the collection network, and bundle
reports. Every run writes complete artifact files plus a manifest."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import fields
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .econ import profit, profit_terms, validate_params
from .fitting import FitDivergence
from .optimize import SWEEPABLE, NonFiniteObjective, grid_oracle, optimize_profit, sweep
from .privacy import calibrate_per_server_loss
from .smpc import _is_partition, _route, aggregate_secure, empirical_privacy_curve
from .trajectories import _check_count_mode, _Fleet, _read_fleet, build_map, generate_synthetic
from .utility import _check_average_over, build_utility_surface, fit_utility

PARTICIPATION_FLAG = {"cdf": "cdf", "pdf": "pdf_as_written"}
COST_FLAG = {"as-written": "per_server_as_written", "times-s": "total_times_s"}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems are config errors: exit 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}-{os.path.basename(path)}")
    # Mode 0o666 lets the kernel apply the umask, as open() does.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\\n"`, byte
    for byte, raising where it raises (nan, inf, a numpy integer). Given an
    indent, the json module encodes in pure Python, one generator per
    container; joining each container's items is several times faster."""
    return _json_value(obj, "\n") + "\n"


def _json_value(obj, newline: str) -> str:
    """`obj` as `_json_text` writes it, on a line that starts with `newline`
    (a line break and the line's indent). The tests are json's, in its order."""
    if isinstance(obj, str):
        return json.encoder.encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (math.inf, -math.inf):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # Ints, the bulk of every artifact, skip the call (a bool's type is not int).
        items = [int.__repr__(v) if type(v) is int else _json_value(v, inner) for v in obj]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_json_key(k)}: {_json_value(v, inner)}" for k, v in sorted(obj.items())]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_key(key) -> str:
    """A dict key as json writes it: a string, or a scalar's JSON text quoted."""
    if isinstance(key, str):
        return json.encoder.encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_json_value(key, "")}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _csv_text(header: str, rows: Iterable[Sequence], newline: str = "\n") -> str:
    buf = io.StringIO()
    buf.write(header + newline)
    csv.writer(buf, lineterminator=newline).writerows(rows)
    return buf.getvalue()


def _check_each(key: str, values: Sequence, ok: Callable, rule: str) -> None:
    """Reject an empty list, or the first element that breaks the rule, under its config key."""
    if not values:
        raise ValueError(f"{key} must not be empty")
    for i, v in enumerate(values):
        if not ok(v):
            raise ValueError(f"{key}[{i}] must be {rule}, got {v}")


def _check_freqs(key: str, freqs: Sequence[float]) -> None:
    """`_kept_index`'s rule, checked before any input is read."""
    rule = "positive with a finite period 1/f"
    _check_each(key, freqs, lambda f: f > 0 and 0.0 < 1.0 / f < math.inf, rule)


def _synthetic(config: RunConfig) -> list:
    """`generate_synthetic`'s seeded trajectories, their size checked under
    their config keys."""
    n_vehicles, duration = config.synthetic_vehicles, config.synthetic_duration
    if n_vehicles < 1:
        raise ValueError(f"synthetic_vehicles must be >= 1, got {n_vehicles}")
    if duration < 2:
        raise ValueError(f"synthetic_duration must be >= 2 minutes, got {duration}")
    return generate_synthetic(n_vehicles, duration, config.seed, config.bbox)


def _load_fleet(config: RunConfig) -> _Fleet:
    """The input fleet: the trace file, read into columns directly, or the
    seeded synthetic fleet."""
    if config.traces:
        with open(config.traces, "rb") as fh:
            return _read_fleet(fh)
    if config.synthetic:
        return _Fleet.of(_synthetic(config))
    raise ValueError("no input data: pass --traces FILE or --synthetic")


def cmd_gen(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    rows = ((traj.vehicle_id, *sample) for traj in _synthetic(config) for sample in traj.samples)
    return {"traces.csv": _csv_text("vehicle_id,timestamp,lat,lon", rows)}


def cmd_ingest(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    if not config.traces:
        raise ValueError("ingest requires --traces FILE")
    _check_count_mode(config.count_mode)
    spec = config.grid_spec()
    fleet = _load_fleet(config)
    stmap = build_map(fleet, spec, config.count_mode)
    summary = {
        "n_vehicles": len(fleet.ids),
        "n_samples": len(fleet.txy),
        "n_occupied_cells": len(stmap.counts),
        "dropped_outside": stmap.dropped_outside,
    }
    return {
        # CRLF is the csv module's default line end, which map.csv has always had.
        "map.csv": _csv_text(
            "cell_x,cell_y,time_idx,count",
            ((*key, count) for key, count in sorted(stmap.counts.items())),
            newline="\r\n",
        ),
        "map.json": _json_text(stmap.to_json_dict()),
        "ingest_summary.json": _json_text(summary),
    }


def cmd_calibrate_loss(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    _check_freqs("calibration_freqs", config.calibration_freqs)
    report = calibrate_per_server_loss(_load_fleet(config), config.calibration_freqs)
    rows = ((f, sim, report.prediction(f)) for f, sim in report.points)
    return {
        "loss_calibration.json": _json_text(report.to_json_dict()),
        "loss_calibration.csv": _csv_text("f_d,mean_similarity,fitted_prediction", rows),
    }


def cmd_calibrate_utility(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    _check_freqs("surface_freqs", config.surface_freqs)
    counts = config.surface_vehicle_counts
    if counts:  # empty: derived from the fleet size below
        _check_each("surface_vehicle_counts", counts, lambda n: n >= 0, ">= 0")
    _check_count_mode(config.count_mode)
    _check_average_over(config.average_over)
    spec = config.grid_spec()
    fleet = _load_fleet(config)
    if not counts:
        n = len(fleet.ids)
        counts = tuple(sorted({0, n // 4, n // 2, (3 * n) // 4, n}))
    surface = build_utility_surface(
        fleet,
        spec,
        counts,
        config.surface_freqs,
        a=config.econ.utility.a,
        seed=config.seed,
        average_over=config.average_over,
        count_mode=config.count_mode,
    )
    fit = fit_utility(surface)
    return {
        "utility_surface.csv": _csv_text("n_vehicles,f_d,avg_utility", surface.points),
        "utility_fit.json": _json_text(fit.to_json_dict()),
    }


def cmd_optimize(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    # Checked here as well as in grid_oracle, so a bad value fails before the search.
    if args.certify and config.grid_resolution < 2:
        raise ValueError(f"grid_resolution must be >= 2 per axis, got {config.grid_resolution}")
    ref_c1, ref_fd, ref_s = config.reference_point
    # Relative differences divide by each coordinate, and profit needs s >= 1.
    if not (ref_c1 > 0 and ref_fd > 0 and ref_s >= 1):
        raise ValueError(
            f"reference_point must have c1 > 0, f_d > 0 and s >= 1, got {config.reference_point}"
        )
    solution = optimize_profit(config.econ, config.bounds, config.n_starts, config.seed)
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
    points = [(solution.c1_star, solution.f_d_star, solution.s_star), (ref_c1, ref_fd, ref_s)]
    decomposition = ((*point, *profit_terms(config.econ, *point)) for point in points)
    return {
        "solution.json": _json_text(payload),
        "profit_decomposition.csv": _csv_text(
            "c1,f_d,s,utility,server_cost,payments,profit", decomposition
        ),
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
    rows = (
        (value, sol.c1_star, sol.f_d_star, sol.s_star, sol.profit_star)
        for value, sol in zip(result.values, result.solutions)
    )
    return {
        "sweep.csv": _csv_text("param_value,c1,f_d,s,profit", rows),
        "sweep.json": _json_text(result.to_json_dict()),
    }


def cmd_simulate(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    # Checked here as well as in the curve, so a bad value fails before the input is read.
    if config.sim_trials < 1:
        raise ValueError(f"sim_trials must be >= 1, got {config.sim_trials}")
    _check_each("sim_s_values", config.sim_s_values, lambda s: s >= 1, ">= 1")
    s_min = min(config.sim_s_values)
    if not 1 <= config.n_compromised <= s_min:
        raise ValueError(
            f"n_compromised must lie in [1, min(sim_s_values)] = [1, {s_min}],"
            f" got {config.n_compromised}"
        )
    _check_freqs("calibration_freqs", config.calibration_freqs)
    _check_count_mode(config.count_mode)
    spec = config.grid_spec()
    fleet = _load_fleet(config)
    seeds = [config.seed + trial for trial in range(config.sim_trials)]
    curve = empirical_privacy_curve(
        fleet,
        config.calibration_freqs,
        config.sim_s_values,
        n_compromised=config.n_compromised,
        seeds=seeds,
    )
    k = config.econ.loss.k
    curve_rows = ((*pt, 1.0 - math.exp(-k * pt.f_d / pt.s)) for pt in curve)

    # One full routing + secure-aggregation round at the native rate: each
    # server grids the fleet rows the curve's draw sent it.
    s_demo = max(config.sim_s_values)
    kept = fleet._kept_rows(1.0)
    servers = _route(fleet, kept, s_demo, config.seed)
    partials = [build_map(rows, spec, config.count_mode) for rows in servers]
    transcript = aggregate_secure(partials, seed=config.seed)

    summary = {
        "n_vehicles": len(fleet.ids),
        "n_servers": s_demo,
        "n_routed_samples": sum(len(rows.txy) for rows in servers),
        # The servers' rows against the kept rows they were drawn from: this
        # checks the draw's split, not the thinning.
        "routing_partition_ok": _is_partition(servers, fleet._rows(kept)),
        "aggregated_cells": len(transcript.reconstructed.counts),
        "seeds": seeds,
    }
    return {
        "privacy_curve.csv": _csv_text("f_d,s,mean_similarity,model_prediction", curve_rows),
        "transcript.json": _json_text(transcript.to_json_dict(keep_shares=config.keep_shares)),
        "simulation_summary.json": _json_text(summary),
    }


def cmd_report(config: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    manifest_path = os.path.join(config.out_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ValueError(f"no prior run found: {manifest_path} is missing")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["command"] == "report":
        # An earlier report replaced the source run's manifest; its bundle kept it.
        with open(os.path.join(config.out_dir, "report.json"), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)["source_manifest"]
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
    values = tuple(float(v) for v in text.split(","))
    if not all(map(math.isfinite, values)):  # float() reads "nan" and "inf"
        raise ValueError(text)
    return values


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
