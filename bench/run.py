"""vanetmarket benchmark runner.

    python3 bench/run.py --workload {market,reconstruct,collect} --seed N --seconds S --trace {0,1}

Runs the workload's steps as passes, each step a fresh interpreter running
`vanetmarket <cmd>` (see child.py), one child at a time, checks every output
(checks.py), and makes as many passes as fill --seconds. Prints a metric
table and, as the last line of stdout, one JSON object:

  --trace 0: wall_s, setup_s, peak_rss_mb, ok_rate (end to end, untraced passes)
  --trace 1: per-module metrics from traced passes, plus trace.overhead_s

Inputs come from --seed only (tracegen.py). Outputs, spans and a run record
go to .bench_work/ in the repository root. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

STEP_TIMEOUT_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Workload sizes. `tiny` exists for the benchmark's own smoke test.
SIZES = {
    "full": {
        "n_starts_flags": [],
        "grid_flags": [],
        "sweep_values": [0.3, 0.5, 0.8],
        "reconstruct_fleet": (40, 120),  # vehicles, one-minute samples per vehicle
        "sim_config": {"sim_s_values": [1, 2, 4, 8], "sim_trials": 2},
        "collect_fleet": (600, 120),
        "servers": 16,
    },
    "tiny": {
        "n_starts_flags": ["--n-starts", "2"],
        "grid_flags": ["--grid-resolution", "9"],
        "sweep_values": [0.5],
        "reconstruct_fleet": (8, 60),
        "sim_config": {"sim_s_values": [1, 2], "sim_trials": 1},
        "collect_fleet": (30, 40),
        "servers": 4,
    },
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio"}

COMMANDS = ("ingest", "calibrate-loss", "calibrate-utility", "optimize", "sweep", "simulate")

# Per-layer metric units. Most are span stats named `<module>.<function>.<stat>`.
PER_LAYER_UNITS = {
    **{f"cli.{c}.s": "s" for c in COMMANDS},
    **{f"cli.{c}.bytes_out": "B" for c in COMMANDS},
    "econ.profit.calls": "count",
    "econ.profit.s": "s",
    "optimize.optimize_profit.s": "s",
    "optimize.nelder_mead.calls": "count",
    "optimize.nelder_mead.self_s": "s",
    "optimize.grid_oracle.s": "s",
    "optimize.grid_oracle.self_s": "s",
    "optimize.sweep.s": "s",
    "optimize.nfev": "count",
    "privacy.discrete_frechet.calls": "count",
    "privacy.discrete_frechet.cells": "count",
    "privacy.discrete_frechet.s": "s",
    "privacy.discrete_frechet.cells_per_s": "1/s",
    "privacy.path_similarity.self_s": "s",
    "privacy.mean_similarity_by_frequency.s": "s",
    "trajectories.PlanarPath.diameter.calls": "count",
    "trajectories.PlanarPath.diameter.s": "s",
    "trajectories.parse_traces.s": "s",
    "trajectories.build_map.calls": "count",
    "trajectories.build_map.s": "s",
    "trajectories.subsample.calls": "count",
    "trajectories.subsample.s": "s",
    "trajectories.project_planar.calls": "count",
    "trajectories.project_planar.s": "s",
    "smpc.route_samples.s": "s",
    "smpc.adversary_reconstruct.self_s": "s",
    "smpc.empirical_privacy_curve.s": "s",
    "smpc.aggregate_secure.s": "s",
    "smpc.aggregate_secure.shares": "count",
    "smpc.secret_share.calls": "count",
    "utility.build_utility_surface.self_s": "s",
    "utility.grid_utility.calls": "count",
    "utility.fit_utility.s": "s",
    "fitting.fit_least_squares.calls": "count",
    "fitting.fit_least_squares.s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Step:
    name: str  # also the output directory
    child_args: list[str]  # after child.py's own options
    check: Callable[[str], list[str]]
    command: str | None = None  # CLI command, for cli.<command>.* metrics


@dataclass
class StepResult:
    step: Step
    ok: bool
    problems: list[str]
    import_s: float = 0.0
    run_s: float = 0.0
    maxrss_kb: int = 0
    bytes_out: int = 0
    nfev: int = 0
    spans: str | None = None
    info: dict = field(default_factory=dict)


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a failed step): exit without a result."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def child_env(nproc: int) -> dict[str, str]:
    """The caller's environment with src/ first on PYTHONPATH and numeric
    thread pools capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            env[var] = str(nproc)
    return env


def build_steps(workload: str, seed: int, size: str, run_dir: Path) -> tuple[list[Step], dict]:
    """The workload's steps and a description of its inputs. Generates the
    trace file for the trace workloads."""
    import checks
    import tracegen

    sz = SIZES[size]

    def cli(name: str, command: str, *args: str) -> list[str]:
        return ["cli", "--", command, *args, "--out", str(run_dir / name)]

    if workload == "market":
        values = sz["sweep_values"]
        flags = sz["n_starts_flags"] + sz["grid_flags"]
        # The optimizer's root seed stays 0: on seeds 0-5 its evaluation count
        # ranges 2-4x, which would swamp any timing. There is no trace input.
        steps = [
            Step("opt_cdf", cli("opt_cdf", "optimize", "--certify", "--seed", "0", *flags),
                 lambda d: checks.check_optimize(d, "cdf"), "optimize"),
            Step("opt_pdf", cli("opt_pdf", "optimize", "--certify", "--seed", "0",
                                "--mode-participation", "pdf", "--mode-cost", "times-s", *flags),
                 lambda d: checks.check_optimize(d, "pdf"), "optimize"),
            Step("sweep", cli("sweep", "sweep", "--param", "sigma", "--seed", "0",
                              "--values", ",".join(str(v) for v in values),
                              *sz["n_starts_flags"]),
                 lambda d: checks.check_sweep(d, values), "sweep"),
        ]
        return steps, {"inputs": "none (default market constants)"}

    traces = run_dir / "traces.csv"
    if workload == "reconstruct":
        n_vehicles, n_samples = sz["reconstruct_fleet"]
    elif workload == "collect":
        n_vehicles, n_samples = sz["collect_fleet"]
    else:
        raise BenchError(f"unknown workload {workload!r}")
    total = tracegen.write_traces(str(traces), seed, n_vehicles, n_samples)
    inputs = {"vehicles": n_vehicles, "samples_per_vehicle": n_samples, "samples": total}

    if workload == "reconstruct":
        config = run_dir / "sim_config.json"
        config.write_text(json.dumps(sz["sim_config"]), encoding="utf-8")
        n_s = len(sz["sim_config"]["sim_s_values"])
        inputs["simulate_config"] = sz["sim_config"]
        steps = [
            Step("calib", cli("calib", "calibrate-loss", "--traces", str(traces),
                              "--seed", str(seed)),
                 lambda d: checks.check_calibrate_loss(d, size), "calibrate-loss"),
            Step("sim", cli("sim", "simulate", "--traces", str(traces), "--config", str(config),
                            "--seed", str(seed)),
                 lambda d: checks.check_simulate(d, n_vehicles, n_s), "simulate"),
        ]
        return steps, inputs

    servers = sz["servers"]
    inputs["servers"] = servers
    steps = [
        Step("ingest", cli("ingest", "ingest", "--traces", str(traces)),
             lambda d: checks.check_ingest(d, n_vehicles, total), "ingest"),
        Step("usurf", cli("usurf", "calibrate-utility", "--traces", str(traces),
                          "--seed", str(seed)),
             checks.check_utility, "calibrate-utility"),
        Step("aggregate", ["aggregate", str(traces), str(run_dir / "aggregate"), str(seed),
                           str(servers)],
             lambda d: checks.check_aggregate(d, n_vehicles, total, servers)),
    ]
    return steps, inputs


def run_step(step: Step, run_dir: Path, pass_id: int, traced: bool, env: dict) -> StepResult:
    import checks

    out_dir = run_dir / step.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result_path = run_dir / f"{step.name}.result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result_path),
           "--pass-id", str(pass_id)]
    spans = None
    if traced:
        spans = str(run_dir / f"spans-p{pass_id}-{step.name}.npz")
        cmd += ["--spans", spans]
    cmd += step.child_args
    with open(run_dir / f"{step.name}.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                  cwd=str(run_dir), timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return StepResult(step, False, [f"timed out after {STEP_TIMEOUT_S} s"])
    if proc.returncode != 0 or not result_path.exists():
        return StepResult(step, False, [f"child exited with {proc.returncode}"])
    info = json.loads(result_path.read_text(encoding="utf-8"))
    if Path(info["module_file"]).resolve().parent != SRC / "vanetmarket":
        raise BenchError(f"child imported vanetmarket from {info['module_file']}, not {SRC}")
    res = StepResult(step, False, [], info["import_s"], info["run_s"], info["maxrss_kb"],
                     spans=spans, info=info)
    if info["rc"] != 0:
        res.problems.append(f"exit code {info['rc']}")
        return res
    try:
        res.problems = step.check(str(out_dir))
        if step.command in ("optimize", "sweep"):
            res.nfev = checks.optimizer_evaluations(str(out_dir))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        res.problems.append(f"output unreadable: {exc!r}")
    res.ok = not res.problems
    res.bytes_out = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    return res


def run_pass(steps: list[Step], run_dir: Path, pass_id: int, traced: bool, env: dict) -> list[StepResult]:
    results = []
    for step in steps:
        res = run_step(step, run_dir, pass_id, traced, env)
        for problem in res.problems:
            print(f"FAIL pass {pass_id} {step.name}: {problem}", file=sys.stderr)
        results.append(res)
    return results


def wall_s(results: list[StepResult]) -> float:
    """Sum of the steps' run time inside the child, after import."""
    return sum(r.run_s for r in results)


def end_to_end(passes: list[list[StepResult]]) -> dict[str, float]:
    """wall_s and peak_rss_mb are medians over passes; setup_s is the median
    import time over every child of every pass. A step that failed to report
    counts as 0 s here and is flagged by ok_rate."""
    attempted = sum(len(p) for p in passes)
    failed = sum(not r.ok for p in passes for r in p)
    return {
        "wall_s": statistics.median(wall_s(p) for p in passes),
        "setup_s": statistics.median([r.import_s for p in passes for r in p if r.info] or [0.0]),
        "peak_rss_mb": statistics.median(max(r.maxrss_kb for r in p) / 1024.0 for p in passes),
        "ok_rate": 1.0 - failed / attempted,
    }


def per_layer(passes: list[list[StepResult]]) -> dict[str, float]:
    """Per-module metrics of each traced pass, then the median over passes."""
    from tracer import span_stats

    per_pass = []
    for results in passes:
        stats: dict[str, dict[str, float]] = {}
        for r in results:
            if r.spans is None or not os.path.exists(r.spans):
                continue
            for name, st in span_stats(r.spans).items():
                acc = stats.setdefault(name, {})
                for key, value in st.items():
                    acc[key] = acc.get(key, 0) + value
        values = {}
        for metric in PER_LAYER_UNITS:
            fn, _, stat = metric.rpartition(".")
            values[metric] = stats.get(fn, {}).get(stat, 0)
        for c in COMMANDS:
            values[f"cli.{c}.bytes_out"] = sum(
                r.bytes_out for r in results if r.step.command == c
            )
        values["optimize.nfev"] = sum(r.nfev for r in results)
        frechet = stats.get("privacy.discrete_frechet", {})
        values["privacy.discrete_frechet.cells_per_s"] = (
            frechet["cells"] / frechet["s"] if frechet.get("s") else 0.0
        )
        per_pass.append(values)
    return {m: statistics.median(v[m] for v in per_pass) for m in per_pass[0]}


def run_metadata(nproc: int, env: dict, backends: set[str]) -> dict:
    import numpy
    import scipy

    return {
        "frechet_backend": sorted(backends),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: env[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    if not (SRC / "vanetmarket" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC}/vanetmarket")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    nproc = _nproc()
    env = child_env(nproc)
    os.environ.update({var: env[var] for var in THREAD_VARS})  # before numpy loads here

    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    steps, inputs = build_steps(workload, seed, size, run_dir)

    untraced: list[list[StepResult]] = []
    traced: list[list[StepResult]] = []

    def fill(passes: list[list[StepResult]], is_traced: bool, budget: float) -> None:
        """Passes of one kind, one after another: the first sets how many fill
        `budget` seconds, to the nearest whole pass."""
        t_first = time.perf_counter()
        while True:
            passes.append(run_pass(steps, run_dir, len(untraced) + len(traced), is_traced, env))
            if len(passes) == 1:
                n_passes = max(1, round(budget / (time.perf_counter() - t_first)))
            if len(passes) >= n_passes:
                return

    t0 = time.perf_counter()
    if trace:  # one untraced pass for trace.overhead_s, then traced ones
        untraced.append(run_pass(steps, run_dir, 0, False, env))
        fill(traced, True, seconds - (time.perf_counter() - t0))
    else:
        fill(untraced, False, seconds)

    all_passes = untraced + traced
    attempted = sum(len(p) for p in all_passes)
    failed = sum(not r.ok for p in all_passes for r in p)
    e2e = end_to_end(untraced)
    if trace:
        metrics = per_layer(traced)
        metrics["trace.overhead_s"] = (
            statistics.median(wall_s(p) for p in traced) - e2e["wall_s"]
        )
        units = PER_LAYER_UNITS
    else:
        metrics, units = e2e, END_TO_END_UNITS
    backends = {r.info["frechet_backend"] for p in all_passes for r in p if r.info}
    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "inputs": inputs,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "meta": run_metadata(nproc, env, backends),
        "fail_rate": failed / attempted,
        "end_to_end": e2e,
        "steps": [
            {"pass": i, "step": r.step.name, "ok": r.ok, "problems": r.problems,
             "import_s": r.import_s, "run_s": r.run_s, "maxrss_kb": r.maxrss_kb,
             "bytes_out": r.bytes_out}
            for i, p in enumerate(all_passes) for r in p
        ],
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
        },
    }
    (run_dir / "run.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("market", "reconstruct", "collect"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    result = record["result"]
    print(f"# workload={record['workload']} seed={record['seed']} inputs={json.dumps(record['inputs'])}")
    print(f"# passes={json.dumps(record['passes'])} meta={json.dumps(record['meta'])}")
    print(f"fail_rate {record['fail_rate']:.6g} ratio ({result['failed']}/{result['attempted']} steps)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
