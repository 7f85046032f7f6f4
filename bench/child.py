"""One benchmark step in a fresh interpreter, the way a user runs `vanetmarket <cmd>`.

    python3 child.py --result R.json [--spans S.npz --pass-id N] cli -- <argv...>
    python3 child.py --result R.json [--spans S.npz --pass-id N] aggregate TRACES OUT_DIR SEED SERVERS

Times `import vanetmarket.cli` (set-up) apart from the step itself, and
writes both, the exit code, this process's peak RSS and the Fréchet backend
to the result file. With --spans, the public functions of every package
module are wrapped from outside after the import, and their spans are
written to that file when the step ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

T_START = time.perf_counter()
import vanetmarket.cli as vcli  # noqa: E402  (the timed set-up)

IMPORT_S = time.perf_counter() - T_START

from tracer import Tracer  # noqa: E402


def _run_cli(argv: list[str], tracer: Tracer | None) -> int:
    command = next((a for a in argv if not a.startswith("-")), "unknown")
    try:
        if tracer is None:
            return vcli.main(argv)
        return tracer.call(f"cli.{command}", vcli.main, argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1


def _run_aggregate(traces: str, seed: int, servers: int):
    """One routed secure-aggregation round through public functions only:
    parse -> route at the native rate -> per-server gridding -> aggregate."""
    from vanetmarket.config import RunConfig
    from vanetmarket.smpc import aggregate_secure, route_samples
    from vanetmarket.trajectories import Trajectory, build_map, parse_traces

    config = RunConfig()
    with open(traces, "rb") as fh:
        trajs = parse_traces(fh)
    inboxes = route_samples(trajs, 1.0, servers, seed)
    spec = config.grid_spec()
    partials = []
    for inbox in inboxes:
        per_vehicle: dict[str, list] = {}
        for vid, sample in inbox.received:
            per_vehicle.setdefault(vid, []).append(sample)
        mini = [
            Trajectory(vid, tuple(sorted(samples, key=lambda g: g.t)))
            for vid, samples in per_vehicle.items()
        ]
        partials.append(build_map(mini, spec, count_mode=config.count_mode))
    transcript = aggregate_secure(partials, seed=seed)
    return trajs, inboxes, partials, transcript


def _aggregate_evidence(trajs, inboxes, partials, transcript) -> dict:
    """What the output check needs: the partial maps and the aggregate."""
    return {
        "n_vehicles": len(trajs),
        "n_routed": sum(len(i.received) for i in inboxes),
        "n_servers": len(transcript.share_matrix),
        "n_cells": len(transcript.cells),
        "partials": [[[*k, v] for k, v in p.counts.items()] for p in partials],
        "reconstructed": [[*k, v] for k, v in transcript.reconstructed.counts.items()],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="trace the step and write its spans here")
    ap.add_argument("--pass-id", type=int, default=0)
    sub = ap.add_subparsers(dest="kind", required=True)
    p = sub.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("aggregate")
    p.add_argument("traces")
    p.add_argument("out_dir")
    p.add_argument("seed", type=int)
    p.add_argument("servers", type=int)
    args = ap.parse_args()

    tracer = Tracer(args.pass_id) if args.spans else None
    if tracer is not None:
        tracer.install()

    aggregated = None
    t0 = time.perf_counter()
    try:
        if args.kind == "cli":
            argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
            rc = _run_cli(argv, tracer)
        else:
            aggregated = _run_aggregate(args.traces, args.seed, args.servers)
            rc = 0
    except Exception:  # a crash is a failed step, reported like a non-zero exit
        traceback.print_exc()
        rc = 99
    run_s = time.perf_counter() - t0

    if tracer is not None:
        tracer.save(args.spans)
    if aggregated is not None:
        with open(f"{args.out_dir}/aggregate_evidence.json", "w", encoding="utf-8") as fh:
            json.dump(_aggregate_evidence(*aggregated), fh)

    from vanetmarket import privacy

    result = {
        "rc": rc,
        "import_s": IMPORT_S,
        "run_s": run_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "frechet_backend": "python" if privacy._dfd_kernel is privacy._dfd_core else "numba",
        "module_file": vcli.__file__,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
