"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 -m pytest bench/test_bench.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that fail_rate is 0 on this code, that a planted wrong answer in a public
function raises it (so the output checks are not vacuous), and that the
benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Installed through sitecustomize in the step children only, replacing the
# function in every vanetmarket module that bound it by name.
PLANT = '''
import sys
if sys.argv and sys.argv[0].endswith("child.py"):
    import importlib
    module = importlib.import_module("vanetmarket.{module}")
    original = getattr(module, "{function}")
    {body}
    for name, mod in list(sys.modules.items()):
        if name.startswith("vanetmarket"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, planted)
'''

PLANTS = {
    "market": ("econ", "profit", "planted = lambda *a, **k: original(*a, **k) - 0.01"),
    "reconstruct": ("privacy", "discrete_frechet", "planted = lambda p, q: 0.0"),
    "collect": (
        "smpc",
        "aggregate_secure",
        "def planted(*a, **k):\n"
        "        t = original(*a, **k)\n"
        "        t.reconstructed.counts.pop(next(iter(t.reconstructed.counts)))\n"
        "        return t",
    ),
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, env: dict | None = None):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def fail_rate(result: dict) -> float:
    return result["failed"] / result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_emitted_with_units_and_no_failures(workload, trace):
    proc, result = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert result["correct"] is True and fail_rate(result) == 0.0
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_answer_raises_fail_rate(workload, tmp_path):
    module, function, body = PLANTS[workload]
    (tmp_path / "sitecustomize.py").write_text(
        PLANT.format(module=module, function=function, body=body), encoding="utf-8"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    proc, result = run_bench(workload, 0, env=env)
    assert result is not None, proc.stderr
    assert proc.returncode != 0
    assert result["correct"] is False and fail_rate(result) > 0.0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, result = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
