"""Spans around the package's public functions, installed from outside the package.

Each wrapped function is replaced in every `vanetmarket` module namespace
that bound it by name (`from .privacy import path_similarity` makes
`smpc.path_similarity` a second binding), so calls through any module are
seen. A span is (name, start, end, parent span); all spans of one child share
its pass id. Spans stay in memory until `save`. The wrapping lasts for the
life of the process, which is one benchmark step.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

MODULES = ("cli", "econ", "optimize", "privacy", "trajectories", "smpc", "utility", "fitting")

# (module, function) pairs that get a span; names are `<module>.<function>`.
TRACED = (
    ("econ", "profit"),
    ("optimize", "optimize_profit"),
    ("optimize", "nelder_mead"),
    ("optimize", "grid_oracle"),
    ("optimize", "sweep"),
    ("privacy", "discrete_frechet"),
    ("privacy", "path_similarity"),
    ("privacy", "mean_similarity_by_frequency"),
    ("trajectories", "parse_traces"),
    ("trajectories", "build_map"),
    ("trajectories", "subsample"),
    ("trajectories", "project_planar"),
    ("smpc", "route_samples"),
    ("smpc", "adversary_reconstruct"),
    ("smpc", "empirical_privacy_curve"),
    ("smpc", "aggregate_secure"),
    ("smpc", "secret_share"),
    ("utility", "build_utility_surface"),
    ("utility", "grid_utility"),
    ("utility", "fit_utility"),
    ("fitting", "fit_least_squares"),
)


def _frechet_cells(args, kwargs, result) -> float:
    """|p|·|q|: DP cells the Fréchet recursion fills (computed from argument sizes)."""
    return float(len(args[0]) * len(args[1]))


def _share_count(args, kwargs, result) -> float:
    """s²·cells: field elements in the aggregation's share matrix."""
    return float(len(result.share_matrix) ** 2 * len(result.cells))


# Operation counts recorded per span, summed per function as `<name>.<key>`.
WORK = {
    "privacy.discrete_frechet": ("cells", _frechet_cells),
    "smpc.aggregate_secure": ("shares", _share_count),
}


class Tracer:
    """Records spans for one child process."""

    def __init__(self, pass_id: int = 0) -> None:
        self.pass_id = pass_id
        self.names: list[str] = []
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_idx.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.work.append(0.0)
        self._stack.append(idx)
        return idx

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        work = WORK.get(name, (None, None))[1]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self._stack.pop()
            if work is not None:
                self.work[idx] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("vanetmarket")
        modules = [package] + [importlib.import_module(f"vanetmarket.{m}") for m in MODULES]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"vanetmarket.{mod_name}"], fn_name)
            wrapped = self._wrap(original, f"{mod_name}.{fn_name}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        trajectories = sys.modules["vanetmarket.trajectories"]
        cls = trajectories.PlanarPath
        cls.diameter = self._wrap(cls.diameter, "trajectories.PlanarPath.diameter")

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            work=np.frombuffer(self.work, dtype=np.float64),
            pass_id=np.int32(self.pass_id),
        )


def span_stats(path: str) -> dict[str, dict[str, float]]:
    """Per-function calls, inclusive seconds (`s`), self seconds (`self_s`) and
    work counts from one spans file. Self time is span time minus the time
    covered by its direct child spans (spans of one process nest)."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name_idx, parent = data["name_idx"], data["parent"]
        dur = data["end"] - data["start"]
        work_done = data["work"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    k = len(names)
    calls = np.bincount(name_idx, minlength=k)
    incl = np.bincount(name_idx, weights=dur, minlength=k)
    excl = np.bincount(name_idx, weights=self_time, minlength=k)
    work = np.bincount(name_idx, weights=work_done, minlength=k)
    out = {}
    for i, name in enumerate(names):
        out[name] = {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(excl[i])}
        if name in WORK:
            out[name][WORK[name][0]] = float(work[i])
    return out
