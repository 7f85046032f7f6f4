"""Profit maximization over (c1, f_d, s): box-constrained Nelder-Mead with
multi-start, a brute-force grid certifier, and parameter sensitivity sweeps."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .econ import EconParams, profit

SWEEPABLE = ("c2", "c3", "beta", "V", "sigma")


class NonFiniteObjective(RuntimeError):
    """Raised when the objective returns NaN or infinity during a search."""


@dataclass(frozen=True)
class Bounds:
    """Search box; c1 is explored in log-space, f_d and s linearly."""

    c1: tuple[float, float] = (1e-9, 1e-3)
    f_d: tuple[float, float] = (0.1, 60.0)
    s: tuple[float, float] = (1.0, 100.0)

    def __post_init__(self) -> None:
        for name in ("c1", "f_d", "s"):
            lo, hi = getattr(self, name)
            if name == "s":  # a server count; profit rejects fewer than one
                ok, rule = 1 <= lo < hi, "1 <= lo < hi"
            else:
                ok, rule = 0 < lo < hi, "0 < lo < hi"
            if not ok:
                raise ValueError(f"bounds for {name} must satisfy {rule}, got ({lo}, {hi})")

    def clip(self, c1: float, f_d: float, s: float) -> tuple[float, float, float]:
        return (
            min(max(c1, self.c1[0]), self.c1[1]),
            min(max(f_d, self.f_d[0]), self.f_d[1]),
            min(max(s, self.s[0]), self.s[1]),
        )

    def contains(self, c1: float, f_d: float, s: float) -> bool:
        return (
            self.c1[0] <= c1 <= self.c1[1]
            and self.f_d[0] <= f_d <= self.f_d[1]
            and self.s[0] <= s <= self.s[1]
        )


DEFAULT_BOUNDS = Bounds()


class NMResult(NamedTuple):
    x: tuple[float, ...]
    fun: float
    converged: bool
    nfev: int


def nelder_mead(
    objective: Callable[[tuple[float, ...]], float],
    x0: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
    diameter_tol: float = 1e-10,
    max_iter: int = 5000,
) -> NMResult:
    """Maximize a function over a box with the Nelder-Mead simplex.

    Reflection/expansion/contraction/shrink coefficients are (1, 2, 0.5, 0.5);
    candidate points are clipped coordinate-wise into the box. Terminates when
    the simplex's relative diameter drops below `diameter_tol` or after
    `max_iter` iterations.

    Vertices are ranked by value. Exact ties, common on the loss-clamp
    plateau, go to the higher slot index; an accepted point always takes the
    last slot and a shrink keeps the best in the first, so new vertices rank
    before old vertices of equal value. The final pick uses the same rule.

    A box with a lower bound above its upper bound is a ValueError. The
    inputs are converted to Python floats once. Each point is a tuple of
    floats, computed with the same operations in the same order as the
    elementwise numpy form, so results are bitwise equal to it.
    """
    box = [(float(lo), float(hi)) for lo, hi in zip(lower, upper)]
    x0 = [float(v) for v in x0]
    dim = len(x0)
    if not len(lower) == len(upper) == dim:
        raise ValueError(
            f"x0, lower and upper must have one length, got {dim}, {len(lower)}, {len(upper)}"
        )
    for lo, hi in box:
        if lo > hi:
            raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")
    nfev = 0

    def evaluate(x: tuple[float, ...]) -> float:
        nonlocal nfev
        nfev += 1
        val = objective(x)
        if not math.isfinite(val):
            raise NonFiniteObjective(f"objective returned {val} at {x}")
        return val

    def clip(x: list[float]) -> tuple[float, ...]:
        # min(max(v, lo), hi) as two comparisons; equal to it when lo <= hi.
        return tuple([lo if v < lo else hi if v > hi else v for v, (lo, hi) in zip(x, box)])

    def toward(a: Sequence[float], coef: float, b: Sequence[float]) -> tuple[float, ...]:
        """The point a + coef * (b - a), clipped into the box."""
        return clip([u + coef * (v - u) for u, v in zip(a, b)])

    x0 = clip(x0)

    # Initial simplex: perturb each coordinate by 5% of its box range,
    # stepping inward when the positive step would leave the box.
    simplex = [x0]
    for k, (lo, hi) in enumerate(box):
        step = 0.05 * (hi - lo)
        vertex = list(x0)
        vertex[k] = x0[k] + step if x0[k] + step <= hi else x0[k] - step
        simplex.append(tuple(vertex))
    values = [evaluate(v) for v in simplex]
    slots = range(dim + 1)

    def spread_below_tol() -> bool:
        """Whether every vertex is within diameter_tol of the best, relative
        to max(1, |best|) per coordinate; stops at the first one that is not."""
        best = simplex[0]  # the simplex is sorted best first
        for v in simplex[1:]:
            for a, b in zip(v, best):
                scale = abs(b)
                if not abs(a - b) / (scale if scale > 1.0 else 1.0) < diameter_tol:
                    return False
        return True

    converged = False
    for _ in range(max_iter):
        # Descending by (value, slot); slots are unique, so points are never compared.
        ranked = sorted(zip(values, slots, simplex), reverse=True)
        values = [r[0] for r in ranked]
        simplex = [r[2] for r in ranked]
        if spread_below_tol():
            converged = True
            break

        # Left fold from the first vertex, then one division: np.mean(axis=0).
        total = list(simplex[0])
        for v in simplex[1:-1]:
            total = [t + a for t, a in zip(total, v)]
        centroid = [t / dim for t in total]
        worst = simplex[-1]
        reflected = clip([c + 1.0 * (c - w) for c, w in zip(centroid, worst)])
        f_reflected = evaluate(reflected)

        if f_reflected > values[0]:
            expanded = toward(centroid, 2.0, reflected)
            f_expanded = evaluate(expanded)
            if f_expanded > f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected > values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue

        if f_reflected > values[-1]:  # outside contraction
            contracted = toward(centroid, 0.5, reflected)
            f_contracted = evaluate(contracted)
            accept = f_contracted >= f_reflected
        else:  # inside contraction
            contracted = toward(centroid, 0.5, worst)
            f_contracted = evaluate(contracted)
            accept = f_contracted > values[-1]
        if accept:
            simplex[-1], values[-1] = contracted, f_contracted
            continue

        best = simplex[0]
        simplex = [best] + [toward(best, 0.5, v) for v in simplex[1:]]
        values = [values[0]] + [evaluate(v) for v in simplex[1:]]

    best_idx = max(slots, key=lambda i: (values[i], i))
    return NMResult(simplex[best_idx], values[best_idx], converged, nfev)


# JSON keys of the Solution fields whose JSON name differs.
_JSON_NAMES = {"c1_star": "c1", "f_d_star": "f_d", "s_star": "s", "profit_star": "profit"}


@dataclass(frozen=True)
class Solution:
    """An optimization result over (c1, f_d, s) plus search diagnostics."""

    c1_star: float
    f_d_star: float
    s_star: float
    profit_star: float
    participation_model: str
    server_cost_model: str
    n_evaluations: int
    converged: bool
    stationarity_gap: float
    profit_at_floor_s: float
    profit_at_ceil_s: float

    def to_json_dict(self) -> dict:
        return {_JSON_NAMES.get(k, k): v for k, v in asdict(self).items()}


def _stationarity_gap(
    params: EconParams, bounds: Bounds, point: tuple[float, float, float], base: float
) -> float:
    """Largest profit improvement from a +/-0.1% single-coordinate step inside the box."""
    gap = 0.0
    for k in range(3):
        for direction in (1.0 - 1e-3, 1.0 + 1e-3):
            probe = list(point)
            probe[k] *= direction
            if not bounds.contains(*probe):
                continue
            gap = max(gap, profit(params, *probe) - base)
    return gap


def _finalize(
    params: EconParams,
    bounds: Bounds,
    point: tuple[float, float, float],
    n_evaluations: int,
    converged: bool,
) -> Solution:
    # A box read from JSON may hold ints, and clipping can return a bound itself.
    c1, f_d, s = (float(v) for v in bounds.clip(*point))
    value = profit(params, c1, f_d, s)
    s_lo, s_hi = bounds.clip(c1, f_d, math.floor(s))[2], bounds.clip(c1, f_d, math.ceil(s))[2]
    return Solution(
        c1_star=c1,
        f_d_star=f_d,
        s_star=s,
        profit_star=value,
        participation_model=params.participation_model,
        server_cost_model=params.server_cost_model,
        n_evaluations=n_evaluations,
        converged=converged,
        stationarity_gap=_stationarity_gap(params, bounds, (c1, f_d, s), value),
        profit_at_floor_s=profit(params, c1, f_d, s_lo),
        profit_at_ceil_s=profit(params, c1, f_d, s_hi),
    )


def _latin_hypercube(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n stratified points in [0, 1)^dim, one per row."""
    u = np.empty((n, dim))
    for k in range(dim):
        u[:, k] = (rng.permutation(n) + rng.random(n)) / n
    return u


def optimize_profit(
    params: EconParams,
    bounds: Bounds = DEFAULT_BOUNDS,
    n_starts: int = 32,
    seed: int = 0,
) -> Solution:
    """Multi-start Nelder-Mead profit maximization.

    Starts are a seeded Latin-hypercube over the box (c1 sampled
    log-uniformly) plus the box corners and center, since this objective's
    optima routinely sit on the bounds. Every run is restarted once from its
    endpoint with a fresh simplex, which undoes premature simplex collapse
    against a clipped face. The best run wins, with exact profit ties broken
    toward the lexicographically smallest (c1, f_d, s).
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    lower = (math.log(bounds.c1[0]), float(bounds.f_d[0]), float(bounds.s[0]))
    upper = (math.log(bounds.c1[1]), float(bounds.f_d[1]), float(bounds.s[1]))

    c1_lo, c1_hi = float(bounds.c1[0]), float(bounds.c1[1])
    f_d_lo, s_lo = lower[1:]
    f_d_hi, s_hi = upper[1:]

    def objective(z: tuple[float, float, float]) -> float:
        # Bounds.clip as comparisons on floats (the box has lo < hi).
        log_c1, f_d, s = z
        c1 = math.exp(log_c1)
        c1 = c1_lo if c1 < c1_lo else c1_hi if c1 > c1_hi else c1
        f_d = f_d_lo if f_d < f_d_lo else f_d_hi if f_d > f_d_hi else f_d
        s = s_lo if s < s_lo else s_hi if s > s_hi else s
        return profit(params, c1, f_d, s)

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    units = [
        *_latin_hypercube(rng, n_starts, 3).tolist(),
        *product((0.0, 1.0), repeat=3),  # the box corners
        (0.5, 0.5, 0.5),
    ]
    starts = [[lo + u * (hi - lo) for u, lo, hi in zip(unit, lower, upper)] for unit in units]

    candidates = []
    total_nfev = 0
    any_converged = False
    for z0 in starts:
        result = nelder_mead(objective, z0, lower, upper)
        restarted = nelder_mead(objective, result.x, lower, upper)
        total_nfev += result.nfev + restarted.nfev
        if restarted.fun > result.fun:
            result = restarted
        any_converged = any_converged or result.converged
        point = bounds.clip(math.exp(result.x[0]), result.x[1], result.x[2])
        candidates.append((result.fun, point))

    best_fun = max(fun for fun, _ in candidates)
    best_point = min(point for fun, point in candidates if fun == best_fun)
    return _finalize(params, bounds, best_point, total_nfev, any_converged)


def grid_oracle(params: EconParams, bounds: Bounds = DEFAULT_BOUNDS, resolution: int = 41) -> Solution:
    """Exhaustive profit evaluation on a (log c1) x f_d x s lattice; the argmax certifies
    the nonlinear optimizer on coarse instances."""
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2 per axis")
    # Log-uniform c1 through libm's exp, as the optimizer maps log c1 (numpy's
    # SIMD power varies with the CPU), with the endpoints pinned to the bounds.
    log_c1s = np.linspace(math.log(bounds.c1[0]), math.log(bounds.c1[1]), resolution)
    c1s = [bounds.c1[0], *(math.exp(v) for v in log_c1s[1:-1].tolist()), bounds.c1[1]]
    f_ds = np.linspace(bounds.f_d[0], bounds.f_d[1], resolution).tolist()
    ss = np.linspace(bounds.s[0], bounds.s[1], resolution).tolist()

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


@dataclass(frozen=True)
class SweepResult:
    """Re-optimized solutions across one swept market parameter."""

    parameter: str
    values: tuple[float, ...]
    solutions: tuple[Solution, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.solutions):
            raise ValueError("values and solutions must have the same length")

    def write_csv(self, fileobj) -> None:
        fileobj.write("param_value,c1,f_d,s,profit\n")
        for value, sol in zip(self.values, self.solutions):
            fileobj.write(
                f"{value},{sol.c1_star},{sol.f_d_star},{sol.s_star},{sol.profit_star}\n"
            )

    def to_json_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "values": list(self.values),
            "solutions": [s.to_json_dict() for s in self.solutions],
        }


def _with_parameter(params: EconParams, name: str, value: float) -> EconParams:
    if name == "beta":
        return replace(params, utility=replace(params.utility, beta=value))
    return replace(params, **{name: value})


def sweep(
    params: EconParams,
    bounds: Bounds,
    parameter: str,
    values: Sequence[float],
    n_starts: int = 32,
    seed: int = 0,
) -> SweepResult:
    """Re-optimize for each value of one parameter, re-using the same seed so
    results do not depend on evaluation order."""
    if parameter not in SWEEPABLE:
        raise ValueError(f"sweep parameter must be one of {SWEEPABLE}, got {parameter!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    solutions = tuple(
        optimize_profit(_with_parameter(params, parameter, v), bounds, n_starts, seed)
        for v in values
    )
    return SweepResult(parameter, tuple(float(v) for v in values), solutions)
