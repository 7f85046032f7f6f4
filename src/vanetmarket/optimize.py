"""Profit maximization over (c1, f_d, s): box-constrained Nelder-Mead with
multi-start, a brute-force grid certifier, and parameter sensitivity sweeps."""

from __future__ import annotations

import io
import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass, replace
from itertools import product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .econ import EconParams, _profit_function, profit, profit_slabs

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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"bounds for {name} must be finite, got ({lo}, {hi})")
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
    x: tuple[float, float, float]
    fun: float
    converged: bool
    nfev: int


def nelder_mead(
    objective: Callable[[tuple[float, float, float]], float],
    x0: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
    diameter_tol: float = 1e-10,
    max_iter: int = 5000,
) -> NMResult:
    """Maximize a function of three coordinates, as the market search's
    (log c1, f_d, s), over a box with the Nelder-Mead simplex.

    Reflection/expansion/contraction/shrink coefficients are (1, 2, 0.5, 0.5);
    candidate points are clipped coordinate-wise into the box. Terminates when
    the simplex's relative diameter drops below `diameter_tol` or after
    `max_iter` iterations.

    Vertices are ranked by value. Exact ties, common on the loss-clamp
    plateau, go to the higher slot index; an accepted point always takes the
    last slot and a shrink keeps the best in the first, so new vertices rank
    before old vertices of equal value. The final pick uses the same rule.

    Before any objective call, a start or bound that is not finite, or a
    lower bound above its upper bound, is a ValueError naming it; then a start
    or box whose length is not 3 is one naming the three lengths. The step
    runs on Python floats with the coordinates unrolled; each point is a
    tuple of floats. It does the operations of the elementwise numpy form
    (`numpy_nelder_mead` in the tests) in the same order, so results are
    bitwise equal to it, except for a coordinate equal to a bound of the other
    zero sign (0.0 against -0.0, or the reverse): clipping here keeps the
    point, as min(max(v, lo), hi) does, where `np.clip` returns the bound.
    """
    box = [(float(lo), float(hi)) for lo, hi in zip(lower, upper)]
    x0 = [float(v) for v in x0]
    for k, v in enumerate(x0):
        if not math.isfinite(v):
            raise ValueError(f"start x0[{k}] must be finite, got {v}")
    for k, (lo, hi) in enumerate(box):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"bounds for coordinate {k} must be finite, got ({lo}, {hi})")
        if lo > hi:
            raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")
    if not len(x0) == len(lower) == len(upper) == 3:
        raise ValueError(
            "x0, lower and upper must each have 3 coordinates, "
            f"got {len(x0)}, {len(lower)}, {len(upper)}"
        )
    (lo0, hi0), (lo1, hi1), (lo2, hi2) = box
    tol = diameter_tol
    nfev = 0

    def evaluate(x: tuple[float, float, float]) -> float:
        nonlocal nfev
        nfev += 1
        val = objective(x)
        if not math.isfinite(val):
            raise NonFiniteObjective(f"objective returned {val} at {x}")
        return val

    # Initial simplex: the clipped start, then each coordinate perturbed by 5%
    # of its box range, inward when the positive step would leave the box.
    start = tuple([lo if v < lo else hi if v > hi else v for v, (lo, hi) in zip(x0, box)])
    simplex = [start]
    for k, (lo, hi) in enumerate(box):
        step = 0.05 * (hi - lo)
        vertex = list(start)
        vertex[k] = start[k] + step if start[k] + step <= hi else start[k] - step
        simplex.append(tuple(vertex))
    values = [evaluate(v) for v in simplex]

    converged = False
    for _ in range(max_iter):
        # sorted stays stable under reverse=True, so listing the slots high
        # to low ranks the higher slot first on a tie.
        i0, i1, i2, i3 = sorted((3, 2, 1, 0), key=values.__getitem__, reverse=True)
        best, second, third, worst = simplex[i0], simplex[i1], simplex[i2], simplex[i3]
        f_best, f_second, f_third, f_worst = values[i0], values[i1], values[i2], values[i3]
        b0, b1, b2 = best
        m0, m1, m2 = second
        n0, n1, n2 = third
        w0, w1, w2 = worst

        # Every coordinate of every vertex within tol of the best, relative
        # to max(1, |best|); a NaN distance fails `<`.
        s0, s1, s2 = abs(b0), abs(b1), abs(b2)
        s0 = s0 if s0 > 1.0 else 1.0
        s1 = s1 if s1 > 1.0 else 1.0
        s2 = s2 if s2 > 1.0 else 1.0
        if (
            abs(m0 - b0) / s0 < tol and abs(m1 - b1) / s1 < tol and abs(m2 - b2) / s2 < tol
            and abs(n0 - b0) / s0 < tol and abs(n1 - b1) / s1 < tol and abs(n2 - b2) / s2 < tol
            and abs(w0 - b0) / s0 < tol and abs(w1 - b1) / s1 < tol and abs(w2 - b2) / s2 < tol
        ):
            simplex = [best, second, third, worst]
            values = [f_best, f_second, f_third, f_worst]
            converged = True
            break

        c0 = ((b0 + m0) + n0) / 3
        c1 = ((b1 + m1) + n1) / 3
        c2 = ((b2 + m2) + n2) / 3
        r0 = c0 + 1.0 * (c0 - w0)
        r1 = c1 + 1.0 * (c1 - w1)
        r2 = c2 + 1.0 * (c2 - w2)
        r0 = lo0 if r0 < lo0 else hi0 if r0 > hi0 else r0
        r1 = lo1 if r1 < lo1 else hi1 if r1 > hi1 else r1
        r2 = lo2 if r2 < lo2 else hi2 if r2 > hi2 else r2
        reflected = (r0, r1, r2)
        f_reflected = evaluate(reflected)

        if f_reflected > f_best:
            e0 = c0 + 2.0 * (r0 - c0)
            e1 = c1 + 2.0 * (r1 - c1)
            e2 = c2 + 2.0 * (r2 - c2)
            e0 = lo0 if e0 < lo0 else hi0 if e0 > hi0 else e0
            e1 = lo1 if e1 < lo1 else hi1 if e1 > hi1 else e1
            e2 = lo2 if e2 < lo2 else hi2 if e2 > hi2 else e2
            expanded = (e0, e1, e2)
            f_expanded = evaluate(expanded)
            if f_expanded > f_reflected:
                new, f_new = expanded, f_expanded
            else:
                new, f_new = reflected, f_reflected
        elif f_reflected > f_third:
            new, f_new = reflected, f_reflected
        else:
            outside = f_reflected > f_worst
            if outside:  # c + 0.5 * (r - c)
                k0, k1, k2 = c0 + 0.5 * (r0 - c0), c1 + 0.5 * (r1 - c1), c2 + 0.5 * (r2 - c2)
            else:  # inside: c + 0.5 * (w - c)
                k0, k1, k2 = c0 + 0.5 * (w0 - c0), c1 + 0.5 * (w1 - c1), c2 + 0.5 * (w2 - c2)
            k0 = lo0 if k0 < lo0 else hi0 if k0 > hi0 else k0
            k1 = lo1 if k1 < lo1 else hi1 if k1 > hi1 else k1
            k2 = lo2 if k2 < lo2 else hi2 if k2 > hi2 else k2
            contracted = (k0, k1, k2)
            f_contracted = evaluate(contracted)
            if (f_contracted >= f_reflected) if outside else (f_contracted > f_worst):
                new, f_new = contracted, f_contracted
            else:  # shrink toward the best: b + 0.5 * (v - b), clipped
                simplex = [best]
                for p0, p1, p2 in (second, third, worst):
                    p0 = b0 + 0.5 * (p0 - b0)
                    p1 = b1 + 0.5 * (p1 - b1)
                    p2 = b2 + 0.5 * (p2 - b2)
                    simplex.append((
                        lo0 if p0 < lo0 else hi0 if p0 > hi0 else p0,
                        lo1 if p1 < lo1 else hi1 if p1 > hi1 else p1,
                        lo2 if p2 < lo2 else hi2 if p2 > hi2 else p2,
                    ))
                values = [f_best] + [evaluate(v) for v in simplex[1:]]
                continue
        simplex = [best, second, third, new]
        values = [f_best, f_second, f_third, f_new]

    best_idx = max((3, 2, 1, 0), key=values.__getitem__)  # the higher slot on a tie
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


class _Task(NamedTuple):
    """One start pair of the market search."""

    params: EconParams
    bounds: Bounds
    lower: tuple[float, float, float]
    upper: tuple[float, float, float]
    z0: tuple[float, ...]


class _Outcome(NamedTuple):
    fun: float
    point: tuple[float, float, float]
    nfev: int
    converged: bool


def _search_tasks(params: EconParams, bounds: Bounds, n_starts: int, seed: int) -> list[_Task]:
    """The start pairs of one `optimize_profit` search, in start order."""
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    lower = (math.log(bounds.c1[0]), float(bounds.f_d[0]), float(bounds.s[0]))
    upper = (math.log(bounds.c1[1]), float(bounds.f_d[1]), float(bounds.s[1]))
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    units = [
        *_latin_hypercube(rng, n_starts, 3).tolist(),
        *product((0.0, 1.0), repeat=3),  # the box corners
        (0.5, 0.5, 0.5),
    ]
    starts = [tuple(lo + u * (hi - lo) for u, lo, hi in zip(unit, lower, upper)) for unit in units]
    return [_Task(params, bounds, lower, upper, z0) for z0 in starts]


def _run_start(task: _Task) -> _Outcome:
    """One Nelder-Mead run from the task's start, restarted once from its
    endpoint; the better of the two is kept."""
    params, bounds, lower, upper, z0 = task
    c1_lo, c1_hi = float(bounds.c1[0]), float(bounds.c1[1])
    profit_parts = _profit_function(params)  # compiled once per start pair

    def objective(z: tuple[float, float, float]) -> float:
        # nelder_mead passes only points in [lower, upper] (it clips every
        # candidate and steps its first simplex inward), so f_d and s are in
        # bounds. exp(log c1) can round outside them: clip c1 as Bounds.clip.
        log_c1, f_d, s = z
        c1 = math.exp(log_c1)
        c1 = c1_lo if c1 < c1_lo else c1_hi if c1 > c1_hi else c1
        return profit_parts(c1, f_d, s)[3]

    result = nelder_mead(objective, z0, lower, upper)
    restarted = nelder_mead(objective, result.x, lower, upper)
    nfev = result.nfev + restarted.nfev
    if restarted.fun > result.fun:
        result = restarted
    point = bounds.clip(math.exp(result.x[0]), result.x[1], result.x[2])
    return _Outcome(result.fun, point, nfev, result.converged)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _unpicklable(i: int, ok: bool, value: object, exc: Exception) -> ChildProcessError:
    """A worker's report of item i when pickle refuses its result or exception."""
    what = f"returned a {type(value).__name__}" if ok else f"raised {type(value).__name__}: {value}"
    return ChildProcessError(
        f"worker process {os.getpid()}: item {i} {what}, which will not pickle ({exc})"
    )


def _fork_map(function: Callable, items: Sequence, workers: int) -> list:
    """`list(map(function, items))` on this process and `workers - 1` forked
    children, results in item order.

    Every process takes the next item index from one token: eight bytes in a
    pipe, read by one process and written back one higher, so items go out one
    at a time to whichever process is free. Each child sends pickled
    (index, ok, result or exception) records over a pipe of its own, which
    this process reads while it waits for the token and after its own work;
    a result or exception that will not pickle comes as a ChildProcessError.

    After an exception no process takes a new item, and the exception of the
    lowest index is raised: the one the serial map raises. A child that ends
    without reporting all its items is a ChildProcessError naming its pid and
    wait status. On every way out, this process kills any unfinished child
    and reaps every child.
    """
    import select

    n = len(items)
    done: dict[int, tuple[bool, object]] = {}  # index -> (ok, result or exception)
    children: dict[int, int] = {}  # a child's pipe -> its pid, until it is reaped
    received: dict[int, bytearray] = {}
    token_r, token_w = os.pipe()
    # A process reads the token only after select finds it, and another may
    # have taken it in between, so a read must not wait.
    os.set_blocking(token_r, False)
    os.write(token_w, bytes(8))

    def take(stop: bool = False) -> int:
        """The next item index (n when none is left); with `stop`, leaves none.

        While it waits, this process reads what its children sent, so no
        child waits long on a full pipe, and a child that died, even holding
        the token, is seen at once."""
        while True:
            ready = select.select([token_r, *children], [], [])[0]
            for fd in ready:
                if fd != token_r:
                    receive(fd)
            if token_r in ready:
                try:
                    i = int.from_bytes(os.read(token_r, 8), "little")
                except BlockingIOError:
                    continue
                os.write(token_w, (n if stop else min(i + 1, n)).to_bytes(8, "little"))
                return i

    def work():
        """(index, ok, result or exception) for each item this process runs."""
        while (i := take()) < n:
            try:
                result = function(items[i])
            except Exception as exc:
                take(stop=True)
                yield i, False, exc
                return
            yield i, True, result

    def receive(fd: int) -> None:
        data = os.read(fd, 1 << 16)
        if data:
            received[fd] += data
            return
        pid = children[fd]
        status = os.waitpid(pid, 0)[1]
        del children[fd]
        os.close(fd)
        if status:
            raise ChildProcessError(
                f"worker process {pid} ended without reporting all its tasks "
                f"(wait status {status})"
            )
        stream = io.BytesIO(received.pop(fd))
        while stream.tell() < len(stream.getbuffer()):
            i, ok, value = pickle.load(stream)
            done[i] = ok, value

    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    for fd in (r, *children):
                        os.close(fd)
                    children.clear()
                    with open(w, "wb") as out:
                        for i, ok, value in work():
                            try:
                                record = pickle.dumps((i, ok, value))
                            except Exception as exc:  # pickle's errors vary with the object
                                take(stop=True)  # a failure: no process takes a new item
                                record = pickle.dumps((i, False, _unpicklable(i, ok, value, exc)))
                            out.write(record)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children[r] = pid
            received[r] = bytearray()
        for i, ok, value in work():
            done[i] = ok, value
        while children:
            for fd in select.select(list(children), [], [])[0]:
                receive(fd)
    finally:
        if children:
            import signal

            for fd, pid in children.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(fd)
        os.close(token_r)
        os.close(token_w)
    failed = [i for i, (ok, _) in done.items() if not ok]
    if failed:
        raise done[min(failed)][1]
    return [done[i][1] for i in range(n)]


def _run_starts(tasks: Sequence[_Task]) -> list[_Outcome]:
    """`_run_start` over every task, results in task order.

    With more than one CPU the tasks run on this process and one forked child
    per further CPU (`_fork_map`). Forking, unlike spawning, re-imports
    nothing, so a child costs about a millisecond and runs this process's code
    as it is. With one CPU, where fork does not exist, or in a daemonic
    multiprocessing process (which is killed without cleanup, so its children
    would outlive it), the tasks run here in order. Each task is computed
    alone, so the results do not depend on which process ran it.
    """
    workers = min(_cpu_count(), len(tasks))
    mp = sys.modules.get("multiprocessing")  # imported only if the caller uses it
    daemonic = mp is not None and mp.current_process().daemon
    if workers < 2 or not hasattr(os, "fork") or daemonic:
        return list(map(_run_start, tasks))
    return _fork_map(_run_start, tasks, workers)


def _best_of(params: EconParams, bounds: Bounds, outcomes: Sequence[_Outcome]) -> Solution:
    """The best outcome, with exact profit ties broken toward the
    lexicographically smallest (c1, f_d, s)."""
    best_fun = max(o.fun for o in outcomes)
    best_point = min(o.point for o in outcomes if o.fun == best_fun)
    return _finalize(
        params,
        bounds,
        best_point,
        sum(o.nfev for o in outcomes),
        any(o.converged for o in outcomes),
    )


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
    toward the lexicographically smallest (c1, f_d, s). The starts run on
    this process and one forked child per further available CPU
    (`_run_starts`); the result does not depend on the count.
    """
    tasks = _search_tasks(params, bounds, n_starts, seed)
    return _best_of(params, bounds, _run_starts(tasks))


def grid_oracle(params: EconParams, bounds: Bounds = DEFAULT_BOUNDS, resolution: int = 41) -> Solution:
    """Exhaustive profit evaluation on a (log c1) x f_d x s lattice; the argmax certifies
    the nonlinear optimizer on coarse instances.

    Every cell is bitwise `profit` at the lattice point (`econ.profit_slabs`).
    The first maximum wins, as in a lexicographic loop with a strict `>`.
    """
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
    for c1, slab in zip(c1s, profit_slabs(params, c1s, f_ds, ss)):
        k = int(slab.argmax())  # the slab's first maximum
        value = float(slab.flat[k])
        if value > best:  # an earlier slab keeps an exact tie
            best = value
            best_point = (c1, f_ds[k // resolution], ss[k % resolution])
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
    results do not depend on evaluation order.

    Every value's parameters are built, and so checked, before any search.
    The start pairs of all values then go to one `_run_starts` call, so its
    processes serve every value (see `optimize_profit`).
    """
    if parameter not in SWEEPABLE:
        raise ValueError(f"sweep parameter must be one of {SWEEPABLE}, got {parameter!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    per_value = [_with_parameter(params, parameter, v) for v in values]
    tasks = [_search_tasks(p, bounds, n_starts, seed) for p in per_value]
    outcomes = iter(_run_starts([task for value_tasks in tasks for task in value_tasks]))
    solutions = tuple(
        _best_of(p, bounds, [next(outcomes) for _ in value_tasks])
        for p, value_tasks in zip(per_value, tasks)
    )
    return SweepResult(parameter, tuple(float(v) for v in values), solutions)
