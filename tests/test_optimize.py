import math
import multiprocessing
import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetmarket import (
    Bounds,
    EconParams,
    UtilityModel,
    grid_oracle,
    nelder_mead,
    optimize_profit,
    profit,
    sweep,
)
from reference_impls import lattice_axes, scalar_grid_oracle, total_loss
from vanetmarket import cli
from vanetmarket import optimize as optimize_module
from vanetmarket.config import RunConfig
from vanetmarket.econ import PARTICIPATION_MODELS, SERVER_COST_MODELS, profit_slabs
from vanetmarket.optimize import DEFAULT_BOUNDS, NonFiniteObjective

SMALL_BOUNDS = Bounds(c1=(1e-8, 1e-4), f_d=(0.1, 20.0), s=(1.0, 50.0))
ALL_MODES = [(p, c) for p in PARTICIPATION_MODELS for c in SERVER_COST_MODELS]


def numpy_nelder_mead(objective, x0, lower, upper, diameter_tol=1e-10, max_iter=5000):
    """Nelder-Mead with the simplex held as float64 arrays and numpy's mean,
    clip and max: the bitwise reference for the list-of-floats `nelder_mead`."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
    dim = len(x0)
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        nfev += 1
        val = objective(x)
        if not math.isfinite(val):
            raise NonFiniteObjective(f"objective returned {val} at {x.tolist()}")
        return val

    def clip(x):
        return np.clip(x, lower, upper)

    simplex = [x0]
    for k in range(dim):
        step = 0.05 * (upper[k] - lower[k])
        vertex = x0.copy()
        vertex[k] = x0[k] + step if x0[k] + step <= upper[k] else x0[k] - step
        simplex.append(vertex)
    values = [evaluate(v) for v in simplex]

    def rel_diameter():
        best = simplex[int(np.argmax(values))]
        scale = np.maximum(1.0, np.abs(best))
        return max(float(np.max(np.abs(v - best) / scale)) for v in simplex)

    converged = False
    for _ in range(max_iter):
        order = np.argsort(values, kind="stable")[::-1]
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if rel_diameter() < diameter_tol:
            converged = True
            break

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = clip(centroid + 1.0 * (centroid - worst))
        f_reflected = evaluate(reflected)

        if f_reflected > values[0]:
            expanded = clip(centroid + 2.0 * (reflected - centroid))
            f_expanded = evaluate(expanded)
            if f_expanded > f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected > values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue

        if f_reflected > values[-1]:
            contracted = clip(centroid + 0.5 * (reflected - centroid))
            f_contracted = evaluate(contracted)
            accept = f_contracted >= f_reflected
        else:
            contracted = clip(centroid + 0.5 * (worst - centroid))
            f_contracted = evaluate(contracted)
            accept = f_contracted > values[-1]
        if accept:
            simplex[-1], values[-1] = contracted, f_contracted
            continue

        best = simplex[0]
        simplex = [best] + [clip(best + 0.5 * (v - best)) for v in simplex[1:]]
        values = [values[0]] + [evaluate(v) for v in simplex[1:]]

    order = np.argsort(values, kind="stable")[::-1]
    best_idx = int(order[0])
    return optimize_module.NMResult(simplex[best_idx].copy(), values[best_idx], converged, nfev)


def numpy_grid_oracle(params, bounds, resolution):
    """`grid_oracle` iterating over numpy scalars: the reference for its float loop."""
    log_c1s = np.linspace(math.log(bounds.c1[0]), math.log(bounds.c1[1]), resolution)
    c1s = np.array([math.exp(v) for v in log_c1s.tolist()])
    c1s[[0, -1]] = bounds.c1
    f_ds = np.linspace(bounds.f_d[0], bounds.f_d[1], resolution)
    ss = np.linspace(bounds.s[0], bounds.s[1], resolution)
    best = -math.inf
    best_point = (c1s[0], f_ds[0], ss[0])
    for c1 in c1s:
        for f_d in f_ds:
            for s in ss:
                value = profit(params, c1, f_d, s)
                if value > best:
                    best = value
                    best_point = (float(c1), float(f_d), float(s))
    return optimize_module._finalize(params, bounds, best_point, resolution**3, True)


def assert_same_nm_result(got, want):
    """Bitwise equality of two NMResults."""
    got_x = np.array(got.x)
    assert got_x.dtype == want.x.dtype and got_x.shape == want.x.shape
    assert got_x.tobytes() == want.x.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
    assert (got.converged, got.nfev) == (want.converged, want.nfev)


@st.composite
def plateau_problems(draw):
    """A quantised bowl in three dimensions, its box and a start (maybe outside the box).

    Rounding the objective down to a multiple of `quantum` makes wide plateaus,
    so vertices tie exactly and contractions fail into shrink steps.
    """
    dim = 3
    # `+ 0.0` turns -0.0 into 0.0. On a point equal to a bound, min/max keep the
    # point and np.clip the bound, which differ only in the sign of a zero.
    lower = [draw(st.floats(-5.0, 0.0)) + 0.0 for _ in range(dim)]
    upper = [lo + draw(st.floats(0.5, 5.0)) for lo in lower]
    centre = [draw(st.floats(lo - 0.5, hi + 0.5)) for lo, hi in zip(lower, upper)]
    weights = [draw(st.floats(0.1, 10.0)) for _ in range(dim)]
    x0 = [draw(st.floats(lo - 1.0, hi + 1.0)) + 0.0 for lo, hi in zip(lower, upper)]
    quantum = draw(st.sampled_from([1e-3, 0.05, 0.5, 4.0]))

    def objective(x):
        bowl = 0.0
        for v, c, w in zip(x, centre, weights):
            bowl += w * (float(v) - c) ** 2
        return -quantum * math.floor(bowl / quantum)

    return objective, x0, lower, upper


class TestNelderMeadTies:
    def test_bitwise_equal_to_numpy_reference_on_plateaus(self):
        tied = []

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(problem=plateau_problems(), max_iter=st.sampled_from([0, 1, 40, 400]))
        def check(problem, max_iter):
            objective, x0, lower, upper = problem
            seen = []

            def tracked(x):
                value = objective(x)
                seen.append(value)
                return value

            got = nelder_mead(tracked, x0, lower, upper, max_iter=max_iter)
            assert_same_nm_result(
                got, numpy_nelder_mead(objective, x0, lower, upper, max_iter=max_iter)
            )
            tied.append(len(set(seen)) < len(seen))

        check()
        assert sum(tied) >= len(tied) // 2

    def test_same_objective_calls_as_numpy_reference_on_plateaus(self):
        # Shrink steps are common on plateaus; the objective must see the same
        # points in the same order, not only give the same result.
        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(problem=plateau_problems(), max_iter=st.sampled_from([1, 40, 400]))
        def check(problem, max_iter):
            objective, x0, lower, upper = problem
            calls = {"got": [], "want": []}

            def recording(key):
                def tracked(x):
                    calls[key].append(tuple(float(v) for v in x))
                    return objective(x)

                return tracked

            nelder_mead(recording("got"), x0, lower, upper, max_iter=max_iter)
            numpy_nelder_mead(recording("want"), x0, lower, upper, max_iter=max_iter)
            assert calls["got"] == calls["want"]

        check()


def golden_section_max(f, lo, hi, tol=1e-12):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


# Three-coordinate objectives, each run against its documented optimum and
# against the numpy reference.
def parabola(x):
    return -((x[0] - 2.0) ** 2) - (x[1] + 1.0) ** 2 - (x[2] - 0.5) ** 2


def rosenbrock(x):  # the n = 3 form; its maximum is at (1, 1, 1)
    return -sum(100 * (x[i + 1] - x[i] ** 2) ** 2 + (1 - x[i]) ** 2 for i in range(2))


def payment_slice(x):
    return profit(EconParams(), x[0], 2.0, 5.0) - (x[1] - 0.3) ** 2 - (x[2] + 0.2) ** 2


def origin_peak(x):
    return -(x[0] ** 2 + x[1] ** 2 + x[2] ** 2)


def corner(x):
    return x[0] + x[1] + x[2]


class TestNelderMead:
    def test_parabola_maximum(self):
        result = nelder_mead(parabola, [0.0, 0.0, 0.0], [-10.0] * 3, [10.0] * 3)
        assert result.x == pytest.approx((2.0, -1.0, 0.5), abs=1e-6)
        assert result.converged

    def test_negated_rosenbrock(self):
        result = nelder_mead(rosenbrock, [-1.2, 1.0, 0.5], [-5.0] * 3, [5.0] * 3)
        assert result.x == pytest.approx((1.0, 1.0, 1.0), abs=1e-4)

    def test_matches_golden_section_on_payment_slice(self):
        # Separable: the payment slice in x0 plus a quadratic in each of x1, x2.
        # The slice is flat to the last bit below about 3e-4, where the
        # quadratics alone rank the vertices, so the start is past the flat.
        lo, hi = 1e-7, 1e-3
        nm = nelder_mead(payment_slice, [6e-4, 0.0, 0.0], [lo, -1.0, -1.0], [hi, 1.0, 1.0])
        gold = golden_section_max(lambda c: profit(EconParams(), c, 2.0, 5.0), lo, hi)
        assert nm.x[0] == pytest.approx(gold, abs=1e-8)
        assert nm.x[1:] == pytest.approx((0.3, -0.2), abs=1e-6)

    def test_constant_objective_converges(self):
        result = nelder_mead(lambda x: 7.5, [0.3, 0.4, 0.5], [0.0] * 3, [1.0] * 3)
        assert result.converged
        assert result.fun == 7.5

    def test_respects_box(self):
        result = nelder_mead(corner, [0.5, 0.5, 0.5], [0.0] * 3, [1.0] * 3)
        assert all(v <= 1.0 for v in result.x)
        assert result.fun == pytest.approx(3.0, abs=1e-8)

    def test_non_finite_objective_identifies_point(self):
        seen = []

        def bad(x):
            seen.append(x)
            return math.nan if x[0] > 0.5 else x[0] - x[1] ** 2 - x[2] ** 2

        with pytest.raises(NonFiniteObjective, match="nan") as raised:
            nelder_mead(bad, [0.4, 0.0, 0.0], [0.0] * 3, [1.0] * 3)
        assert seen[-1][0] > 0.5
        assert str(raised.value) == f"objective returned nan at {seen[-1]}"

    def test_non_finite_objective_in_3d_after_the_reference_call_count(self):
        # Raised at the same call, on the same point, as the reference.
        def bad(x):
            return math.nan if x[0] + x[1] > 0.9 else -((x[0] - 1.0) ** 2) - x[2] ** 2

        calls = {"got": [], "want": []}

        def counted(key):
            def objective(x):
                calls[key].append(tuple(float(v) for v in x))
                return bad(x)

            return objective

        box = ([0.4, 0.2, 0.3], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(NonFiniteObjective, match=r"nan at \(") as raised:
            nelder_mead(counted("got"), *box)
        with pytest.raises(NonFiniteObjective):
            numpy_nelder_mead(counted("want"), *box)
        assert len(calls["got"]) == len(calls["want"]) > 4
        assert calls["got"] == calls["want"]
        assert str(calls["got"][-1]) in str(raised.value)

    # A one-coordinate input is also the wrong length, but the non-finite
    # value is checked, and named, first.
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize(
        "where, bad, message",
        [
            ("x0", math.nan, r"start x0\[0\] must be finite, got nan"),
            ("lower", math.nan, r"bounds for coordinate 0 must be finite, got \(nan, 1.0\)"),
            ("lower", -math.inf, r"bounds for coordinate 0 must be finite, got \(-inf, 1.0\)"),
            ("upper", math.inf, r"bounds for coordinate 0 must be finite, got \(0.0, inf\)"),
            ("upper", math.nan, r"bounds for coordinate 0 must be finite, got \(0.0, nan\)"),
        ],
        ids=["nan-start", "nan-lower", "-inf-lower", "inf-upper", "nan-upper"],
    )
    def test_non_finite_start_or_bound_is_rejected(self, dim, where, bad, message):
        # The caller's input, not the objective, is at fault: fail before any call.
        args = {"x0": [0.5] * dim, "lower": [0.0] * dim, "upper": [1.0] * dim}
        args[where][0] = bad
        calls = []
        with pytest.raises(ValueError, match=message):
            nelder_mead(calls.append, args["x0"], args["lower"], args["upper"])
        assert calls == []

    def test_non_finite_later_coordinate_is_named(self):
        with pytest.raises(ValueError, match=r"start x0\[2\] must be finite, got inf"):
            nelder_mead(lambda x: 0.0, [0.5, 0.5, math.inf], [0.0] * 3, [1.0] * 3)
        with pytest.raises(ValueError, match=r"bounds for coordinate 1 must be finite"):
            nelder_mead(lambda x: 0.0, [0.5] * 3, [0.0, -math.inf, 0.0], [1.0] * 3)

    def test_start_outside_box_is_clipped(self):
        result = nelder_mead(origin_peak, [5.0, -3.0, 2.0], [-1.0] * 3, [1.0] * 3)
        assert result.x == pytest.approx((0.0, 0.0, 0.0), abs=1e-6)

    def test_points_are_tuples_of_floats(self):
        # Plain Python ints and a tuple start, as well as numpy scalars.
        seen = []

        def objective(x):
            seen.append(x)
            return -((x[0] - 0.25) ** 2) - x[1] ** 2 - x[2] ** 2

        result = nelder_mead(objective, (1, 0, 0), np.array([0, -1, -1]), [1, 1, np.float32(1)])
        for x in [*seen, result.x]:
            assert type(x) is tuple and [type(v) for v in x] == [float, float, float]

    def test_points_are_tuples_of_floats_in_3d(self):
        seen = []

        def objective(x):
            seen.append(x)
            return -((x[0] - 0.25) ** 2) - x[1] ** 2 - (x[2] - 2) ** 2

        result = nelder_mead(
            objective, np.array([1, 0.5, 3]), [0, -1, np.int64(1)], (1, np.float64(1.0), 4)
        )
        for x in [*seen, result.x]:
            assert type(x) is tuple and [type(v) for v in x] == [float, float, float]

    def test_box_length_must_match_start(self):
        calls = []
        with pytest.raises(ValueError, match=r"3 coordinates, got 3, 2, 3$"):
            nelder_mead(calls.append, [0.5] * 3, [0.0] * 2, [1.0] * 3)
        with pytest.raises(ValueError, match=r"3 coordinates, got 3, 3, 4$"):
            nelder_mead(calls.append, [0.5] * 3, [0.0] * 3, [1.0] * 4)
        assert calls == []

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_start_and_box_of_other_than_three_coordinates_are_rejected(self, dim):
        # Even with finite inputs that a loop of that length could run on.
        calls = []
        with pytest.raises(ValueError, match=rf"each have 3 coordinates, got {dim}, {dim}, {dim}"):
            nelder_mead(calls.append, [0.5] * dim, [0.0] * dim, [1.0] * dim)
        with pytest.raises(ValueError, match=rf"got {dim}, 3, 3"):
            nelder_mead(calls.append, [0.5] * dim, [0.0] * 3, [1.0] * 3)
        assert calls == []

    @pytest.mark.parametrize(
        "objective, x0, lower, upper",
        [
            (parabola, [0.0, 0.0, 0.0], [-10.0] * 3, [10.0] * 3),
            (rosenbrock, [-1.2, 1.0, 0.5], [-5.0] * 3, [5.0] * 3),
            (payment_slice, [2e-4, 0.0, 0.0], [1e-7, -1.0, -1.0], [1e-3, 1.0, 1.0]),
            (origin_peak, [5.0, -3.0, 2.0], [-1.0] * 3, [1.0] * 3),
            (corner, [0.5, 0.5, 0.5], [0.0] * 3, [1.0] * 3),
            (lambda x: 7.5, [0.3, 0.4, 0.5], [0.0] * 3, [1.0] * 3),
            (
                # Coordinate 0 starts outside the box and coordinate 1's +5%
                # step leaves it, so both first steps go inward.
                lambda x: -((x[0] - 0.3) ** 2 + 2 * (x[1] + 0.1) ** 2 + (x[2] - 0.7) ** 2)
                - x[0] * x[1],
                [5.0, 0.96, -0.2],
                [-1.0, -1.0, -1.0],
                [1.0, 1.0, 1.0],
            ),
            (
                lambda x: profit(EconParams(), math.exp(x[0]), x[1], x[2]),
                [math.log(1e-3), 59.0, 50.0],
                [math.log(1e-9), 0.1, 1.0],
                [math.log(1e-3), 60.0, 100.0],
            ),
        ],
        ids=[
            "parabola", "rosenbrock", "payment-slice", "clipped-start", "corner", "constant",
            "3d-inward-steps", "3d-profit",
        ],
    )
    def test_bitwise_equal_to_numpy_reference(self, objective, x0, lower, upper):
        assert_same_nm_result(
            nelder_mead(objective, x0, lower, upper),
            numpy_nelder_mead(objective, x0, lower, upper),
        )

    def test_signed_zero_bound_keeps_the_point(self):
        # The exception below on a lower bound of -0.0 in coordinate 0.
        def objective(x):
            return -(x[0] ** 2 + x[1] ** 2 + x[2] ** 2)

        box = ([1.0, 0.0, 0.5], [-0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        got = nelder_mead(objective, *box)
        want = numpy_nelder_mead(objective, *box)
        assert [math.copysign(1.0, v) for v in got.x] == [1.0, 1.0, 1.0]
        assert got.x == (0.0, 0.0, 0.0)
        assert [math.copysign(1.0, v) for v in want.x] == [-1.0, 1.0, 1.0]
        assert (got.fun, got.converged, got.nfev) == (want.fun, want.converged, want.nfev)

    def test_signed_zero_bound_keeps_the_point_in_3d(self):
        # The documented exception to bitwise equality with the numpy form: on
        # a coordinate equal to a bound of the other zero sign, min/max keep
        # the point (0.0) where np.clip keeps the bound (-0.0).
        def objective(x):
            return -(x[0] ** 2 + x[1] ** 2 + x[2] ** 2)

        box = ([0.0, 1.0, 0.5], [0.0, -0.0, 0.0], [1.0, 1.0, 1.0])
        got = nelder_mead(objective, *box)
        want = numpy_nelder_mead(objective, *box)
        assert [math.copysign(1.0, v) for v in got.x] == [1.0, 1.0, 1.0]
        assert got.x == (0.0, 0.0, 0.0)
        assert [math.copysign(1.0, v) for v in want.x] == [1.0, -1.0, 1.0]
        assert (got.fun, got.converged, got.nfev) == (want.fun, want.converged, want.nfev)

    def test_inverted_box_is_rejected(self):
        with pytest.raises(ValueError, match="lower bound 1.0 exceeds upper bound 0.0"):
            nelder_mead(lambda x: x[0], [0.5] * 3, [0.0, 1.0, 0.0], [1.0, 0.0, 1.0])

    def test_bitwise_equal_to_numpy_reference_on_every_profit_start(self, monkeypatch):
        # Several runs sit on the loss-clamp plateau, where exact profit ties
        # make the sort order count.
        replay_every_profit_start(EconParams(), monkeypatch)

    def test_bitwise_equal_to_numpy_reference_on_every_pdf_profit_start(self, monkeypatch):
        # The pdf participation underflows to zero on much of the box: another plateau.
        replay_every_profit_start(
            EconParams().with_modes("pdf_as_written", "total_times_s"), monkeypatch
        )


def replay_every_profit_start(params, monkeypatch):
    """Record every run of the market search, restarts included, then replay
    each through the reference; some runs must see exact profit ties."""
    runs = []

    def recording(objective, x0, lower, upper):
        seen = []

        def tracked(z):
            value = objective(z)
            seen.append(value)
            return value

        result = nelder_mead(tracked, x0, lower, upper)
        runs.append((objective, np.array(x0), lower, upper, result, seen))
        return result

    monkeypatch.setattr(optimize_module, "nelder_mead", recording)
    # Forked workers would record into their own copies of `runs`.
    monkeypatch.setattr(optimize_module, "_cpu_count", lambda: 1)
    optimize_profit(params, seed=0)
    assert len(runs) == 2 * (32 + 9)
    assert any(len(set(seen)) < len(seen) for *_, seen in runs)
    for objective, x0, lower, upper, result, _ in runs:
        assert_same_nm_result(result, numpy_nelder_mead(objective, x0, lower, upper))


class TestBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            Bounds(c1=(0.0, 1e-3))
        with pytest.raises(ValueError):
            Bounds(f_d=(2.0, 1.0))
        with pytest.raises(ValueError):
            Bounds(s=(-1.0, 5.0))
        with pytest.raises(ValueError, match=r"s must satisfy 1 <= lo < hi, got \(0.5, 10.0\)"):
            Bounds(s=(0.5, 10.0))  # fewer than one server
        assert Bounds(s=(1, 10)).s == (1, 10)

    @pytest.mark.parametrize("end", [0, 1], ids=["lo", "hi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["c1", "f_d", "s"])
    def test_non_finite_end_rejected(self, name, bad, end):
        box = list(getattr(Bounds(), name))
        box[end] = bad
        with pytest.raises(ValueError, match=f"^bounds for {name} must be finite, got "):
            Bounds(**{name: tuple(box)})

    def test_clip_and_contains(self):
        b = Bounds()
        assert b.clip(1e-12, 100.0, 0.5) == (1e-9, 60.0, 1.0)
        assert b.contains(1e-6, 1.0, 10.0)
        assert not b.contains(1e-6, 1.0, 1000.0)


class TestOptimizeProfit:
    params = EconParams()

    def test_deterministic(self):
        a = optimize_profit(self.params, SMALL_BOUNDS, n_starts=8, seed=3)
        b = optimize_profit(self.params, SMALL_BOUNDS, n_starts=8, seed=3)
        assert a == b

    def test_solution_inside_bounds_and_consistent(self):
        sol = optimize_profit(self.params, SMALL_BOUNDS, n_starts=8, seed=1)
        assert SMALL_BOUNDS.contains(sol.c1_star, sol.f_d_star, sol.s_star)
        re_evaluated = profit(self.params, sol.c1_star, sol.f_d_star, sol.s_star)
        assert abs(sol.profit_star - re_evaluated) <= 1e-12

    def test_approximate_stationarity(self):
        for seed in range(3):
            sol = optimize_profit(self.params, SMALL_BOUNDS, n_starts=8, seed=seed)
            assert sol.stationarity_gap <= 1e-6

    def test_beats_grid_oracle_on_defaults(self):
        sol = optimize_profit(self.params, SMALL_BOUNDS, n_starts=8, seed=0)
        oracle = grid_oracle(self.params, SMALL_BOUNDS, resolution=41)
        assert sol.profit_star >= oracle.profit_star - 1e-9

    def test_integer_server_diagnostics(self):
        sol = optimize_profit(self.params, SMALL_BOUNDS, n_starts=4, seed=0)
        for value in (sol.profit_at_floor_s, sol.profit_at_ceil_s):
            assert value <= sol.profit_star + 1e-9 or math.isclose(value, sol.profit_star)

    @pytest.mark.parametrize(
        "modes", [("cdf", "per_server_as_written"), ("pdf_as_written", "total_times_s")]
    )
    def test_same_solution_as_numpy_reference(self, modes, monkeypatch):
        params = self.params.with_modes(*modes)
        got = optimize_profit(params, seed=0)
        monkeypatch.setattr(optimize_module, "nelder_mead", numpy_nelder_mead)
        assert got == optimize_profit(params, seed=0)

    # The best profit `optimize_profit` returns over seeds 0-3 at the default
    # parameters and bounds, per (participation, server cost) mode.
    BEST_KNOWN = {
        ("cdf", "per_server_as_written"): 0.989899547366805,
        ("cdf", "total_times_s"): 0.9898688328385546,
        ("pdf_as_written", "per_server_as_written"): 0.989899547366805,
        ("pdf_as_written", "total_times_s"): 0.9898688445356031,
    }

    @pytest.mark.parametrize(
        "modes",
        [
            pytest.param(
                modes,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="seed 0 stops 1.1e-7 short of seeds 1-3 (ROADMAP items 2-3)",
                ),
            )
            if modes == ("cdf", "total_times_s")
            else modes
            for modes in ALL_MODES
        ],
        ids="-".join,
    )
    def test_seed_zero_finds_the_best_known_optimum(self, modes):
        sol = optimize_profit(self.params.with_modes(*modes), seed=0)
        assert sol.profit_star >= self.BEST_KNOWN[modes] - 1e-9

    @pytest.mark.parametrize("modes", ALL_MODES, ids="-".join)
    def test_every_search_evaluation_is_bitwise_profit(self, modes, monkeypatch):
        # The search compiles the profit once per start; every point it
        # evaluates, restarts included, must get the bits `profit` gives.
        params = self.params.with_modes(*modes)
        seen = []

        def recording(objective, x0, lower, upper):
            def tracked(z):
                value = objective(z)
                seen.append((z, value))
                return value

            return nelder_mead(tracked, x0, lower, upper)

        monkeypatch.setattr(optimize_module, "nelder_mead", recording)
        # Forked workers would record into their own copies of `seen`.
        monkeypatch.setattr(optimize_module, "_cpu_count", lambda: 1)
        sol = optimize_profit(params, seed=0)
        assert len(seen) == sol.n_evaluations
        differ = [
            (z, value)
            for z, value in seen
            if value.hex() != profit(params, *DEFAULT_BOUNDS.clip(math.exp(z[0]), z[1], z[2])).hex()
        ]
        assert differ == []

    def test_flat_objective_still_converges(self):
        # alpha tiny and a degenerate-width payment box: profit barely varies
        params = EconParams(utility=UtilityModel(alpha=1e-12, beta=1e-9))
        bounds = Bounds(c1=(1e-9, 1.001e-9), f_d=(0.1, 0.1001), s=(1.0, 1.0001))
        sol = optimize_profit(params, bounds, n_starts=2, seed=0)
        assert sol.converged
        assert bounds.contains(sol.c1_star, sol.f_d_star, sol.s_star)


# Never ask for more worker processes than this process may run on.
POOL = min(2, optimize_module._cpu_count())
needs_two_cpus = pytest.mark.skipif(POOL < 2, reason="the pool path needs two CPUs")


def on_workers(monkeypatch, n, search, *args, **kwargs):
    """Run `search` with the start pairs spread over n processes. Returns the
    result and the nelder_mead calls this process saw; a worker's calls land
    in its own copy of the list."""
    calls = []

    def counting(*a, **kw):
        calls.append(os.getpid())
        return nelder_mead(*a, **kw)

    with monkeypatch.context() as m:
        m.setattr(optimize_module, "_cpu_count", lambda: n)
        m.setattr(optimize_module, "nelder_mead", counting)
        result = search(*args, **kwargs)
    assert multiprocessing.active_children() == []
    return result, calls


def assert_same_bits(a, b):
    assert a == b
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, float):
            assert x.hex() == y.hex(), f.name


@needs_two_cpus
class TestStartPool:
    """The start pairs give the same result in one process and on the pool."""

    @pytest.mark.parametrize("modes", ALL_MODES, ids="-".join)
    def test_same_solution_on_one_and_two_workers(self, modes, monkeypatch):
        params = EconParams().with_modes(*modes)
        one, calls_here = on_workers(monkeypatch, 1, optimize_profit, params, seed=0)
        two, calls_pooled = on_workers(monkeypatch, POOL, optimize_profit, params, seed=0)
        assert len(calls_here) == 2 * (32 + 9)
        assert calls_pooled == []  # every run happened in a worker
        assert_same_bits(one, two)

    def test_sweep_same_on_one_and_two_workers(self, monkeypatch):
        args = (EconParams(), SMALL_BOUNDS, "sigma", [0.3, 0.5, 0.8])
        one, _ = on_workers(monkeypatch, 1, sweep, *args, n_starts=8, seed=0)
        two, calls_pooled = on_workers(monkeypatch, POOL, sweep, *args, n_starts=8, seed=0)
        assert calls_pooled == []
        assert one == two
        for a, b in zip(one.solutions, two.solutions):
            assert_same_bits(a, b)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def failing(objective, x0, lower, upper):
            raise NonFiniteObjective(f"objective returned nan in process {os.getpid()}")

        monkeypatch.setattr(optimize_module, "_cpu_count", lambda: POOL)
        monkeypatch.setattr(optimize_module, "nelder_mead", failing)
        pattern = r"^objective returned nan in process \d+$"
        with pytest.raises(NonFiniteObjective, match=pattern) as err:
            optimize_profit(EconParams(), SMALL_BOUNDS, n_starts=4, seed=0)
        assert type(err.value) is NonFiniteObjective
        assert not str(err.value).endswith(f" {os.getpid()}")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["no-fork", "daemonic"])
    def test_runs_in_process_where_it_cannot_fork(self, where, monkeypatch):
        if where == "no-fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        else:
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        params = EconParams()
        got, calls = on_workers(monkeypatch, POOL, optimize_profit, params, SMALL_BOUNDS, 2)
        monkeypatch.undo()
        assert len(calls) == 2 * (2 + 9)
        assert got == optimize_profit(params, SMALL_BOUNDS, 2)

    def test_cpu_count_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert optimize_module._cpu_count() == (os.cpu_count() or 1)


class TestGridOracle:
    params = EconParams()

    def test_minimal_grid_is_eight_points(self):
        sol = grid_oracle(self.params, SMALL_BOUNDS, resolution=2)
        assert sol.n_evaluations == 8
        corners = []
        for c1 in SMALL_BOUNDS.c1:
            for f_d in SMALL_BOUNDS.f_d:
                for s in SMALL_BOUNDS.s:
                    corners.append(profit(self.params, c1, f_d, s))
        assert sol.profit_star == pytest.approx(max(corners), rel=1e-12)

    def test_refinement_never_worse(self):
        coarse = grid_oracle(self.params, SMALL_BOUNDS, resolution=11)
        fine = grid_oracle(self.params, SMALL_BOUNDS, resolution=41)
        assert fine.profit_star >= coarse.profit_star - 1e-12

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            grid_oracle(self.params, SMALL_BOUNDS, resolution=1)

    @pytest.mark.parametrize("modes", ALL_MODES)
    def test_same_solution_as_numpy_scalar_loop(self, modes):
        params = self.params.with_modes(*modes)
        assert grid_oracle(params, DEFAULT_BOUNDS, 11) == numpy_grid_oracle(
            params, DEFAULT_BOUNDS, 11
        )

    @pytest.mark.parametrize("modes", ALL_MODES)
    def test_same_solution_as_scalar_loop_at_resolution_41(self, modes):
        params = self.params.with_modes(*modes)
        assert grid_oracle(params, DEFAULT_BOUNDS, 41) == scalar_grid_oracle(
            params, DEFAULT_BOUNDS, 41
        )

    @pytest.mark.parametrize("participation", PARTICIPATION_MODELS)
    def test_all_cells_tied_returns_the_first_lattice_point(self, participation):
        # mu = 50 puts the threshold far above every ratio: the share is exactly
        # 0, so every cell is -c3 and the loop never moves off its first point.
        params = EconParams(mu=50.0, participation_model=participation)
        c1s, f_ds, ss = lattice_axes(SMALL_BOUNDS, 11)
        for slab in profit_slabs(params, c1s, f_ds, ss):
            assert (slab == -params.c3).all()
        sol = grid_oracle(params, SMALL_BOUNDS, 11)
        assert sol == scalar_grid_oracle(params, SMALL_BOUNDS, 11)
        assert (sol.c1_star, sol.f_d_star, sol.s_star) == (c1s[0], f_ds[0], ss[0])

    def test_tie_across_two_c1_slabs_keeps_the_earlier_slab(self):
        # A narrow (f_d, s) box and sigma = 0.01 make the share exactly 0 on
        # the first two c1 slabs and exactly 1 above them, where c2 = 1 makes
        # the participants' server cost dwarf their utility.
        bounds = Bounds(c1=(1e-9, 1e-3), f_d=(1.0, 1.1), s=(1.0, 1.1))
        base = EconParams(c2=1.0, sigma=0.01)
        c1s, f_ds, ss = lattice_axes(bounds, 5)

        def log_ratios(c1):
            return [math.log(c1 * f_d / total_loss(base.loss, f_d, s)) for f_d in f_ds for s in ss]

        params = replace(base, mu=0.5 * (max(log_ratios(c1s[1])) + min(log_ratios(c1s[2]))))
        slabs = list(profit_slabs(params, c1s, f_ds, ss))
        best = max(slab.max() for slab in slabs)
        assert best == -params.c3
        assert [bool((slab == best).all()) for slab in slabs] == [True, True, False, False, False]
        assert not any((slab == best).any() for slab in slabs[2:])
        sol = grid_oracle(params, bounds, 5)
        assert sol == scalar_grid_oracle(params, bounds, 5)
        assert (sol.c1_star, sol.f_d_star, sol.s_star) == (c1s[0], f_ds[0], ss[0])

    def test_deterministic(self):
        a = grid_oracle(self.params, SMALL_BOUNDS, resolution=5)
        b = grid_oracle(self.params, SMALL_BOUNDS, resolution=5)
        assert a == b


class TestSweep:
    params = EconParams()

    def test_single_value_equals_direct_optimization(self):
        result = sweep(self.params, SMALL_BOUNDS, "c2", [1e-6], n_starts=4, seed=2)
        direct = optimize_profit(self.params, SMALL_BOUNDS, n_starts=4, seed=2)
        assert len(result.solutions) == 1
        assert result.solutions[0] == direct

    def test_value_order_invariance(self):
        forward = sweep(self.params, SMALL_BOUNDS, "c3", [1e-5, 1e-4], n_starts=4, seed=1)
        backward = sweep(self.params, SMALL_BOUNDS, "c3", [1e-4, 1e-5], n_starts=4, seed=1)
        assert forward.solutions[0] == backward.solutions[1]
        assert forward.solutions[1] == backward.solutions[0]

    def test_each_parameter_is_applied(self):
        for name, value in [("c2", 5e-7), ("c3", 5e-5), ("V", 1000.0), ("sigma", 0.9)]:
            result = sweep(self.params, SMALL_BOUNDS, name, [value], n_starts=2, seed=0)
            assert result.parameter == name
            assert result.values == (value,)
        beta_sweep = sweep(self.params, SMALL_BOUNDS, "beta", [0.1], n_starts=2, seed=0)
        assert beta_sweep.values == (0.1,)

    def test_invalid_parameter(self):
        with pytest.raises(ValueError):
            sweep(self.params, SMALL_BOUNDS, "alpha", [0.5])

    def test_empty_values(self):
        with pytest.raises(ValueError):
            sweep(self.params, SMALL_BOUNDS, "c2", [])

    def test_bad_last_value_fails_before_any_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran before every value was checked")

        monkeypatch.setattr(optimize_module, "nelder_mead", no_search)
        with pytest.raises(ValueError, match="sigma must be positive, got -1.0"):
            sweep(self.params, SMALL_BOUNDS, "sigma", [0.5, 0.8, -1.0])

    def test_csv_shape(self, monkeypatch):
        result = sweep(self.params, SMALL_BOUNDS, "c2", [1e-7, 1e-6], n_starts=2, seed=0)
        monkeypatch.setattr(cli, "sweep", lambda *args: result)
        text = cli.cmd_sweep(RunConfig(sweep_values=result.values), None)["sweep.csv"]
        lines = text.strip().splitlines()
        assert lines[0] == "param_value,c1,f_d,s,profit"
        assert len(lines) == 3
