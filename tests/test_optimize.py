import io
import math

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
from vanetmarket import optimize as optimize_module
from vanetmarket.econ import PARTICIPATION_MODELS, SERVER_COST_MODELS
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
    """A quantised bowl in 1-3 dimensions, its box and a start (maybe outside the box).

    Rounding the objective down to a multiple of `quantum` makes wide plateaus,
    so vertices tie exactly and contractions fail into shrink steps.
    """
    dim = draw(st.integers(1, 3))
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
        @given(problem=plateau_problems(), max_iter=st.sampled_from([40, 400]))
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


class TestNelderMead:
    def test_parabola_maximum(self):
        result = nelder_mead(lambda x: -((x[0] - 2.0) ** 2), [0.0], [-10.0], [10.0])
        assert result.x[0] == pytest.approx(2.0, abs=1e-6)
        assert result.converged

    def test_negated_rosenbrock(self):
        def rosen(x):
            return -((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

        result = nelder_mead(rosen, [-1.2, 1.0], [-5.0, -5.0], [5.0, 5.0])
        assert result.x[0] == pytest.approx(1.0, abs=1e-4)
        assert result.x[1] == pytest.approx(1.0, abs=1e-4)

    def test_matches_golden_section_on_payment_slice(self):
        params = EconParams()
        f_d, s = 2.0, 5.0
        objective = lambda x: profit(params, x[0], f_d, s)
        lo, hi = 1e-7, 1e-3
        nm = nelder_mead(objective, [2e-4], [lo], [hi])
        gold = golden_section_max(lambda c: profit(params, c, f_d, s), lo, hi)
        assert nm.x[0] == pytest.approx(gold, abs=1e-8)

    def test_constant_objective_converges(self):
        result = nelder_mead(lambda x: 7.5, [0.3, 0.4], [0.0, 0.0], [1.0, 1.0])
        assert result.converged
        assert result.fun == 7.5

    def test_respects_box(self):
        result = nelder_mead(lambda x: x[0] + x[1], [0.5, 0.5], [0.0, 0.0], [1.0, 1.0])
        assert result.x[0] <= 1.0 and result.x[1] <= 1.0
        assert result.fun == pytest.approx(2.0, abs=1e-8)

    def test_non_finite_objective_identifies_point(self):
        def bad(x):
            return math.nan if x[0] > 0.5 else x[0]

        with pytest.raises(NonFiniteObjective, match="nan"):
            nelder_mead(bad, [0.4], [0.0], [1.0])

    def test_start_outside_box_is_clipped(self):
        result = nelder_mead(lambda x: -(x[0] ** 2), [5.0], [-1.0, ], [1.0])
        assert result.x[0] == pytest.approx(0.0, abs=1e-6)

    def test_points_are_tuples_of_floats(self):
        seen = []

        def objective(x):
            seen.append(x)
            return -((x[0] - 0.25) ** 2) - x[1] ** 2

        result = nelder_mead(objective, np.array([1, 0.5]), [0, -1], (1, np.float64(1.0)))
        for x in [*seen, result.x]:
            assert type(x) is tuple and [type(v) for v in x] == [float, float]

    def test_box_length_must_match_start(self):
        with pytest.raises(ValueError, match="one length"):
            nelder_mead(lambda x: x[0], [0.5, 0.5], [0.0], [1.0])

    @pytest.mark.parametrize(
        "objective, x0, lower, upper",
        [
            (lambda x: -((x[0] - 2.0) ** 2), [0.0], [-10.0], [10.0]),
            (
                lambda x: -((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2),
                [-1.2, 1.0],
                [-5.0, -5.0],
                [5.0, 5.0],
            ),
            (lambda x: profit(EconParams(), x[0], 2.0, 5.0), [2e-4], [1e-7], [1e-3]),
            (lambda x: -(x[0] ** 2), [5.0], [-1.0], [1.0]),
            (lambda x: x[0] + x[1], [0.5, 0.5], [0.0, 0.0], [1.0, 1.0]),
        ],
        ids=["parabola", "rosenbrock", "payment-slice", "clipped-start", "corner"],
    )
    def test_bitwise_equal_to_numpy_reference(self, objective, x0, lower, upper):
        assert_same_nm_result(
            nelder_mead(objective, x0, lower, upper),
            numpy_nelder_mead(objective, x0, lower, upper),
        )

    def test_inverted_box_is_rejected(self):
        with pytest.raises(ValueError, match="exceeds upper bound"):
            nelder_mead(lambda x: x[0], [0.5], [1.0], [0.0])

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

    def test_flat_objective_still_converges(self):
        # alpha tiny and a degenerate-width payment box: profit barely varies
        params = EconParams(utility=UtilityModel(alpha=1e-12, beta=1e-9))
        bounds = Bounds(c1=(1e-9, 1.001e-9), f_d=(0.1, 0.1001), s=(1.0, 1.0001))
        sol = optimize_profit(params, bounds, n_starts=2, seed=0)
        assert sol.converged
        assert bounds.contains(sol.c1_star, sol.f_d_star, sol.s_star)


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

    def test_csv_shape(self):
        result = sweep(self.params, SMALL_BOUNDS, "c2", [1e-7, 1e-6], n_starts=2, seed=0)
        buf = io.StringIO()
        result.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "param_value,c1,f_d,s,profit"
        assert len(lines) == 3
