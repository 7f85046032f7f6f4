import math

import numpy as np
import pytest

from reference_impls import loop_utility_surface, scalar_build_map
import vanetmarket.trajectories as trajectories
import vanetmarket.utility as utility_module
from vanetmarket import (
    GridSpec,
    Trajectory,
    UtilityModel,
    UtilitySurface,
    build_utility_surface,
    eval_utility,
    fit_utility,
    build_map,
    generate_synthetic,
    grid_utility,
    subsample,
)

SPEC = GridSpec((39.8, 40.0, 116.25, 116.5), cell_size=1000.0, time_bin=10.0)


class TestGridUtility:
    def test_zero_vehicles(self):
        assert grid_utility(0) == 0.0

    def test_single_vehicle_value(self):
        assert grid_utility(1, 100.0) == pytest.approx(0.9735365333213165, rel=1e-12)

    def test_large_n_limit(self):
        assert grid_utility(1e12, 100.0) == pytest.approx(100.0 / 101.0, rel=1e-6)

    def test_strictly_increasing_and_bounded(self):
        values = [grid_utility(n) for n in range(1, 200)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 100.0 / 101.0 for v in values)

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_utility(-1)
        with pytest.raises(ValueError):
            grid_utility(1, a=0.0)


class TestEvalUtility:
    model = UtilityModel()

    def test_zero_vehicles(self):
        assert eval_utility(self.model, 0.0, 5.0) == 0.0

    def test_reference_value(self):
        # alpha=0.99, beta=0.45, v*f_d = 10
        assert eval_utility(self.model, 2.0, 5.0) == pytest.approx(0.9790020934271401, rel=1e-12)

    def test_saturation(self):
        assert eval_utility(self.model, 1e6, 10.0) == pytest.approx(0.99, abs=1e-12)

    def test_monotone_and_concave_in_product(self):
        xs = np.linspace(0.1, 30, 50)
        ys = [eval_utility(self.model, x, 1.0) for x in xs]
        assert all(a < b for a, b in zip(ys, ys[1:]))
        diffs = np.diff(ys)
        assert all(a > b for a, b in zip(diffs, diffs[1:]))  # diminishing returns

    def test_bounded_by_alpha(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v, f = rng.uniform(0, 1e4), rng.uniform(0, 60)
            assert eval_utility(self.model, v, f) <= self.model.alpha

    def test_validation(self):
        with pytest.raises(ValueError):
            eval_utility(self.model, -1.0, 1.0)
        with pytest.raises(ValueError):
            UtilityModel(alpha=0.0)
        with pytest.raises(ValueError):
            UtilityModel(alpha=1.2)
        with pytest.raises(ValueError):
            UtilityModel(beta=0.0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "a"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError, match="nan"):
            UtilityModel(**{field: math.nan})


class TestUtilitySurface:
    def test_zero_vehicle_rows_are_zero(self, fleet):
        surface = build_utility_surface(fleet, SPEC, [0, 5], [1.0, 0.5], seed=1)
        zero_rows = [u for n, _, u in surface.points if n == 0]
        assert zero_rows == [0.0, 0.0]

    def test_deterministic_per_seed(self, fleet):
        a = build_utility_surface(fleet, SPEC, [5, 10], [0.5], seed=4)
        b = build_utility_surface(fleet, SPEC, [5, 10], [0.5], seed=4)
        c = build_utility_surface(fleet, SPEC, [5, 10], [0.5], seed=5)
        assert a == b
        assert a != c

    def test_full_fleet_native_rate_matches_brute_force(self, fleet):
        n = len(fleet)
        surface = build_utility_surface(fleet, SPEC, [n], [1.0], seed=0)
        # independent reimplementation: grid every sample with the per-sample
        # reference, vehicles per cell, mean utility over occupied cells
        counts, _ = scalar_build_map(fleet, SPEC)
        expected = math.fsum(
            1.0 - 1.0 / (1.0 + 100.0 * math.exp(-1.0 / math.sqrt(n))) for n in counts.values()
        ) / len(counts)
        assert surface.points[0][2] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("count_mode", ["vehicles", "samples"])
    def test_one_grid_utility_per_distinct_count(self, fleet, monkeypatch, count_mode):
        freqs = (1.0, 0.5, 0.2)
        expected, distinct = [], 0
        for f in freqs:
            m = build_map([subsample(t, f) for t in fleet], SPEC, count_mode=count_mode)
            per_cell = math.fsum(grid_utility(c) for c in m.counts.values()) / len(m.counts)
            expected.append((float(len(fleet)), f, per_cell))
            distinct += len(set(m.counts.values()))
        calls = []
        monkeypatch.setattr(
            utility_module, "grid_utility", lambda n, a: calls.append(n) or grid_utility(n, a)
        )
        surface = build_utility_surface(
            fleet, SPEC, [len(fleet)], freqs, average_over="occupied", count_mode=count_mode
        )
        assert surface.points == tuple(expected)
        assert len(calls) == distinct

    def test_subsamples_each_vehicle_once_per_frequency(self, fleet, monkeypatch):
        calls = []

        def counting(times, f_d, vehicle_id):
            calls.append((vehicle_id, f_d))
            return trajectories._kept_index(times, f_d, vehicle_id)

        monkeypatch.setattr(utility_module, "_kept_index", counting)
        n, freqs = len(fleet), (1.0, 0.5, 0.25)
        # The counts calibrate-utility derives from the fleet size.
        build_utility_surface(fleet, SPEC, [0, n // 4, n // 2, (3 * n) // 4, n], freqs, seed=3)
        assert sorted(calls) == sorted((t.vehicle_id, f) for t in fleet for f in freqs)
        # A small sub-fleet takes kept rows only for the vehicles it draws.
        calls.clear()
        build_utility_surface(fleet, SPEC, [3, 3], freqs, seed=3)
        assert len(calls) == len(set(calls)) <= 2 * 3 * len(freqs)

    def test_monotone_in_fleet_size_statistically(self):
        # dense fleet so extra vehicles raise cell occupancy almost surely
        trajs = generate_synthetic(60, 30, seed=17, bbox=(39.90, 39.94, 116.30, 116.35))
        diffs = []
        for seed in range(10):
            surface = build_utility_surface(trajs, SPEC, [10, 30, 60], [1.0], seed=seed)
            utils = [u for _, _, u in surface.points]
            diffs.extend(np.diff(utils))
        mean = float(np.mean(diffs))
        sem = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs)))
        assert mean > -3.0 * sem  # non-decreasing at 3-sigma

    def test_count_exceeding_fleet_rejected(self, fleet):
        with pytest.raises(ValueError, match="exceeds"):
            build_utility_surface(fleet, SPEC, [len(fleet) + 1], [0.5])

    def test_negative_count_rejected(self, fleet):
        with pytest.raises(ValueError, match="vehicle count must be >= 0, got -1"):
            build_utility_surface(fleet, SPEC, [-1], [0.5])

    def test_average_over_modes(self, fleet):
        n = len(fleet)
        kw = dict(vehicle_counts=[n // 2], freqs=[0.5], seed=2)
        ever = build_utility_surface(fleet, SPEC, average_over="ever_occupied", **kw)
        occ = build_utility_surface(fleet, SPEC, average_over="occupied", **kw)
        all_cells = build_utility_surface(fleet, SPEC, average_over="all", **kw)
        # denominators grow: occupied <= ever_occupied <= all cells
        assert occ.points[0][2] >= ever.points[0][2] >= all_cells.points[0][2]

    def test_surface_validation(self):
        with pytest.raises(ValueError):
            UtilitySurface(())
        with pytest.raises(ValueError):
            UtilitySurface(((1.0, 1.0, 1.5),))


class TestSurfaceMatchesLoop:
    """The surface counted from per-row cell ids equals the loop that
    subsampled and gridded every sub-fleet, point for point."""

    # A bbox smaller than the fleet's, so some samples fall outside it.
    spec = GridSpec((39.85, 39.95, 116.3, 116.45), cell_size=333.0, time_bin=7.0)

    @pytest.fixture(scope="class")
    def trajs(self, fleet):
        # A second vehicle a few meters off fleet[0]'s path, so the two share
        # cells and count twice there in `vehicles` mode.
        twin = Trajectory("twin", tuple(s._replace(lat=s.lat + 1e-5) for s in fleet[0].samples))
        return [*fleet, twin]

    def test_fixture_reaches_outside_rows_and_a_shared_cell(self, trajs):
        assert 0 < build_map(trajs, self.spec).dropped_outside < sum(len(t) for t in trajs)
        shared = set(build_map(trajs[:1], self.spec).counts)
        shared &= set(build_map(trajs[-1:], self.spec).counts)
        assert shared
        by_samples = build_map([trajs[0], trajs[-1]], self.spec, count_mode="samples").counts
        by_vehicles = build_map([trajs[0], trajs[-1]], self.spec).counts
        assert all(by_vehicles[k] == 2 for k in shared)
        assert any(by_samples[k] > by_vehicles[k] for k in shared)

    @pytest.mark.parametrize("count_mode", ["vehicles", "samples"])
    @pytest.mark.parametrize("average_over", ["ever_occupied", "occupied", "all"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_equals_the_loop(self, trajs, count_mode, average_over, seed):
        n = len(trajs)
        kw = dict(
            vehicle_counts=[0, 1, n // 3, n // 2, n - 1, n],
            freqs=(1.0, 0.5, 1 / 3, 0.1),
            a=37.0,
            seed=seed,
            average_over=average_over,
            count_mode=count_mode,
        )
        surface = build_utility_surface(trajs, self.spec, **kw)
        assert surface.points == loop_utility_surface(trajs, self.spec, **kw)

    @pytest.mark.parametrize("count_mode", ["vehicles", "samples"])
    def test_every_input_form_gives_the_same_surface(self, fleet, input_forms, count_mode):
        kw = dict(vehicle_counts=[0, 5, 20, len(fleet)], freqs=(1.0, 0.25), seed=3)
        want = build_utility_surface(fleet, self.spec, count_mode=count_mode, **kw)
        for form, trajs in input_forms(fleet).items():
            assert build_utility_surface(trajs, self.spec, count_mode=count_mode, **kw) == want, form

    def test_fleet_entirely_outside_the_bbox(self, fleet):
        spec = GridSpec((10.0, 11.0, 10.0, 11.0))
        kw = dict(vehicle_counts=[0, 3, len(fleet)], freqs=(1.0, 0.25), seed=1)
        for average_over in ("ever_occupied", "occupied", "all"):
            surface = build_utility_surface(fleet, spec, average_over=average_over, **kw)
            assert surface.points == loop_utility_surface(fleet, spec, average_over=average_over, **kw)
            assert all(u == 0.0 for _, _, u in surface.points)


class TestFitUtility:
    def test_planted_parameter_recovery(self):
        model = UtilityModel(alpha=0.99, beta=0.45)
        points = []
        for v in (1.0, 2.0, 5.0):
            for f in (0.25, 0.5, 1.0, 2.0, 4.0):
                points.append((v, f, eval_utility(model, v, f)))
        fit = fit_utility(UtilitySurface(tuple(points)))
        assert fit.alpha == pytest.approx(0.99, abs=1e-6)
        assert fit.beta == pytest.approx(0.45, abs=1e-6)
        assert fit.valid and fit.converged

    def test_six_figure_recovery_other_parameters(self):
        model = UtilityModel(alpha=0.7, beta=0.08)
        points = [(v, f, eval_utility(model, v, f)) for v in (2.0, 7.0, 13.0) for f in (0.2, 1.0, 3.0)]
        fit = fit_utility(UtilitySurface(tuple(points)))
        assert fit.alpha == pytest.approx(0.7, rel=1e-6)
        assert fit.beta == pytest.approx(0.08, rel=1e-6)

    def test_paper_defaults_available_without_data(self):
        model = UtilityModel()
        assert (model.alpha, model.beta) == (0.99, 0.45)

    def test_underdetermined(self):
        surface = UtilitySurface(((1.0, 0.5, 0.2), (0.5, 1.0, 0.2), (2.0, 0.25, 0.2)))
        with pytest.raises(ValueError, match="underdetermined"):
            fit_utility(surface)  # all share v*f_d = 0.5

    def test_degenerate_all_zero(self):
        surface = UtilitySurface(tuple((float(v), 1.0, 0.0) for v in range(1, 8)))
        fit = fit_utility(surface)
        assert abs(fit.alpha) < 1e-6 or not fit.valid
