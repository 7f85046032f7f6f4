import gc
import io
import json
import math
import warnings

import numpy as np
import pytest

from vanetmarket import (
    GeoSample,
    GridSpec,
    TraceParseError,
    Trajectory,
    build_map,
    generate_synthetic,
    parse_traces,
    project_planar,
    subsample,
)

HEADER = "vehicle_id,timestamp,lat,lon\n"


def make_traj(times, vid="v", lat=40.0, lon=116.3):
    return Trajectory(vid, tuple(GeoSample(float(t), lat, lon) for t in times))


def scalar_build_map(trajs, spec, count_mode="vehicles"):
    """The per-sample loop build_map replaced: the bitwise reference."""
    dropped = 0
    seen = {}
    for traj in trajs:
        for s in traj.samples:
            cell = spec.cell_of(s.lat, s.lon)
            if cell is None:
                dropped += 1
                continue
            key = (cell[0], cell[1], spec.time_index(s.t))
            if count_mode == "samples":
                seen[key] = seen.get(key, 0) + 1
            else:
                seen.setdefault(key, set()).add(traj.vehicle_id)
    if count_mode == "vehicles":
        seen = {k: len(v) for k, v in seen.items()}
    return seen, dropped


def moving_traj(times, vid="v"):
    return Trajectory(
        vid, tuple(GeoSample(float(t), 40.0 + 0.001 * t, 116.3 + 0.0005 * t) for t in times)
    )


class TestParseTraces:
    def test_two_rows_one_vehicle(self):
        trajs = parse_traces(io.StringIO(HEADER + "a,0,40.0,116.3\na,1,40.001,116.3\n"))
        assert len(trajs) == 1
        assert len(trajs[0]) == 2
        assert trajs[0].vehicle_id == "a"
        assert [s.t for s in trajs[0].samples] == [0.0, 1.0]

    def test_out_of_order_rows_sorted(self):
        trajs = parse_traces(io.StringIO(HEADER + "a,5,40.0,116.3\na,1,40.1,116.3\na,3,40.2,116.3\n"))
        assert [s.t for s in trajs[0].samples] == [1.0, 3.0, 5.0]

    def test_latitude_out_of_range_names_line(self):
        stream = io.StringIO(HEADER + "a,0,40.0,116.3\na,1,95,116.3\n")
        with pytest.raises(TraceParseError, match="line 3"):
            parse_traces(stream)

    def test_empty_input(self):
        with pytest.raises(TraceParseError, match="no trajectories"):
            parse_traces(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(TraceParseError, match="no trajectories"):
            parse_traces(io.StringIO(HEADER))

    def test_wrong_header(self):
        with pytest.raises(TraceParseError, match="line 1"):
            parse_traces(io.StringIO("vid,t,lat,lon\na,0,40,116\n"))

    def test_wrong_field_count_names_line(self):
        with pytest.raises(TraceParseError, match="line 2"):
            parse_traces(io.StringIO(HEADER + "a,0,40.0\n"))

    def test_duplicate_timestamp_keeps_first(self):
        trajs = parse_traces(io.StringIO(HEADER + "a,0,40.0,116.3\na,0,41.0,116.3\na,1,40.5,116.3\n"))
        assert len(trajs[0]) == 2
        assert trajs[0].samples[0].lat == 40.0

    def test_iso8601_timestamps(self):
        rows = HEADER + "a,2008-02-02T15:36:08Z,40.0,116.3\na,2008-02-02T15:37:08Z,40.1,116.3\n"
        trajs = parse_traces(io.StringIO(rows))
        t0, t1 = (s.t for s in trajs[0].samples)
        assert t1 - t0 == pytest.approx(1.0)

    def test_bytes_stream(self):
        data = (HEADER + "a,0,40.0,116.3\na,1,40.1,116.3\n").encode()
        trajs = parse_traces(io.BytesIO(data))
        assert len(trajs[0]) == 2

    @pytest.mark.parametrize("body", ["a,0,40.0,116.3\n", "a,0,40.0\n"], ids=["valid", "malformed"])
    @pytest.mark.parametrize(
        "opener",
        [lambda p: io.BytesIO(p.read_bytes()), lambda p: open(p, "rb")],
        ids=["bytes", "file"],
    )
    def test_binary_stream_is_left_open(self, tmp_path, body, opener):
        path = tmp_path / "traces.csv"
        path.write_bytes((HEADER + body).encode())
        with opener(path) as stream, warnings.catch_warnings():
            warnings.simplefilter("error")  # a text wrapper collected unclosed warns
            try:
                parse_traces(stream)
            except TraceParseError:
                pass
            gc.collect()
            assert not stream.closed

    def test_multiple_vehicles(self):
        rows = HEADER + "a,0,40,116.3\nb,0,40,116.3\na,1,40,116.3\nb,1,40,116.3\n"
        trajs = parse_traces(io.StringIO(rows))
        assert sorted(t.vehicle_id for t in trajs) == ["a", "b"]


class TestTrajectoryInvariants:
    def test_non_increasing_time_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_traj([0, 1, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trajectory("v", ())

    def test_latitude_bounds(self):
        with pytest.raises(ValueError, match="latitude"):
            Trajectory("v", (GeoSample(0.0, 95.0, 0.0),))

    def test_native_rate(self):
        assert make_traj(range(10)).native_rate() == pytest.approx(1.0)
        assert make_traj([0, 2, 4, 6]).native_rate() == pytest.approx(0.5)


class TestGenerateSynthetic:
    def test_single_vehicle_shape(self):
        trajs = generate_synthetic(1, 10, seed=7)
        assert len(trajs) == 1
        assert [s.t for s in trajs[0].samples] == [float(t) for t in range(10)]

    def test_deterministic(self):
        assert generate_synthetic(2, 30, seed=7) == generate_synthetic(2, 30, seed=7)
        assert generate_synthetic(2, 30, seed=7) != generate_synthetic(2, 30, seed=8)

    def test_full_day_fleet(self):
        trajs = generate_synthetic(3, 1440, seed=1)
        assert len(trajs) == 3
        assert all(len(t) == 1440 for t in trajs)

    def test_inside_bbox(self):
        bbox = (39.9, 39.95, 116.3, 116.35)
        for traj in generate_synthetic(3, 60, seed=2, bbox=bbox):
            for s in traj.samples:
                assert bbox[0] <= s.lat <= bbox[1]
                assert bbox[2] <= s.lon <= bbox[3]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 10, seed=1)
        with pytest.raises(ValueError):
            generate_synthetic(1, 1, seed=1)


class TestSubsample:
    def test_identity_at_native_rate(self):
        traj = moving_traj(range(10))
        assert subsample(traj, 1.0).samples == traj.samples

    def test_half_rate_keeps_even_and_last(self):
        traj = moving_traj(range(10))
        assert [s.t for s in subsample(traj, 0.5).samples] == [0, 2, 4, 6, 8, 9]

    def test_tenth_rate_eleven_samples(self):
        traj = moving_traj(range(11))
        assert [s.t for s in subsample(traj, 0.1).samples] == [0, 10]

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            subsample(moving_traj(range(5)), 0.0)
        with pytest.raises(ValueError):
            subsample(moving_traj(range(5)), -1.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            subsample(make_traj([0]), 1.0)

    def test_sample_counts_monotone_in_frequency(self):
        traj = moving_traj(range(120))
        freqs = [1 / m for m in range(1, 12)]
        sizes = [len(subsample(traj, f)) for f in sorted(freqs)]
        assert sizes == sorted(sizes)

    def test_subset_and_endpoints(self):
        rng = np.random.default_rng(4)
        traj = moving_traj(range(60))
        full_set = set(traj.samples)
        for f in rng.uniform(0.05, 1.0, size=20):
            sub = subsample(traj, float(f))
            assert set(sub.samples) <= full_set
            assert sub.samples[0] == traj.samples[0]
            assert sub.samples[-1] == traj.samples[-1]

    def test_non_unit_gap_native_rate(self):
        traj = moving_traj([0, 2, 4, 6, 8])
        assert subsample(traj, traj.native_rate()).samples == traj.samples

    def test_thirds_hit_every_third_sample(self):
        traj = moving_traj(range(10))
        assert [s.t for s in subsample(traj, 1 / 3).samples] == [0, 3, 6, 9]


class TestProjectPlanar:
    def test_single_sample_maps_to_origin(self):
        path = project_planar(make_traj([0]))
        assert np.allclose(path.points, [[0.0, 0.0]])

    def test_latitude_degree_scale(self):
        traj = Trajectory("v", (GeoSample(0, 40.0, 116.3), GeoSample(1, 40.01, 116.3)))
        path = project_planar(traj)
        dy = path.points[1, 1] - path.points[0, 1]
        assert dy == pytest.approx(1111.949266445587, rel=1e-12)

    def test_identical_samples_identical_points(self):
        traj = Trajectory("v", (GeoSample(0, 40.0, 116.3), GeoSample(1, 40.0, 116.3)))
        path = project_planar(traj)
        assert np.array_equal(path.points[0], path.points[1])

    def test_preserves_length_and_order(self, fleet):
        traj = fleet[0]
        path = project_planar(traj)
        assert len(path) == len(traj)
        # heading of the first step should match the lat/lon delta signs
        s0, s1 = traj.samples[0], traj.samples[1]
        step = path.points[1] - path.points[0]
        assert math.copysign(1, step[1]) == math.copysign(1, s1.lat - s0.lat)

    def test_matches_haversine_within_one_percent(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            lat0 = float(rng.uniform(-60, 60))
            lon0 = float(rng.uniform(-179, 179))
            dlat = float(rng.uniform(-0.2, 0.2))  # spans below ~50 km
            dlon = float(rng.uniform(-0.2, 0.2))
            traj = Trajectory(
                "v", (GeoSample(0, lat0, lon0), GeoSample(1, lat0 + dlat, lon0 + dlon))
            )
            path = project_planar(traj)
            planar = float(np.hypot(*(path.points[1] - path.points[0])))
            hav = _haversine(lat0, lon0, lat0 + dlat, lon0 + dlon)
            if hav > 1.0:
                assert planar == pytest.approx(hav, rel=0.01)


def _haversine(lat1, lon1, lat2, lon2):
    r = 6371000.0
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * r * math.asin(math.sqrt(a))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec((40.0, 39.0, 116.0, 117.0))
        with pytest.raises(ValueError):
            GridSpec((39.0, 40.0, 116.0, 117.0), cell_size=0)
        with pytest.raises(ValueError):
            GridSpec((39.0, 40.0, 116.0, 117.0), time_bin=-1)

    def test_cell_of_outside_is_none(self):
        spec = GridSpec((39.8, 40.0, 116.25, 116.5))
        assert spec.cell_of(41.0, 116.3) is None
        assert spec.cell_of(39.9, 116.3) is not None

    def test_edge_samples_land_in_last_cell(self):
        spec = GridSpec((39.8, 40.0, 116.25, 116.5), cell_size=1000.0)
        nx, ny = spec.n_cells
        cx, cy = spec.cell_of(40.0, 116.5)
        assert (cx, cy) == (nx - 1, ny - 1)


class TestBuildMap:
    spec = GridSpec((39.8, 40.0, 116.25, 116.5), cell_size=1000.0, time_bin=10.0)

    def test_single_vehicle_single_cell(self):
        traj = make_traj([0, 1], lat=39.9, lon=116.3)
        m = build_map([traj], self.spec)
        assert set(m.counts.values()) == {1}

    def test_two_vehicles_same_cell(self):
        a = make_traj([0], vid="a", lat=39.9, lon=116.3)
        b = make_traj([0], vid="b", lat=39.9, lon=116.3)
        m = build_map([a, b], self.spec)
        assert list(m.counts.values()) == [2]

    def test_repeat_samples_count_once_per_vehicle(self):
        traj = make_traj([0, 1, 2, 3, 4], lat=39.9, lon=116.3)
        m = build_map([traj], self.spec)
        assert list(m.counts.values()) == [1]
        # brute-force oracle: per-cell set of contributing vehicles
        oracle = {}
        for s in traj.samples:
            cell = self.spec.cell_of(s.lat, s.lon)
            key = (cell[0], cell[1], self.spec.time_index(s.t))
            oracle.setdefault(key, set()).add(traj.vehicle_id)
        assert m.counts == {k: len(v) for k, v in oracle.items()}

    def test_brute_force_oracle_on_fleet(self, fleet):
        m = build_map(fleet, self.spec)
        oracle = {}
        for traj in fleet:
            for s in traj.samples:
                cell = self.spec.cell_of(s.lat, s.lon)
                if cell is None:
                    continue
                key = (cell[0], cell[1], self.spec.time_index(s.t))
                oracle.setdefault(key, set()).add(traj.vehicle_id)
        assert m.counts == {k: len(v) for k, v in oracle.items()}

    def test_samples_mode(self):
        traj = make_traj([0, 1, 2, 3, 4], lat=39.9, lon=116.3)
        m = build_map([traj], self.spec, count_mode="samples")
        assert list(m.counts.values()) == [5]

    def test_outside_bbox_dropped_and_tallied(self):
        inside = make_traj([0], vid="a", lat=39.9, lon=116.3)
        outside = make_traj([0], vid="b", lat=50.0, lon=116.3)
        m = build_map([inside, outside], self.spec)
        assert m.dropped_outside == 1
        assert m.total() == 1

    def test_total_bounded_by_samples_and_fleet(self, fleet):
        m = build_map(fleet, self.spec)
        assert m.total() <= sum(len(t) for t in fleet)
        assert all(c <= len(fleet) for c in m.counts.values())

    def test_total_bounded_by_vehicles_times_bins_at_bin_rate(self, fleet):
        # one sample per time bin: a vehicle then touches at most one cell per
        # bin, so the vehicles-times-bins cap is tight in this regime
        slow = [Trajectory(t.vehicle_id, t.samples[5::10]) for t in fleet]
        m = build_map(slow, self.spec)
        bins = {k[2] for k in m.counts}
        assert m.total() <= len(fleet) * max(1, len(bins))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            build_map([], self.spec, count_mode="bogus")

    def test_csv_and_json_shape(self):
        traj = make_traj([0], lat=39.9, lon=116.3)
        m = build_map([traj], self.spec)
        buf = io.StringIO()
        m.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "cell_x,cell_y,time_idx,count"
        assert len(lines) == 2
        d = m.to_json_dict()
        assert d["counts"][0][3] == 1
        assert d["dropped_outside"] == 0


class TestBuildMapMatchesScalarLoop:
    spec = GridSpec((39.8, 40.0, 116.25, 116.5), cell_size=1000.0, time_bin=10.0)

    def check(self, trajs, spec=None):
        spec = spec or self.spec
        for mode in ("vehicles", "samples"):
            m = build_map(trajs, spec, count_mode=mode)
            counts, dropped = scalar_build_map(trajs, spec, mode)
            assert m.counts == counts and m.dropped_outside == dropped
            assert all(type(v) is int for key in m.counts for v in key)
            assert all(type(v) is int for v in m.counts.values())
            json.dumps(m.to_json_dict())
            json.dumps([[*k, v] for k, v in m.counts.items()])

    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec((39.8, 40.0, 116.25, 116.5), cell_size=1000.0, time_bin=10.0),
            GridSpec((39.85, 39.95, 116.3, 116.45), cell_size=333.0, time_bin=7.0),
            GridSpec((39.8, 40.0, 116.25, 116.5), cell_size=50000.0, time_bin=0.5),
        ],
    )
    def test_fleet(self, fleet, spec):
        self.check(fleet, spec)

    def test_inside_and_outside_within_one_trajectory(self):
        crossing = Trajectory(
            "x",
            tuple(GeoSample(float(t), 39.79 + 0.002 * t, 116.24 + 0.003 * t) for t in range(120)),
        )
        assert 0 < build_map([crossing], self.spec).dropped_outside < len(crossing)
        self.check([crossing, moving_traj(range(30), vid="y")])

    def test_same_vehicle_id_in_two_trajectories(self):
        a1 = make_traj([0, 1], vid="a", lat=39.9, lon=116.3)
        a2 = make_traj([2, 3], vid="a", lat=39.9, lon=116.3)
        b = make_traj([4], vid="b", lat=39.9, lon=116.3)
        assert list(build_map([a1, a2, b], self.spec).counts.values()) == [2]
        self.check([a1, a2, b])

    @pytest.mark.parametrize("axis", [0, 1])
    def test_samples_on_the_upper_bbox_edges(self, axis):
        # cells that divide the bbox exactly put its upper edge on a cell
        # boundary, so only the clamp to nx - 1 / ny - 1 keeps it inside
        lat_min, lat_max, lon_min, lon_max = self.spec.bbox
        m_lat, m_lon = self.spec._meters_per_deg
        span = (lat_max - lat_min) * m_lat if axis else (lon_max - lon_min) * m_lon
        spec = GridSpec(self.spec.bbox, cell_size=span / 4)
        assert spec.n_cells[axis] == 4
        corner = make_traj([0], vid="c", lat=lat_max, lon=lon_max)
        top = make_traj([0], vid="t", lat=lat_max, lon=116.3)
        right = make_traj([0], vid="r", lat=39.9, lon=lon_max)
        keys = set(build_map([corner, top, right], spec).counts)
        assert max(k[axis] for k in keys) == 3
        self.check([corner, top, right], spec)

    def test_negative_timestamps(self):
        a = make_traj([-25.0, -10.5, -10.0, -0.0], vid="a", lat=39.9, lon=116.3)
        b = make_traj([-31.0, 0.0, 9.99], vid="b", lat=39.9, lon=116.3)
        self.check([a, b])

    def test_empty_and_generator_inputs(self, fleet):
        assert build_map([], self.spec).counts == {}
        self.check([])
        for mode in ("vehicles", "samples"):
            m = build_map((t for t in fleet), self.spec, count_mode=mode)
            assert m.counts == scalar_build_map(fleet, self.spec, mode)[0]

    def test_time_bins_beyond_int64(self):
        huge = make_traj([-1e300, 0.0, 1e300], vid="h", lat=39.9, lon=116.3)
        self.check([huge, make_traj([5.0], vid="g", lat=39.9, lon=116.3)])
        assert max(k[2] for k in build_map([huge], self.spec).counts) == math.floor(1e299)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_time_bin_overflow_is_a_value_error(self):
        spec = GridSpec(self.spec.bbox, time_bin=1e-10)
        traj = make_traj([0.0, 1e300], lat=39.9, lon=116.3)
        with pytest.raises(OverflowError):
            scalar_build_map([traj], spec)
        with pytest.raises(ValueError, match="1e\\+300"):
            build_map([traj], spec)
