import csv
import gc
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impls import (
    blocked_diameter,
    cell_of,
    map_total,
    native_rate,
    scalar_build_map,
    scalar_subsample,
)
from vanetmarket import (
    GeoSample,
    GridSpec,
    PlanarPath,
    TraceParseError,
    Trajectory,
    build_map,
    generate_synthetic,
    parse_traces,
    project_planar,
    subsample,
)
import vanetmarket.trajectories as trajectories
from vanetmarket import cli
from vanetmarket.config import RunConfig
from vanetmarket.trajectories import MIN_SYNTHETIC_SIDE_M, _kept_index

HEADER = "vehicle_id,timestamp,lat,lon\n"


def make_traj(times, vid="v", lat=40.0, lon=116.3):
    return Trajectory(vid, tuple(GeoSample(float(t), lat, lon) for t in times))


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


def sample_bits(trajs):
    """Trajectories as comparable values that tell -0.0 from 0.0 and check types."""
    return [
        (type(t), t.vehicle_id, [(type(s), *map(float.hex, s)) for s in t.samples])
        for t in trajs
    ]


def outcome(parse, stream):
    """parse(stream)'s trajectories as `sample_bits`, or its exception's type and text."""
    try:
        return sample_bits(parse(stream))
    except (TraceParseError, csv.Error, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


def text_stream(text):
    return io.StringIO(text)


def bytes_stream(text):
    return io.BytesIO(text.encode("utf-8"))


def fleet_outcome(read, stream):
    """read(stream)'s fleet as [ids, offsets bytes, txy bytes], or its
    exception's type and text."""
    try:
        fleet = read(stream)
    except (TraceParseError, csv.Error, UnicodeDecodeError) as exc:
        return type(exc), str(exc)
    return [fleet.ids, fleet.offsets.tobytes(), fleet.txy.tobytes()]


def row_loop_fleet(make_stream, parse_rows=trajectories._parse_rows):
    """The row loop's fleet of a stream made as parse_traces reads it: a binary
    one through a UTF-8 text wrapper, a text one as its lines."""
    if make_stream is bytes_stream:
        return lambda stream: parse_rows(io.TextIOWrapper(stream, encoding="utf-8"))
    return parse_rows


def row_loop_reading(make_stream, parse_rows=trajectories._parse_rows):
    """The row loop's trajectories of a stream made as parse_traces reads it."""
    read = row_loop_fleet(make_stream, parse_rows)
    return lambda stream: read(stream).trajectories()


# The TraceParseError cases of TestParseTraces and the CLI's bad trace file,
# then one for each other error the row loop raises.
TRACE_PARSE_ERROR_CASES = {
    "latitude out of range": HEADER + "a,0,40.0,116.3\na,1,95,116.3\n",
    "empty": "",
    "header only": HEADER,
    "wrong header": "vid,t,lat,lon\na,0,40,116\n",
    "wrong field count": HEADER + "a,0,40.0\n",
    "latitude out of range on line 2": HEADER + "a,0,95,116\n",
    "empty vehicle id": HEADER + "a,0,40,116\n ,1,40,116\n",
    "unparsable number": HEADER + "a,0,forty,116\n",
    "bad ISO-8601 time": HEADER + "a,2008-13-45T00:00:00,40,116\n",
    "non-finite timestamp": HEADER + "a,nan,40,116\n",
    "longitude out of range": HEADER + "a,0,40,181\n",
}


@pytest.mark.parametrize("make_stream", [text_stream, bytes_stream], ids=["text", "bytes"])
@pytest.mark.parametrize("text", TRACE_PARSE_ERROR_CASES.values(), ids=TRACE_PARSE_ERROR_CASES)
def test_trace_parse_errors_match_the_row_loop(text, make_stream):
    got = outcome(parse_traces, make_stream(text))
    want = outcome(row_loop_reading(make_stream), make_stream(text))
    assert got[0] is TraceParseError
    assert got == want


FIELD_SPACES = st.sampled_from(["", " ", "\t"])
VEHICLE_IDS = st.sampled_from(["a", "b", "v0007"]).map(str)
# Times drawn from a few values, so (vehicle, t) rows repeat; -0.0 and 0.0 are one time.
PLAIN_TIMES = st.sampled_from(["0", "0.0", "-0.0", "1", "2.5", "1_0", "\uff13", "-7.25"]) | st.floats(
    -100.0, 100.0
).map(repr)
PLAIN_LATS = st.floats(-90.0, 90.0).map(repr) | st.sampled_from(["-0.0", "90", "-90.0", "4_0"])
PLAIN_LONS = st.floats(-180.0, 180.0).map(repr) | st.sampled_from(["180", "-180.0", "0"])
# Fields only the row loop reads, by position: ones it accepts, and any field
# it rejects.
ACCEPTED_ODD_FIELDS = [
    st.sampled_from(['"a"', '" b"', '"v,1"']),
    st.sampled_from(["2008-02-02T15:36:08Z", "2008-02-02 15:37:08", '"2.5"']),
    st.sampled_from(['"40.5"', '"-0.0"']),
    st.sampled_from(['"116"']),
]
REJECTED_FIELDS = st.sampled_from(
    ["", "  ", "nan", "inf", "-inf", "1e400", "95", "-90.5", "181", "x", "1__0", "0x10", "\x00",
     "7\r"]
)


@st.composite
def trace_texts(draw):
    """A trace file's text. Plain rows have whitespace around ids and numbers,
    repeated and unsorted times, repr floats, -0.0, 1_0 and full-width digits.
    An odd text adds what the row loop accepts: quotes, ISO-8601 times, blank
    lines, CRLF line ends, spaces in the header. A broken one adds what it
    rejects: bad fields, wrong field counts, a wrong header, no data rows.
    Both may end lines with a lone carriage return."""
    form = draw(st.sampled_from(["plain", "odd", "broken"]))
    header = "vehicle_id,timestamp,lat,lon"
    if form != "plain":
        header = draw(st.sampled_from([header, " vehicle_id , timestamp,lat,lon"]))
    if form == "broken":
        header = draw(st.sampled_from([header, "vid,t,lat,lon", ""]))
    kinds = {
        "plain": ["plain"],
        "odd": ["plain", "plain", "accepted", "blank"],
        "broken": ["plain", "accepted", "blank", "rejected", "short", "long"],
    }[form]
    lines = [header]
    for _ in range(draw(st.integers(0 if form == "broken" else 1, 12))):
        space = draw(FIELD_SPACES)
        fields = [
            space + draw(VEHICLE_IDS) + draw(FIELD_SPACES),
            draw(PLAIN_TIMES) + space,
            space + draw(PLAIN_LATS),
            draw(PLAIN_LONS),
        ]
        kind = draw(st.sampled_from(kinds))
        position = draw(st.integers(0, 3))
        if kind == "accepted":
            fields[position] = draw(ACCEPTED_ODD_FIELDS[position])
        elif kind == "rejected":
            fields[position] = draw(REJECTED_FIELDS)
        elif kind == "blank":
            fields = []
        elif kind == "short":
            fields = fields[:3]
        elif kind == "long":
            fields.append("1")
        lines.append(",".join(fields))
    newline = "\n" if form == "plain" else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines)
    return text + newline if form == "plain" or draw(st.booleans()) else text


class TestColumnarReader:
    """`parse_traces` reads a trace in one columnar pass and leaves anything
    unusual to the row loop; either way it returns the row loop's result,
    since both readers end in one assembly of the fleet."""

    @pytest.mark.parametrize("make_stream", [text_stream, bytes_stream], ids=["text", "bytes"])
    def test_equals_the_row_loop_on_drawn_texts(self, monkeypatch, make_stream):
        row_loop = trajectories._parse_rows
        used_loop = []

        def watched(lines):
            used_loop.append(True)
            return row_loop(lines)

        monkeypatch.setattr(trajectories, "_parse_rows", watched)
        reached = {"columns": 0, "row loop, fleet": 0, "row loop, error": 0}

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(text=trace_texts())
        def check(text):
            used_loop.clear()
            got = fleet_outcome(trajectories._read_fleet, make_stream(text))
            assert got == fleet_outcome(row_loop_fleet(make_stream, row_loop), make_stream(text))
            if not used_loop:
                reached["columns"] += 1
            elif isinstance(got, list):
                reached["row loop, fleet"] += 1
            else:
                reached["row loop, error"] += 1

        check()
        assert all(count >= 50 for count in reached.values()), reached

    def test_plain_trace_never_enters_the_row_loop(self, monkeypatch, tmp_path):
        fleet = generate_synthetic(20, 30, seed=4)
        text = HEADER + "".join(
            f"{traj.vehicle_id},{s.t!r},{float(s.lat)!r},{float(s.lon)!r}\n"
            for traj in fleet
            for s in traj.samples
        )
        assert text.count("\n") == 601
        want = sample_bits(trajectories._parse_rows(io.StringIO(text)).trajectories())
        assert want == sample_bits(fleet)

        def no_row_loop(lines):
            raise AssertionError("a plain trace went through the row loop")

        monkeypatch.setattr(trajectories, "_parse_rows", no_row_loop)
        assert sample_bits(parse_traces(io.StringIO(text))) == want
        assert sample_bits(parse_traces(io.BytesIO(text.encode()))) == want
        path = tmp_path / "traces.csv"
        path.write_text(text)
        with open(path, "rb") as fh:
            assert sample_bits(trajectories._read_fleet(fh).trajectories()) == want

    def test_quoted_ids_and_iso_times_give_the_plain_file_bytes(self):
        # Rows out of time order, two vehicles interleaved, and a duplicated
        # timestamp whose first row is kept, in three forms of one file.
        stamps = ["2008-02-02T15:38:08Z", "2008-02-02T15:36:08Z", "2008-02-02T15:37:08Z"]
        rows = [
            ("b", 0, 40.1, 116.3),
            ("a", 1, 40.2, 116.4),
            ("b", 1, 40.3, 116.5),
            ("a", 0, 40.4, 116.6),
            ("a", 1, 40.5, 116.7),
            ("b", 2, 40.6, 116.8),
        ]
        minutes = [trajectories._parse_timestamp(stamp) for stamp in stamps]
        forms = {
            "plain": [(vid, repr(minutes[k]), lat, lon) for vid, k, lat, lon in rows],
            "quoted": [(f'"{vid}"', repr(minutes[k]), lat, lon) for vid, k, lat, lon in rows],
            "iso": [(vid, stamps[k], lat, lon) for vid, k, lat, lon in rows],
        }
        texts = {
            form: HEADER + "".join(",".join(map(str, row)) + "\n" for row in form_rows)
            for form, form_rows in forms.items()
        }
        assert trajectories._columns(texts["plain"]) is not None
        want = fleet_outcome(trajectories._read_fleet, io.StringIO(texts["plain"]))
        assert want[0] == ["b", "a"] and want[1] == np.array([0, 3, 5]).tobytes()
        for form in ("quoted", "iso"):
            assert trajectories._columns(texts[form]) is None
            assert fleet_outcome(trajectories._parse_rows, io.StringIO(texts[form])) == want, form
            assert fleet_outcome(trajectories._read_fleet, io.BytesIO(texts[form].encode())) == want

    def test_fleet_of_a_fleet_is_that_fleet(self, fleet):
        columns = trajectories._Fleet.of(fleet)
        assert trajectories._Fleet.of(columns) is columns

    def test_duplicate_time_keeps_the_first_row_of_minus_zero(self):
        rows = HEADER + "a,-0.0,40.0,116.3\na,0.0,41.0,116.3\nb,0,40.0,116.3\nb,-0.0,41.0,116.3\n"
        assert trajectories._columns(rows) is not None
        trajs = parse_traces(io.StringIO(rows))
        row_loop = trajectories._parse_rows(io.StringIO(rows))
        assert sample_bits(trajs) == sample_bits(row_loop.trajectories())
        # -0.0 == 0.0, so each vehicle keeps one sample: its first row, sign included.
        assert [(len(t), math.copysign(1.0, t.samples[0].t), t.samples[0].lat) for t in trajs] == [
            (1, -1.0, 40.0),
            (1, 1.0, 40.0),
        ]

    @pytest.mark.parametrize("make_stream", [text_stream, bytes_stream], ids=["text", "bytes"])
    @pytest.mark.parametrize(
        "text",
        [
            HEADER.replace("\n", "\r\n") + "a,0,40.0,116.3\r\na,1,40.1,116.3\r\n",
            HEADER + "a,0,40.0,116.3\ra,1,40.1,116.3\n",
            HEADER + "a,0,40.0\r,116.3\n",
            HEADER + "a,0,40.0,116.3\r\n",
        ],
        ids=["crlf", "lone cr ends a row", "cr inside a row", "cr on the last row"],
    )
    def test_carriage_returns_go_to_the_row_loop(self, text, make_stream):
        # float() ignores a trailing "\r", but the row loop splits rows at it.
        assert trajectories._columns(text) is None
        got = outcome(parse_traces, make_stream(text))
        assert got == outcome(row_loop_reading(make_stream), make_stream(text))

    def test_stream_that_splits_lines_elsewhere_goes_to_the_row_loop(self):
        # A stream with newline="\r" yields the whole text as one line, which
        # csv rejects; the columns would have read it line by line.
        raw = io.BytesIO((HEADER + "a,0,40.0,116.3\n").encode())
        stream = io.TextIOWrapper(raw, encoding="utf-8", newline="\r")
        with pytest.raises(csv.Error):
            parse_traces(stream)

    def test_field_over_the_csv_limit_goes_to_the_row_loop(self):
        rows = HEADER + "a,0,40.0," + "1" * (csv.field_size_limit() + 1) + "\n"
        with pytest.raises(csv.Error):
            trajectories._parse_rows(io.StringIO(rows))
        assert trajectories._columns(rows) is None
        with pytest.raises(csv.Error):
            parse_traces(io.StringIO(rows))


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
        assert native_rate(make_traj(range(10))) == pytest.approx(1.0)
        assert native_rate(make_traj([0, 2, 4, 6])) == pytest.approx(0.5)


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

    def test_samples_hold_python_floats(self):
        # As parse_traces gives them: no numpy scalars, whose repr differs.
        for traj in generate_synthetic(3, 20, seed=4):
            for sample in traj.samples:
                assert all(type(v) is float for v in sample), sample

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 10, seed=1)
        with pytest.raises(ValueError):
            generate_synthetic(1, 1, seed=1)

    # A zero-area bbox, whose waypoint walk never ends without the check, is
    # tested through the CLI in a subprocess with a timeout (test_cli.py).
    @pytest.mark.parametrize(
        "bbox", [(40.0, 40.0, 116.3, 116.4), (40.0, 39.9, 116.3, 116.4), (39.9, 40.0, math.nan, 116.4)]
    )
    def test_degenerate_bbox_rejected_as_grid_spec_rejects_it(self, bbox):
        named = re.escape(f"degenerate bbox {bbox}")
        with pytest.raises(ValueError, match=named):
            generate_synthetic(2, 10, seed=1, bbox=bbox)
        with pytest.raises(ValueError, match=named):
            GridSpec(bbox)

    @pytest.mark.parametrize(
        "bbox",
        [
            (40.0, 40.00000001, 116.3, 116.30000001),  # about a millimetre a side
            (40.0, 40.00001, 116.3, 116.4),  # 1.1 m tall
            (40.0, 40.1, 116.3, 116.301),  # 85 m wide: the lon side is the short one
        ],
    )
    def test_bbox_below_the_side_floor_rejected(self, bbox):
        # The walk's time per vehicle grows as 1/side, so a valid but tiny box
        # would run for days. The grid keeps its rule: any positive extent.
        floor = re.escape(f"below the {MIN_SYNTHETIC_SIDE_M} m floor")
        with pytest.raises(ValueError, match=rf"^synthetic bbox {re.escape(str(bbox))} .*{floor}"):
            generate_synthetic(2, 10, seed=1, bbox=bbox)
        GridSpec(bbox)

    def test_bbox_just_above_the_side_floor_is_walked(self):
        bbox = (40.0, 40.0012, 116.3, 116.3012)  # 133 m by 102 m
        for traj in generate_synthetic(2, 120, seed=3, bbox=bbox):
            assert len(traj) == 120
            for s in traj.samples:
                assert bbox[0] <= s.lat <= bbox[1] and bbox[2] <= s.lon <= bbox[3]


# The frequencies the package uses or that stress the rule (a period of 1/3
# is inexact in binary; 7 keeps sub-minute samples), and drawn ones.
FREQUENCIES = st.sampled_from([1.0, 0.5, 1 / 3, 0.1, 7.0]) | st.floats(0.01, 10.0)
# Offsets from a due time t0 + n * period, across the rule's 1e-9 slack.
DUE_OFFSETS = st.sampled_from([-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9])


@st.composite
def irregular_trajectories(draw, f_d):
    """A moving trajectory with irregular times: random gaps from sub-minute to
    several minutes, plus samples within a few 1e-9 of f_d's due times."""
    period = 1.0 / f_d
    t0 = draw(st.floats(-1000.0, 1000.0))
    times = {t0}
    t = t0
    for gap in draw(st.lists(st.floats(0.001, 5.0), min_size=1, max_size=40)):
        t += gap
        times.add(t)
    for n in draw(st.lists(st.integers(1, 30), max_size=12)):
        times.add(t0 + n * period + draw(DUE_OFFSETS))
    samples = [
        GeoSample(t, 40.0 + 0.001 * i + 1e-4 * math.sin(t), 116.3 + 0.0005 * i)
        for i, t in enumerate(sorted(times))
    ]
    return Trajectory("v", tuple(samples))


class TestSubsample:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_kept_index_is_the_greedy_rule_on_irregular_times(self, data):
        f_d = data.draw(FREQUENCIES)
        traj = data.draw(irregular_trajectories(f_d))
        kept = _kept_index([s.t for s in traj.samples], f_d, traj.vehicle_id)
        sub = subsample(traj, f_d)
        assert sub.samples == tuple(traj.samples[i] for i in kept) == scalar_subsample(traj, f_d)
        assert trajectories._Fleet.of([traj]).kept(f_d) == [kept]
        origin = (data.draw(st.floats(39.9, 40.1)), data.draw(st.floats(116.2, 116.4)))
        rows = project_planar(traj, origin=origin).points[kept]
        assert project_planar(sub, origin=origin).points.tobytes() == rows.tobytes()

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

    @pytest.mark.parametrize("f_d", [1e-320, math.nan, math.inf], ids=["tiny", "nan", "inf"])
    def test_frequency_without_a_finite_period_rejected(self, f_d):
        # 1/1e-320 overflows to inf and 1/inf is 0: no sample would ever be due.
        traj = moving_traj(range(5))
        with pytest.raises(ValueError, match=f"sampling frequency.*{f_d}"):
            subsample(traj, f_d)
        with pytest.raises(ValueError, match=f"sampling frequency.*{f_d}"):
            _kept_index([s.t for s in traj.samples], f_d, traj.vehicle_id)
        with pytest.raises(ValueError, match=f"sampling frequency.*{f_d}"):
            trajectories._Fleet.of([traj]).kept(f_d)

    def test_frequency_whose_period_count_overflows_is_named(self):
        # 1/1e307 is a finite period, but 29 minutes hold more of them than a
        # float counts, where math.floor raised OverflowError; 4 minutes do not.
        short, long = moving_traj(range(5), vid="v6"), moving_traj(range(30), vid="v7")
        assert _kept_index([s.t for s in short.samples], 1e307, "v6") == [0, 1, 2, 3, 4]
        message = re.escape(
            "vehicle 'v7': sampling frequency 1e+307 is too high for its track:"
            " the periods 1/f_d from 0.0 to 29.0 overflow a float"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            _kept_index([s.t for s in long.samples], 1e307, "v7")
        with pytest.raises(ValueError, match=f"^{message}$"):
            trajectories._Fleet.of([short, long]).kept(1e307)
        with pytest.raises(ValueError, match=f"^{message}$"):
            subsample(long, 1e307)

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
        assert subsample(traj, native_rate(traj)).samples == traj.samples

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


class TestPlanarPathDiameter:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        points=st.one_of(
            st.lists(
                st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=40
            ),
            # past one 512-row block, with repeated points
            st.integers(513, 600).flatmap(
                lambda n: st.lists(
                    st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=n, max_size=n
                )
            ),
        )
    )
    def test_bitwise_equal_to_blocked_reference(self, points):
        pts = np.array(points, dtype=np.float64)
        got = PlanarPath(pts).diameter()
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(blocked_diameter(pts)).tobytes()

    def test_single_point_has_zero_diameter(self):
        assert PlanarPath([[3.0, -4.0]]).diameter() == 0.0

    def test_long_path_spans_blocks(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(scale=1e3, size=(1300, 2))
        pts[1299] = [1e5, 1e5]  # the farthest pair straddles the third block
        pts[3] = [-1e5, -1e5]
        got = PlanarPath(pts).diameter()
        assert np.float64(got).tobytes() == np.float64(blocked_diameter(pts)).tobytes()
        assert got == math.sqrt(2 * 2e5**2)


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

    @pytest.mark.parametrize("field", ["cell_size", "time_bin"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError, match="positive"):
            GridSpec((39.0, 40.0, 116.0, 117.0), **{field: math.nan})

    def test_cell_of_outside_is_none(self):
        spec = GridSpec((39.8, 40.0, 116.25, 116.5))
        assert cell_of(spec, 41.0, 116.3) is None
        assert cell_of(spec, 39.9, 116.3) is not None

    def test_edge_samples_land_in_last_cell(self):
        spec = GridSpec((39.8, 40.0, 116.25, 116.5), cell_size=1000.0)
        nx, ny = spec.n_cells
        assert cell_of(spec, 40.0, 116.5) == (nx - 1, ny - 1)
        m = build_map([make_traj([0], lat=40.0, lon=116.5)], spec)
        assert m.counts == {(nx - 1, ny - 1, 0): 1}


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
        assert m.counts == scalar_build_map([traj], self.spec)[0]

    def test_brute_force_oracle_on_fleet(self, fleet):
        m = build_map(fleet, self.spec)
        assert m.counts == scalar_build_map(fleet, self.spec)[0]

    def test_samples_mode(self):
        traj = make_traj([0, 1, 2, 3, 4], lat=39.9, lon=116.3)
        m = build_map([traj], self.spec, count_mode="samples")
        assert list(m.counts.values()) == [5]

    def test_outside_bbox_dropped_and_tallied(self):
        inside = make_traj([0], vid="a", lat=39.9, lon=116.3)
        outside = make_traj([0], vid="b", lat=50.0, lon=116.3)
        m = build_map([inside, outside], self.spec)
        assert m.dropped_outside == 1
        assert map_total(m) == 1

    def test_total_bounded_by_samples_and_fleet(self, fleet):
        m = build_map(fleet, self.spec)
        assert map_total(m) <= sum(len(t) for t in fleet)
        assert all(c <= len(fleet) for c in m.counts.values())

    def test_total_bounded_by_vehicles_times_bins_at_bin_rate(self, fleet):
        # one sample per time bin: a vehicle then touches at most one cell per
        # bin, so the vehicles-times-bins cap is tight in this regime
        slow = [Trajectory(t.vehicle_id, t.samples[5::10]) for t in fleet]
        m = build_map(slow, self.spec)
        bins = {k[2] for k in m.counts}
        assert map_total(m) <= len(fleet) * max(1, len(bins))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            build_map([], self.spec, count_mode="bogus")

    def test_csv_and_json_shape(self, monkeypatch):
        traj = make_traj([0], lat=39.9, lon=116.3)
        m = build_map([traj], self.spec)
        monkeypatch.setattr(cli, "_load_fleet", lambda config: trajectories._Fleet.of([traj]))
        monkeypatch.setattr(cli, "build_map", lambda *args: m)
        text = cli.cmd_ingest(RunConfig(traces="in.csv"), None)["map.csv"]
        lines = text.strip().splitlines()
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
    def test_fleet(self, fleet, spec, input_forms):
        self.check(fleet, spec)
        for mode in ("vehicles", "samples"):
            want = build_map(fleet, spec, count_mode=mode)
            for form, trajs in input_forms(fleet).items():
                got = build_map(trajs, spec, count_mode=mode)
                assert list(got.counts.items()) == list(want.counts.items()), form
                assert got.dropped_outside == want.dropped_outside, form

    def test_inside_and_outside_within_one_trajectory(self):
        crossing = Trajectory(
            "x",
            tuple(GeoSample(float(t), 39.79 + 0.002 * t, 116.24 + 0.003 * t) for t in range(120)),
        )
        assert 0 < build_map([crossing], self.spec).dropped_outside < len(crossing)
        self.check([crossing, moving_traj(range(30), vid="y")])

    def test_same_vehicle_id_in_two_trajectories(self):
        # A vehicle id names one vehicle, as in a trace file.
        a1 = make_traj([0, 1], vid="a", lat=39.9, lon=116.3)
        a2 = make_traj([2, 3], vid="a", lat=39.9, lon=116.3)
        b = make_traj([4], vid="b", lat=39.9, lon=116.3)
        for mode in ("vehicles", "samples"):
            with pytest.raises(ValueError, match="duplicate vehicle id 'a'"):
                build_map([a1, b, a2], self.spec, count_mode=mode)

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
