"""Trace parsing and visit segmentation rules."""

import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdt import _textio
from spdt.cli import main
from spdt.trace import ParsedTrace, parse_trace, segment_all, write_trace_csv
from tracerows import (
    LocationUpdate,
    columns,
    parse_rows,
    segment_rows,
    segment_visits,
    update_rows,
    visit_rows,
)


# every trace is read from a file: the files of this module live here
_TRACES = tempfile.TemporaryDirectory()


def trace_file(text: str) -> Path:
    """A new file holding the text's UTF-8 bytes, each CR and LF kept."""
    fd, name = tempfile.mkstemp(suffix=".csv", dir=_TRACES.name)
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
    return Path(name)


def make_trace(rows, header="user_id,t_min,x_m,y_m"):
    return trace_file(header + "\n" + "".join(r + "\n" for r in rows))


def parsed_rows(rows, header="user_id,t_min,x_m,y_m"):
    return update_rows(parse_trace(make_trace(rows, header)).updates)


def segment(updates, radius_m=20.0, max_gap_min=30.0):
    """The package's visits of update rows, as rows."""
    return visit_rows(segment_all(columns(updates)[0], radius_m, max_gap_min))


class TestParseTrace:
    def test_empty_file_rejected(self):
        path = trace_file("")
        with pytest.raises(ValueError, match="header") as info:
            parse_trace(path)
        assert str(info.value) == f"{path}:1: empty trace: missing header"

    def test_header_only_gives_empty(self):
        parsed = parse_trace(make_trace([]))
        assert len(parsed.updates) == 0 and parsed.skipped == 0

    def test_wrong_header_rejected(self):
        path = make_trace([], header="uid,time,x,y")
        with pytest.raises(ValueError, match="unparseable") as info:
            parse_trace(path)
        assert str(info.value).startswith(f"{path}:1: unparseable trace header 'uid,")
        assert "'user_id,t_min,x_m,y_m' or 'user_id,t_min,lat,lon'" in str(info.value)

    @pytest.mark.parametrize("text, message", [
        ("", "empty trace: missing header"),
        ("uid,t,x,y\na,0,0,0\n", "unparseable trace header 'uid,t,x,y'; "),
    ])
    def test_cli_names_the_file_of_a_header_fault(self, tmp_path, capsys, text,
                                                  message):
        path = trace_file(text)
        out = tmp_path / "net.spdt"
        assert main(["build", "--trace", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"spdt: error: {path}:1: {message}")
        assert not out.exists()

    def test_header_picks_the_coordinates(self):
        # the same two rows are 0.001 m apart as metres, ~111 m as degrees
        rows = ["a,0,0.0,0.0", "a,1,0.001,0.0"]
        for header, metres in (("user_id,t_min,x_m,y_m", 0.001),
                               ("user_id,t_min,lat,lon", 111.2)):
            a, b = parsed_rows(rows, header=header)
            assert math.hypot(a.x - b.x, a.y - b.y) == pytest.approx(metres, rel=0.01)

    def test_rows_sorted_per_user(self):
        rows = parsed_rows(["b,50,0,0", "a,20,1,1", "a,5,2,2", "b,10,3,3"])
        assert [(u.user_id, u.t) for u in rows] == [
            ("a", 5.0), ("a", 20.0), ("b", 10.0), ("b", 50.0)]

    def test_malformed_rows_counted_and_skipped(self):
        parsed = parse_trace(make_trace([
            "a,1,0,0",
            "a,2,zzz,0",       # non-numeric coordinate
            "a,3,0",           # missing field
            ",4,0,0",          # empty user id
            "a,inf,0,0",       # non-finite time
            "a,5,0,0",
        ]))
        assert len(parsed.updates) == 2
        assert parsed.skipped == 4
        assert parsed.skip_reasons == {"non-numeric value": 1,
                                       "wrong field count": 1,
                                       "empty user id": 1,
                                       "non-finite value": 1}

    def test_user_id_with_whitespace_counted(self):
        # the network format separates fields with spaces, so such an id
        # could never be saved; padding around an id is trimmed
        parsed = parse_trace(make_trace(
            ["a b,0,0,0", "a\tb,1,0,0", "a\u00a0b,2,0,0", "  a ,3,0,0", " ,4,0,0"]))
        assert [(u.user_id, u.t) for u in update_rows(parsed.updates)] == [("a", 3.0)]
        assert parsed.skip_reasons == {"user id contains whitespace": 3,
                                       "empty user id": 1}

    def test_file_round_trip(self, tmp_path):
        updates = [LocationUpdate("u1", 0.0, 1.5, -2.0),
                   LocationUpdate("u1", 10.0, 1.5, -2.0)]
        path = tmp_path / "trace.csv"
        write_trace_csv(columns(updates)[0], path)
        parsed = parse_trace(path)
        assert update_rows(parsed.updates) == updates and parsed.skipped == 0

    @pytest.mark.parametrize("user", ["a b", "a\tb", "a\u00a0b", "a,b", "", "a\udcff"])
    def test_write_refuses_an_id_parse_would_skip(self, tmp_path, user):
        updates = columns([LocationUpdate("ok", 0.0, 0.0, 0.0),
                           LocationUpdate(user, 1.0, 0.0, 0.0)])[0]
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match=r"^user id .* not representable"):
            write_trace_csv(updates, path)
        assert not path.exists()

    @pytest.mark.parametrize("field", ["t", "x", "y"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_write_refuses_a_non_finite_value(self, tmp_path, field, value):
        rows = [LocationUpdate("a", 0.0, 0.0, 0.0), LocationUpdate("b", 1.0, 2.0, 3.0)]
        rows[1] = rows[1]._replace(**{field: value})
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match=r"^row 1 \(user 'b'\): .* not finite"):
            write_trace_csv(columns(rows)[0], path)
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.text(st.sampled_from(["a", "é", ",", " ", "\t", "\r", "\n", "\u00a0",
                                 "\u2028", "\udcff", "#", '"']), max_size=3),
        *[st.floats() | st.sampled_from([0.0, -0.0, 1e300])] * 3), max_size=6))
    def test_a_written_trace_reads_back_whole(self, tmp_path_factory, rows):
        # every write either raises or reads back row for row, none skipped
        updates = columns(LocationUpdate(*row) for row in rows)[0]
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        try:
            write_trace_csv(updates, path)
        except ValueError:
            assert not path.exists()
            return
        parsed = parse_trace(path)
        assert parsed.skipped == 0
        assert update_rows(parsed.updates) == update_rows(updates)

    def test_rows_tied_on_user_and_time_keep_file_order(self):
        rows = parsed_rows(["b,1,0,0", "a,7,3,0", "a,7,1,0", "a,7,2,0"])
        assert [u.x for u in rows] == [3.0, 1.0, 2.0, 0.0]

    def test_latlon_projection_preserves_scale(self):
        # two points ~111 m apart in latitude at the equator
        a, b = parsed_rows(["a,0,0.0,0.0", "a,1,0.001,0.0"],
                           header="user_id,t_min,lat,lon")
        dist = math.hypot(a.x - b.x, a.y - b.y)
        assert dist == pytest.approx(111.2, rel=0.01)

    def test_latlon_projection_across_antimeridian(self):
        # 0.001 deg of longitude either side of 180 is ~111 m at the equator;
        # an arithmetic lon centroid puts the points 360 deg apart
        rows = parsed_rows(
            ["a,0,0.0,179.9995", "a,1,0.0,-179.9995", "b,0,0.0,179.9990"],
            header="user_id,t_min,lat,lon",
        )
        a0, a1, b = rows
        assert math.hypot(a0.x - a1.x, a0.y - a1.y) == pytest.approx(111.2, rel=0.01)
        assert math.hypot(a0.x - b.x, a0.y - b.y) == pytest.approx(55.6, rel=0.01)
        assert max(abs(u.x) for u in rows) < 200.0

    def test_latlon_projection_counts_out_of_range_rows(self):
        parsed = parse_trace(make_trace(
            ["a,0,10.0,20.0", "a,1,90.5,20.0", "a,2,-91,20.0", "a,3,10.0,180.01",
             "a,4,10.0,-181", "a,5,-90,-180", "a,6,90,180", "a,7,10.0,zz"],
            header="user_id,t_min,lat,lon",
        ))
        assert parsed.updates.t.tolist() == [0.0, 5.0, 6.0]
        assert parsed.skipped == 5
        assert parsed.skip_reasons == {"lat/lon out of range": 4,
                                       "non-numeric value": 1}

    def test_planar_rows_not_range_checked(self):
        parsed = parse_trace(make_trace(["a,0,500.0,-900.0"]))
        assert parsed.skipped == 0 and parsed.skip_reasons == {}


# values: numbers as writers format them, and what float() reads or rejects
NUMBER = st.one_of(
    st.floats(-200.0, 200.0).map(repr),
    st.integers(-300, 300).map(str),
    st.sampled_from(["1_0", " 7", "7 ", "+3", "1e3", "1e400", "nan", "-inf",
                     "0x1", "", "abc", "\t4"]),
)
USER = st.sampled_from(["a", "b", "u10", "\u00e9", "user_0123456789", "", " a",
                        "a ", "a b", "a\tb", "\u00a0c"])


@st.composite
def trace_text(draw):
    header = draw(st.sampled_from(["user_id,t_min,x_m,y_m", "user_id,t_min,lat,lon",
                                   " user_id, t_min,lat ,lon"]))
    rows = draw(st.lists(st.one_of(
        st.tuples(USER, NUMBER, NUMBER, NUMBER).map(",".join),
        # most rows are well formed, in the ranges of both headers
        st.tuples(st.sampled_from(["a", "b", "\u00e9"]), st.integers(0, 3000),
                  st.floats(-90, 90), st.floats(-180, 180)).map(
            lambda row: f"{row[0]},{row[1]},{row[2]!r},{row[3]!r}"),
        st.sampled_from(["", "  ", "a,1,2", "a,1,2,3,4", ",,,", "  b,1,2,3  "]),
        # numbers are ids too, so a short and a long row may line up
        st.lists(st.integers(0, 9).map(str), min_size=1, max_size=6).map(",".join),
    ), max_size=30))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(rows) + 1,
                         max_size=len(rows) + 1))
    last = draw(st.booleans())  # whether the last row ends its line
    text = header + ends[0] + "".join(row + end for row, end in zip(rows, ends[1:]))
    return text if last or not rows else text[:-len(ends[-1])]


def assert_same_trace(got, want):
    assert got.updates.users == want.updates.users
    for f in ("user", "t", "x", "y"):
        a, b = getattr(got.updates, f), getattr(want.updates, f)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.skip_reasons == want.skip_reasons


@settings(max_examples=200)
@given(trace_text(), st.sampled_from([1, 2, 5, 1 << 13]))
@example("user_id,t_min,x_m,y_m\n1,2,3\n4,5,6,7,8\n", 1 << 13)
# each reason alone among well-formed rows
@example("user_id,t_min,x_m,y_m\na,0,0,0\nb,1,inf,0\n", 1 << 13)
@example("user_id,t_min,lat,lon\na,0,0,0\nb,1,0,180.5\n", 1 << 13)
@example("user_id,t_min,x_m,y_m\na,0,0,0\nb,1,0,zz\n", 1 << 13)
@example("user_id,t_min,x_m,y_m\na,0,0,0\nb c,1,0,0\n", 1 << 13)
@example("user_id,t_min,x_m,y_m\na,0,0,0\n,1,0,0\n", 1 << 13)
def test_parse_matches_per_row_oracle(text, block):
    want = parse_rows(io.StringIO(text, newline=""))
    with mock.patch.object(_textio, "BLOCK_LINES", block):
        assert_same_trace(parse_trace(trace_file(text)), want)


def test_parse_by_path_matches_per_row_oracle(tmp_path):
    text = ("user_id,t_min,lat,lon\r\n" + "".join(
        f"u{i % 7},{i * 0.5!r},{(i % 170) - 85.25!r},{(i % 350) - 175.5!r}\r\n"
        for i in range(3000)) + "a b,1,2,3\r\n" + "c,1,2,3")
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    want = parse_rows(io.StringIO(text, newline=""))
    assert want.skipped == 1 and len(want.updates) == 3001
    for block in (7, 1 << 13):
        with mock.patch.object(_textio, "BLOCK_LINES", block):
            assert_same_trace(parse_trace(path), want)


class TestNotUtf8:
    @pytest.mark.parametrize("row", [b"b,1,\xff,0", b"\xe9,1,0,0", b"a,1,\xff0",
                                     b"a\xc3,1,0,0"])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, row):
        # rows that would be kept or skipped alike
        path = tmp_path / "trace.csv"
        path.write_bytes(b"user_id,t_min,x_m,y_m\na,0,0,0\n" + row + b"\nb,2,0,0\n")
        with pytest.raises(ValueError) as info:
            parse_trace(path)
        assert str(info.value) == f"{path}:3: bytes that are not UTF-8"

    def test_header_named(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"user_id,t_min,x_m,y_\xffm\na,0,0,0\n")
        with pytest.raises(ValueError, match=r":1: bytes that are not UTF-8$"):
            parse_trace(path)

    def test_cli_prints_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"user_id,t_min,x_m,y_m\na,0,0,0\nb\xff,1,0,0\n")
        out = tmp_path / "net.spdt"
        assert main(["build", "--trace", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"spdt: error: {path}:3: bytes that are not UTF-8\n"
        assert not out.exists()


class TestSegmentVisits:
    def test_single_stay(self):
        ups = [LocationUpdate("u", t, 0.0, 0.0) for t in (0, 10, 20)]
        visits = segment(ups)
        assert len(visits) == 1
        v = visits[0]
        assert (v.anchor_x, v.anchor_y, v.t_start, v.t_end) == (0.0, 0.0, 0, 20)

    def test_distance_rule_splits(self):
        ups = [LocationUpdate("u", 0, 0.0, 0.0), LocationUpdate("u", 5, 0.0, 25.0)]
        visits = segment(ups)
        assert len(visits) == 2

    def test_exactly_20m_keeps_visit(self):
        ups = [LocationUpdate("u", 0, 0.0, 0.0), LocationUpdate("u", 5, 0.0, 20.0)]
        assert len(segment(ups)) == 1

    def test_gap_rule_splits(self):
        ups = [LocationUpdate("u", 0, 0.0, 0.0), LocationUpdate("u", 40, 0.0, 0.0)]
        visits = segment(ups)
        assert len(visits) == 2
        assert visits[0].t_end == 0 and visits[1].t_start == 40

    def test_exactly_30min_gap_keeps_visit(self):
        ups = [LocationUpdate("u", 0, 0.0, 0.0), LocationUpdate("u", 30, 0.0, 0.0)]
        assert len(segment(ups)) == 1

    def test_anchor_is_first_update_not_centroid(self):
        # drifting within 20 m of the first update stays one visit even when
        # later points are far from the running centroid
        ups = [
            LocationUpdate("u", 0, 0.0, 0.0),
            LocationUpdate("u", 5, 0.0, 19.0),
            LocationUpdate("u", 10, 0.0, -19.0),
        ]
        visits = segment(ups)
        assert len(visits) == 1
        assert visits[0].anchor_x == 0.0 and visits[0].anchor_y == 0.0

    def test_single_update_zero_duration(self):
        visits = segment([LocationUpdate("u", 7, 1.0, 2.0)])
        assert visits == [("u", 1.0, 2.0, 7, 7)]

    # the per-user oracle checks its own input: one user's sorted updates
    def test_mixed_users_rejected(self):
        with pytest.raises(ValueError):
            segment_visits([LocationUpdate("a", 0, 0, 0),
                            LocationUpdate("b", 1, 0, 0)])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            segment_visits([LocationUpdate("a", 5, 0, 0),
                            LocationUpdate("a", 1, 0, 0)])


@st.composite
def user_updates(draw):
    n = draw(st.integers(1, 40))
    times = sorted(draw(st.lists(
        st.floats(0, 2000, allow_nan=False), min_size=n, max_size=n)))
    xs = draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n))
    ys = draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n))
    return [LocationUpdate("u", t, x, y) for t, x, y in zip(times, xs, ys)]


def reference_segmentation(ups, radius=20.0, gap=30.0):
    """Independent re-statement of the greedy rule, tracking membership."""
    groups = []
    for upd in ups:
        if groups:
            anchor = groups[-1][0]
            near = math.hypot(upd.x - anchor.x, upd.y - anchor.y) <= radius
            soon = upd.t - groups[-1][-1].t <= gap
            if near and soon:
                groups[-1].append(upd)
                continue
        groups.append([upd])
    return groups


@given(user_updates())
def test_greedy_rule_against_reference(ups):
    visits = segment(ups)
    groups = reference_segmentation(ups)
    assert len(visits) == len(groups)
    for v, g in zip(visits, groups):
        assert (v.anchor_x, v.anchor_y) == (g[0].x, g[0].y)
        assert v.t_start == g[0].t and v.t_end == g[-1].t


@given(user_updates())
def test_partition_and_distance_invariants(ups):
    groups = reference_segmentation(ups)
    # partition: every update is assigned to exactly one visit
    assert sum(len(g) for g in groups) == len(ups)
    # distance rule: members stay within the radius of their visit's anchor
    for g in groups:
        anchor = g[0]
        assert all(math.hypot(u.x - anchor.x, u.y - anchor.y) <= 20.0 for u in g)


@given(user_updates())
def test_segmentation_idempotent(ups):
    # re-segmenting each visit's own members reproduces that visit unchanged
    for g in reference_segmentation(ups):
        again = segment(g)
        assert len(again) == 1
        assert again[0].t_start == g[0].t and again[0].t_end == g[-1].t


def test_no_updates_no_visits():
    visits = segment_all(parse_trace(make_trace([])))
    assert len(visits) == 0 and visits.users == ()


def test_segment_all_orders_by_user():
    updates, _ = columns([
        LocationUpdate("b", 0, 0, 0),
        LocationUpdate("a", 5, 0, 0), LocationUpdate("a", 100, 0, 0),
    ])
    visits = segment_all(ParsedTrace(updates))
    assert [v.user_id for v in visit_rows(visits)] == ["a", "a", "b"]
    assert visits.users == updates.users


# --- the array segmenter against the per-user oracle -------------------------

# a lattice whose points lie exactly at the radius from one another, (0, 20)
# and (12, 16) among them, plus free coordinates
SEG_COORD = st.one_of(st.sampled_from([0.0, 12.0, -12.0, 16.0, 20.0, -20.0, 32.0]),
                      st.floats(-45.0, 45.0))
# a repeat, the exact gap, just over it, and sub-minute steps
SEG_STEP = st.sampled_from([0.0, 0.0, 1.0, 0.25, 29.5, 30.0, 30.5, 200.0])


@st.composite
def several_users(draw):
    rows = []
    for user in draw(st.lists(st.sampled_from(["a", "b", "c10", "c9"]),
                              min_size=1, max_size=4, unique=True)):
        t = draw(st.floats(-50.0, 50.0))
        for _ in range(draw(st.integers(1, 40))):
            t += draw(SEG_STEP)
            rows.append(LocationUpdate(user, t, draw(SEG_COORD), draw(SEG_COORD)))
    return draw(st.permutations(rows))  # interleaved and unsorted


def exact(visits):
    """Visit rows with each float as its exact hex form, so -0.0 != 0.0."""
    return [(v.user_id, *map(float.hex, v[1:])) for v in visits]


@given(several_users(), st.sampled_from([(20.0, 30.0), (7.5, 1.0), (40.0, 0.25)]))
def test_segment_all_matches_per_user_oracle(rows, rule):
    got = visit_rows(segment_all(columns(rows)[0], *rule))
    assert exact(got) == exact(segment_rows(rows, *rule))


def test_one_long_run_matches_oracle():
    # two weeks of one-minute reports with no gap: one run of 20,160 updates,
    # a random walk that leaves its anchor every few dozen steps
    rng = np.random.default_rng(0)
    x, y = np.cumsum(rng.normal(0.0, 3.0, (2, 20160)), axis=1)
    rows = [LocationUpdate("u", float(t), a, b)
            for t, a, b in zip(range(20160), x.tolist(), y.tolist())]
    got = visit_rows(segment_all(columns(rows)[0]))
    assert len(got) > 100
    assert exact(got) == exact(segment_rows(rows))


def test_radius_ties_decided_as_math_hypot_decides():
    # offsets at about the radius where np.hypot and math.hypot round to
    # different sides of 20 m; each user is an anchor and one such offset
    rng = np.random.default_rng(1)
    dx = rng.uniform(-20.0, 20.0, 200_000)
    dy = np.sqrt(400.0 - dx * dx)
    split = np.flatnonzero((np.hypot(dx, dy) > 20.0) != np.array(
        [math.hypot(a, b) > 20.0 for a, b in zip(dx.tolist(), dy.tolist())]))
    assert split.size > 10
    rows = []
    for k, i in enumerate(split[:50].tolist()):
        rows += [LocationUpdate(f"u{k:02d}", 0.0, 0.0, 0.0),
                 LocationUpdate(f"u{k:02d}", 1.0, float(dx[i]), float(dy[i]))]
    got = visit_rows(segment_all(columns(rows)[0]))
    assert exact(got) == exact(segment_rows(rows))


# --- the array projection against per-element math ---------------------------

def reference_projection(rows):
    """Each (lat, lon) row to metres with math's per-element functions."""
    lat0 = math.radians(np.cumsum([lat for lat, _ in rows])[-1] / len(rows))
    lons = [math.radians(lon) for _, lon in rows]
    lon0 = math.degrees(math.atan2(np.cumsum(list(map(math.sin, lons)))[-1],
                                   np.cumsum(list(map(math.cos, lons)))[-1]))
    return [(6371000.0 * math.cos(lat0)
             * math.radians(180.0 - (180.0 - (lon - lon0)) % 360.0),
             6371000.0 * (math.radians(lat) - lat0)) for lat, lon in rows]


def exact_pairs(pairs):
    return [(float.hex(x), float.hex(y)) for x, y in pairs]


LAT = st.one_of(st.sampled_from([0.0, -0.0, 90.0, -90.0, 51.5]), st.floats(-90, 90))
LON = st.one_of(st.sampled_from([0.0, -0.0, 180.0, -180.0, 179.9995, -179.9995]),
                st.floats(-180, 180))


@given(st.lists(st.tuples(LAT, LON), min_size=1, max_size=30))
def test_latlon_projection_matches_per_element_math(rows):
    # one user, one minute apart: the parsed rows keep the file's order
    parsed = parse_trace(make_trace(
        [f"u,{t},{lat!r},{lon!r}" for t, (lat, lon) in enumerate(rows)],
        header="user_id,t_min,lat,lon"))
    got = [(u.x, u.y) for u in update_rows(parsed.updates)]
    assert exact_pairs(got) == exact_pairs(reference_projection(rows))
