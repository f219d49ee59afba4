"""Trace parsing and visit segmentation rules."""

import io
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdt.trace import (
    LocationUpdate,
    parse_trace,
    segment_all,
    segment_visits,
    write_trace_csv,
)


def make_trace(rows, header="user_id,t_min,x_m,y_m"):
    return io.StringIO(header + "\n" + "".join(r + "\n" for r in rows))


class TestParseTrace:
    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_trace(io.StringIO(""))

    def test_header_only_gives_empty(self):
        parsed = parse_trace(make_trace([]))
        assert parsed.updates == [] and parsed.skipped == 0

    def test_wrong_header_rejected(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_trace(make_trace([], header="uid,time,x,y"))

    def test_rows_sorted_per_user(self):
        parsed = parse_trace(make_trace([
            "b,50,0,0", "a,20,1,1", "a,5,2,2", "b,10,3,3",
        ]))
        assert [(u.user_id, u.t) for u in parsed.updates] == [
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

    def test_file_round_trip(self, tmp_path):
        updates = [LocationUpdate("u1", 0.0, 1.5, -2.0),
                   LocationUpdate("u1", 10.0, 1.5, -2.0)]
        path = tmp_path / "trace.csv"
        write_trace_csv(updates, path)
        parsed = parse_trace(path)
        assert parsed.updates == updates and parsed.skipped == 0

    def test_latlon_projection_preserves_scale(self):
        # two points ~111 m apart in latitude at the equator
        parsed = parse_trace(make_trace(
            ["a,0,0.0,0.0", "a,1,0.001,0.0"],
            header="user_id,t_min,lat,lon",
        ), project_latlon=True)
        a, b = parsed.updates
        dist = math.hypot(a.x - b.x, a.y - b.y)
        assert dist == pytest.approx(111.2, rel=0.01)

    def test_latlon_projection_across_antimeridian(self):
        # 0.001 deg of longitude either side of 180 is ~111 m at the equator;
        # an arithmetic lon centroid puts the points 360 deg apart
        parsed = parse_trace(make_trace(
            ["a,0,0.0,179.9995", "a,1,0.0,-179.9995", "b,0,0.0,179.9990"],
            header="user_id,t_min,lat,lon",
        ), project_latlon=True)
        a0, a1, b = parsed.updates
        assert math.hypot(a0.x - a1.x, a0.y - a1.y) == pytest.approx(111.2, rel=0.01)
        assert math.hypot(a0.x - b.x, a0.y - b.y) == pytest.approx(55.6, rel=0.01)
        assert max(abs(u.x) for u in parsed.updates) < 200.0

    def test_latlon_projection_counts_out_of_range_rows(self):
        parsed = parse_trace(make_trace(
            ["a,0,10.0,20.0", "a,1,90.5,20.0", "a,2,-91,20.0", "a,3,10.0,180.01",
             "a,4,10.0,-181", "a,5,-90,-180", "a,6,90,180", "a,7,10.0,zz"],
            header="user_id,t_min,lat,lon",
        ), project_latlon=True)
        assert [u.t for u in parsed.updates] == [0.0, 5.0, 6.0]
        assert parsed.skipped == 5
        assert parsed.skip_reasons == {"lat/lon out of range": 4,
                                       "non-numeric value": 1}

    def test_planar_rows_not_range_checked(self):
        parsed = parse_trace(make_trace(["a,0,500.0,-900.0"]))
        assert parsed.skipped == 0 and parsed.skip_reasons == {}


class TestSegmentVisits:
    def test_single_stay(self):
        ups = [LocationUpdate("u", t, 0.0, 0.0) for t in (0, 10, 20)]
        visits = segment_visits(ups)
        assert len(visits) == 1
        v = visits[0]
        assert (v.anchor_x, v.anchor_y, v.t_start, v.t_end) == (0.0, 0.0, 0, 20)

    def test_distance_rule_splits(self):
        ups = [LocationUpdate("u", 0, 0.0, 0.0), LocationUpdate("u", 5, 0.0, 25.0)]
        visits = segment_visits(ups)
        assert len(visits) == 2

    def test_exactly_20m_keeps_visit(self):
        ups = [LocationUpdate("u", 0, 0.0, 0.0), LocationUpdate("u", 5, 0.0, 20.0)]
        assert len(segment_visits(ups)) == 1

    def test_gap_rule_splits(self):
        ups = [LocationUpdate("u", 0, 0.0, 0.0), LocationUpdate("u", 40, 0.0, 0.0)]
        visits = segment_visits(ups)
        assert len(visits) == 2
        assert visits[0].t_end == 0 and visits[1].t_start == 40

    def test_exactly_30min_gap_keeps_visit(self):
        ups = [LocationUpdate("u", 0, 0.0, 0.0), LocationUpdate("u", 30, 0.0, 0.0)]
        assert len(segment_visits(ups)) == 1

    def test_anchor_is_first_update_not_centroid(self):
        # drifting within 20 m of the first update stays one visit even when
        # later points are far from the running centroid
        ups = [
            LocationUpdate("u", 0, 0.0, 0.0),
            LocationUpdate("u", 5, 0.0, 19.0),
            LocationUpdate("u", 10, 0.0, -19.0),
        ]
        visits = segment_visits(ups)
        assert len(visits) == 1
        assert visits[0].anchor_x == 0.0 and visits[0].anchor_y == 0.0

    def test_single_update_zero_duration(self):
        visits = segment_visits([LocationUpdate("u", 7, 1.0, 2.0)])
        assert visits == [("u", 1.0, 2.0, 7, 7)]

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
    visits = segment_visits(ups)
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
        again = segment_visits(g)
        assert len(again) == 1
        assert again[0].t_start == g[0].t and again[0].t_end == g[-1].t


def test_segment_all_orders_by_user():
    grouped = {
        "b": [LocationUpdate("b", 0, 0, 0)],
        "a": [LocationUpdate("a", 5, 0, 0), LocationUpdate("a", 100, 0, 0)],
    }
    visits = segment_all(grouped)
    assert [v.user_id for v in visits] == ["a", "a", "b"]
