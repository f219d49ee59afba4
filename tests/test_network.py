"""Construction rules for links and the derived network variants."""

import pickle
import warnings
from unittest import mock

import numpy as np
import pytest

from linkrows import from_tuples, to_tuples
from spdt.cli import main
from spdt.network import (
    _COLUMNS,
    BuilderConfig,
    DynamicContactNetwork,
    densify,
    extract_spdt_links,
    load_network,
    make_ldt_lst,
    project_spst,
    save_network,
)
from spdt.synth import SynthConfig, generate_trace
from spdt.trace import ParsedTrace, segment_all
from tracerows import LocationUpdate, Visit, columns

CFG = BuilderConfig(horizon_days=32)


def extract(visits, updates, cfg=CFG):
    """Links of hand-built visit and update rows."""
    updates, visits = columns(updates, visits)
    return extract_spdt_links(visits, updates, cfg)


def the_link(net):
    (link,) = to_tuples(net)
    return link


class TestExtractRules:
    def test_direct_only_hand_trace(self):
        host_visit = Visit("h", 0.0, 0.0, 0.0, 30.0)
        ups = [LocationUpdate("v", 10.0, 5.0, 0.0), LocationUpdate("v", 20.0, 5.0, 0.0)]
        link = the_link(extract([host_visit], ups))
        assert link == ("h", "v", 0, 30, 10, 20, 0)

    def test_indirect_only_hand_trace(self):
        host_visit = Visit("h", 0.0, 0.0, 0.0, 30.0)
        ups = [LocationUpdate("v", 100.0, 3.0, 4.0), LocationUpdate("v", 150.0, 3.0, 4.0)]
        link = the_link(extract([host_visit], ups))
        assert link == ("h", "v", 0, 30, 100, 150, 0)

    def test_25m_excluded(self):
        host_visit = Visit("h", 0.0, 0.0, 0.0, 30.0)
        ups = [LocationUpdate("v", 10.0, 25.0, 0.0)]
        assert extract([host_visit], ups).n_links == 0

    def test_exactly_20m_included(self):
        host_visit = Visit("h", 0.0, 0.0, 0.0, 30.0)
        ups = [LocationUpdate("v", 10.0, 20.0, 0.0)]
        assert extract([host_visit], ups).n_links == 1

    def test_window_cutoff_after_departure(self):
        host_visit = Visit("h", 0.0, 0.0, 0.0, 30.0)
        # 30 + 200 = 230 is the window end: an arrival at 229 creates a link,
        # an arrival at the boundary or past it does not
        assert extract([host_visit], [LocationUpdate("v", 229.0, 0.0, 0.0)]).n_links == 1
        assert extract([host_visit], [LocationUpdate("v", 230.0, 0.0, 0.0)]).n_links == 0
        assert extract([host_visit], [LocationUpdate("v", 231.0, 0.0, 0.0)]).n_links == 0

    def test_departure_truncated_at_window_end(self):
        host_visit = Visit("h", 0.0, 0.0, 0.0, 30.0)
        ups = [LocationUpdate("v", 100.0, 0.0, 0.0), LocationUpdate("v", 230.0, 0.0, 0.0)]
        assert the_link(extract([host_visit], ups))[4:6] == (100, 230)

    def test_co_presence_yields_two_directed_links(self):
        visits = [Visit("a", 0.0, 0.0, 0.0, 30.0), Visit("b", 1.0, 0.0, 5.0, 25.0)]
        ups = [
            LocationUpdate("a", 0.0, 0.0, 0.0), LocationUpdate("a", 30.0, 0.0, 0.0),
            LocationUpdate("b", 5.0, 1.0, 0.0), LocationUpdate("b", 25.0, 1.0, 0.0),
        ]
        net = extract(visits, ups)
        pairs = {link[:2] for link in to_tuples(net)}
        assert pairs == {("a", "b"), ("b", "a")}

    def test_one_link_per_host_visit(self):
        visits = [Visit("h", 0.0, 0.0, 0.0, 30.0), Visit("h", 0.0, 0.0, 300.0, 330.0)]
        ups = [LocationUpdate("v", 10.0, 1.0, 0.0), LocationUpdate("v", 310.0, 1.0, 0.0)]
        net = extract(visits, ups)
        assert net.n_links == 2

    def test_update_at_host_arrival_instant_dropped(self):
        # a lone report exactly at the host's arrival leaves no exposure window
        host_visit = Visit("h", 0.0, 0.0, 0.0, 30.0)
        assert extract([host_visit], [LocationUpdate("v", 0.0, 1.0, 0.0)]).n_links == 0

    def test_days_beyond_horizon_dropped(self):
        cfg = BuilderConfig(horizon_days=1)
        visits = [Visit("h", 0.0, 0.0, 2000.0, 2030.0)]
        ups = [LocationUpdate("v", 2010.0, 1.0, 0.0)]
        assert extract([visits[0]], ups, cfg).n_links == 0

    def test_day_index_from_host_start(self):
        host_visit = Visit("h", 0.0, 0.0, 1500.0, 1530.0)
        ups = [LocationUpdate("v", 1510.0, 1.0, 0.0)]
        assert the_link(extract([host_visit], ups))[6] == 1

    def test_times_far_past_the_horizon_never_cast(self):
        # visits at +-1e300 minutes lie on no day of the horizon; they are
        # dropped before their times are rounded to int64 minutes
        near = [LocationUpdate("h", 0.0, 0.0, 0.0), LocationUpdate("h", 30.0, 0.0, 0.0),
                LocationUpdate("v", 10.0, 5.0, 0.0)]
        far = [LocationUpdate(u, t, x, 0.0) for t in (1e300, -1e300)
               for u, x in (("a", 0.0), ("c", 1.0))]

        def build(rows):
            updates, _ = columns(rows)
            return extract_spdt_links(segment_all(updates), updates, CFG)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            net = build(near + far)
            assert build(far).n_links == 0
        assert net == build(near) and net.n_links == 2

    def test_visit_ending_past_int64_minutes_rejected(self):
        # a visit that starts in the horizon but ends past what an int64
        # minute can hold, window included, is named before its end is cast
        rows = [LocationUpdate("a", 0.0, 0.0, 0.0), LocationUpdate("a", 1e300, 0.0, 0.0),
                LocationUpdate("c", 10.0, 1.0, 0.0)]
        updates, _ = columns(rows)
        visits = segment_all(updates, max_gap_min=1e301)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"user 'a'.* ends at 1e\+300 min"):
                extract_spdt_links(visits, updates, CFG)
        # the last float below 2**63 still fits with its 200-minute window
        end = float(2**63 - 1024)
        late = [LocationUpdate("a", 0.0, 0.0, 0.0), LocationUpdate("a", end, 0.0, 0.0),
                LocationUpdate("c", 10.0, 1.0, 0.0)]
        updates, _ = columns(late)
        net = extract_spdt_links(segment_all(updates, max_gap_min=1e301), updates, CFG)
        assert to_tuples(net) == [("a", "c", 0, int(end), 10, 10, 0)]

    def test_first_late_visit_of_the_input_named(self):
        # the visits are put in (day, host, start) order after the check, so
        # a's visit on day 1 is named, not b's on day 0
        updates, visits = columns([LocationUpdate("c", 10.0, 1.0, 0.0)], [
            Visit("a", 0.0, 0.0, 1445.0, 1e300), Visit("b", 0.0, 0.0, 5.0, 1e300)])
        with pytest.raises(ValueError, match=r"user 'a'.* ends at 1e\+300 min"):
            extract_spdt_links(visits, updates, CFG)

    def test_visits_and_updates_share_their_user_ids(self):
        updates, _ = columns([LocationUpdate("v", 10.0, 5.0, 0.0)])
        _, visits = columns([], [Visit("h", 0.0, 0.0, 0.0, 30.0)])
        with pytest.raises(ValueError, match="different user ids"):
            extract_spdt_links(visits, updates, CFG)


class TestBuilderConfig:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            BuilderConfig(radius_m=0.0)
        with pytest.raises(ValueError):
            BuilderConfig(indirect_window_min=-5.0)
        with pytest.raises(ValueError):
            BuilderConfig(horizon_days=0)


class TestNetworkContainer:
    def test_isolated_users_not_carried(self):
        net = from_tuples([("a", "b", 0, 10, 5, 8, 0)], horizon=2)
        assert net.users == ("a", "b")

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            from_tuples([("a", "a", 0, 10, 5, 8, 0)], horizon=1)

    def test_equality_compares_bases_before_columns(self):
        net = from_tuples([
            ("a", "b", 0, 30, 10, 100, 0),
            ("b", "c", 1500, 1540, 1500, 1520, 1),
            ("c", "a", 3000, 3040, 3000, 3020, 2),
        ], horizon=4)
        dense = densify(net)
        assert dense._source is not None
        flat = DynamicContactNetwork._from_arrays(
            dense.users, dense.horizon, *(getattr(dense, f) for f in _COLUMNS))
        assert dense == flat and flat == dense
        # one link one minute longer
        t_l_n = flat.t_l_n.copy()
        t_l_n[5] += 1
        changed = DynamicContactNetwork._from_arrays(
            flat.users, flat.horizon, *(getattr(flat, f) for f in _COLUMNS[:-1]), t_l_n)
        assert dense != changed and changed != dense and changed != flat
        # equal base links and schedules are equal without a column read
        copy = DynamicContactNetwork(dense.users, dense.horizon,
                                     [col.copy() for col in dense._base],
                                     dense._cells.copy(), dense._source.copy())
        with mock.patch.object(DynamicContactNetwork, "_column",
                               side_effect=AssertionError("a column was read")):
            assert copy == dense and dense == copy and net == net
        assert net != dense

    def test_equality_compares_indexes(self):
        # the same five base columns and schedule, with the links in other
        # (day, host) cells: the index alone tells the networks apart
        net = from_tuples([("a", "c", 0, 30, 10, 20, 0),
                           ("b", "c", 0, 30, 10, 20, 0)], horizon=2)
        other_day = from_tuples([("a", "c", 0, 30, 10, 20, 1),
                                 ("b", "c", 0, 30, 10, 20, 1)], horizon=2)
        both_a = DynamicContactNetwork(net.users, net.horizon, net._base,
                                       np.array([[0, 2, 2, 2], [2, 2, 2, 2]]))
        for other in (other_day, both_a):
            assert all(map(np.array_equal, net._base, other._base))
            assert not np.array_equal(net._cells, other._cells)
            assert net != other and other != net
        dense = densify(net)
        moved = DynamicContactNetwork(dense.users, dense.horizon, dense._base,
                                      both_a._cells, dense._source)
        assert dense != moved and moved != dense

    def test_day_slices_cover_links(self):
        links = [("a", "b", 0, 10, 5, 8, 0),
                 ("a", "b", 1500, 1510, 1505, 1508, 1),
                 ("b", "a", 1500, 1510, 1505, 1508, 1)]
        net = from_tuples(links, horizon=3)
        assert list(net.day_link_counts()) == [1, 2, 0]


class TestProjectSPST:
    def test_mixed_link_truncated(self):
        net = from_tuples([("a", "b", 0, 30, 10, 100, 0)], horizon=1)
        assert the_link(project_spst(net))[4:6] == (10, 30)

    def test_indirect_only_removed(self):
        net = from_tuples([("a", "b", 0, 30, 100, 150, 0)], horizon=1)
        assert project_spst(net).n_links == 0

    def test_zero_stay_link_removed(self):
        # truncated at a zero-minute host visit, the neighbour's window would
        # end where the host arrives: the link carries no same-time exposure
        net = from_tuples([("a", "b", 100, 100, 90, 120, 0),
                           ("a", "c", 0, 30, 10, 20, 0)], horizon=1)
        assert to_tuples(project_spst(net)) == [("a", "c", 0, 30, 10, 20, 0)]

    def test_user_connected_only_indirectly_dropped(self):
        net = from_tuples([
            ("a", "b", 0, 30, 10, 20, 0),
            ("a", "c", 0, 30, 100, 150, 0),
        ], horizon=1)
        proj = project_spst(net)
        assert proj.users == ("a", "b")

    def test_subset_per_day(self):
        cfg = SynthConfig(n_users=150, days=5, rng_seed=3, n_locations=12,
                          area_m=(800.0, 800.0), active_day_probability=0.4)
        parsed = ParsedTrace(updates=generate_trace(cfg))
        net = extract_spdt_links(segment_all(parsed), parsed,
                                 BuilderConfig(horizon_days=5))
        proj = project_spst(net)
        assert set(proj.users) <= set(net.users)
        assert np.all(proj.day_link_counts() <= net.day_link_counts())


class TestDensify:
    def test_single_active_day_fills_horizon(self):
        links = [("h", "v", 3 * 1440, 3 * 1440 + 30, 3 * 1440 + 10, 3 * 1440 + 20, 3)]
        net = from_tuples(links, horizon=32)
        dense = densify(net, rng_seed=0)
        assert list(dense.day_link_counts()) == [1] * 32
        # time-shifted copies keep the within-day offsets
        for _, _, t_s, t_l, t_s_n, t_l_n, day in to_tuples(dense):
            assert t_s == day * 1440
            assert (t_l - t_s, t_s_n - t_s, t_l_n - t_s) == (30, 10, 20)

    def test_host_active_every_day_unchanged(self):
        links = [("h", "v", d * 1440, d * 1440 + 10, d * 1440 + 2, d * 1440 + 8, d)
                 for d in range(4)]
        net = from_tuples(links, horizon=4)
        assert densify(net, rng_seed=1) == net

    def test_original_days_bit_identical(self):
        links = [("h", "v", 1440, 1460, 1445, 1455, 1),
                 ("x", "y", 0, 60, 10, 50, 0)]
        net = from_tuples(links, horizon=5)
        dense = densify(net, rng_seed=9)
        originals = {(link[0], link[6]): link for link in to_tuples(net)}
        for link in to_tuples(dense):
            if (link[0], link[6]) in originals:
                assert link == originals[(link[0], link[6])]

    def test_seed_changes_source_days_not_structure(self):
        links = [("h", "v", 0, 30, 10, 20, 0),
                 ("h", "w", 1440, 1470, 1450, 1460, 1)]
        net = from_tuples(links, horizon=20)
        d0, d1 = densify(net, rng_seed=0), densify(net, rng_seed=1)
        assert list(d0.day_link_counts()) == [1] * 20
        assert list(d1.day_link_counts()) == [1] * 20
        assert densify(net, rng_seed=0) == d0  # deterministic under seed

    @pytest.mark.parametrize("horizon", [1, 3])  # no host to fill, one host
    def test_negative_seed_named(self, horizon):
        net = from_tuples([("h", "v", 0, 30, 10, 20, 0)], horizon=horizon)
        with pytest.raises(ValueError, match="rng_seed must be non-negative, got -1"):
            densify(net, rng_seed=-1)


class TestMakeLdtLst:
    def test_indirect_link_rewritten_with_duration_preserved(self):
        net = from_tuples([("a", "b", 0, 30, 100, 150, 0)], horizon=1)
        ldt, lst = make_ldt_lst(net)
        assert the_link(ldt)[2:6] == (0, 30, 0, 50)
        assert the_link(lst)[5] == 30

    def test_mixed_link_unchanged(self):
        net = from_tuples([("a", "b", 0, 30, 10, 100, 0)], horizon=1)
        ldt, _ = make_ldt_lst(net)
        assert the_link(ldt) == ("a", "b", 0, 30, 10, 100, 0)

    def test_user_sets_and_daily_counts_equal(self):
        cfg = SynthConfig(n_users=200, days=6, rng_seed=5, n_locations=15,
                          area_m=(900.0, 900.0), active_day_probability=0.35)
        parsed = ParsedTrace(updates=generate_trace(cfg))
        net = extract_spdt_links(segment_all(parsed), parsed,
                                 BuilderConfig(horizon_days=6))
        ldt, lst = make_ldt_lst(densify(net, 0))
        assert ldt.users == lst.users
        assert np.array_equal(ldt.day_link_counts(), lst.day_link_counts())


    @pytest.mark.parametrize("delta", [float("inf"), float("nan"), -5.0, 0.0])
    def test_window_must_be_positive(self, delta):
        net = from_tuples([("a", "b", 0, 30, 100, 150, 0)], horizon=1)
        with pytest.raises(ValueError, match="indirect_window_min must be positive"):
            make_ldt_lst(net, indirect_window_min=delta)


class TestDeltaBound:
    def test_no_link_outside_indirect_window(self):
        cfg = SynthConfig(n_users=150, days=4, rng_seed=11, n_locations=10,
                          area_m=(700.0, 700.0), active_day_probability=0.5)
        parsed = ParsedTrace(updates=generate_trace(cfg))
        for net in _variants(parsed, horizon=4):
            assert np.all(net.t_s_n < net.t_l + 200)
            assert np.all(net.t_l_n <= net.t_l + 200)
            assert np.all(net.t_l_n > net.t_s)


def _variants(parsed, horizon):
    net = extract_spdt_links(segment_all(parsed), parsed,
                             BuilderConfig(horizon_days=horizon))
    ddt = densify(net, 0)
    ldt, lst = make_ldt_lst(ddt)
    return net, project_spst(net), ddt, project_spst(ddt), ldt, lst


class TestPersistence:
    def _sample_net(self):
        return from_tuples([
            ("a", "b", 0, 30, 10, 100, 0),
            ("b", "a", 1500, 1540, 1500, 1520, 1),
        ], horizon=3)

    def test_round_trip(self, tmp_path):
        net = self._sample_net()
        path = tmp_path / "net.spdt"
        save_network(net, path)
        assert load_network(path) == net

    @pytest.mark.parametrize("protocol", [2, 4, 5])
    def test_pickle_round_trip(self, protocol):
        net = self._sample_net()
        loaded = pickle.loads(pickle.dumps(net, protocol=protocol))
        assert loaded == net
        assert not any(getattr(loaded, f).flags.writeable for f in
                       ("day", "host", "nbr", "t_s", "t_l", "t_s_n", "t_l_n"))

    def test_header_format(self, tmp_path):
        path = tmp_path / "net.spdt"
        save_network(self._sample_net(), path)
        first = path.read_text().splitlines()[0]
        assert first == "spdt-net v1 horizon=3"

    def test_empty_network(self, tmp_path):
        net = from_tuples([], horizon=4)
        path = tmp_path / "empty.spdt"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded == net and loaded.n_links == 0

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "net.spdt"
        save_network(self._sample_net(), path)
        content = path.read_text()
        path.write_text(content[:-9])  # cut inside the final row
        with pytest.raises(ValueError):
            load_network(path)

    def header_fault(self, tmp_path, header):
        # the malformed body line would name line 2 if it were parsed
        path = tmp_path / "net.spdt"
        path.write_text(f"{header}\n0 a b\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_network(path)
        return str(info.value).replace(f"{path}:", "path:", 1)

    def test_version_mismatch_rejected(self, tmp_path):
        assert self.header_fault(tmp_path, "spdt-net v2 horizon=3") == (
            "path:1: network format version 2 unsupported (expected 1)")

    def test_garbage_header_rejected(self, tmp_path):
        assert self.header_fault(tmp_path, "something else") == (
            "path:1: not a network file: bad header 'something else'")

    @pytest.mark.parametrize("header", ["spdt-net v1 horizon=\u0663",
                                        "spdt-net v\u0661 horizon=3"])
    def test_non_ascii_digits_rejected(self, tmp_path, header):
        # str.isdigit and int() take any Unicode digit; save_network writes 0-9
        assert self.header_fault(tmp_path, header) == (
            f"path:1: not a network file: bad header {header!r}")

    def test_carriage_return_ends_the_header(self, tmp_path):
        assert self.header_fault(tmp_path, "spdt-net v1 horizon=3\rspdt") == (
            "path:1: not a network file: bad header 'spdt-net v1 horizon=3\\r'")

    def test_zero_horizon_rejected_at_header(self, tmp_path):
        assert self.header_fault(tmp_path, "spdt-net v1 horizon=0") == (
            "path:1: horizon must be at least 1")

    @pytest.mark.parametrize("row, message", [
        ("0 a a 0 10 5 8", "link connects a user to itself"),
        ("3 a b 0 10 5 8", "link day outside [0, horizon)"),
        ("-1 a b 0 10 5 8", "link day outside [0, horizon)"),
        ("0 a b 10 0 5 8", "link interval invariants violated"),
        ("0 a b 0 10 9 8", "link interval invariants violated"),
        ("0 a b 5 10 1 5", "link interval invariants violated"),
    ])
    def test_link_fault_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "net.spdt"
        path.write_text(f"spdt-net v1 horizon=3\n0 a b 0 10 5 8\n{row}\n"
                        f"{row}\n")
        with pytest.raises(ValueError) as info:
            load_network(path)
        assert str(info.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("field", ["99999999999999999999", str(2**63),
                                       str(-2**63 - 1)])
    def test_integer_past_int64_names_its_line(self, tmp_path, field):
        path = tmp_path / "net.spdt"
        path.write_text(f"spdt-net v1 horizon=3\n0 a b 0 10 5 8\n"
                        f"0 a b 1 5 2 {field}\n")
        with pytest.raises(ValueError) as info:
            load_network(path)
        assert str(info.value) == f"{path}:3: integer field out of range"

    @pytest.mark.parametrize("line, lineno", [
        (b"0 a \xff 0 10 5 8\n", 3),        # in an id
        (b"0 a b 0 10 5 \xe9\n", 3),        # in an integer field
        (b"0 a b 0 10 5 8\r\x80\n", 4),    # after a carriage return, which ends a line
        (b"0 a\xc3 b 0 10 5 8", 3),          # a cut UTF-8 sequence
    ])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, line, lineno):
        path = tmp_path / "net.spdt"
        # the faulty line comes before a malformed one
        path.write_bytes(b"spdt-net v1 horizon=3\n0 a b 0 10 5 8\n" + line
                         + b"\n0 a\n")
        with pytest.raises(ValueError) as info:
            load_network(path)
        assert str(info.value) == f"{path}:{lineno}: bytes that are not UTF-8"

    def test_cli_prints_one_error_line_for_bytes_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "net.spdt"
        path.write_bytes(b"spdt-net v1 horizon=3\n0 a b 0 10 5 8\n0 \xfe b 0 10 5 8\n")
        out = tmp_path / "sst.spdt"
        assert main(["project-spst", "--net", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"spdt: error: {path}:3: bytes that are not UTF-8\n"
        assert not out.exists()

    def test_header_bytes_not_utf8_named(self, tmp_path):
        path = tmp_path / "net.spdt"
        path.write_bytes(b"spdt-net v1 horizon=\xff\n0 a b 0 10 5 8\n")
        with pytest.raises(ValueError, match=r":1: bytes that are not UTF-8$"):
            load_network(path)

    def test_crlf_link_lines_load_alike(self, tmp_path):
        # a carriage return ends the line, and int() strips it from the
        # last field
        net = self._sample_net()
        path = tmp_path / "net.spdt"
        save_network(net, path)
        header, *lines = path.read_bytes().split(b"\n")[:-1]
        crlf = tmp_path / "crlf.spdt"
        crlf.write_bytes(header + b"\n" + b"".join(line + b"\r\n" for line in lines))
        assert load_network(crlf) == net

    def test_whitespace_user_id_rejected_on_save(self, tmp_path):
        net = from_tuples([("a b", "c", 0, 10, 5, 8, 0)], horizon=1)
        with pytest.raises(ValueError):
            save_network(net, tmp_path / "net.spdt")
