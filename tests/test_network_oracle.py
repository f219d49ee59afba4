"""Differential oracle for the array-based link extraction, densification,
network I/O and the (day, host) link index.

The references below are the earlier implementations: extraction as one
Python iteration per visit over every update in the 3x3 grid cells,
densification as one Python iteration per host and missing day followed by
a full canonical sort, saving one formatted line per link, and
loading one parsed line at a time. The package's array passes must agree
with them exactly: networks compared with ``==`` (users, horizon and every
array in canonical order), files compared byte for byte, and load errors
compared by message. A densified network, a day schedule over its base
links, must also agree with the plain network of its public columns in
every consumer: saved bytes, graphs, daily metrics, simulation counts and
the variant builders.
"""

import math
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spdt.epidemic as epi
from linkrows import edge_set, from_tuples, to_tuples
from spdt import network
from spdt.epidemic import SimulationConfig, run_simulation
from spdt.metrics import DEFAULT_EDGE_THRESHOLD, daily_network_metrics, static_graph
from spdt.network import (
    NETWORK_FORMAT_VERSION,
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
from spdt.trace import MINUTES_PER_DAY, ParsedTrace, segment_all
from tracerows import LocationUpdate, Visit, columns, update_rows, visit_rows


def ref_extract(visits, updates, cfg):
    """Links of visit and update rows, one visit at a time."""
    delta = cfg.indirect_window_min
    radius2 = cfg.radius_m * cfg.radius_m

    if not updates or not visits:
        return from_tuples([], cfg.horizon_days)

    user_ids = sorted({u.user_id for u in updates})
    code_of = {u: i for i, u in enumerate(user_ids)}
    ux = np.array([u.x for u in updates])
    uy = np.array([u.y for u in updates])
    ut = np.array([u.t for u in updates])
    ucode = np.array([code_of[u.user_id] for u in updates], dtype=np.int64)

    cell_x = np.floor(ux / cfg.radius_m).astype(np.int64)
    cell_y = np.floor(uy / cfg.radius_m).astype(np.int64)
    grid = {}
    for i, key in enumerate(zip(cell_x.tolist(), cell_y.tolist())):
        grid.setdefault(key, []).append(i)
    grid_arrays = {key: np.array(idx, dtype=np.int64) for key, idx in grid.items()}

    links = []
    for visit in visits:
        host_code = code_of.get(visit.user_id, -1)
        cx = int(math.floor(visit.anchor_x / cfg.radius_m))
        cy = int(math.floor(visit.anchor_y / cfg.radius_m))
        blocks = [
            grid_arrays[(cx + dx, cy + dy)]
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            if (cx + dx, cy + dy) in grid_arrays
        ]
        if not blocks:
            continue
        cand = np.concatenate(blocks)
        dx = ux[cand] - visit.anchor_x
        dy = uy[cand] - visit.anchor_y
        tcand = ut[cand]
        mask = (
            (dx * dx + dy * dy <= radius2)
            & (tcand >= visit.t_start)
            & (tcand <= visit.t_end + delta)
            & (ucode[cand] != host_code)
        )
        hits = cand[mask]
        if hits.size == 0:
            continue

        codes = ucode[hits]
        order = np.argsort(codes, kind="stable")
        codes_sorted = codes[order]
        times_sorted = ut[hits][order]
        uniq, starts = np.unique(codes_sorted, return_index=True)
        firsts = np.minimum.reduceat(times_sorted, starts)
        lasts = np.maximum.reduceat(times_sorted, starts)

        t_s = int(round(visit.t_start))
        t_l = int(round(visit.t_end))
        window_end = t_l + int(round(delta))
        day = t_s // MINUTES_PER_DAY
        if not 0 <= day < cfg.horizon_days:
            continue
        for nbr_code, first, last in zip(uniq.tolist(), firsts.tolist(),
                                         lasts.tolist()):
            t_s_n = int(round(first))
            t_l_n = min(int(round(last)), window_end)
            if t_s_n >= window_end or t_l_n <= t_s:
                continue
            links.append((visit.user_id, user_ids[nbr_code], t_s, t_l, t_s_n,
                          t_l_n, day))

    return from_tuples(links, cfg.horizon_days)


def ref_save(net, path):
    for user in net.users:
        if not user or any(ch.isspace() for ch in user):
            raise ValueError(f"user id {user!r} not representable in network format")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"spdt-net v{NETWORK_FORMAT_VERSION} horizon={net.horizon}\n")
        for host, nbr, t_s, t_l, t_s_n, t_l_n, day in to_tuples(net):
            fh.write(f"{day} {host} {nbr} {t_s} {t_l} {t_s_n} {t_l_n}\n")


def ref_load(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\n")
        m = re.match(r"^spdt-net v(\d+) horizon=(\d+)$", header)
        if m is None:
            raise ValueError(f"{path}:1: not a network file: bad header {header!r}")
        version, horizon = int(m.group(1)), int(m.group(2))
        if version != NETWORK_FORMAT_VERSION:
            raise ValueError(f"{path}:1: network format version {version} "
                             f"unsupported (expected {NETWORK_FORMAT_VERSION})")
        if horizon < 1:
            raise ValueError(f"{path}:1: horizon must be at least 1")
        links = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                raise ValueError(f"{path}:{lineno}: blank line in link section")
            parts = line.split(" ")
            if len(parts) != 7:
                raise ValueError(f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
            if not parts[1] or not parts[2]:
                raise ValueError(f"{path}:{lineno}: empty user id")
            try:
                day = int(parts[0])
                t_s, t_l, t_s_n, t_l_n = map(int, parts[3:7])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer field") from exc
            if not all(-2**63 <= v < 2**63 for v in (day, t_s, t_l, t_s_n, t_l_n)):
                raise ValueError(f"{path}:{lineno}: integer field out of range")
            links.append((parts[1], parts[2], t_s, t_l, t_s_n, t_l_n, day))
    return from_tuples(links, horizon)


def ref_densify(net, rng_seed):
    if net.n_links == 0:
        return net
    extra = {f: [] for f in ("day", "host", "nbr", "t_s", "t_l", "t_s_n", "t_l_n")}
    for h in np.unique(net.host).tolist():
        rows = np.flatnonzero(net.host == h)
        days = net.day[rows]
        days_avail = np.unique(days)
        if days_avail.size >= net.horizon:
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence((rng_seed, network._user_hash(net.users[h])))
        )
        for d in range(net.horizon):
            if d in days_avail:
                continue
            src = int(days_avail[rng.integers(days_avail.size)])
            src_rows = rows[days == src]
            shift = (d - src) * MINUTES_PER_DAY
            extra["day"].append(np.full(src_rows.size, d, dtype=np.int64))
            extra["host"].append(net.host[src_rows])
            extra["nbr"].append(net.nbr[src_rows])
            for f in ("t_s", "t_l", "t_s_n", "t_l_n"):
                extra[f].append(getattr(net, f)[src_rows] + shift)
    if not extra["day"]:
        return net
    cat = {f: np.concatenate([getattr(net, f)] + extra[f]) for f in extra}
    order = np.lexsort((cat["t_l_n"], cat["t_s_n"], cat["nbr"], cat["t_s"],
                        cat["host"], cat["day"]))
    return DynamicContactNetwork._from_arrays(
        net.users, net.horizon, *(cat[f][order] for f in extra))


# --- extraction ------------------------------------------------------------

USERS = ["a", "b", "c", "d", "e10", "e9"]
RADIUS = 20.0
# multiples of a quarter radius put updates and anchors on cell boundaries
# and at exactly the radius; the offsets break the lattice
COORD = st.one_of(
    st.integers(-10, 10).map(lambda k: k * RADIUS / 4),
    st.floats(-60.0, 60.0, allow_nan=False),
)
# half minutes exercise half-to-even rounding; the range crosses day 0 and
# reaches past a one- or two-day horizon
TIME = st.integers(-100, 2 * 3000).map(lambda k: k / 2)


@st.composite
def visit(draw, hosts):
    t_start = draw(TIME)
    return Visit(draw(st.sampled_from(hosts)), draw(COORD), draw(COORD),
                 t_start, t_start + draw(st.sampled_from([0.0, 0.5, 3.0, 30.0, 95.5])))


@st.composite
def extract_case(draw):
    delta = draw(st.sampled_from([200.0, 30.5, 7.25, 1.0]))
    cfg = BuilderConfig(radius_m=RADIUS, indirect_window_min=delta,
                        horizon_days=draw(st.integers(1, 2)))
    # "ghost" hosts report no updates of their own
    visits = draw(st.lists(visit(USERS + ["ghost"]), max_size=12))
    # second visits of the same host whose start rounds to the same minute
    for v in draw(st.lists(st.sampled_from(visits), max_size=3)) if visits else []:
        shift = draw(st.sampled_from([-0.5, 0.5, 0.25]))
        stay = draw(st.sampled_from([0.0, 4.0]))
        visits.append(v._replace(t_start=v.t_start + shift,
                                 t_end=v.t_end + shift + stay))
    updates = draw(st.lists(
        st.builds(LocationUpdate, st.sampled_from(USERS), TIME, COORD, COORD),
        max_size=40))
    # updates around each visit's window and anchor: exactly at its start
    # and at its window end, just outside both, and at exactly the radius
    for v in draw(st.lists(st.sampled_from(visits), max_size=30)) if visits else []:
        t = draw(st.sampled_from([v.t_start, v.t_start - 0.5, v.t_start + 0.5,
                                  v.t_start + 2.0, v.t_end, v.t_end + delta / 2,
                                  v.t_end + delta, v.t_end + delta + 0.5]))
        dx, dy = draw(st.sampled_from([(0.0, 0.0), (3.0, -4.0), (RADIUS, 0.0),
                                       (0.0, -RADIUS), (RADIUS + 0.5, 0.0)]))
        updates.append(LocationUpdate(draw(st.sampled_from(USERS)), t,
                                      v.anchor_x + dx, v.anchor_y + dy))
    updates = draw(st.permutations(updates))
    return visits, updates, cfg


# about half of the drawn cases produce no link, so draw more of them
@settings(max_examples=200)
@given(extract_case(), st.sampled_from([1, 3, 7, 1 << 16]))
def test_extract_matches_per_visit_reference(case, block):
    visits, updates, cfg = case
    update_cols, visit_cols = columns(updates, visits)
    with mock.patch.object(network, "_PAIR_BLOCK", block):
        got = extract_spdt_links(visit_cols, update_cols, cfg)
    assert got == ref_extract(visits, updates, cfg)


def test_extract_matches_reference_on_synthetic_trace():
    parsed = ParsedTrace(updates=generate_trace(SynthConfig(
        n_users=150, days=3, rng_seed=4, n_locations=10, area_m=(700.0, 700.0),
        active_day_probability=0.5)))
    visits = segment_all(parsed)
    cfg = BuilderConfig(horizon_days=2)
    want = ref_extract(visit_rows(visits), update_rows(parsed.updates), cfg)
    assert want.n_links > 1000
    for block in (64, 1 << 16):
        with mock.patch.object(network, "_PAIR_BLOCK", block):
            assert extract_spdt_links(visits, parsed, cfg) == want


HOST = Visit("h", 0.0, 0.0, 0.0, 30.0)


@pytest.mark.parametrize("visits, updates, n_links", [
    # empty inputs
    ([], [], 0),
    ([HOST], [], 0),
    ([], [LocationUpdate("v", 10.0, 1.0, 0.0)], 0),
    # a host absent from the update stream still hosts links
    ([Visit("ghost", -19.0, -21.0, 5.0, 9.0)],
     [LocationUpdate("v", 7.0, -21.0, -20.5)], 1),
    # the neighbour's first report rounds to the window end (229.5 -> 230)
    ([HOST], [LocationUpdate("v", 229.5, 0.0, 0.0)], 0),
    # and to the host's arrival: 0.5 -> 0, so t_l_n <= t_s
    ([HOST], [LocationUpdate("v", 0.5, 0.0, 0.0)], 0),
    # 1.5 -> 2 keeps the link
    ([HOST], [LocationUpdate("v", 1.5, 0.0, 0.0)], 1),
    # visits starting before day 0 or on a day past the horizon
    ([Visit("h", 0.0, 0.0, -10.0, 5.0)], [LocationUpdate("v", 1.0, 0.0, 0.0)], 0),
    ([Visit("h", 0.0, 0.0, 2880.0, 2890.0)],
     [LocationUpdate("v", 2885.0, 0.0, 0.0)], 0),
    # two visits of one host whose starts round to the same minute
    ([Visit("h", 0.0, 0.0, 10.5, 20.0), Visit("h", 0.0, 0.0, 9.5, 40.0)],
     [LocationUpdate("v", 12.0, 0.0, 0.0), LocationUpdate("h", 12.0, 0.0, 0.0)], 2),
])
def test_extract_edge_cases_match_reference(visits, updates, n_links):
    cfg = BuilderConfig(horizon_days=2)
    want = ref_extract(visits, updates, cfg)
    assert want.n_links == n_links
    update_cols, visit_cols = columns(updates, visits)
    assert extract_spdt_links(visit_cols, update_cols, cfg) == want


# --- save and load ---------------------------------------------------------

IDS = ["a", "b", "u10", "u9", "x_1"]


@st.composite
def link(draw, horizon):
    host, nbr = draw(st.lists(st.sampled_from(IDS), min_size=2, max_size=2, unique=True))
    t_s = draw(st.integers(-50, 3000))
    t_l = t_s + draw(st.integers(0, 240))
    t_s_n = draw(st.integers(t_s - 60, t_l + 200))
    t_l_n = max(t_s_n, t_s + 1) + draw(st.integers(0, 240))
    return host, nbr, t_s, t_l, t_s_n, t_l_n, draw(st.integers(0, horizon - 1))


@st.composite
def saved_network(draw):
    horizon = draw(st.integers(1, 3))
    return from_tuples(draw(st.lists(link(horizon), max_size=30)), horizon)


@given(saved_network(), st.sampled_from([1, 4, 1 << 13]))
def test_save_and_load_match_line_references(tmp_path_factory, net, block):
    d = tmp_path_factory.mktemp("io")
    with mock.patch.object(network, "_ROW_BLOCK", block):
        save_network(net, d / "new.spdt")
        ref_save(net, d / "ref.spdt")
        assert (d / "new.spdt").read_bytes() == (d / "ref.spdt").read_bytes()
        assert load_network(d / "new.spdt") == ref_load(d / "ref.spdt") == net


# one fault per kind, written into one line of a valid file
LINE_FAULTS = [
    "",                        # blank line
    "0 a b 1 2 3",             # six fields
    "0 a b 1 2 3 4 5",         # eight fields
    "0  b 0 10 5 8",           # empty host id
    "0 a  0 10 5 8",           # empty neighbour id
    "0 a b 0 10 5 x",          # non-integer field
    "0 a b 0 1.5 5 8",
    "0 a b 0 10 5 8\r",        # a carriage return ends a line too
    "0 a\rb 0 10 5 8",
    "0 a b 0 10 5 8 ",         # trailing space: an eighth, empty field
    "0 a b 0 1_0 5 8",         # Python int syntax is accepted
    "0 a b 1 5 2 99999999999999999999",  # past int64
    "0 a b 1 5 x 99999999999999999999",  # non-integer before out of range
    " 0 a b 0 10 5 8",
]
LINK_FAULTS = [
    "0 a a 0 10 5 8",          # self-link
    "9 a b 0 10 5 8",          # day past the horizon
    "-1 a b 0 10 5 8",         # day before 0
    "0 a b 10 0 5 8",          # host interval reversed
    "0 a b 0 10 5 5",          # neighbour leaves before the host arrives
]


def outcome(load, path):
    try:
        return "ok", load(path)
    except ValueError as exc:
        return "error", str(exc)


@given(saved_network(), st.data(), st.sampled_from([1, 3, 1 << 13]))
def test_load_errors_match_line_reference(tmp_path_factory, net, data, block):
    path = tmp_path_factory.mktemp("bad") / "net.spdt"
    ref_save(net, path)
    lines = path.read_text().split("\n")[:-1]
    faults = data.draw(st.lists(st.sampled_from(LINE_FAULTS + LINK_FAULTS),
                                min_size=1, max_size=3))
    for fault in faults:
        lines.insert(data.draw(st.integers(1, len(lines))), fault)
    text = "\n".join(lines) + data.draw(st.sampled_from(["\n", ""]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with mock.patch.object(network, "_ROW_BLOCK", block):
        got = outcome(load_network, path)
    want = outcome(ref_load, path)
    if want[0] == "error" and not want[1].startswith(f"{path}:"):
        # link faults: the reference names no line, the package names the
        # first offending one
        first = next(lineno for lineno, line in enumerate(lines[1:], start=2)
                     if _has_link_fault(line, want[1], net.horizon))
        want = ("error", f"{path}:{first}: {want[1]}")
    assert got == want


def _has_link_fault(line, message, horizon):
    """Whether a line that parsed carries the fault the reference reported."""
    parts = line.split(" ")
    day, t_s, t_l, t_s_n, t_l_n = map(int, parts[:1] + parts[3:])
    return {
        "link connects a user to itself": parts[1] == parts[2],
        "link interval invariants violated":
            t_s > t_l or t_s_n > t_l_n or t_l_n <= t_s,
        "link day outside [0, horizon)": not 0 <= day < horizon,
    }[message]


# --- densification ---------------------------------------------------------

HOSTS = ["a", "b", "u10", "u9"]


@st.composite
def dense_link(draw, host, day):
    # small offsets tie t_s (and whole sort keys) within a (day, host) cell
    nbr = draw(st.sampled_from([u for u in HOSTS + ["z"] if u != host]))
    t_s = day * MINUTES_PER_DAY + draw(st.integers(-2, 2))
    t_l = t_s + draw(st.integers(0, 2))
    t_s_n = t_s + draw(st.integers(-1, 3))
    t_l_n = max(t_s_n, t_s + 1) + draw(st.integers(0, 2))
    return host, nbr, t_s, t_l, t_s_n, t_l_n, day


@st.composite
def densify_case(draw):
    """A network whose hosts are active on every day, on one day or on some;
    "z" is only ever a neighbour."""
    horizon = draw(st.integers(1, 6))
    links = []
    for host in draw(st.lists(st.sampled_from(HOSTS), unique=True, max_size=4)):
        days = draw(st.one_of(
            st.just(range(horizon)),
            st.integers(0, horizon - 1).map(lambda d: [d]),
            st.sets(st.integers(0, horizon - 1), min_size=1),
        ))
        for day in days:
            links += draw(st.lists(dense_link(host, day), min_size=1, max_size=3))
    net = from_tuples(draw(st.permutations(links)), horizon)
    return net, draw(st.sampled_from([0, 1, 5, 2**40 + 3]))


@given(densify_case())
def test_densify_matches_per_host_reference(case):
    net, seed = case
    assert densify(net, rng_seed=seed) == ref_densify(net, seed)


def test_densify_matches_reference_on_synthetic_network():
    cfg = SynthConfig(n_users=120, days=6, rng_seed=4, n_locations=10,
                      area_m=(700.0, 700.0), active_day_probability=0.3)
    parsed = ParsedTrace(updates=generate_trace(cfg))
    net = extract_spdt_links(segment_all(parsed), parsed, BuilderConfig(horizon_days=6))
    for seed in (0, 7):
        dense = densify(net, rng_seed=seed)
        assert dense.n_links > net.n_links
        assert dense == ref_densify(net, seed)


def test_densify_calls_no_sort():
    net = from_tuples([
        ("h", "v", 2 * MINUTES_PER_DAY, 2 * MINUTES_PER_DAY + 30,
         2 * MINUTES_PER_DAY + 5, 2 * MINUTES_PER_DAY + 40, 2),
        ("v", "h", 10, 20, 15, 25, 0),
        ("v", "w", 5, 20, 15, 25, 0),
    ], horizon=4)
    fail = mock.Mock(side_effect=AssertionError("densify sorted"))
    with mock.patch.multiple(np, lexsort=fail, argsort=fail, sort=fail):
        dense = densify(net)
    assert dense == ref_densify(net, network.DEFAULT_DENSIFY_SEED)
    assert list(dense.day_link_counts()) == [3, 3, 3, 3]


# --- (day, host) link index ------------------------------------------------

def assert_index_matches_columns(net):
    """``host_links`` against a scan of the public columns: every (day, host)
    cell is its source cell's base rows, shifted to the day, and the per-day
    link counts are those of the columns."""
    base_day, base_host, *base_rest = net._base
    day, host = net.day, net.host
    rest = [getattr(net, f) for f in ("nbr", "t_s", "t_l", "t_s_n", "t_l_n")]
    for d in range(net.horizon):
        first, count = net.host_links(d)
        assert first.shape == count.shape == (net.n_users,)
        for h in range(net.n_users):
            rows = np.arange(first[h], first[h] + count[h])
            want = np.flatnonzero((day == d) & (host == h))
            source = d if net._source is None else net._source[d, h]
            assert rows.size == want.size
            assert np.all(base_day[rows] == source) and np.all(base_host[rows] == h)
            assert np.array_equal(base_rest[0][rows], rest[0][want])
            shift = (d - source) * MINUTES_PER_DAY
            for base, col in zip(base_rest[1:], rest[1:]):
                assert np.array_equal(base[rows] + shift, col[want])
            if net._source is None:
                assert np.array_equal(rows, want)
    assert np.array_equal(net.day_link_counts(),
                          np.bincount(day, minlength=net.horizon))
    assert net.n_links == day.size


@st.composite
def indexed_network(draw):
    """A network whose horizon may run past its last link day."""
    days = draw(st.integers(1, 4))
    links = draw(st.lists(link(days), max_size=25))
    return from_tuples(links, days + draw(st.integers(0, 3)))


@given(indexed_network(), st.sampled_from([0, 3]))
@example(from_tuples([], 3), 0)  # no users, no links
@example(from_tuples([("a", "b", 0, 30, 10, 20, 0)], 4), 0)  # past the last day
@example(from_tuples([("a", "z", 0, 30, 10, 20, 1), ("b", "z", 1440, 1500, 1450,
                                                      1460, 1)], 2), 0)  # z: no host
def test_index_matches_column_scan(net, seed):
    assert_index_matches_columns(net)
    assert_index_matches_columns(pickle.loads(pickle.dumps(net)))
    assert_index_matches_columns(project_spst(net))
    dense = densify(net, rng_seed=seed)
    assert_index_matches_columns(dense)
    assert_index_matches_columns(pickle.loads(pickle.dumps(dense)))
    assert_index_matches_columns(project_spst(dense))
    assert_index_matches_columns(densify(project_spst(dense), rng_seed=seed + 1))


# --- scheduled against materialised networks -------------------------------

def materialised(net):
    """The plain network of a network's public columns."""
    return DynamicContactNetwork._from_arrays(
        net.users, net.horizon, *(getattr(net, f) for f in network._COLUMNS))


@settings(max_examples=40)
@given(st.one_of(indexed_network(), densify_case().map(lambda case: case[0])),
       st.sampled_from([0, 3]))
def test_scheduled_network_matches_materialised(tmp_path_factory, net, seed):
    dense = densify(net, rng_seed=seed)
    flat = materialised(dense)
    # the public columns against the per-host reference, which copies rows
    assert flat._source is None and flat == dense == ref_densify(net, seed)
    assert flat.n_links == dense.n_links
    assert np.array_equal(flat.day_link_counts(), dense.day_link_counts())

    d = tmp_path_factory.mktemp("sched")
    save_network(dense, d / "dense.spdt")
    save_network(flat, d / "flat.spdt")
    assert (d / "dense.spdt").read_bytes() == (d / "flat.spdt").read_bytes()

    for threshold in (1e-6, DEFAULT_EDGE_THRESHOLD):
        for r_t in (10.0, 60.0):
            assert edge_set(static_graph(dense, r_t, threshold)) == edge_set(
                static_graph(flat, r_t, threshold))
        assert daily_network_metrics(dense, [10.0, 35.0, 60.0], threshold) == (
            daily_network_metrics(flat, [10.0, 35.0, 60.0], threshold))

    if dense.n_users:
        cfg = SimulationConfig(seeds=min(2, dense.n_users), horizon_days=dense.horizon,
                               r_t=35.0, sigma=500.0, rng_seed=seed, runs=3)
        want = run_simulation(flat, cfg)
        assert np.array_equal(run_simulation(dense, cfg, workers=1), want)
        # one run per block, so the blocks are spread over two workers
        with mock.patch.object(epi, "_BLOCK_PAIRS", 1):
            assert np.array_equal(run_simulation(dense, cfg, workers=2), want)
        assert np.array_equal(
            run_simulation(pickle.loads(pickle.dumps(dense)), cfg), want)

    for a, b in ((dense, flat), (project_spst(dense), project_spst(flat))):
        assert project_spst(a) == project_spst(b)
        assert make_ldt_lst(a) == make_ldt_lst(b)
        assert make_ldt_lst(a, 30.0, keep_departure=True) == make_ldt_lst(
            b, 30.0, keep_departure=True)
        assert densify(a, rng_seed=seed + 1) == densify(b, rng_seed=seed + 1)
