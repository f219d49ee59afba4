"""Differential oracle for the array-based link extraction, densification,
network I/O and the (day, host) link index.

The references below are the earlier implementations: extraction as one
Python iteration per visit over every update in the 3x3 grid cells,
densification as one Python iteration per host and missing day followed by
a full canonical sort, saving one formatted line per link, and
loading one parsed line at a time, read in text mode with Python's
``int``. The package's array passes must agree
with them exactly: networks compared with ``==`` (users, horizon and every
array in canonical order), files compared byte for byte, and load errors
compared by message. A densified network, a day schedule over its base
links, must also agree with the plain network of its public columns in
every consumer: saved bytes, graphs, daily metrics, simulation counts and
the variant builders.
"""

import math
import multiprocessing
import pickle
import re
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spdt.epidemic as epi
from linkrows import edge_set, from_tuples, to_tuples
from spdt import _textio, network
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


def ref_text(net):
    """The network's file, one formatted line per link; ids are not checked."""
    return f"spdt-net v{NETWORK_FORMAT_VERSION} horizon={net.horizon}\n" + "".join(
        f"{day} {host} {nbr} {t_s} {t_l} {t_s_n} {t_l_n}\n"
        for host, nbr, t_s, t_l, t_s_n, t_l_n, day in to_tuples(net))


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def ref_save(net, path):
    for user in net.users:
        if not user or any(ch.isspace() for ch in user):
            raise ValueError(f"user id {user!r} not representable in network format")
    write_text(path, ref_text(net))


def line_body(line):
    """A text-mode line without its end: "\r\n" or "\n" (a lone "\r" stays)."""
    return line[:-2] if line.endswith("\r\n") else line.rstrip("\n")


def ref_load(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = line_body(fh.readline())
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
            line = line_body(line)
            if not line:
                raise ValueError(f"{path}:{lineno}: blank line in link section")
            parts = line.split(" ")
            if len(parts) != 7:
                raise ValueError(f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
            if not parts[1] or not parts[2]:
                raise ValueError(f"{path}:{lineno}: empty user id")
            if any(ch.isspace() for ch in parts[1] + parts[2]):
                raise ValueError(f"{path}:{lineno}: user id contains whitespace")
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


def synthetic_trace():
    parsed = ParsedTrace(updates=generate_trace(SynthConfig(
        n_users=150, days=3, rng_seed=4, n_locations=10, area_m=(700.0, 700.0),
        active_day_probability=0.5)))
    return parsed, segment_all(parsed), BuilderConfig(horizon_days=2)


def test_extract_matches_reference_on_synthetic_trace():
    parsed, visits, cfg = synthetic_trace()
    want = ref_extract(visit_rows(visits), update_rows(parsed.updates), cfg)
    assert want.n_links > 1000
    for block in (64, 1 << 16):
        with mock.patch.object(network, "_PAIR_BLOCK", block):
            assert extract_spdt_links(visits, parsed, cfg) == want


def test_extract_sorts_visits_not_links():
    # the visits are sorted once; the links leave in canonical order, so
    # _from_arrays never sorts them
    parsed, visits, cfg = synthetic_trace()
    start = np.rint(visits.t_start)
    n_kept = np.count_nonzero((start >= 0) & (start < cfg.horizon_days * MINUTES_PER_DAY))
    spy = mock.Mock(wraps=np.lexsort)
    with mock.patch.object(np, "lexsort", spy):
        net = extract_spdt_links(visits, parsed, cfg)
    assert net.n_links > 5 * n_kept
    (keys,), _ = spy.call_args
    assert spy.call_count == 1 and [len(key) for key in keys] == [n_kept] * 3


@st.composite
def crowded_case(draw):
    """Few visits, each with neighbours that report many times: at tied
    times, at the window's edges and at one spot, so groups of one
    (visit, neighbour) hold many updates of one cell and one time."""
    delta = draw(st.sampled_from([200.0, 7.25]))
    cfg = BuilderConfig(radius_m=RADIUS, indirect_window_min=delta, horizon_days=2)
    visits = draw(st.lists(visit(USERS), min_size=1, max_size=4))
    updates = []
    for v in visits:
        times = [v.t_start - 0.5, v.t_start, v.t_start + 0.5, v.t_end, v.t_end + delta]
        spots = [(0.0, 0.0), (0.25, 0.0), (RADIUS / 4, -RADIUS / 4), (RADIUS, 0.0)]
        for user in draw(st.lists(st.sampled_from(USERS), min_size=1, max_size=3)):
            for _ in range(draw(st.integers(5, 25))):
                dx, dy = draw(st.sampled_from(spots))
                updates.append(LocationUpdate(user, draw(st.sampled_from(times)),
                                              v.anchor_x + dx, v.anchor_y + dy))
    return visits, draw(st.permutations(updates)), cfg


@settings(max_examples=100)
@given(crowded_case(), st.sampled_from([1, 3, 7, 1 << 16]))
def test_extract_crowded_groups_match_per_visit_reference(case, block):
    visits, updates, cfg = case
    update_cols, visit_cols = columns(updates, visits)
    with mock.patch.object(network, "_PAIR_BLOCK", block):
        got = extract_spdt_links(visit_cols, update_cols, cfg)
    assert got == ref_extract(visits, updates, cfg)


def test_extract_groups_links_by_one_sort():
    # the only argsort orders the updates; the (visit, neighbour) groups are
    # found by sorting their keys, with no argsort or reduceat over candidates
    parsed, visits, cfg = synthetic_trace()
    argsort = mock.Mock(wraps=np.argsort)
    minimum, maximum = mock.Mock(wraps=np.minimum), mock.Mock(wraps=np.maximum)
    with mock.patch.multiple(np, argsort=argsort, minimum=minimum, maximum=maximum):
        net = extract_spdt_links(visits, parsed, cfg)
    assert net.n_links > 1000
    assert [call.args[0].size for call in argsort.call_args_list] == [len(parsed.updates)]
    assert not minimum.reduceat.called and not maximum.reduceat.called


@pytest.mark.parametrize("spare_bits", [0, 2])
def test_extract_blocks_keep_link_keys_in_range(spare_bits):
    # a block's link keys are below (visits * users * time ranks); with the
    # key range cut to just over one or four visits' worth, blocks are split
    # by that cap alone and the links do not change
    parsed, visits, cfg = synthetic_trace()
    want = extract_spdt_links(visits, parsed, cfg)
    span = len(parsed.updates.users) * np.unique(parsed.updates.t).size
    bits = span.bit_length() + spare_bits
    cap = (1 << bits) // span
    assert cap == 1 << spare_bits
    ranges = mock.Mock(wraps=network._ranges)
    with mock.patch.object(network, "_KEY_BITS", bits), \
            mock.patch.object(network, "_ranges", ranges):
        assert extract_spdt_links(visits, parsed, cfg) == want
    # each block's candidate ranges are its visits' nine cells
    block_visits = [call.args[0].size // 9 for call in ranges.call_args_list]
    assert max(block_visits) == cap


HOST = Visit("h", 0.0, 0.0, 0.0, 30.0)
# two visits of one host whose starts round to the same minute, far apart:
# the first's only neighbour sorts after the second's, so their links leave
# out of order and _from_arrays sorts them
INTERLEAVED = [Visit("h", 0.0, 0.0, 10.5, 20.0), Visit("h", 500.0, 0.0, 9.5, 20.0)]


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
    (INTERLEAVED,
     [LocationUpdate("w", 12.0, 0.0, 0.0), LocationUpdate("v", 12.0, 500.0, 0.0)], 2),
])
def test_extract_edge_cases_match_reference(visits, updates, n_links):
    cfg = BuilderConfig(horizon_days=2)
    want = ref_extract(visits, updates, cfg)
    assert want.n_links == n_links
    update_cols, visit_cols = columns(updates, visits)
    in_order, seen = network._in_order, []

    def spy(*keys):
        seen.append(in_order(*keys))
        return seen[-1]

    with mock.patch.object(network, "_in_order", spy):
        assert extract_spdt_links(visit_cols, update_cols, cfg) == want
    # only the interleaved links take the fallback sort
    assert seen == ([visits is not INTERLEAVED] if n_links else [])


# --- save and load ---------------------------------------------------------

# a non-ASCII id, one longer than an 8-byte word, an id holding a tab (neither
# saveable nor loadable) and ids holding NULs (saveable, read line by line)
IDS = ["a", "b", "u10", "u9", "x_1", "\u00e9t\u00e9", "user_0123456789", "t\tb", "n\x00l",
       "u9\x00"]
INT64 = 2**63


@st.composite
def link(draw, horizon, int64_bounds=False):
    host, nbr = draw(st.lists(st.sampled_from(IDS), min_size=2, max_size=2, unique=True))
    t_s = draw(st.integers(-50, 3000))
    if int64_bounds and draw(st.booleans()):
        t_s = -INT64
    t_l = t_s + draw(st.integers(0, 240))
    t_s_n = max(draw(st.integers(t_s - 60, t_l + 200)), -INT64)
    t_l_n = max(t_s_n, t_s + 1) + draw(st.integers(0, 240))
    if int64_bounds and draw(st.booleans()):
        t_l_n = INT64 - 1
    return host, nbr, t_s, t_l, t_s_n, t_l_n, draw(st.integers(0, horizon - 1))


@st.composite
def saved_network(draw):
    horizon = draw(st.integers(1, 3))
    return from_tuples(draw(st.lists(link(horizon, int64_bounds=True), max_size=30)),
                       horizon)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


@given(saved_network(), st.sampled_from([1, 4, 1 << 13]))
def test_save_and_load_match_line_references(tmp_path_factory, net, block):
    d = tmp_path_factory.mktemp("io")
    # a network file of any ids, as another writer may make it
    write_text(d / "any.spdt", ref_text(net))
    with mock.patch.object(_textio, "BLOCK_LINES", block):
        saved = outcome(save_network, net, d / "new.spdt")
        assert saved == outcome(ref_save, net, d / "ref.spdt")
        if saved[0] == "ok":
            assert (d / "new.spdt").read_bytes() == (d / "ref.spdt").read_bytes()
        loaded = outcome(load_network, d / "any.spdt")
        assert loaded == outcome(ref_load, d / "any.spdt")
        # a file loads exactly when its ids can be saved
        assert loaded == ("ok", net) if saved[0] == "ok" else loaded[0] == "error"


def tier_calls(path, block):
    """The network at path, and how many blocks were read line by line."""
    with mock.patch.object(_textio, "BLOCK_LINES", block), mock.patch.object(
            network, "_parse_lines", wraps=network._parse_lines) as per_line:
        return load_network(path), per_line.call_count


@pytest.mark.parametrize("block", [1, 3, 1 << 13])
def test_canonical_file_never_read_line_by_line(tmp_path, block):
    parsed = ParsedTrace(updates=generate_trace(SynthConfig(
        n_users=60, days=2, rng_seed=1, n_locations=6, area_m=(500.0, 500.0))))
    links = to_tuples(extract_spdt_links(segment_all(parsed), parsed,
                                         BuilderConfig(horizon_days=2)))
    # ids of other lengths and scripts, negative and 18-digit times
    links += [("\u00e9t\u00e9", "user_0123456789", -40, 10, -45, 9, 0),
              ("\u00e9t\u00e9", "a", 10**17, 10**18 - 1, 0, 10**18 - 1, 1)]
    net = from_tuples(links, 2)
    save_network(net, tmp_path / "net.spdt")
    assert tier_calls(tmp_path / "net.spdt", block) == (net, 0)
    # a copy with CRLF line ends, the header's too, loads equal by byte passes
    crlf = tmp_path / "crlf.spdt"
    crlf.write_bytes((tmp_path / "net.spdt").read_bytes().replace(b"\n", b"\r\n"))
    assert tier_calls(crlf, block) == (net, 0)
    # and so do CRLF lines among LF ones
    write_text(tmp_path / "mixed.spdt", "spdt-net v1 horizon=1\r\n0 a b 0 10 5 8\n"
               "0 a b 0 10 5 8\r\n0 b a 0 10 5 8\r\n")
    assert tier_calls(tmp_path / "mixed.spdt", block) == (
        ref_load(tmp_path / "mixed.spdt"), 0)


@pytest.mark.parametrize("block", [1, 3, 1 << 13])
@pytest.mark.parametrize("user", ["t\tb", "n\u00a0b", "\u3000x", "x\x0b", "x\x1c"])
@pytest.mark.parametrize("first", [
    "0 a b 0 10 5 8",   # the bad lines' block is tried by the block pass first;
    "0 a b 0 10 5 +8",  # this line sends its block to the per-line reader
])
def test_id_with_whitespace_names_its_line(tmp_path, user, first, block):
    path = tmp_path / "net.spdt"
    write_text(path, f"spdt-net v1 horizon=1\n{first}\n0 b a 0 10 5 8\n"
                     f"0 b {user} 0 10 5 8\n0 {user} a 0 10 5 8\n")
    want = ("error", f"{path}:4: user id contains whitespace")
    assert outcome(tier_calls, path, block) == outcome(ref_load, path) == want


@pytest.mark.parametrize("line", [
    "0 n\x00l a 0 10 5 8",                   # a NUL in an id
    "0 a b 0 10 5 9223372036854775807",      # 19 digits
    "0 a b 0 10 5 +8",
])
def test_other_lines_read_line_by_line(tmp_path, line):
    path = tmp_path / "net.spdt"
    write_text(path, f"spdt-net v1 horizon=1\n0 a b 0 10 5 8\n{line}\n0 b a 0 10 5 8\n")
    with mock.patch.object(_textio, "BLOCK_LINES", 1):
        assert outcome(load_network, path) == outcome(ref_load, path)
    assert tier_calls(path, 1)[1] == 1


# one fault per kind, written into one line of a valid file
LINE_FAULTS = [
    "",                        # blank line
    "0 a b 1 2 3",             # six fields
    "0 a b 1 2 3 4 5",         # eight fields
    "0  b 0 10 5 8",           # empty host id
    "0 a  0 10 5 8",           # empty neighbour id
    "0 a b 0 10 5 x",          # non-integer field
    "0 a b 0 1.5 5 8",
    "0 a b 0 10 5 8\r",        # CRLF ends a line, as a lone carriage return does
    "\r",                      # so this is a blank line
    "0 a\rb 0 10 5 8",
    "0 a\rx b 0 10 5 8",
    "0 a b 0 10 5 8 ",         # trailing space: an eighth, empty field
    "0 a b 0 1_0 5 8",         # Python int syntax is accepted
    "0 a b 0 10 +5 8",
    "0 a b 0 10 \t5 8",
    "0 a b 0 007 5 8",         # and so are leading zeros and a minus zero
    "-0 a b 0 10 5 8",
    "0 a b 1 5 2 99999999999999999999",  # past int64
    "0 a b 1 5 x 99999999999999999999",  # non-integer before out of range
    "0 a b 0 10 5 9223372036854775807",  # 19 digits, at and past the bounds
    "0 a b 0 10 5 9223372036854775808",
    "0 a b -9223372036854775808 10 5 8",
    "0 a b -9223372036854775809 10 5 8",
    " 0 a b 0 10 5 8",
]
LINK_FAULTS = [
    "0 a a 0 10 5 8",          # self-link
    "9 a b 0 10 5 8",          # day past the horizon
    "-1 a b 0 10 5 8",         # day before 0
    "0 a b 10 0 5 8",          # host interval reversed
    "0 a b 0 10 5 5",          # neighbour leaves before the host arrives
]


@pytest.mark.parametrize("block", [1, 1 << 13])
@pytest.mark.parametrize("fault", LINE_FAULTS)
def test_each_line_fault_matches_line_reference(tmp_path, fault, block):
    path = tmp_path / "net.spdt"
    write_text(path, f"spdt-net v1 horizon=1\n0 a b 0 10 5 8\n{fault}\n0 b a 0 10 5 8\n")
    with mock.patch.object(_textio, "BLOCK_LINES", block):
        assert outcome(load_network, path) == outcome(ref_load, path)


@given(saved_network(), st.data(), st.sampled_from([1, 3, 1 << 13]))
def test_load_errors_match_line_reference(tmp_path_factory, net, data, block):
    path = tmp_path_factory.mktemp("bad") / "net.spdt"
    lines = ref_text(net).split("\n")[:-1]
    faults = data.draw(st.lists(st.sampled_from(LINE_FAULTS + LINK_FAULTS),
                                min_size=1, max_size=3))
    for fault in faults:
        lines.insert(data.draw(st.integers(1, len(lines))), fault)
    write_text(path, "\n".join(lines) + data.draw(st.sampled_from(["\n", ""])))
    with mock.patch.object(_textio, "BLOCK_LINES", block):
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


# one-, two- and three-word seeds: a zero word past the key's end is the
# zero padding of SeedSequence's four-word pool, so only a three-word seed
# tells a one-word hash from the same hash with a zero high word
@pytest.mark.parametrize("seed", [0, 2**40 + 3, 2**64 + 7])
@pytest.mark.parametrize("hashes", [[0], [1], [2**32 - 1], [2**32], [2**64 - 1],
                                    [0, 2**32, 1, 2**64 - 1, 2**32 - 1]])
def test_densify_seeds_one_and_two_word_hashes(seed, hashes):
    # SeedSequence keys a user hash below 2**32 by one word and any other by
    # two; drawn ids all hash past 2**32, so the hashes are set here, the same
    # for every host or different across them. Each link starts d minutes
    # into its day d, so every source day gives different copies
    net = from_tuples([(host, "z", t, t + 10, t + 5, t + 20, d)
                       for k, host in enumerate(HOSTS) for d in range(k, 6, k + 1)
                       for t in [d * (MINUTES_PER_DAY + 1)]], 6)
    code = {user: i for i, user in enumerate(net.users)}

    def user_hash(user):
        return hashes[code[user] % len(hashes)]

    with mock.patch.object(network, "_user_hash", user_hash):
        dense = densify(net, rng_seed=seed)
        assert dense._source is not None
        assert dense == ref_densify(net, seed)


# --- (day, host) link index ------------------------------------------------

def ref_cells(day, host, horizon, n_users):
    """The (day, host) index of links sorted by (day, host), built a day at a
    time, one search per day."""
    users = np.arange(n_users + 1)
    cells = np.empty((horizon, users.size), dtype=np.int64)
    for d in range(horizon):
        lo, hi = np.searchsorted(day, [d, d + 1])
        cells[d] = lo + np.searchsorted(host[lo:hi], users)
    return cells


def assert_index_matches_columns(net):
    """``host_links`` against a scan of the public columns: every (day, host)
    cell is its source cell's base rows, shifted to the day, and the per-day
    link counts are those of the columns. The index is the day-at-a-time
    index of the base links' days and hosts, which it alone records."""
    base_day, base_host = net._base_keys()
    assert np.array_equal(net._cells, ref_cells(base_day, base_host, net.horizon,
                                                 net.n_users))
    fields = ("nbr", "t_s", "t_l", "t_s_n", "t_l_n")
    assert net._base._fields == fields
    base_rest = [getattr(net._base, f) for f in fields]
    day, host = net.day, net.host
    rest = [getattr(net, f) for f in fields]
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
@example(from_tuples([("a", "b", 1440, 1470, 1450, 1480, 1), ("c", "a", 5760, 5790, 5765,
                                                        5800, 4)], 7), 0)  # empty days
def test_index_matches_column_scan(net, seed):
    assert_index_matches_columns(net)
    assert_index_matches_columns(pickle.loads(pickle.dumps(net)))
    assert_index_matches_columns(project_spst(net))
    dense = densify(net, rng_seed=seed)
    assert_index_matches_columns(dense)
    assert_index_matches_columns(pickle.loads(pickle.dumps(dense)))
    assert_index_matches_columns(project_spst(dense))
    assert_index_matches_columns(densify(project_spst(dense), rng_seed=seed + 1))


@given(indexed_network(), st.sampled_from([0, 3]))
@example(from_tuples([], 3), 0)
@example(from_tuples([("a", "b", 1440, 1470, 1450, 1480, 1)], 3), 0)
def test_base_keys_are_the_plain_networks_day_and_host(net, seed):
    # the plain network over the base links and the index has the base links
    # as its links: its public day and host columns are their keys
    dense = densify(net, rng_seed=seed)
    for variant in (net, dense, *make_ldt_lst(dense)):
        plain = DynamicContactNetwork(variant.users, variant.horizon, variant._base,
                                      variant._cells)
        day, host = variant._base_keys()
        assert day.dtype == host.dtype == np.int64
        assert np.array_equal(day, plain.day) and np.array_equal(host, plain.host)


@given(st.integers(1, 4).flatmap(lambda days: st.tuples(
    st.lists(link(days), max_size=25), st.just(days))))
def test_index_records_each_links_day_and_host(case):
    # the index is the only record of a base link's day and host: the public
    # columns, read through it, are the links in canonical order
    links, horizon = case
    net = from_tuples(links, horizon)
    code = {user: i for i, user in enumerate(net.users)}
    want = sorted(links, key=lambda ln: (ln[6], code[ln[0]], ln[2], code[ln[1]],
                                         ln[4], ln[5]))
    got = to_tuples(net)
    assert [ln[:2] + ln[6:] for ln in got] == [ln[:2] + ln[6:] for ln in want]
    assert sorted(got) == sorted(links)
    day = np.array([ln[6] for ln in want], dtype=np.int64)
    host = np.array([code[ln[0]] for ln in want], dtype=np.int64)
    assert np.array_equal(net._cells, ref_cells(day, host, horizon, net.n_users))


def held_bytes(net):
    """Bytes of the distinct arrays that hold a network's base columns."""
    owners = {}
    for col in net._base:
        while isinstance(col.base, np.ndarray):
            col = col.base
        owners[id(col)] = col.nbytes
    return sum(owners.values())


def test_base_links_take_five_int64_columns(tmp_path):
    # a base link's day and host live in the index: 40 B a base link, for
    # networks extracted, projected, densified, rewritten, loaded and built
    # from a block of seven columns
    parsed, visits, cfg = synthetic_trace()
    sdt = extract_spdt_links(visits, parsed, cfg)
    dense = densify(sdt)
    assert dense._source is not None
    save_network(sdt, tmp_path / "sdt.spdt")
    save_network(dense, tmp_path / "ddt.spdt")
    nets = [sdt, project_spst(sdt), dense, project_spst(dense), *make_ldt_lst(dense),
            load_network(tmp_path / "sdt.spdt"), load_network(tmp_path / "ddt.spdt"),
            pickle.loads(pickle.dumps(dense)),
            from_tuples([("a", "b", 0, 30, 10, 20, 0), ("b", "a", 0, 30, 10, 20, 0)], 1)]
    for net in nets:
        n = int(net._cells[-1, -1])
        assert n > 1
        assert [col.dtype for col in net._base] == [np.dtype(np.int64)] * 5
        assert all(col.shape == (n,) for col in net._base)
        assert held_bytes(net) == 40 * n


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
    saved = outcome(save_network, dense, d / "dense.spdt")
    assert saved == outcome(save_network, flat, d / "flat.spdt")
    if saved[0] == "ok":
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
        assert make_ldt_lst(a, 30.0) == make_ldt_lst(b, 30.0)
        assert densify(a, rng_seed=seed + 1) == densify(b, rng_seed=seed + 1)


def test_densified_network_pickles_into_a_forkserver_worker():
    # an argument reaches a forkserver worker pickled, through __reduce__;
    # a fork pool would inherit the network instead
    parsed, visits, cfg = synthetic_trace()
    dense = densify(extract_spdt_links(visits, parsed, cfg))
    assert dense._source is not None
    sim = SimulationConfig(seeds=5, horizon_days=dense.horizon, r_t=35.0, sigma=500.0,
                           rng_seed=3, runs=4)
    want = run_simulation(dense, sim, workers=1)
    assert want[:, :, 0].sum() > 0
    with ProcessPoolExecutor(max_workers=1,
                             mp_context=multiprocessing.get_context("forkserver")) as pool:
        got = pool.submit(run_simulation, dense, sim, 1).result()
    assert np.array_equal(got, want)


# --- the same-time projection against a copy of every column ---------------

def ref_project_spst(net):
    """The same-time projection with every kept column copied: the reference
    for the projection that shares the columns it leaves unchanged."""
    day, host = net._base_keys()
    nbr, t_s, t_l, t_s_n, t_l_n = net._base
    keep = (t_s_n < t_l) & (t_s < t_l)
    return DynamicContactNetwork._from_arrays(
        net.users, net.horizon, day[keep], host[keep], nbr[keep],
        t_s[keep], t_l[keep], t_s_n[keep], np.minimum(t_l_n[keep], t_l[keep]),
        net._source,
    )


def assert_same_network(a, b):
    """Equal, with equal users, schedules, base links, indexes and public
    columns."""
    assert a == b and a.users == b.users and a.horizon == b.horizon
    assert (a._source is None) == (b._source is None)
    assert a._source is None or np.array_equal(a._source, b._source)
    assert len(a._base) == len(b._base) == 5
    assert all(map(np.array_equal, a._base, b._base))
    assert np.array_equal(a._cells, b._cells)
    for f in network._COLUMNS:
        assert np.array_equal(getattr(a, f), getattr(b, f))


@given(st.one_of(indexed_network(), densify_case().map(lambda case: case[0])),
       st.sampled_from([0, 3]))
@example(from_tuples([], 3), 0)  # no links
@example(from_tuples([("a", "b", 0, 30, 10, 20, 0)], 2), 0)  # every link kept
# every link kept, but capping t_l_n at t_l swaps the two rows
@example(from_tuples([("a", "b", 0, 10, 5, 8, 0), ("a", "b", 0, 6, 5, 9, 0)], 1), 0)
def test_project_spst_matches_copying_reference(net, seed):
    dense = densify(net, rng_seed=seed)
    ldt = make_ldt_lst(dense)[0]
    for each in (net, dense, make_ldt_lst(net)[0], ldt):
        assert_same_network(project_spst(each), ref_project_spst(each))
    # every LDT link has a direct segment, so its projection keeps them all
    assert project_spst(ldt).n_links == ldt.n_links
    # a schedule keeps the base links: the plain network over the densified
    # network's projection's base links is the plain network's projection
    dst = project_spst(dense)
    assert_same_network(DynamicContactNetwork(dst.users, dst.horizon, dst._base,
                                              dst._cells), project_spst(net))
