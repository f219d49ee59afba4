"""Contact-network construction from visit streams.

A directed link pairs a host visit with a neighbour who reports positions
within the co-location radius of the visit anchor while the host is present
or within the indirect window after departure. Link timestamps are whole
minutes (the on-disk format is integer minutes).

Derived variants: the same-time projection (indirect parts removed), the
densified network (each host's links repeated onto their missing days) and
the density-controlled pair that converts indirect-only links into
direct-bearing ones so both variants share users and per-day link counts.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from itertools import islice, product, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .exposure import check_positive
from .trace import (
    DEFAULT_VISIT_GAP_MIN,
    DEFAULT_VISIT_RADIUS_M,
    MINUTES_PER_DAY,
    LocationUpdate,
    ParsedTrace,
    Visit,
)

NETWORK_FORMAT_VERSION = 1

DEFAULT_INDIRECT_WINDOW_MIN = 200.0
DEFAULT_DENSIFY_SEED = 0


@dataclass(frozen=True)
class BuilderConfig:
    """Construction rules: co-location radius, indirect window, visit gap."""

    radius_m: float = DEFAULT_VISIT_RADIUS_M
    indirect_window_min: float = DEFAULT_INDIRECT_WINDOW_MIN
    visit_gap_min: float = DEFAULT_VISIT_GAP_MIN
    horizon_days: int = 32

    def __post_init__(self):
        for name in ("radius_m", "indirect_window_min", "visit_gap_min"):
            check_positive(name, getattr(self, name))
        if self.horizon_days < 1:
            raise ValueError("horizon_days must be at least 1")


class SPDTLink(NamedTuple):
    """Directed host-to-neighbour transmission opportunity (integer minutes)."""

    host_id: str
    neighbour_id: str
    t_s: int
    t_l: int
    t_s_n: int
    t_l_n: int
    day: int


class DynamicContactNetwork:
    """Immutable day-indexed collection of directed links plus the user universe.

    Links are stored as parallel arrays in canonical order (day, host, t_s,
    neighbour, t_s_n, t_l_n). Users are exactly those appearing in at least
    one link; isolated users are never carried.
    """

    __slots__ = ("users", "horizon", "day", "host", "nbr",
                 "t_s", "t_l", "t_s_n", "t_l_n", "_day_bounds", "_index")

    def __reduce__(self):
        return (
            DynamicContactNetwork,
            (self.users, self.horizon, self.day.copy(), self.host.copy(),
             self.nbr.copy(), self.t_s.copy(), self.t_l.copy(),
             self.t_s_n.copy(), self.t_l_n.copy()),
        )

    def __init__(self, users, horizon, day, host, nbr, t_s, t_l, t_s_n, t_l_n):
        self.users: tuple[str, ...] = tuple(users)
        self.horizon: int = int(horizon)
        self.day = day
        self.host = host
        self.nbr = nbr
        self.t_s = t_s
        self.t_l = t_l
        self.t_s_n = t_s_n
        self.t_l_n = t_l_n
        for arr in (day, host, nbr, t_s, t_l, t_s_n, t_l_n):
            arr.setflags(write=False)
        self._day_bounds = np.searchsorted(day, np.arange(self.horizon + 1))
        self._index = {u: i for i, u in enumerate(self.users)}

    @classmethod
    def from_links(cls, links: Iterable[SPDTLink], horizon: int) -> "DynamicContactNetwork":
        links = list(links)
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        users = sorted({l.host_id for l in links} | {l.neighbour_id for l in links})
        index = {u: i for i, u in enumerate(users)}
        n = len(links)
        day = np.empty(n, dtype=np.int64)
        host = np.empty(n, dtype=np.int64)
        nbr = np.empty(n, dtype=np.int64)
        t_s = np.empty(n, dtype=np.int64)
        t_l = np.empty(n, dtype=np.int64)
        t_s_n = np.empty(n, dtype=np.int64)
        t_l_n = np.empty(n, dtype=np.int64)
        for i, l in enumerate(links):
            day[i] = l.day
            host[i] = index[l.host_id]
            nbr[i] = index[l.neighbour_id]
            t_s[i] = l.t_s
            t_l[i] = l.t_l
            t_s_n[i] = l.t_s_n
            t_l_n[i] = l.t_l_n
        return cls._from_arrays(users, horizon, day, host, nbr, t_s, t_l, t_s_n, t_l_n)

    @classmethod
    def _from_arrays(cls, users, horizon, day, host, nbr, t_s, t_l, t_s_n, t_l_n):
        """Build from raw arrays: re-derive the user set, validate, sort canonically."""
        users = list(users)
        present = np.zeros(len(users), dtype=bool)
        present[host] = True
        present[nbr] = True
        used = np.flatnonzero(present)
        if used.size != len(users):
            remap = np.full(len(users), -1, dtype=np.int64)
            remap[used] = np.arange(used.size)
            host = remap[host]
            nbr = remap[nbr]
            users = [users[i] for i in used]

        if host.size:
            fault = _first_fault(horizon, day, host, nbr, t_s, t_l, t_s_n, t_l_n)
            if fault is not None:
                raise ValueError(fault[1])
            # saved files and filtered networks are mostly in order already
            if not _in_order(day, host, t_s, nbr, t_s_n, t_l_n):
                order = np.lexsort((t_l_n, t_s_n, nbr, t_s, host, day))
                day, host, nbr = day[order], host[order], nbr[order]
                t_s, t_l = t_s[order], t_l[order]
                t_s_n, t_l_n = t_s_n[order], t_l_n[order]
        return cls(users, horizon, *(col.astype(np.int64, copy=False) for col in
                                     (day, host, nbr, t_s, t_l, t_s_n, t_l_n)))

    @property
    def n_links(self) -> int:
        return int(self.day.shape[0])

    @property
    def n_users(self) -> int:
        return len(self.users)

    def user_index(self, user_id: str) -> int:
        return self._index[user_id]

    def day_slice(self, day: int) -> slice:
        """Index range of the links whose host visit starts on `day`."""
        if not 0 <= day < self.horizon:
            raise ValueError(f"day {day} outside [0, {self.horizon})")
        return slice(int(self._day_bounds[day]), int(self._day_bounds[day + 1]))

    def day_link_counts(self) -> np.ndarray:
        return np.diff(self._day_bounds)

    def iter_links(self) -> Iterator[SPDTLink]:
        for i in range(self.n_links):
            yield SPDTLink(
                self.users[self.host[i]], self.users[self.nbr[i]],
                int(self.t_s[i]), int(self.t_l[i]),
                int(self.t_s_n[i]), int(self.t_l_n[i]), int(self.day[i]),
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DynamicContactNetwork):
            return NotImplemented
        return (
            self.users == other.users
            and self.horizon == other.horizon
            and all(
                np.array_equal(getattr(self, f), getattr(other, f))
                for f in ("day", "host", "nbr", "t_s", "t_l", "t_s_n", "t_l_n")
            )
        )

    def __repr__(self) -> str:
        return (f"DynamicContactNetwork(users={self.n_users}, links={self.n_links}, "
                f"horizon={self.horizon})")


def _in_order(*keys: np.ndarray) -> bool:
    """Whether rows are sorted by the keys, most significant first; ties allowed."""
    tied = np.ones(keys[0].size - 1, dtype=bool)
    for key in keys:
        if np.any(tied & (key[1:] < key[:-1])):
            return False
        tied &= key[1:] == key[:-1]
    return True


def _first_fault(horizon, day, host, nbr, t_s, t_l, t_s_n, t_l_n):
    """Row of the first link that breaks a network invariant, and which one.

    Self-links are looked for first, then broken interval invariants, then
    days outside [0, horizon). None when every link is valid.
    """
    for message, bad in (
        ("link connects a user to itself", host == nbr),
        ("link interval invariants violated",
         (t_s > t_l) | (t_s_n > t_l_n) | (t_l_n <= t_s)),
        ("link day outside [0, horizon)", (day < 0) | (day >= horizon)),
    ):
        rows = np.flatnonzero(bad)
        if rows.size:
            return int(rows[0]), message
    return None


# Extraction joins visits to updates in blocks of at most this many
# candidate (visit, update) pairs, and network I/O formats or parses this
# many rows at a time, so that temporaries stay small whatever the size of
# the trace or the network.
_PAIR_BLOCK = 1 << 16
_ROW_BLOCK = 1 << 13


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    mask = np.empty(sorted_values.size, dtype=bool)
    mask[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=mask[1:])
    return mask


def _dense_rank(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values, and each value's position among them."""
    ordered = np.sort(values)
    distinct = ordered[_run_starts(ordered)]
    return distinct, np.searchsorted(distinct, values)


def _find(distinct: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Position of each query in a sorted distinct array, or -1 if absent."""
    pos = np.searchsorted(distinct, queries)
    found = pos < distinct.size
    found[found] = distinct[pos[found]] == queries[found]
    return np.where(found, pos, -1)


def extract_spdt_links(
    visits: Iterable[Visit],
    updates: ParsedTrace | Iterable[LocationUpdate],
    cfg: BuilderConfig,
) -> DynamicContactNetwork:
    """Extract directed host-to-neighbour links from visits and raw updates.

    For every host visit, any other user with an update within ``radius_m``
    of the visit anchor during [t_start, t_end + indirect window] yields one
    link: the host bounds are the visit bounds, the neighbour bounds are the
    first and last qualifying update times (the latter capped at the window
    end). Co-presence therefore yields two links with roles swapped. Links
    are binned to the day of the host visit start; days past the horizon are
    dropped.

    The updates are sorted by (grid cell, time) on a grid of radius-sized
    cells. Each visit's candidates are the updates of the 3x3 cells around
    its anchor within its time window: nine contiguous ranges of that order.
    The ranges are expanded and filtered in blocks of at most
    ``_PAIR_BLOCK`` pairs, and each (visit, neighbour) group is reduced to
    its first and last update time.
    """
    if isinstance(updates, ParsedTrace):
        updates = updates.updates
    updates = list(updates)
    visits = list(visits)
    delta = cfg.indirect_window_min
    radius2 = cfg.radius_m * cfg.radius_m
    empty = np.empty(0, dtype=np.int64)

    if not updates or not visits:
        return DynamicContactNetwork._from_arrays((), cfg.horizon_days, *[empty] * 7)

    u_id, u_t, u_x, u_y = zip(*updates)
    v_id, *v_cols = zip(*visits)
    v_x, v_y, v_t0, v_t1 = (np.array(col, dtype=np.float64) for col in v_cols)
    # hosts absent from the update stream are users too; their own updates
    # (none) exclude nothing
    users = sorted(set(u_id).union(v_id))
    code_of = {u: i for i, u in enumerate(users)}
    host = np.fromiter(map(code_of.__getitem__, v_id), np.int64, len(v_id))
    code = np.fromiter(map(code_of.__getitem__, u_id), np.int64, len(u_id))
    t = np.array(u_t, dtype=np.float64)
    x = np.array(u_x, dtype=np.float64)
    y = np.array(u_y, dtype=np.float64)

    # sort key: (cell rank, time rank), both dense, so the key fits in int64
    xs, col = _dense_rank(np.floor(x / cfg.radius_m).astype(np.int64))
    ys, row = _dense_rank(np.floor(y / cfg.radius_m).astype(np.int64))
    cells, cell = _dense_rank(col * ys.size + row)
    times, rank = _dense_rank(t)
    key = cell * times.size + rank
    order = np.argsort(key, kind="stable")
    key, code, t, x, y = key[order], code[order], t[order], x[order], y[order]

    # per visit: rounded host bounds, day, and the time window in ranks
    window_end_f = v_t1 + delta
    t_s_v = np.rint(v_t0).astype(np.int64)
    t_l_v = np.rint(v_t1).astype(np.int64)
    window_end = t_l_v + int(round(delta))
    day_v = t_s_v // MINUTES_PER_DAY
    in_horizon = (day_v >= 0) & (day_v < cfg.horizon_days)
    rank_lo = np.searchsorted(times, v_t0, side="left")
    rank_hi = np.searchsorted(times, window_end_f, side="right")

    # candidate ranges [lo, hi) of the 3x3 cells around each anchor
    vcol = np.floor(v_x / cfg.radius_m).astype(np.int64)
    vrow = np.floor(v_y / cfg.radius_m).astype(np.int64)
    lo = np.zeros((len(visits), 9), dtype=np.int64)
    hi = np.zeros((len(visits), 9), dtype=np.int64)
    for k, (dx, dy) in enumerate(product((-1, 0, 1), repeat=2)):
        c, r = _find(xs, vcol + dx), _find(ys, vrow + dy)
        near = _find(cells, np.where((c >= 0) & (r >= 0), c * ys.size + r, -1))
        ok = (near >= 0) & in_horizon
        lo[ok, k] = np.searchsorted(key, near[ok] * times.size + rank_lo[ok])
        hi[ok, k] = np.searchsorted(key, near[ok] * times.size + rank_hi[ok])
    counts = hi - lo
    per_visit = np.cumsum(counts.sum(axis=1))

    blocks = []
    a = 0
    while a < len(visits):
        # visits [a, b) hold at most _PAIR_BLOCK candidates, or one visit
        done = per_visit[a - 1] if a else 0
        b = max(int(np.searchsorted(per_visit, done + _PAIR_BLOCK, side="right")), a + 1)
        c = counts[a:b].ravel()
        total = int(c.sum())
        if total:
            vis = np.repeat(np.arange(a, b), counts[a:b].sum(axis=1))
            pos = np.repeat(lo[a:b].ravel() - (np.cumsum(c) - c), c) + np.arange(total)
            dx = x[pos] - v_x[vis]
            dy = y[pos] - v_y[vis]
            tc = t[pos]
            hit = (
                (dx * dx + dy * dy <= radius2)
                & (tc >= v_t0[vis])
                & (tc <= window_end_f[vis])
                & (code[pos] != host[vis])
            )
            # one group per (visit, neighbour), ordered by visit, then neighbour
            group = vis[hit] * len(users) + code[pos[hit]]
            by_group = np.argsort(group, kind="stable")
            group, tc = group[by_group], tc[hit][by_group]
            starts = np.flatnonzero(_run_starts(group))
            if starts.size:
                first = np.rint(np.minimum.reduceat(tc, starts)).astype(np.int64)
                last = np.rint(np.maximum.reduceat(tc, starts)).astype(np.int64)
                vis, nbr = np.divmod(group[starts], len(users))
                t_s, t_l, w_end = t_s_v[vis], t_l_v[vis], window_end[vis]
                t_l_n = np.minimum(last, w_end)
                # link invariants after rounding; violating candidates carry
                # no exposure window
                keep = (first < w_end) & (t_l_n > t_s)
                blocks.append(tuple(col[keep] for col in (
                    day_v[vis], host[vis], nbr, t_s, t_l, first, t_l_n)))
        a = b

    columns = [np.concatenate(col) for col in zip(*blocks)] or [empty] * 7
    return DynamicContactNetwork._from_arrays(users, cfg.horizon_days, *columns)


def project_spst(net: DynamicContactNetwork) -> DynamicContactNetwork:
    """Same-time projection: truncate links at host departure, drop indirect-only.

    Links whose neighbour arrives at or after the host leaves are removed;
    the rest are capped at the host departure time. Users left without links
    disappear from the user set.
    """
    keep = net.t_s_n < net.t_l
    return DynamicContactNetwork._from_arrays(
        net.users, net.horizon,
        net.day[keep], net.host[keep], net.nbr[keep],
        net.t_s[keep], net.t_l[keep],
        net.t_s_n[keep], np.minimum(net.t_l_n[keep], net.t_l[keep]),
    )


def _user_hash(user_id: str) -> int:
    return int.from_bytes(hashlib.sha256(user_id.encode("utf-8")).digest()[:8], "big")


def densify(net: DynamicContactNetwork,
            rng_seed: int = DEFAULT_DENSIFY_SEED) -> DynamicContactNetwork:
    """Copy each host's links onto their missing days (uniform source day, seeded).

    For every host, each day without links receives a time-shifted copy of
    that host's links from one of their active days, drawn uniformly from a
    per-host stream so the result is independent of iteration order. Links on
    originally active days are untouched.
    """
    if net.n_links == 0:
        return net

    # links are in canonical order, so each host's rows are in day order
    order = np.argsort(net.host, kind="stable")
    hosts_sorted = net.host[order]
    starts = np.flatnonzero(_run_starts(hosts_sorted))
    bounds = np.append(starts, hosts_sorted.size)

    extra = {f: [] for f in ("day", "host", "nbr", "t_s", "t_l", "t_s_n", "t_l_n")}
    for k, h in enumerate(hosts_sorted[starts].tolist()):
        rows = order[bounds[k]:bounds[k + 1]]
        days = net.day[rows]
        days_avail = days[_run_starts(days)]
        if days_avail.size >= net.horizon:
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence((rng_seed, _user_hash(net.users[h])))
        )
        avail_set = set(days_avail.tolist())
        rows_by_day = {d: rows[days == d] for d in avail_set}
        for d in range(net.horizon):
            if d in avail_set:
                continue
            src = int(days_avail[rng.integers(days_avail.size)])
            src_rows = rows_by_day[src]
            shift = (d - src) * MINUTES_PER_DAY
            extra["day"].append(np.full(src_rows.size, d, dtype=np.int64))
            extra["host"].append(net.host[src_rows])
            extra["nbr"].append(net.nbr[src_rows])
            for f in ("t_s", "t_l", "t_s_n", "t_l_n"):
                extra[f].append(getattr(net, f)[src_rows] + shift)

    if not extra["day"]:
        return net
    cat = {f: np.concatenate([getattr(net, f)] + extra[f]) for f in extra}
    return DynamicContactNetwork._from_arrays(
        net.users, net.horizon, cat["day"], cat["host"], cat["nbr"],
        cat["t_s"], cat["t_l"], cat["t_s_n"], cat["t_l_n"],
    )


def make_ldt_lst(
    net: DynamicContactNetwork,
    indirect_window_min: float = DEFAULT_INDIRECT_WINDOW_MIN,
    keep_departure: bool = False,
) -> tuple[DynamicContactNetwork, DynamicContactNetwork]:
    """Density-controlled pair: indirect-only links become direct-bearing.

    Every indirect-only link has its neighbour arrival moved to the host
    arrival. By default the presence duration is preserved (the departure is
    shifted by the same amount, re-capped at the indirect window); with
    ``keep_departure`` the original departure is kept instead. The same-time
    projection of the result then has identical users and per-day link
    counts, because every surviving link carries a direct segment.

    Links that cannot carry a direct segment under the rewrite (zero-stay
    host visits, and zero-duration indirect presences in the default mode)
    carry no exposure and are dropped from both outputs.
    """
    delta = int(round(indirect_window_min))
    keep = net.t_l > net.t_s
    t_s, t_l = net.t_s.copy(), net.t_l.copy()
    t_s_n, t_l_n = net.t_s_n.copy(), net.t_l_n.copy()

    indirect = keep & (t_s_n >= t_l)
    if keep_departure:
        t_s_n = np.where(indirect, t_s, t_s_n)
    else:
        duration = t_l_n - t_s_n
        keep &= ~indirect | (duration > 0)
        t_l_n = np.where(indirect, np.minimum(t_s + duration, t_l + delta), t_l_n)
        t_s_n = np.where(indirect, t_s, t_s_n)

    ldt = DynamicContactNetwork._from_arrays(
        net.users, net.horizon,
        net.day[keep], net.host[keep], net.nbr[keep],
        t_s[keep], t_l[keep], t_s_n[keep], t_l_n[keep],
    )
    return ldt, project_spst(ldt)


_HEADER_RE = re.compile(r"^spdt-net v(\d+) horizon=(\d+)$")


def save_network(net: DynamicContactNetwork, path: str | Path) -> None:
    """Write the network in the line-oriented text format (lossless)."""
    for user in net.users:
        if not user or any(ch.isspace() for ch in user):
            raise ValueError(f"user id {user!r} not representable in network format")
    users = net.users
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"spdt-net v{NETWORK_FORMAT_VERSION} horizon={net.horizon}\n")
        for i in range(0, net.n_links, _ROW_BLOCK):
            rows = zip(*(getattr(net, f)[i:i + _ROW_BLOCK].tolist() for f in (
                "day", "host", "nbr", "t_s", "t_l", "t_s_n", "t_l_n")))
            fh.write("".join([
                f"{day} {users[h]} {users[n]} {t_s} {t_l} {t_s_n} {t_l_n}\n"
                for day, h, n, t_s, t_l, t_s_n, t_l_n in rows
            ]))


def _check_line(path, lineno: int, line: str) -> None:
    """Raise on the first format fault of one link line, naming its location."""
    if not line:
        raise ValueError(f"{path}:{lineno}: blank line in link section")
    parts = line.split(" ")
    if len(parts) != 7:
        raise ValueError(f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
    if not parts[1] or not parts[2]:
        raise ValueError(f"{path}:{lineno}: empty user id")
    try:
        for part in parts[:1] + parts[3:]:
            int(part)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: non-integer field") from exc


def _parse_rows(path, lines: list[str], first_lineno: int, index: dict):
    """Columns of a block of link lines, ids coded in first-seen order in ``index``.

    The block is split once and each integer column converted with ``int``
    over a strided slice. A block with a malformed line is checked line by
    line, so the error names the same line and fault as a line parser would.
    """
    fields = " ".join(lines).split(" ")
    hosts, nbrs = fields[1::7], fields[2::7]
    if (set(map(str.count, lines, repeat(" "))) == {6}
            and "" not in hosts and "" not in nbrs):
        try:
            day, t_s, t_l, t_s_n, t_l_n = [
                np.fromiter(map(int, fields[k::7]), np.int64, len(lines))
                for k in (0, 3, 4, 5, 6)]
        except ValueError:
            pass
        else:
            for user in set(hosts).union(nbrs).difference(index):
                index[user] = len(index)
            host, nbr = (np.fromiter(map(index.__getitem__, ids), np.int64, len(lines))
                         for ids in (hosts, nbrs))
            return day, host, nbr, t_s, t_l, t_s_n, t_l_n
    for lineno, line in enumerate(lines, start=first_lineno):
        _check_line(path, lineno, line)
    raise AssertionError("a block that failed to parse has no faulty line")


def load_network(path: str | Path) -> DynamicContactNetwork:
    """Read a network file; any malformed content raises without partial output.

    Every fault names the file and the line number of the first offending
    line: format faults in the order a line-by-line read meets them, then
    self-links, interval invariants and days outside [0, horizon).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\n")
        m = _HEADER_RE.match(header)
        if m is None:
            raise ValueError(f"not a network file: bad header {header!r}")
        version = int(m.group(1))
        if version != NETWORK_FORMAT_VERSION:
            raise ValueError(
                f"network format version {version} unsupported "
                f"(expected {NETWORK_FORMAT_VERSION})"
            )
        horizon = int(m.group(2))
        index: dict[str, int] = {}
        blocks = []
        lineno = 2
        while lines := list(map(str.rstrip, islice(fh, _ROW_BLOCK), repeat("\n"))):
            blocks.append(_parse_rows(path, lines, lineno, index))
            lineno += len(lines)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")

    empty = np.empty(0, dtype=np.int64)
    columns = [np.concatenate(col) for col in zip(*blocks)] or [empty] * 7
    fault = _first_fault(horizon, *columns)
    if fault is not None:
        raise ValueError(f"{path}:{fault[0] + 2}: {fault[1]}")

    # ids were coded in first-seen order, which is the dict's order; recode
    # them in sorted order
    users = sorted(index)
    rank = {user: i for i, user in enumerate(users)}
    recode = np.fromiter(map(rank.__getitem__, index), np.int64, len(index))
    day, host, nbr, *times = columns
    return DynamicContactNetwork._from_arrays(
        users, horizon, day, recode[host], recode[nbr], *times)
