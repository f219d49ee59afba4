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

import numpy as np

from .exposure import check_positive
from .trace import (
    DEFAULT_VISIT_GAP_MIN,
    DEFAULT_VISIT_RADIUS_M,
    MINUTES_PER_DAY,
    ParsedTrace,
    Updates,
    Visits,
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


class DynamicContactNetwork:
    """Immutable day-indexed collection of directed links plus the user universe.

    ``_base`` holds the base links, the seven _COLUMNS in canonical order
    (day, host, t_s, neighbour, t_s_n, t_l_n). ``_source`` is a (horizon,
    n_users) day table, None for the identity: host h's links on day d are
    its base links of day ``_source[d, h]``, shifted by whole days, and every
    non-empty base cell is its own source. Users are exactly those appearing
    in at least one link. Build one with ``_from_arrays``, which validates
    and sorts.

    ``_cells`` indexes the base links, a (horizon, n_users + 1) int64 table
    built once here: host h's base links of day d are rows
    [_cells[d, h], _cells[d, h + 1]), and the last column ends the day.
    The public columns are the links in canonical order, gathered anew on
    each read of a scheduled network.
    """

    __slots__ = ("users", "horizon", "_base", "_source", "_cells")

    def __reduce__(self):
        # the base columns and the table are read-only: pickled as they are
        return DynamicContactNetwork, (self.users, self.horizon, self._base, self._source)

    def __init__(self, users, horizon, base, source=None):
        self.users: tuple[str, ...] = tuple(users)
        self.horizon: int = int(horizon)
        self._base, self._source = tuple(base), source
        for arr in self._base + ((source,) if source is not None else ()):
            arr.setflags(write=False)
        day, host = self._base[:2]
        # one search per day over a view of that day's hosts: no per-link
        # temporary is made
        bounds = np.searchsorted(day, np.arange(self.horizon + 1)).tolist()
        users = np.arange(self.n_users + 1)
        self._cells = np.empty((self.horizon, users.size), dtype=np.int64)
        for d, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            self._cells[d] = np.searchsorted(host[lo:hi], users)
            self._cells[d] += lo

    @classmethod
    def _from_arrays(cls, users, horizon, day, host, nbr, t_s, t_l, t_s_n, t_l_n,
                     source=None):
        """Build from base arrays and a schedule: re-derive the users, validate, sort."""
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
            if source is not None:
                source = source[:, used]

        columns = (day, host, nbr, t_s, t_l, t_s_n, t_l_n)
        if host.size:
            fault = _first_fault(horizon, *columns)
            if fault is not None:
                raise ValueError(fault[1])
            # saved files and filtered networks are mostly in order already
            if not _in_order(day, host, t_s, nbr, t_s_n, t_l_n):
                order = np.lexsort((t_l_n, t_s_n, nbr, t_s, host, day))
                columns = [col[order] for col in columns]
        return cls(users, horizon, [col.astype(np.int64, copy=False) for col in columns],
                   source)

    def host_links(self, days) -> tuple[np.ndarray, np.ndarray]:
        """First base row and link count of each host's links on ``days``,
        of shape (n_users,) for one day and (len(days), n_users) for an array."""
        src = np.asarray(days)[..., None] if self._source is None else self._source[days]
        hosts = np.arange(self.n_users)
        first = self._cells[src, hosts]
        return first, self._cells[src, hosts + 1] - first

    def _column(self, k: int, days=None) -> np.ndarray:
        """Column k of _COLUMNS over the links of ``days``, by default all."""
        if days is None:
            if self._source is None:
                return self._base[k]
            days = np.arange(self.horizon)
        first, count = self.host_links(days)
        rows = _ranges(first.ravel(), count.ravel())
        # each link moves by the whole days between its day and its base link's
        col = np.repeat(days, count.sum(axis=1)) - self._base[0][rows]
        col *= _PER_DAY[k]
        col += self._base[k][rows]
        col.setflags(write=False)
        return col

    day, host, nbr, t_s, t_l, t_s_n, t_l_n = (
        property(lambda self, k=k: self._column(k)) for k in range(7))

    @property
    def n_links(self) -> int:
        return int(self.day_link_counts().sum())

    @property
    def n_users(self) -> int:
        return len(self.users)

    def day_link_counts(self) -> np.ndarray:
        return self.host_links(np.arange(self.horizon))[1].sum(axis=1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DynamicContactNetwork):
            return NotImplemented
        return (
            self.users == other.users
            and self.horizon == other.horizon
            and all(np.array_equal(getattr(self, f), getattr(other, f))
                    for f in _COLUMNS)
        )

    def __repr__(self) -> str:
        return (f"DynamicContactNetwork(users={self.n_users}, links={self.n_links}, "
                f"horizon={self.horizon})")


_COLUMNS = ("day", "host", "nbr", "t_s", "t_l", "t_s_n", "t_l_n")
# each column's change when a link moves by one day
_PER_DAY = (1, 0, 0) + (MINUTES_PER_DAY,) * 4


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


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The index ranges [first, first + count), concatenated in order."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(first - (ends - count), count)


def _find(distinct: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Position of each query in a sorted distinct array, or -1 if absent."""
    pos = np.searchsorted(distinct, queries)
    found = pos < distinct.size
    found[found] = distinct[pos[found]] == queries[found]
    return np.where(found, pos, -1)


def extract_spdt_links(
    visits: Visits,
    updates: Updates | ParsedTrace,
    cfg: BuilderConfig,
) -> DynamicContactNetwork:
    """Extract directed host-to-neighbour links from visits and raw updates.

    For every host visit, any other user with an update within ``radius_m``
    of the visit anchor during [t_start, t_end + indirect window] yields one
    link: the host bounds are the visit bounds, the neighbour bounds are the
    first and last qualifying update times (the latter capped at the window
    end). Co-presence therefore yields two links with roles swapped. Links
    are binned to the day of the host visit start; days past the horizon are
    dropped. Visits and updates are coded over the same user ids.

    The updates are sorted by (grid cell, time) on a grid of radius-sized
    cells. Each visit's candidates are the updates of the 3x3 cells around
    its anchor within its time window: nine contiguous ranges of that order.
    The ranges are expanded and filtered in blocks of at most
    ``_PAIR_BLOCK`` pairs, and each (visit, neighbour) group is reduced to
    its first and last update time.
    """
    if isinstance(updates, ParsedTrace):
        updates = updates.updates
    if visits.users != updates.users:
        raise ValueError("visits and updates are coded over different user ids")
    users = updates.users
    delta = cfg.indirect_window_min
    radius2 = cfg.radius_m * cfg.radius_m
    empty = np.empty(0, dtype=np.int64)

    # only visits that start on a day in the horizon are cast to minutes
    rounded_start = np.rint(visits.t_start)
    kept = np.flatnonzero((rounded_start >= 0)
                          & (rounded_start < cfg.horizon_days * MINUTES_PER_DAY))
    host, v_x, v_y, v_t0, v_t1 = (col[kept] for col in (
        visits.user, visits.anchor_x, visits.anchor_y, visits.t_start, visits.t_end))
    code, t, x, y = updates.user, updates.t, updates.x, updates.y
    # a kept visit's end and window end must be int64 minutes
    late = np.flatnonzero(~(np.rint(v_t1) + round(delta) < 2.0**63))
    if late.size:
        i = late[0]
        raise ValueError(f"visit of user {users[host[i]]!r} ends at {float(v_t1[i])!r} "
                         f"min, past the int64 minutes of a link time")

    # sort key: (cell rank, time rank), both dense, so the key fits in int64
    xs, col = _dense_rank(np.floor(x / cfg.radius_m).astype(np.int64))
    ys, row = _dense_rank(np.floor(y / cfg.radius_m).astype(np.int64))
    cells, cell = _dense_rank(col * ys.size + row)
    times, rank = _dense_rank(t)
    key = cell * times.size + rank
    order = np.argsort(key, kind="stable")
    key, code, t, x, y = key[order], code[order], t[order], x[order], y[order]

    # per visit: rounded host bounds, day, and the time window in ranks
    t_s_v = rounded_start[kept].astype(np.int64)
    t_l_v = np.rint(v_t1).astype(np.int64)
    window_end = t_l_v + int(round(delta))
    day_v = t_s_v // MINUTES_PER_DAY
    rank_lo = np.searchsorted(times, v_t0, side="left")
    rank_hi = np.searchsorted(times, v_t1 + delta, side="right")

    # candidate ranges [lo, hi) of the 3x3 cells around each anchor; a
    # candidate's time is times[rank] for a rank in [rank_lo, rank_hi), so
    # the ranges already hold only updates in [t_start, t_end + delta]
    vcol = np.floor(v_x / cfg.radius_m).astype(np.int64)
    vrow = np.floor(v_y / cfg.radius_m).astype(np.int64)
    lo = np.zeros((host.size, 9), dtype=np.int64)
    hi = np.zeros((host.size, 9), dtype=np.int64)
    for k, (dx, dy) in enumerate(product((-1, 0, 1), repeat=2)):
        c, r = _find(xs, vcol + dx), _find(ys, vrow + dy)
        near = _find(cells, np.where((c >= 0) & (r >= 0), c * ys.size + r, -1))
        ok = near >= 0
        lo[ok, k] = np.searchsorted(key, near[ok] * times.size + rank_lo[ok])
        hi[ok, k] = np.searchsorted(key, near[ok] * times.size + rank_hi[ok])
    counts = hi - lo
    per_visit = np.cumsum(counts.sum(axis=1))

    blocks = []
    a = 0
    while a < host.size:
        # visits [a, b) hold at most _PAIR_BLOCK candidates, or one visit
        done = per_visit[a - 1] if a else 0
        b = max(int(np.searchsorted(per_visit, done + _PAIR_BLOCK, side="right")), a + 1)
        c = counts[a:b].ravel()
        if c.any():
            vis = np.repeat(np.arange(a, b), counts[a:b].sum(axis=1))
            pos = _ranges(lo[a:b].ravel(), c)
            dx = x[pos] - v_x[vis]
            dy = y[pos] - v_y[vis]
            hit = (dx * dx + dy * dy <= radius2) & (code[pos] != host[vis])
            # one group per (visit, neighbour), ordered by visit, then neighbour
            pos = pos[hit]
            group = vis[hit] * len(users) + code[pos]
            by_group = np.argsort(group, kind="stable")
            group, tc = group[by_group], t[pos[by_group]]
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

    Links whose neighbour arrives at or after the host leaves are removed, as
    are links of a zero-minute host visit, which have no same-time window;
    the rest are capped at the host departure time. Users left without links
    disappear from the user set.
    """
    day, host, nbr, t_s, t_l, t_s_n, t_l_n = net._base
    keep = t_s_n < t_l
    keep &= t_s < t_l
    return DynamicContactNetwork._from_arrays(
        net.users, net.horizon, day[keep], host[keep], nbr[keep],
        t_s[keep], t_l[keep], t_s_n[keep], np.minimum(t_l_n[keep], t_l[keep]),
        net._source,
    )


def _user_hash(user_id: str) -> int:
    return int.from_bytes(hashlib.sha256(user_id.encode("utf-8")).digest()[:8], "big")


def densify(net: DynamicContactNetwork,
            rng_seed: int = DEFAULT_DENSIFY_SEED) -> DynamicContactNetwork:
    """Repeat each host's links onto their missing days (uniform source day, seeded).

    For every host, each day without links receives a time-shifted copy of
    that host's links from one of their active days, drawn uniformly from a
    per-host stream so the result is independent of iteration order. Links on
    originally active days are untouched.

    Nothing is copied: the result is the network's own base links with a
    (day, host) table of source days, the identity where the host has links.
    On a scheduled network the drawn table is composed with its own.
    """
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be non-negative, got {rng_seed!r}")
    count = net.host_links(np.arange(net.horizon))[1]
    horizon, n_users = count.shape
    active = count > 0
    n_active = np.count_nonzero(active, axis=0)
    partial = np.flatnonzero((n_active > 0) & (n_active < horizon))
    if not partial.size:
        return net
    source = np.repeat(np.arange(horizon)[:, None], n_users, axis=1)
    for h in partial.tolist():
        days = np.flatnonzero(active[:, h])
        missing = np.flatnonzero(~active[:, h])
        rng = np.random.default_rng(np.random.SeedSequence(
            (rng_seed, _user_hash(net.users[h]))))
        # one source day per missing day, drawn in day order
        source[missing, h] = days[rng.integers(days.size, size=missing.size)]
    if net._source is not None:
        source = np.take_along_axis(net._source, source, axis=0)
    return DynamicContactNetwork(net.users, net.horizon, net._base, source)


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
    check_positive("indirect_window_min", indirect_window_min)
    delta = int(round(indirect_window_min))
    day, host, nbr, t_s, t_l, t_s_n, t_l_n = net._base
    keep = t_l > t_s

    indirect = keep & (t_s_n >= t_l)
    if keep_departure:
        t_s_n = np.where(indirect, t_s, t_s_n)
    else:
        duration = t_l_n - t_s_n
        keep &= ~indirect | (duration > 0)
        t_l_n = np.where(indirect, np.minimum(t_s + duration, t_l + delta), t_l_n)
        t_s_n = np.where(indirect, t_s, t_s_n)

    ldt = DynamicContactNetwork._from_arrays(
        net.users, net.horizon, day[keep], host[keep], nbr[keep],
        t_s[keep], t_l[keep], t_s_n[keep], t_l_n[keep], net._source,
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
        # a day at a time: a scheduled network's repeats are never all made at once
        for d in range(net.horizon):
            columns = [net._column(k, [d]) for k in range(len(_COLUMNS))]
            for i in range(0, columns[0].size, _ROW_BLOCK):
                rows = zip(*(col[i:i + _ROW_BLOCK].tolist() for col in columns))
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
        values = [int(part) for part in parts[:1] + parts[3:]]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: non-integer field") from exc
    if not all(-1 << 63 <= v < 1 << 63 for v in values):
        raise ValueError(f"{path}:{lineno}: integer field out of range")


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
        except (ValueError, OverflowError):
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
            raise ValueError(f"{path}:1: not a network file: bad header {header!r}")
        version, horizon = int(m.group(1)), int(m.group(2))
        if version != NETWORK_FORMAT_VERSION:
            raise ValueError(f"{path}:1: network format version {version} "
                             f"unsupported (expected {NETWORK_FORMAT_VERSION})")
        if horizon < 1:
            raise ValueError(f"{path}:1: horizon must be at least 1")
        index: dict[str, int] = {}
        blocks = []
        lineno = 2
        while lines := list(map(str.rstrip, islice(fh, _ROW_BLOCK), repeat("\n"))):
            blocks.append(_parse_rows(path, lines, lineno, index))
            lineno += len(lines)

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
