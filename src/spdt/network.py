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
import io
import re
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _textio
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


_COLUMNS = ("day", "host", "nbr", "t_s", "t_l", "t_s_n", "t_l_n")
# a base link's columns: its day and host are in the network's index
_Base = namedtuple("_Base", _COLUMNS[2:])


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

    ``_base`` holds the base links' five _Base columns (nbr, t_s, t_l, t_s_n,
    t_l_n) in canonical order, by (day, host, t_s, nbr, t_s_n, t_l_n). Their
    day and host are only in ``_cells``, a (horizon, n_users + 1) int64 index:
    host h's base links of day d are rows [_cells[d, h], _cells[d, h + 1]),
    and the last column ends the day. ``_source`` is a (horizon, n_users) day
    table, None for the identity: host h's links on day d are its base links
    of day ``_source[d, h]``, shifted by whole days, and every non-empty base
    cell is its own source. Users are exactly those in at least one link.
    ``_from_arrays`` validates, sorts only rows out of order and builds the
    index; a network over another's base links and index is built with the
    constructor. The public columns are the links in canonical order, read
    through the index and gathered anew on each read.
    """

    __slots__ = ("users", "horizon", "_base", "_source", "_cells")

    def __reduce__(self):
        # the base columns and the tables are read-only: pickled as they are
        return DynamicContactNetwork, (self.users, self.horizon, self._base, self._cells,
                                       self._source)

    def __init__(self, users, horizon, base, cells, source=None):
        self.users: tuple[str, ...] = tuple(users)
        self.horizon: int = int(horizon)
        self._base, self._cells, self._source = _Base(*base), cells, source
        for arr in self._base + ((cells,) if source is None else (cells, source)):
            arr.setflags(write=False)

    @classmethod
    def _from_arrays(cls, users, horizon, day, host, nbr, t_s, t_l, t_s_n, t_l_n,
                     source=None):
        """Build from base arrays and a schedule: re-derive the users, validate,
        sort only rows out of canonical order, and index them by (day, host)."""
        present = np.zeros(len(users), dtype=bool)
        present[host] = present[nbr] = True
        if not present.all():
            remap = np.cumsum(present) - 1  # each used user's new code
            host, nbr = remap[host], remap[nbr]
            users = [user for user, used in zip(users, present.tolist()) if used]
            if source is not None:
                source = source[:, present]

        columns = (day, host, nbr, t_s, t_l, t_s_n, t_l_n)
        if host.size:
            fault = _first_fault(horizon, *columns)
            if fault is not None:
                raise ValueError(fault[1])
            # saved files and filtered networks are mostly in order already
            if not _in_order(day, host, t_s, nbr, t_s_n, t_l_n):
                order = np.lexsort((t_l_n, t_s_n, nbr, t_s, host, day))
                columns = [col[order] for col in columns]
        # five owned columns: no view keeps a larger block alive. Each index
        # row starts at its day's first link row, which fills an empty day; a
        # day with links is searched over a view of its hosts, so no per-link
        # temporary is made
        day, host = columns[:2]
        base = [np.require(col, np.int64, "O") for col in columns[2:]]
        bounds = np.searchsorted(day, np.arange(horizon + 1))
        hosts = np.arange(len(users) + 1)
        cells = np.repeat(bounds[:-1, None], hosts.size, axis=1)
        for d in np.flatnonzero(np.diff(bounds)).tolist():
            cells[d] += np.searchsorted(host[bounds[d]:bounds[d + 1]], hosts)
        return cls(users, horizon, base, cells, source)

    def host_links(self, days) -> tuple[np.ndarray, np.ndarray]:
        """First base row and link count of each host's links on ``days``,
        of shape (n_users,) for one day and (len(days), n_users) for an array."""
        src = np.asarray(days)[..., None] if self._source is None else self._source[days]
        hosts = np.arange(self.n_users)
        first = self._cells[src, hosts]
        return first, self._cells[src, hosts + 1] - first

    def _base_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Day and host of each base link, repeated over its (day, host) cell
        of the index."""
        count = np.diff(self._cells, axis=1)
        day = np.repeat(np.arange(self.horizon), count.sum(axis=1))
        host = np.repeat(np.tile(np.arange(self.n_users), self.horizon), count.ravel())
        return day, host

    def _column(self, name: str, days=None) -> np.ndarray:
        """Public column ``name`` over the links of ``days``, by default all."""
        days = np.arange(self.horizon) if days is None else np.asarray(days)
        first, count = self.host_links(days)
        if name in ("day", "host"):
            day, host = np.indices(count.shape).reshape(2, -1)
            col = np.repeat(days[day] if name == "day" else host, count.ravel())
        else:
            col = getattr(self._base, name)[_ranges(first.ravel(), count.ravel())]
            if name != "nbr" and self._source is not None:
                # each link moves by the whole days from its base link's day
                shift = (days[:, None] - self._source[days]) * MINUTES_PER_DAY
                col += np.repeat(shift.ravel(), count.ravel())
        col.setflags(write=False)
        return col

    day, host, nbr, t_s, t_l, t_s_n, t_l_n = (
        property(lambda self, name=name: self._column(name)) for name in _COLUMNS)

    @property
    def n_links(self) -> int:
        return int(self.day_link_counts().sum())

    @property
    def n_users(self) -> int:
        return len(self.users)

    def day_link_counts(self) -> np.ndarray:
        return self.host_links(np.arange(self.horizon))[1].sum(axis=1)

    def __eq__(self, other) -> bool:
        """Equal users, horizon and public columns. Equal base links, indexes
        and schedules make equal columns, so those are compared first; the
        columns are gathered only when they differ."""
        if not isinstance(other, DynamicContactNetwork):
            return NotImplemented
        if self.users != other.users or self.horizon != other.horizon:
            return False
        same_source = (self._source is None) == (other._source is None) and (
            self._source is None or np.array_equal(self._source, other._source))
        if same_source and np.array_equal(self._cells, other._cells) and all(
                map(np.array_equal, self._base, other._base)):
            return True
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _COLUMNS)

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
# candidate (visit, update) pairs, so that temporaries stay small whatever
# the size of the trace.
_PAIR_BLOCK = 1 << 16
# a block's link keys are below 2**_KEY_BITS, so they sort as int64
_KEY_BITS = 63


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
    its anchor within its time window: nine contiguous ranges of that order,
    found for every visit and cell in one batched search. The visits are
    stably sorted by (day, host, rounded start), so the links leave in
    canonical order and are not sorted again unless two visits tie on all
    three. The ranges are expanded and filtered in blocks of at most
    ``_PAIR_BLOCK`` pairs. A block's hits are grouped by one in-place sort
    of int64 keys of (visit, neighbour, update time rank), so each
    (visit, neighbour) group's first and last update times are read off its
    first and last key.
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
    # a kept visit's end and window end must be int64 minutes; the first
    # such visit of the input is named
    late = kept[~(np.rint(visits.t_end[kept]) + round(delta) < 2.0**63)]
    if late.size:
        user, end = users[visits.user[late[0]]], float(visits.t_end[late[0]])
        raise ValueError(f"visit of user {user!r} ends at {end!r} min, past the "
                         f"int64 minutes of a link time")
    # visits stably in (day, host, start) order: links leave in canonical order
    start = rounded_start[kept]
    kept = kept[np.lexsort((start, visits.user[kept], start // MINUTES_PER_DAY))]
    host, v_x, v_y, v_t0, v_t1 = (col[kept] for col in (
        visits.user, visits.anchor_x, visits.anchor_y, visits.t_start, visits.t_end))
    code, t, x, y = updates.user, updates.t, updates.x, updates.y

    # sort key: (cell rank, time rank), both dense, so the key fits in int64
    xs, col = _dense_rank(np.floor(x / cfg.radius_m).astype(np.int64))
    ys, row = _dense_rank(np.floor(y / cfg.radius_m).astype(np.int64))
    cells, cell = _dense_rank(col * ys.size + row)
    times, rank = _dense_rank(t)
    key = cell * times.size + rank
    order = np.argsort(key, kind="stable")
    key, code, rank, x, y = key[order], code[order], rank[order], x[order], y[order]

    # per visit: rounded host bounds, day, and the time window in ranks
    t_s_v = rounded_start[kept].astype(np.int64)
    t_l_v = np.rint(v_t1).astype(np.int64)
    window_end = t_l_v + int(round(delta))
    day_v = t_s_v // MINUTES_PER_DAY
    rank_lo = np.searchsorted(times, v_t0, side="left")
    rank_hi = np.searchsorted(times, v_t1 + delta, side="right")

    # candidate ranges [lo, hi) of the 3x3 cells around each anchor, dx
    # major, found in one search; a candidate's time is times[rank] for a
    # rank in [rank_lo, rank_hi), so the ranges already hold only updates
    # in [t_start, t_end + delta]
    step = np.array([-1, 0, 1])
    c = _find(xs, np.floor(v_x / cfg.radius_m).astype(np.int64)[:, None] + step)
    r = _find(ys, np.floor(v_y / cfg.radius_m).astype(np.int64)[:, None] + step)
    near = np.where((c[:, :, None] >= 0) & (r[:, None] >= 0),
                    c[:, :, None] * ys.size + r[:, None], -1)
    near = _find(cells, near.reshape(-1, 9))
    # an absent cell (-1) searches at or below key 0, so its range is [0, 0)
    lo, hi = np.searchsorted(key, near * times.size + np.stack((rank_lo, rank_hi))[..., None])
    counts = hi - lo
    per_visit = np.cumsum(counts.sum(axis=1))

    # a block's link keys ((vis - a) * users + nbr) * times.size + time rank
    # stay below 2**63; a one-visit block fits while users * times.size does
    max_visits = max(1, (1 << _KEY_BITS) // max(1, len(users) * times.size))
    parts = [[] for _ in _COLUMNS]
    a = 0
    while a < host.size:
        # visits [a, b) hold at most _PAIR_BLOCK candidates, or one visit
        done = per_visit[a - 1] if a else 0
        b = max(int(np.searchsorted(per_visit, done + _PAIR_BLOCK, side="right")), a + 1)
        b = min(b, a + max_visits)
        c = counts[a:b].ravel()
        if c.any():
            vis = np.repeat(np.arange(a, b), counts[a:b].sum(axis=1))
            pos = _ranges(lo[a:b].ravel(), c)
            dx = x[pos] - v_x[vis]
            dy = y[pos] - v_y[vis]
            hit = (dx * dx + dy * dy <= radius2) & (code[pos] != host[vis])
            # one sort of the hits' link keys groups them by (visit,
            # neighbour), in that order, and each group by time: its first
            # and last keys hold its earliest and latest update
            pos = pos[hit]
            link_key = ((vis[hit] - a) * len(users) + code[pos]) * times.size + rank[pos]
            link_key.sort()
            group = link_key // times.size
            head = _run_starts(group)
            if head.size:
                tail = np.append(head[1:], True)
                first = np.rint(times[link_key[head] % times.size]).astype(np.int64)
                last = np.rint(times[link_key[tail] % times.size]).astype(np.int64)
                vis, nbr = np.divmod(group[head], len(users))
                vis += a
                t_s, t_l, w_end = t_s_v[vis], t_l_v[vis], window_end[vis]
                t_l_n = np.minimum(last, w_end)
                # link invariants after rounding; violating candidates carry
                # no exposure window
                keep = (first < w_end) & (t_l_n > t_s)
                for part, col in zip(parts, (day_v[vis], host[vis], nbr, t_s, t_l,
                                             first, t_l_n)):
                    part.append(col[keep])
        a = b

    # a column at a time: its blocks are freed before the next is joined
    columns = [np.concatenate(parts.pop(0) or [empty]) for _ in _COLUMNS]
    return DynamicContactNetwork._from_arrays(users, cfg.horizon_days, *columns)


def project_spst(net: DynamicContactNetwork) -> DynamicContactNetwork:
    """Same-time projection: truncate links at host departure, drop indirect-only.

    Links whose neighbour arrives at or after the host leaves are removed, as
    are links of a zero-minute host visit, which have no same-time window;
    the rest are capped at the host departure time. Users left without links
    disappear from the user set.
    """
    nbr, t_s, t_l, t_s_n, t_l_n = net._base
    keep = t_s_n < t_l
    keep &= t_s < t_l
    t_l_n = np.minimum(t_l_n, t_l)
    # t_l_n is the last sort key: a projection that keeps every link and swaps
    # no rows tied on t_s, nbr and t_s_n shares the index and four columns
    if keep.all() and not np.logical_and.reduce(
            [t_l_n[1:] < t_l_n[:-1]] + [k[1:] == k[:-1] for k in (t_s, nbr, t_s_n)]).any():
        return DynamicContactNetwork(net.users, net.horizon, net._base._replace(t_l_n=t_l_n),
                                     net._cells, net._source)
    return DynamicContactNetwork._from_arrays(
        net.users, net.horizon,
        *(col[keep] for col in (*net._base_keys(), nbr, t_s, t_l, t_s_n, t_l_n)),
        net._source,
    )


def _user_hash(user_id: str) -> int:
    return int.from_bytes(hashlib.sha256(user_id.encode("utf-8")).digest()[:8], "big")


def densify(net: DynamicContactNetwork,
            rng_seed: int = DEFAULT_DENSIFY_SEED) -> DynamicContactNetwork:
    """Repeat each host's links onto their missing days (uniform source day, seeded).

    For every host, each day without links receives a time-shifted copy of
    that host's links from one of their active days, drawn uniformly from a
    per-host stream so the result is independent of iteration order. The
    stream is ``default_rng(SeedSequence((rng_seed, _user_hash(user))))``;
    the seeds of every host that misses a day are mixed in one pass, and
    each host's draws are taken from a generator over its mixed words.
    Links on originally active days are untouched.

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
    from . import _rng  # loads numpy.random

    hashes = np.fromiter((_user_hash(net.users[h]) for h in partial.tolist()),
                         np.uint64, partial.size)
    low, high = hashes & 0xFFFFFFFF, hashes >> 32
    # SeedSequence keys a hash below 2**32 by one word, any other by two
    one_word = high == 0
    words = np.empty((partial.size, 4), dtype=np.uint64)
    words[one_word] = _rng.mix(rng_seed, low[one_word])
    words[~one_word] = _rng.mix(rng_seed, low[~one_word], high[~one_word])
    # each host's active and missing days, host by host, in day order
    n_days = n_active[partial]
    _, days = np.nonzero(active[:, partial].T)
    host, missing = np.nonzero(~active[:, partial].T)
    # one source day per missing day, drawn in day order
    draws = np.concatenate([
        _rng.generator(seed_words).integers(n, size=horizon - n)
        for seed_words, n in zip(words, n_days.tolist())])
    source = np.repeat(np.arange(horizon)[:, None], n_users, axis=1)
    source[missing, partial[host]] = days[(np.cumsum(n_days) - n_days)[host] + draws]
    if net._source is not None:
        source = np.take_along_axis(net._source, source, axis=0)
    return DynamicContactNetwork(net.users, net.horizon, net._base, net._cells, source)


def make_ldt_lst(
    net: DynamicContactNetwork,
    indirect_window_min: float = DEFAULT_INDIRECT_WINDOW_MIN,
) -> tuple[DynamicContactNetwork, DynamicContactNetwork]:
    """Density-controlled pair: indirect-only links become direct-bearing.

    Every indirect-only link has its neighbour arrival moved to the host
    arrival, with its presence duration kept: the departure is shifted by
    the same amount, re-capped at the indirect window. The same-time
    projection of the result then has identical users and per-day link
    counts, because every surviving link carries a direct segment.

    Links that cannot carry a direct segment under the rewrite (zero-stay
    host visits and zero-duration indirect presences) carry no exposure and
    are dropped from both outputs.
    """
    check_positive("indirect_window_min", indirect_window_min)
    delta = int(round(indirect_window_min))
    day, host = net._base_keys()
    nbr, t_s, t_l, t_s_n, t_l_n = net._base
    indirect = t_s_n >= t_l
    duration = t_l_n - t_s_n
    keep = (t_l > t_s) & (~indirect | (duration > 0))
    t_l_n = np.where(indirect, np.minimum(t_s + duration, t_l + delta), t_l_n)
    t_s_n = np.where(indirect, t_s, t_s_n)

    ldt = DynamicContactNetwork._from_arrays(
        net.users, net.horizon, day[keep], host[keep], nbr[keep],
        t_s[keep], t_l[keep], t_s_n[keep], t_l_n[keep], net._source,
    )
    return ldt, project_spst(ldt)


_HEADER_RE = re.compile(r"^spdt-net v([0-9]+) horizon=([0-9]+)$")


def save_network(net: DynamicContactNetwork, path: str | Path) -> None:
    """Write the network in the line-oriented text format (lossless).

    Lines are formatted a block at a time by byte-matrix passes: integers
    by their digits, ids from a table of their UTF-8 bytes.
    """
    if _textio.id_fault(*net.users) is not None:
        user = next(user for user in net.users if _textio.id_fault(user))
        raise ValueError(f"user id {user!r} not representable in network format")
    ids = _textio.id_text(net.users)
    formats = [_textio.int_text, ids, ids] + [_textio.int_text] * 4
    if net._source is None:
        parts = [(*net._base_keys(), *net._base)]
    else:
        # a day at a time: a scheduled network's repeats are never all made at once
        parts = ([net._column(name, [d]) for name in _COLUMNS] for d in range(net.horizon))
    with open(path, "wb") as fh:
        fh.write(f"spdt-net v{NETWORK_FORMAT_VERSION} horizon={net.horizon}\n".encode())
        for columns in parts:
            _textio.write_blocks(fh, columns, formats, " ")


def _block_ints(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, out: np.ndarray) -> bool:
    """Write the values of the fields buf[lo:hi] to ``out``; False unless
    each is -?[0-9]{1,18}.

    Eighteen digits always fit in int64, so the digits are summed exactly.
    """
    neg = buf[lo] == ord("-")
    lo = lo + neg
    width = int((hi - lo).max())
    if np.any(hi <= lo) or width > 18:
        return False
    # digit rows, most significant first, zero before a field's start
    at = hi + np.arange(-width, 0)[:, None]
    digits = buf.take(at, mode="clip") - ord("0")
    digits *= at >= lo
    if np.any(digits > 9):  # wrapped below '0' or above '9'
        return False
    out[:] = digits[0]
    for row in digits[1:]:
        out *= 10
        out += row
    np.negative(out, out=out, where=neg)
    return True


# _BYTE_MASKS[k] keeps the first k bytes of an 8-byte word
_BYTE_MASKS = np.where(np.arange(8) < np.arange(9)[:, None], 0xFF, 0).astype(
    np.uint8).view(np.uint64).ravel()


def _block_ids(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, index: dict,
               out: np.ndarray) -> bool:
    """Write the codes in ``index`` of the ids buf[lo:hi] to ``out``, new
    ids added to it; False if one breaks the id rule.

    Each id is a key of NUL-padded 8-byte words, so none may hold a NUL; the
    keys are told apart by one sort.
    """
    size = hi - lo
    width = -(-int(size.max()) // 8) * 8
    padded = np.concatenate((buf, np.zeros(width, dtype=np.uint8)))
    words = sliding_window_view(padded, width)[lo].view(np.uint64)
    for j in range(words.shape[1]):
        words[:, j] &= _BYTE_MASKS[np.clip(size - 8 * j, 0, 8)]
    # one word sorts faster alone
    order = np.lexsort(words.T[::-1]) if words.shape[1] > 1 else words[:, 0].argsort()
    words = words[order]
    first = np.ones(order.size, dtype=bool)
    np.any(words[1:] != words[:-1], axis=1, out=first[1:])
    names = [key.decode("utf-8", "surrogateescape")
             for key in words[first].view(f"S{width}").ravel().tolist()]
    if _textio.id_fault(*names) is not None:
        return False
    code = np.fromiter((index.setdefault(name, len(index)) for name in names),
                       np.int64, len(names))
    out[order] = code[np.cumsum(first) - 1]
    return True


# the separators of a canonical line
_SEPARATORS = np.frombuffer(b"      \n", dtype=np.uint8)


def _parse_block(lines: list[bytes], index: dict):
    """The (7, lines) columns of a block of link lines in canonical form,
    ids coded in ``index``; None if any line is not canonical.

    A canonical line has 7 non-empty fields separated by single spaces,
    integer fields of the form -?[0-9]{1,18} and ids that keep the id rule,
    and ends at LF or CRLF; the block holds no NUL: every file
    ``save_network`` writes, within 18 digits. Such a block is checked and
    converted by byte passes.
    """
    block = _textio.join_lines(lines)
    if b"\r" in block or b"\0" in block:
        return None
    if not block.endswith(b"\n"):  # the file's last line
        block += b"\n"
    # made before the temporaries: blocks kept among freed temporaries
    # would leave the heap fragmented
    columns = np.empty((7, block.count(b"\n")), dtype=np.int64)
    buf = np.frombuffer(block, dtype=np.uint8)
    # the separators must run six spaces, then a newline, line after line
    seps = np.flatnonzero((buf == ord(" ")) | (buf == ord("\n")))
    if seps.size % 7 or np.any(buf[seps].reshape(-1, 7) != _SEPARATORS):
        return None
    # each field runs from just after the previous separator to its own
    hi = seps.reshape(-1, 7).T
    lo = np.concatenate(([0], seps[:-1] + 1)).reshape(-1, 7).T
    if np.any(hi <= lo):  # an empty field
        return None
    for k in (0, 3, 4, 5, 6):
        if not _block_ints(buf, lo[k], hi[k], columns[k]):
            return None
    if not _block_ids(buf, lo[1:3].ravel(), hi[1:3].ravel(), index, columns[1:3].ravel()):
        return None
    return columns


def _parse_lines(path, lines: list[bytes], lineno: int, index: dict):
    """The (7, lines) columns of a block read one line at a time, ids coded
    in ``index``, and the number of the line after it; raises on the first
    fault, naming its location. Lines are split as a text-mode read splits
    them, at a lone CR too, and fields read with Python's ``int``: the
    reference for the canonical pass, and the reader of every other block.
    """
    rows = []
    text = _textio.join_lines(lines).decode("utf-8", "surrogateescape")
    for line in io.StringIO(text, newline=""):
        line = line.rstrip("\n")
        _textio.check_utf8(path, lineno, line)
        if not line:
            raise ValueError(f"{path}:{lineno}: blank line in link section")
        parts = line.split(" ")
        if len(parts) != 7:
            raise ValueError(f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
        if (fault := _textio.id_fault(parts[1], parts[2])) is not None:
            raise ValueError(f"{path}:{lineno}: {fault}")
        try:
            day, *times = [int(part) for part in parts[:1] + parts[3:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer field") from exc
        if not all(-1 << 63 <= v < 1 << 63 for v in [day, *times]):
            raise ValueError(f"{path}:{lineno}: integer field out of range")
        rows.append((day, index.setdefault(parts[1], len(index)),
                     index.setdefault(parts[2], len(index)), *times))
        lineno += 1
    return np.array(rows, dtype=np.int64).T, lineno


def load_network(path: str | Path) -> DynamicContactNetwork:
    """Read a network file; any malformed content raises without partial output.

    Every fault names the file and the line number of the first offending
    line: format faults (bytes that are not UTF-8 among them) in the order
    a line-by-line read meets them, then self-links, interval invariants
    and days outside [0, horizon).

    A block of link lines in canonical form is converted by byte passes;
    any other block is read one line at a time.
    """
    with open(path, "rb") as fh:
        # the first line as a text-mode read splits it, at a lone CR too
        text = _textio.join_lines([fh.readline()]).decode("utf-8", "surrogateescape")
        header = next(io.StringIO(text, newline=""), "").rstrip("\n")
        _textio.check_utf8(path, 1, header)
        m = _HEADER_RE.match(header)
        if m is None:
            raise ValueError(f"{path}:1: not a network file: bad header {header!r}")
        version, horizon = int(m.group(1)), int(m.group(2))
        if version != NETWORK_FORMAT_VERSION:
            raise ValueError(f"{path}:1: network format version {version} "
                             f"unsupported (expected {NETWORK_FORMAT_VERSION})")
        if horizon < 1:
            raise ValueError(f"{path}:1: horizon must be at least 1")
        blocks, users, recode = _textio.read_blocks(fh, _parse_block,
                                                    partial(_parse_lines, path))

    columns = np.concatenate(blocks or [np.empty((7, 0), dtype=np.int64)], axis=1)
    del blocks  # copied: not held through the checks below
    fault = _first_fault(horizon, *columns)
    if fault is not None:
        raise ValueError(f"{path}:{fault[0] + 2}: {fault[1]}")

    columns[1:3] = recode[columns[1:3]]
    return DynamicContactNetwork._from_arrays(users, horizon, *columns)
