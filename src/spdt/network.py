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
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .trace import MINUTES_PER_DAY, LocationUpdate, ParsedTrace, Visit

NETWORK_FORMAT_VERSION = 1

DEFAULT_INDIRECT_WINDOW_MIN = 200.0


@dataclass(frozen=True)
class BuilderConfig:
    """Construction rules: co-location radius, indirect window, visit gap."""

    radius_m: float = 20.0
    indirect_window_min: float = DEFAULT_INDIRECT_WINDOW_MIN
    visit_gap_min: float = 30.0
    horizon_days: int = 32

    def __post_init__(self):
        for name in ("radius_m", "indirect_window_min", "visit_gap_min"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
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
                 "t_s", "t_l", "t_s_n", "t_l_n", "_day_bounds", "_index",
                 "__weakref__")

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
        used = np.union1d(host, nbr) if host.size else np.empty(0, dtype=np.int64)
        if used.size != len(users):
            remap = np.full(len(users), -1, dtype=np.int64)
            remap[used] = np.arange(used.size)
            host = remap[host]
            nbr = remap[nbr]
            users = [users[i] for i in used]

        if host.size:
            if np.any(host == nbr):
                raise ValueError("link connects a user to itself")
            if np.any(t_s > t_l) or np.any(t_s_n > t_l_n) or np.any(t_l_n <= t_s):
                raise ValueError("link interval invariants violated")
            if np.any(day < 0) or np.any(day >= horizon):
                raise ValueError("link day outside [0, horizon)")
            order = np.lexsort((t_l_n, t_s_n, nbr, t_s, host, day))
            day, host, nbr = day[order], host[order], nbr[order]
            t_s, t_l = t_s[order], t_l[order]
            t_s_n, t_l_n = t_s_n[order], t_l_n[order]
        return cls(users, horizon, day.astype(np.int64), host.astype(np.int64),
                   nbr.astype(np.int64), t_s.astype(np.int64), t_l.astype(np.int64),
                   t_s_n.astype(np.int64), t_l_n.astype(np.int64))

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

    # identity hashing: networks are immutable and cached by instance
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return (f"DynamicContactNetwork(users={self.n_users}, links={self.n_links}, "
                f"horizon={self.horizon})")


def _group_bounds(sorted_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique values and start offsets of runs in a sorted code array."""
    uniq, starts = np.unique(sorted_codes, return_index=True)
    return uniq, starts


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
    """
    if isinstance(updates, ParsedTrace):
        updates = updates.updates
    updates = list(updates)
    visits = list(visits)
    delta = cfg.indirect_window_min
    radius2 = cfg.radius_m * cfg.radius_m

    if not updates or not visits:
        return DynamicContactNetwork.from_links([], cfg.horizon_days)

    user_ids = sorted({u.user_id for u in updates})
    code_of = {u: i for i, u in enumerate(user_ids)}
    ux = np.array([u.x for u in updates])
    uy = np.array([u.y for u in updates])
    ut = np.array([u.t for u in updates])
    ucode = np.array([code_of[u.user_id] for u in updates], dtype=np.int64)

    # uniform grid with radius-sized cells; candidates come from the 3x3
    # neighbourhood of the anchor cell
    cell_x = np.floor(ux / cfg.radius_m).astype(np.int64)
    cell_y = np.floor(uy / cfg.radius_m).astype(np.int64)
    grid: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(zip(cell_x.tolist(), cell_y.tolist())):
        grid.setdefault(key, []).append(i)
    grid_arrays = {key: np.array(idx, dtype=np.int64) for key, idx in grid.items()}

    links: list[SPDTLink] = []
    for visit in visits:
        # the host's own updates never count as neighbour presence; a host
        # absent from the update stream excludes nothing
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
        uniq, starts = _group_bounds(codes_sorted)
        firsts = np.minimum.reduceat(times_sorted, starts)
        lasts = np.maximum.reduceat(times_sorted, starts)

        t_s = int(round(visit.t_start))
        t_l = int(round(visit.t_end))
        window_end = t_l + int(round(delta))
        day = t_s // MINUTES_PER_DAY
        if not 0 <= day < cfg.horizon_days:
            continue
        for nbr_code, first, last in zip(uniq.tolist(), firsts.tolist(), lasts.tolist()):
            t_s_n = int(round(first))
            t_l_n = min(int(round(last)), window_end)
            # enforce link invariants after rounding; violating candidates
            # carry no exposure window
            if t_s_n >= window_end or t_l_n <= t_s:
                continue
            links.append(SPDTLink(
                visit.user_id, user_ids[nbr_code], t_s, t_l, t_s_n, t_l_n, day,
            ))

    return DynamicContactNetwork.from_links(links, cfg.horizon_days)


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


def densify(net: DynamicContactNetwork, rng_seed: int = 0) -> DynamicContactNetwork:
    """Copy each host's links onto their missing days (uniform source day, seeded).

    For every host, each day without links receives a time-shifted copy of
    that host's links from one of their active days, drawn uniformly from a
    per-host stream so the result is independent of iteration order. Links on
    originally active days are untouched.
    """
    if net.n_links == 0:
        return net

    order = np.argsort(net.host, kind="stable")
    hosts_sorted = net.host[order]
    uniq_hosts, starts = _group_bounds(hosts_sorted)
    bounds = np.append(starts, hosts_sorted.size)

    extra = {f: [] for f in ("day", "host", "nbr", "t_s", "t_l", "t_s_n", "t_l_n")}
    for k, h in enumerate(uniq_hosts.tolist()):
        rows = order[bounds[k]:bounds[k + 1]]
        days_avail = np.unique(net.day[rows])
        if days_avail.size >= net.horizon:
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence((rng_seed, _user_hash(net.users[h])))
        )
        avail_set = set(days_avail.tolist())
        rows_by_day = {d: rows[net.day[rows] == d] for d in avail_set}
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"spdt-net v{NETWORK_FORMAT_VERSION} horizon={net.horizon}\n")
        for link in net.iter_links():
            fh.write(f"{link.day} {link.host_id} {link.neighbour_id} "
                     f"{link.t_s} {link.t_l} {link.t_s_n} {link.t_l_n}\n")


def load_network(path: str | Path) -> DynamicContactNetwork:
    """Read a network file; any malformed content raises without partial output."""
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
            links.append(SPDTLink(parts[1], parts[2], t_s, t_l, t_s_n, t_l_n, day))
    return DynamicContactNetwork.from_links(links, horizon)
