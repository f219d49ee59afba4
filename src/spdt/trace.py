"""Location-trace parsing and visit segmentation.

A trace is a CSV of timestamped position reports, one row per update. Each
user's stream is cut into visits: maximal runs of updates that stay within a
fixed radius of the first update at the location and never pause longer than
a fixed gap. The first update of a visit is its anchor; later updates extend
the visit but never move the anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import _textio

MINUTES_PER_DAY = 1440

TRACE_HEADER = ("user_id", "t_min", "x_m", "y_m")
TRACE_HEADER_LATLON = ("user_id", "t_min", "lat", "lon")

EARTH_RADIUS_M = 6371000.0

DEFAULT_VISIT_RADIUS_M = 20.0
DEFAULT_VISIT_GAP_MIN = 30.0


class Updates:
    """Timestamped position reports (planar metres, minutes since epoch).

    ``users`` are the distinct user ids, sorted; row i is user
    ``users[user[i]]`` at ``(x[i], y[i])`` at time ``t[i]``. The rows are
    stable-sorted by (user, t), so rows tied on both keep their given order.
    """

    __slots__ = ("users", "user", "t", "x", "y")

    def __init__(self, users, user, t, x, y):
        self.users: tuple[str, ...] = tuple(users)
        user = np.asarray(user, dtype=np.int64)
        t, x, y = (np.asarray(col, dtype=np.float64) for col in (t, x, y))
        order = np.lexsort((t, user))  # a stable sort
        self.user, self.t, self.x, self.y = (col[order] for col in (user, t, x, y))

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True, eq=False)
class Visits:
    """Each visit's user, anchor position and first and last update time,
    coded over the user ids of the updates it was cut from."""

    users: tuple[str, ...]
    user: np.ndarray
    anchor_x: np.ndarray
    anchor_y: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray

    def __len__(self) -> int:
        return self.user.size


@dataclass
class ParsedTrace:
    """A trace's updates plus the count of rows dropped as malformed, by
    reason; ``skipped`` is their total."""

    updates: Updates
    skip_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def skipped(self) -> int:
        return sum(self.skip_reasons.values())


def _project_equirectangular(lat: np.ndarray, lon: np.ndarray):
    """Map (lat, lon) degrees to planar metres (x, y) about the trace centroid.

    The lon centroid is circular and lon offsets are wrapped to
    (-180, 180], so a trace that straddles the antimeridian stays in one
    piece. City-scale traces make the projection error negligible relative
    to the 20 m co-location radius.
    """
    # sums run left to right, whatever the Python version (3.12's sum
    # compensates); sin and cos are libm's, as np.sin's may round otherwise
    lat0 = math.radians(np.cumsum(lat)[-1] / lat.size)
    lons = np.radians(lon).tolist()
    lon0 = math.degrees(math.atan2(np.cumsum(list(map(math.sin, lons)))[-1],
                                   np.cumsum(list(map(math.cos, lons)))[-1]))
    dlon = 180.0 - (180.0 - (lon - lon0)) % 360.0
    return (EARTH_RADIUS_M * math.cos(lat0) * np.radians(dlon),
            EARTH_RADIUS_M * (np.radians(lat) - lat0))


def parse_trace(path: str | Path) -> ParsedTrace:
    """Parse a trace CSV file into updates sorted by (user, time).

    The header names the coordinates: ``user_id,t_min,x_m,y_m`` for planar
    metres, or ``user_id,t_min,lat,lon`` for geographic degrees, which are
    converted to planar metres about the trace centroid; under the latter,
    rows with |lat| > 90 or |lon| > 180 are skipped. Rows with the wrong
    field count, non-numeric or non-finite values, or a user id that,
    stripped, is empty or contains whitespace are counted by reason and
    skipped too. A missing or other header and bytes that are not UTF-8
    raise, naming ``path:line``.

    A block of rows that are all well formed is converted a column at a
    time; any other block is read one row at a time, which counts each
    skipped row's reason.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        header_line = fh.readline()
        _textio.check_utf8(path, 1, header_line)
        if not header_line:
            raise ValueError(f"{path}:1: empty trace: missing header")
        header = tuple(part.strip() for part in header_line.strip().split(","))
        if header not in (TRACE_HEADER, TRACE_HEADER_LATLON):
            raise ValueError(f"{path}:1: unparseable trace header {header_line.strip()!r};"
                             f" expected {','.join(TRACE_HEADER)!r} or "
                             f"{','.join(TRACE_HEADER_LATLON)!r}")
        latlon = header == TRACE_HEADER_LATLON
        reasons: dict[str, int] = {}
        blocks, users, recode = _textio.read_blocks(
            fh, partial(_parse_block, latlon),
            partial(_parse_lines, latlon, reasons, path))
    code, t, x, y = ([np.concatenate(col) for col in zip(*blocks)]
                     or [np.empty(0, dtype=np.int64)] + [np.empty(0)] * 3)
    if latlon and code.size:
        x, y = _project_equirectangular(x, y)
    return ParsedTrace(Updates(users, recode[code], t, x, y), reasons)


def _parse_block(latlon: bool, lines: list[str], index: dict):
    """(user code, t, x, y) columns of a block of rows, ids coded in
    ``index``; None if any row would be skipped, or any id is padded or
    holds bytes that are not UTF-8 (only an id can hold them and convert).

    The block is split once and each value column converted with ``float``
    over a strided slice.
    """
    if set(map(str.count, lines, repeat(","))) != {3}:
        return None
    fields = ",".join(lines).split(",")
    ids = fields[0::4]
    distinct = set(ids)
    if _textio.id_fault(*distinct) is not None:
        return None
    try:
        t, x, y = [np.fromiter(map(float, fields[k::4]), np.float64, len(lines))
                   for k in (1, 2, 3)]
    except ValueError:
        return None
    if not (np.isfinite(t).all() and np.isfinite(x).all() and np.isfinite(y).all()):
        return None
    if latlon and not ((np.abs(x) <= 90.0).all() and (np.abs(y) <= 180.0).all()):
        return None
    for user in sorted(distinct.difference(index)):
        index[user] = len(index)
    return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids)), t, x, y


def _parse_lines(latlon: bool, reasons: dict, path, lines: list[str], start: int,
                 index: dict):
    """(user code, t, x, y) columns of a block read one row at a time, ids
    coded in ``index``, and the number of the line after it; each skipped
    row's reason is counted in ``reasons``."""
    ids: list[str] = []
    values: list[float] = []  # t, x, y of each kept row in turn
    for lineno, line in enumerate(lines, start=start):
        _textio.check_utf8(path, lineno, line)
        line = line.strip()
        if not line:
            continue
        reason = None
        parts = line.split(",")
        if len(parts) != 4:
            reason = "wrong field count"
        else:
            user = parts[0].strip()
            try:
                row = float(parts[1]), float(parts[2]), float(parts[3])
            except ValueError:
                reason = "non-numeric value"
            else:
                if not all(map(math.isfinite, row)):
                    reason = "non-finite value"
                elif latlon and not (abs(row[1]) <= 90.0 and abs(row[2]) <= 180.0):
                    reason = "lat/lon out of range"
                reason = _textio.id_fault(user) or reason
        if reason is None:
            ids.append(user)
            values.extend(row)
        else:
            reasons[reason] = reasons.get(reason, 0) + 1
    code = np.fromiter((index.setdefault(user, len(index)) for user in ids),
                       np.int64, len(ids))
    t, x, y = np.array(values, dtype=np.float64).reshape(-1, 3).T
    return (code, t, x, y), start + len(lines)


def write_trace_csv(updates: Updates, path: str | Path) -> None:
    """Write updates in the trace CSV format (`user_id,t_min,x_m,y_m`).

    A row that parse_trace would skip raises before the file is opened: a
    user id that breaks the id rule or holds a comma, or a t, x or y that is
    not finite.
    """
    used = [updates.users[u] for u in np.unique(updates.user).tolist()]
    if (user := _textio.bad_csv_id(used)) is not None:
        raise ValueError(f"user id {user!r} not representable in trace CSV")
    finite = np.isfinite(updates.t) & np.isfinite(updates.x) & np.isfinite(updates.y)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"row {row} (user {updates.users[updates.user[row]]!r}): "
                         f"t, x or y is not finite")
    rows = zip(*(col.tolist() for col in (updates.user, updates.t, updates.x, updates.y)))
    _textio.write_table(path, ",".join(TRACE_HEADER),
                        (f"{updates.users[u]},{t!r},{x!r},{y!r}" for u, t, x, y in rows))


def segment_all(
    updates: Updates | ParsedTrace,
    radius_m: float = DEFAULT_VISIT_RADIUS_M,
    max_gap_min: float = DEFAULT_VISIT_GAP_MIN,
) -> Visits:
    """Cut every user's updates into visits, ordered by (user, t_start).

    A new visit starts at a user's first update, after a pause of more than
    ``max_gap_min``, and at an update more than ``radius_m`` from the open
    visit's anchor. A single update yields a zero-duration visit; such
    visits are retained because the host's particles persist after departure.

    The first two rules cut the rows into runs in one pass. The anchor rule
    is sequential within a run, so it steps all runs together: step k tests
    the k-th update of each run longer than k against its current anchor.
    """
    if isinstance(updates, ParsedTrace):
        updates = updates.updates
    user, t = updates.user, updates.t
    n = t.size
    start = np.ones(n, dtype=bool)
    start[1:] = (user[1:] != user[:-1]) | (t[1:] - t[:-1] > max_gap_min)
    first = np.flatnonzero(start)
    length = np.diff(first, append=n)
    # longest first: the runs longer than k, open at step k, are a prefix
    first = first[np.argsort(-length, kind="stable")]
    still_open = (first.size - np.cumsum(np.bincount(length))).tolist()
    position = updates.x + 1j * updates.y
    anchor = first.copy()
    for k in range(1, len(still_open)):
        at = first[:still_open[k]] + k
        offset = position[at] - position[anchor[:at.size]]
        dist = np.abs(offset)
        far = dist > radius_m
        # np.abs may round otherwise than math.hypot, which settles near-ties
        near = np.abs(dist - radius_m) <= 8 * np.spacing(radius_m)
        if near.any():
            far[near] = [math.hypot(d.real, d.imag) > radius_m
                         for d in offset[near].tolist()]
        at = at[far]
        start[at] = True
        anchor[:far.size][far] = at

    first = np.flatnonzero(start)
    last = np.append(first, n)[1:] - 1
    return Visits(updates.users, user[first], updates.x[first], updates.y[first],
                  t[first], t[last])
