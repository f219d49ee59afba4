"""Traces as plain rows, and the per-user segmentation they are checked with.

Hand-built traces are written as ``LocationUpdate`` and ``Visit`` rows and
turned into the package's columns by ``columns``, which codes both over one
shared tuple of user ids, so a host may have visits and no updates.
``segment_visits`` is the greedy rule stated one update at a time: the
oracle for the array segmenter. ``parse_rows`` is the trace parser stated
one row at a time: the oracle for the block parser.
"""

import math
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from spdt.trace import (
    DEFAULT_VISIT_GAP_MIN,
    DEFAULT_VISIT_RADIUS_M,
    TRACE_HEADER,
    TRACE_HEADER_LATLON,
    ParsedTrace,
    Updates,
    Visits,
    _project_equirectangular,
)


class LocationUpdate(NamedTuple):
    """One timestamped position report (planar metres, minutes since epoch)."""

    user_id: str
    t: float
    x: float
    y: float


class Visit(NamedTuple):
    """A user's contiguous stay near one anchor position."""

    user_id: str
    anchor_x: float
    anchor_y: float
    t_start: float
    t_end: float


def columns(updates, visits=()):
    """Updates and visits of the rows, coded over one shared users tuple."""
    updates, visits = list(updates), list(visits)
    users = sorted({u.user_id for u in updates} | {v.user_id for v in visits})
    code = {user: i for i, user in enumerate(users)}

    def coded(rows):
        return np.array([code[row.user_id] for row in rows], dtype=np.int64)

    def floats(rows, field):
        return np.array([getattr(row, field) for row in rows], dtype=np.float64)

    return (Updates(users, coded(updates), *(floats(updates, f) for f in "txy")),
            Visits(tuple(users), coded(visits),
                   *(floats(visits, f) for f in Visit._fields[1:])))


def update_rows(updates: Updates) -> list[LocationUpdate]:
    return [LocationUpdate(updates.users[u], t, x, y) for u, t, x, y in zip(
        updates.user.tolist(), updates.t.tolist(), updates.x.tolist(),
        updates.y.tolist())]


def visit_rows(visits: Visits) -> list[Visit]:
    return [Visit(visits.users[u], *rest) for u, *rest in zip(*(
        getattr(visits, f).tolist() for f in ("user",) + Visit._fields[1:]))]


def segment_visits(
    updates: Sequence[LocationUpdate],
    radius_m: float = DEFAULT_VISIT_RADIUS_M,
    max_gap_min: float = DEFAULT_VISIT_GAP_MIN,
) -> list[Visit]:
    """Greedy left-to-right segmentation of one user's time-sorted updates.

    A new visit starts when the next update is more than ``radius_m`` from
    the current visit's anchor or more than ``max_gap_min`` after the last
    assigned update.
    """
    if not updates:
        return []
    user_id = updates[0].user_id
    visits: list[Visit] = []
    anchor_x = anchor_y = 0.0
    t_start = t_last = -math.inf

    def close() -> None:
        visits.append(Visit(user_id, anchor_x, anchor_y, t_start, t_last))

    open_visit = False
    for upd in updates:
        if upd.user_id != user_id:
            raise ValueError(
                f"segment_visits takes one user's updates; saw {user_id!r} "
                f"and {upd.user_id!r}"
            )
        if upd.t < t_last:
            raise ValueError("updates must be sorted by time")
        if open_visit:
            dist = math.hypot(upd.x - anchor_x, upd.y - anchor_y)
            if dist > radius_m or upd.t - t_last > max_gap_min:
                close()
                open_visit = False
        if not open_visit:
            anchor_x, anchor_y, t_start = upd.x, upd.y, upd.t
            open_visit = True
        t_last = upd.t
    close()
    return visits


def segment_rows(updates: Sequence[LocationUpdate], radius_m=DEFAULT_VISIT_RADIUS_M,
                 max_gap_min=DEFAULT_VISIT_GAP_MIN) -> list[Visit]:
    """Every user's visits, by user id: each user's rows stable-sorted by
    time and cut by ``segment_visits``."""
    by_user: dict[str, list[LocationUpdate]] = {}
    for upd in sorted(updates, key=lambda upd: (upd.user_id, upd.t)):
        by_user.setdefault(upd.user_id, []).append(upd)
    return [visit for user in sorted(by_user)
            for visit in segment_visits(by_user[user], radius_m, max_gap_min)]


def parse_rows(source: TextIO) -> ParsedTrace:
    """``parse_trace`` of a text stream, one row at a time."""
    header_line = source.readline()
    if not header_line:
        raise ValueError("empty trace: missing header")
    header = tuple(part.strip() for part in header_line.strip().split(","))
    if header not in (TRACE_HEADER, TRACE_HEADER_LATLON):
        raise ValueError(f"unparseable trace header {header_line.strip()!r}; "
                         f"expected {','.join(TRACE_HEADER)!r} or "
                         f"{','.join(TRACE_HEADER_LATLON)!r}")
    latlon = header == TRACE_HEADER_LATLON

    ids: list[str] = []
    values: list[float] = []  # t, x, y of each kept row in turn
    reasons: dict[str, int] = {}
    for line in source:
        line = line.strip()
        if not line:
            continue
        reason = None
        parts = line.split(",")
        if len(parts) != 4:
            reason = "wrong field count"
        else:
            words = parts[0].split()
            try:
                row = float(parts[1]), float(parts[2]), float(parts[3])
            except ValueError:
                reason = "non-numeric value"
            else:
                if not words:
                    reason = "empty user id"
                elif len(words) > 1:
                    reason = "user id contains whitespace"
                elif not all(map(math.isfinite, row)):
                    reason = "non-finite value"
                elif latlon and not (abs(row[1]) <= 90.0 and abs(row[2]) <= 180.0):
                    reason = "lat/lon out of range"
        if reason is None:
            ids.append(words[0])
            values.extend(row)
        else:
            reasons[reason] = reasons.get(reason, 0) + 1

    code = {user: i for i, user in enumerate(sorted(set(ids)))}
    user = np.fromiter(map(code.__getitem__, ids), np.int64, len(ids))
    t, x, y = np.array(values, dtype=np.float64).reshape(-1, 3).T
    if latlon and ids:
        x, y = _project_equirectangular(x, y)
    return ParsedTrace(Updates(list(code), user, t, x, y), reasons)
