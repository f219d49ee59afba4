"""Traces as plain rows, and the per-user segmentation they are checked with.

Hand-built traces are written as ``LocationUpdate`` and ``Visit`` rows and
turned into the package's columns by ``columns``, which codes both over one
shared tuple of user ids, so a host may have visits and no updates.
``segment_visits`` is the greedy rule stated one update at a time: the
oracle for the array segmenter.
"""

import math
from typing import NamedTuple, Sequence

import numpy as np

from spdt.trace import DEFAULT_VISIT_GAP_MIN, DEFAULT_VISIT_RADIUS_M, Updates, Visits


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
