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
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

MINUTES_PER_DAY = 1440

TRACE_HEADER = ("user_id", "t_min", "x_m", "y_m")
TRACE_HEADER_LATLON = ("user_id", "t_min", "lat", "lon")

EARTH_RADIUS_M = 6371000.0

DEFAULT_VISIT_RADIUS_M = 20.0
DEFAULT_VISIT_GAP_MIN = 30.0


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


@dataclass
class ParsedTrace:
    """Updates sorted by (user_id, t) plus the count of rows dropped as
    malformed, by reason; ``skipped`` is their total."""

    updates: list[LocationUpdate] = field(default_factory=list)
    skip_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def skipped(self) -> int:
        return sum(self.skip_reasons.values())

    def by_user(self) -> dict[str, list[LocationUpdate]]:
        grouped: dict[str, list[LocationUpdate]] = {}
        for upd in self.updates:
            grouped.setdefault(upd.user_id, []).append(upd)
        return grouped


def _project_equirectangular(rows: list[tuple[str, float, float, float]]):
    """Map (lat, lon) degrees to planar metres about the trace centroid.

    The lon centroid is circular and lon offsets are wrapped to
    (-180, 180], so a trace that straddles the antimeridian stays in one
    piece. City-scale traces make the projection error negligible relative
    to the 20 m co-location radius.
    """
    # sums run left to right, whatever the Python version (3.12's sum compensates)
    lat0 = math.radians(np.cumsum([r[2] for r in rows])[-1] / len(rows))
    lons = [math.radians(r[3]) for r in rows]
    lon0 = math.degrees(math.atan2(np.cumsum(list(map(math.sin, lons)))[-1],
                                   np.cumsum(list(map(math.cos, lons)))[-1]))
    cos_lat0 = math.cos(lat0)
    projected = []
    for user_id, t, lat, lon in rows:
        dlon = 180.0 - (180.0 - (lon - lon0)) % 360.0
        x = EARTH_RADIUS_M * cos_lat0 * math.radians(dlon)
        y = EARTH_RADIUS_M * (math.radians(lat) - lat0)
        projected.append((user_id, t, x, y))
    return projected


def parse_trace(source: str | Path | TextIO) -> ParsedTrace:
    """Parse a trace CSV into per-user time-sorted updates.

    The header names the coordinates: ``user_id,t_min,x_m,y_m`` for planar
    metres, or ``user_id,t_min,lat,lon`` for geographic degrees, which are
    converted to planar metres about the trace centroid; under the latter,
    rows with |lat| > 90 or |lon| > 180 are skipped. Rows with the wrong
    field count, non-numeric or non-finite values, or an empty user id are
    counted by reason and skipped too. A missing or other header raises.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return parse_trace(fh)

    header_line = source.readline()
    if not header_line:
        raise ValueError("empty trace: missing header")
    header = tuple(part.strip() for part in header_line.strip().split(","))
    if header not in (TRACE_HEADER, TRACE_HEADER_LATLON):
        raise ValueError(f"unparseable trace header {header_line.strip()!r}; "
                         f"expected {','.join(TRACE_HEADER)!r} or "
                         f"{','.join(TRACE_HEADER_LATLON)!r}")
    latlon = header == TRACE_HEADER_LATLON

    rows: list[tuple[str, float, float, float]] = []
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
            user_id = parts[0].strip()
            try:
                t, a, b = float(parts[1]), float(parts[2]), float(parts[3])
            except ValueError:
                reason = "non-numeric value"
            else:
                if not user_id:
                    reason = "empty user id"
                elif not all(map(math.isfinite, (t, a, b))):
                    reason = "non-finite value"
                elif latlon and not (abs(a) <= 90.0 and abs(b) <= 180.0):
                    reason = "lat/lon out of range"
        if reason is None:
            rows.append((user_id, t, a, b))
        else:
            reasons[reason] = reasons.get(reason, 0) + 1

    if latlon and rows:
        rows = _project_equirectangular(rows)

    updates = [LocationUpdate(u, t, x, y) for u, t, x, y in rows]
    updates.sort(key=lambda upd: (upd.user_id, upd.t))
    return ParsedTrace(updates=updates, skip_reasons=reasons)


def write_trace_csv(updates: Iterable[LocationUpdate], path: str | Path) -> None:
    """Write updates in the trace CSV format (`user_id,t_min,x_m,y_m`)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        for upd in updates:
            fh.write(f"{upd.user_id},{upd.t!r},{upd.x!r},{upd.y!r}\n")


def segment_visits(
    updates: Sequence[LocationUpdate],
    radius_m: float = DEFAULT_VISIT_RADIUS_M,
    max_gap_min: float = DEFAULT_VISIT_GAP_MIN,
) -> list[Visit]:
    """Greedy left-to-right segmentation of one user's time-sorted updates.

    A new visit starts when the next update is more than ``radius_m`` from
    the current visit's anchor or more than ``max_gap_min`` after the last
    assigned update. A single update yields a zero-duration visit; such
    visits are retained because the host's particles persist after departure.
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


def segment_all(
    parsed: ParsedTrace,
    radius_m: float = DEFAULT_VISIT_RADIUS_M,
    max_gap_min: float = DEFAULT_VISIT_GAP_MIN,
) -> list[Visit]:
    """Segment every user's updates; output ordered by (user_id, t_start)."""
    grouped = parsed.by_user()
    visits: list[Visit] = []
    for user_id in sorted(grouped):
        visits.extend(segment_visits(grouped[user_id], radius_m, max_gap_min))
    return visits
