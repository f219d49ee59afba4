"""Synthetic city-scale location-update traces.

Users visit a fixed set of locations whose popularity is Zipf-distributed,
so a few hubs attract most visits and induce heterogeneous contact degrees.
Each user is active on a random subset of days; on an active day they make a
few non-overlapping visits, reporting positions on a roughly 15-minute
cadence with small spatial jitter around the location point. Update times
are whole minutes. Generation is deterministic under the configured seed:
each user draws from their own substream, one visit at a time (update
count, then the visit's uniforms, then its position offsets), and the
times, locations and positions are then computed once for the whole trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trace import MINUTES_PER_DAY, Updates

_STREAM_LAYOUT = 0
_STREAM_USER = 1

UPDATE_INTERVAL_MIN = 15.0
POSITION_JITTER_M = 3.0


@dataclass(frozen=True)
class SynthConfig:
    """Trace-generator parameters.

    ``active_day_probability`` models app-usage sparsity: with the defaults
    (32 days, 0.11) users appear on about 3.5 days. ``updates_per_visit``
    and ``visits_per_active_day`` are inclusive integer ranges.
    """

    n_users: int = 1000
    n_locations: int = 120
    area_m: tuple[float, float] = (4000.0, 4000.0)
    days: int = 32
    updates_per_visit: tuple[int, int] = (3, 8)
    visits_per_active_day: tuple[int, int] = (1, 3)
    active_day_probability: float = 0.11
    zipf_exponent: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_users < 0:
            raise ValueError("n_users must be non-negative")
        for name in ("n_locations", "days"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.active_day_probability <= 1.0:
            raise ValueError("active_day_probability must be in [0, 1]")
        for name in ("updates_per_visit", "visits_per_active_day"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ValueError(f"invalid range for {name}")
        if not math.isfinite(self.zipf_exponent):
            raise ValueError(f"zipf_exponent must be finite, got {self.zipf_exponent!r}")
        if len(self.area_m) != 2 or not all(math.isfinite(side) and side > 40.0
                                            for side in self.area_m):
            raise ValueError("area_m must be (width, height), each finite and over "
                             f"40 m, got {self.area_m!r}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


def desk_profile(rng_seed: int = 0) -> SynthConfig:
    """Trace profile sized for minutes-scale experiment sweeps.

    Short visits with heavy hub turnover: concurrent overlaps stay brief
    while the indirect window keeps reaching later arrivals, which is the
    regime where direct-only and full networks diverge most.
    """
    return SynthConfig(
        n_users=2000,
        n_locations=45,
        area_m=(3000.0, 3000.0),
        days=14,
        updates_per_visit=(2, 4),
        visits_per_active_day=(2, 5),
        active_day_probability=0.35,
        zipf_exponent=1.25,
        rng_seed=rng_seed,
    )


def location_layout(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Location positions (inside the area with a margin) and visit weights."""
    rng = np.random.default_rng(
        np.random.SeedSequence((cfg.rng_seed, _STREAM_LAYOUT))
    )
    margin = 10.0
    width, height = cfg.area_m
    xy = np.column_stack([
        rng.uniform(margin, width - margin, cfg.n_locations),
        rng.uniform(margin, height - margin, cfg.n_locations),
    ])
    ranks = np.arange(1, cfg.n_locations + 1, dtype=np.float64)
    weights = ranks ** -cfg.zipf_exponent
    weights /= weights.sum()
    return xy, weights


def generate_trace(cfg: SynthConfig) -> Updates:
    """Generate updates for every user with at least one."""
    # _rng loads numpy.random, which the metrics commands never need
    from ._rng import generator, mix
    loc_xy, loc_weights = location_layout(cfg)
    # Generator.choice(n, p=w)'s own search, without its per-call checks
    cdf = np.cumsum(loc_weights)
    cdf /= cdf[-1]
    interval = UPDATE_INTERVAL_MIN
    (v_lo, v_hi), (u_lo, u_hi) = cfg.visits_per_active_day, cfg.updates_per_visit
    id_width = max(4, len(str(max(cfg.n_users - 1, 0))))

    # each visit's (user, day, k, n_visits, n_upd), its 2 + n_upd uniforms
    # (start slack, location, one time jitter per update) and its offsets
    visits, draws, offsets = [], [np.empty(0)], [np.empty((0, 2))]
    seeds = mix(cfg.rng_seed, _STREAM_USER, np.arange(cfg.n_users))
    for user, words in enumerate(seeds):
        rng = generator(words)
        active = rng.random(cfg.days) < cfg.active_day_probability
        for day in np.flatnonzero(active).tolist():
            n_visits = int(rng.integers(v_lo, v_hi + 1))
            for k in range(n_visits):
                n_upd = int(rng.integers(u_lo, u_hi + 1))
                visits.append((user, day, k, n_visits, n_upd))
                draws.append(rng.random(2 + n_upd))
                offsets.append(rng.normal(0.0, POSITION_JITTER_M, size=(n_upd, 2)))

    owner, day, k, n_visits, n_upd = np.array(visits, dtype=np.int64).reshape(-1, 5).T
    d, off = np.concatenate(draws), np.concatenate(offsets)
    del visits, draws, offsets  # ~100 B of array header a visit, freed before the tail
    visit = np.repeat(np.arange(n_upd.size), n_upd)
    first = np.cumsum(n_upd) - n_upd  # each visit's first update
    row = np.arange(visit.size)
    head = first + 2 * np.arange(n_upd.size)  # each visit's first uniform
    # uniform(lo, hi) draws lo + (hi - lo) * d: these are its exact bits
    slot = MINUTES_PER_DAY / n_visits
    slack = np.maximum(slot - (n_upd - 1) * interval - interval, 1.0)
    start = day * MINUTES_PER_DAY + k * slot + (0.0 + slack * d[head])
    loc = cdf.searchsorted(d[head + 1], side="right")
    times = start[visit] + (row - first[visit]) * interval \
        + (-2.0 + 4.0 * d[row + 2 * visit + 2])
    t = np.maximum(times, 0.0).round().astype(np.int64)
    # each visit's running maximum: lifting visit i by i * (max t + 1) keeps
    # every visit's times above all of the visits before it
    lift = visit * (t.max(initial=0) + 1)
    t = np.maximum.accumulate(t + lift) - lift

    norm = np.hypot(*off.T)
    too_far = norm > 3.0 * POSITION_JITTER_M  # well inside the visit radius
    off[too_far] *= (3.0 * POSITION_JITTER_M / norm[too_far])[:, None]
    x, y = (loc_xy[loc[visit]] + off).T
    present, user = np.unique(owner[visit], return_inverse=True)
    users = [f"u{u:0{id_width}d}" for u in present.tolist()]
    # each user's rows in (t, x, y) order, as a sort of those tuples gives
    order = np.lexsort((y, x, t, user))
    return Updates(users, user[order], t[order], x[order], y[order])
