"""Synthetic city-scale location-update traces.

Users visit a fixed set of locations whose popularity is Zipf-distributed,
so a few hubs attract most visits and induce heterogeneous contact degrees.
Each user is active on a random subset of days; on an active day they make a
few non-overlapping visits, reporting positions on a roughly 15-minute
cadence with small spatial jitter around the location point. Update times
are whole minutes. Generation is deterministic under the configured seed
(per-user substreams, so it could be parallelised without changing output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exposure import check_positive
from .trace import MINUTES_PER_DAY, LocationUpdate

_STREAM_LAYOUT = 0
_STREAM_USER = 1


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
    update_interval_min: float = 15.0
    zipf_exponent: float = 1.0
    position_jitter_m: float = 3.0
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
        check_positive("update_interval_min", self.update_interval_min)
        if not math.isfinite(self.zipf_exponent):
            raise ValueError(f"zipf_exponent must be finite, got {self.zipf_exponent!r}")
        if not (math.isfinite(self.position_jitter_m) and self.position_jitter_m >= 0):
            raise ValueError("position_jitter_m must be non-negative and finite, "
                             f"got {self.position_jitter_m!r}")
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


def _jitter(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    """Gaussian planar jitter clipped to stay well inside the visit radius."""
    off = rng.normal(0.0, scale, size=(n, 2))
    norm = np.hypot(off[:, 0], off[:, 1])
    cap = 3.0 * scale
    too_far = norm > cap
    if np.any(too_far):
        off[too_far] *= (cap / norm[too_far])[:, None]
    return off


def generate_trace(cfg: SynthConfig) -> list[LocationUpdate]:
    """Generate updates for every user, sorted by (user_id, time)."""
    loc_xy, loc_weights = location_layout(cfg)
    interval = cfg.update_interval_min
    v_lo, v_hi = cfg.visits_per_active_day
    u_lo, u_hi = cfg.updates_per_visit
    id_width = max(4, len(str(max(cfg.n_users - 1, 0))))

    updates: list[LocationUpdate] = []
    for user in range(cfg.n_users):
        rng = np.random.default_rng(
            np.random.SeedSequence((cfg.rng_seed, _STREAM_USER, user))
        )
        user_id = f"u{user:0{id_width}d}"
        active = rng.random(cfg.days) < cfg.active_day_probability
        rows: list[tuple[int, float, float]] = []
        for day in np.flatnonzero(active).tolist():
            n_visits = int(rng.integers(v_lo, v_hi + 1))
            slot = MINUTES_PER_DAY / n_visits
            for k in range(n_visits):
                n_upd = int(rng.integers(u_lo, u_hi + 1))
                duration = (n_upd - 1) * interval
                slack = max(slot - duration - interval, 1.0)
                start = day * MINUTES_PER_DAY + k * slot + rng.uniform(0.0, slack)
                loc = int(rng.choice(cfg.n_locations, p=loc_weights))
                times = start + np.arange(n_upd) * interval \
                    + rng.uniform(-2.0, 2.0, n_upd)
                times = np.maximum.accumulate(np.round(np.maximum(times, 0.0)))
                times = times.astype(np.int64)
                offsets = _jitter(rng, n_upd, cfg.position_jitter_m)
                for i in range(n_upd):
                    rows.append((
                        int(times[i]),
                        float(loc_xy[loc, 0] + offsets[i, 0]),
                        float(loc_xy[loc, 1] + offsets[i, 1]),
                    ))
        rows.sort()
        updates.extend(LocationUpdate(user_id, float(t), x, y) for t, x, y in rows)
    return updates
