"""Synthetic trace generator: schema, determinism, sparsity target, and a
differential check against the generator stated one update at a time."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdt import synth
from spdt.synth import SynthConfig, desk_profile, generate_trace, location_layout
from spdt.trace import parse_trace, write_trace_csv
from tracerows import update_rows

MINUTES_PER_DAY = 1440


def test_empty_population():
    updates = generate_trace(SynthConfig(n_users=0))
    assert len(updates) == 0 and updates.users == ()


def test_deterministic_under_seed():
    cfg = SynthConfig(n_users=40, days=6, rng_seed=42)
    assert update_rows(generate_trace(cfg)) == update_rows(generate_trace(cfg))
    other = SynthConfig(n_users=40, days=6, rng_seed=43)
    assert update_rows(generate_trace(other)) != update_rows(generate_trace(cfg))


def test_trace_schema_round_trip(tmp_path):
    updates = generate_trace(SynthConfig(n_users=25, days=4, rng_seed=1))
    path = tmp_path / "trace.csv"
    write_trace_csv(updates, path)
    parsed = parse_trace(path)
    assert parsed.skipped == 0
    assert update_rows(parsed.updates) == update_rows(updates)


def test_positions_inside_area():
    cfg = SynthConfig(n_users=60, days=5, rng_seed=2, area_m=(500.0, 300.0))
    for upd in update_rows(generate_trace(cfg)):
        assert 0.0 <= upd.x <= 500.0
        assert 0.0 <= upd.y <= 300.0


def test_times_sorted_and_nonnegative():
    cfg = SynthConfig(n_users=30, days=5, rng_seed=3)
    updates = update_rows(generate_trace(cfg))
    by_user: dict[str, list[float]] = {}
    for upd in updates:
        assert upd.t >= 0
        by_user.setdefault(upd.user_id, []).append(upd.t)
    for times in by_user.values():
        assert times == sorted(times)


def test_every_user_every_day_when_probability_one():
    cfg = SynthConfig(n_users=12, days=5, rng_seed=4, active_day_probability=1.0)
    updates = update_rows(generate_trace(cfg))
    seen = {(u.user_id, int(u.t // MINUTES_PER_DAY)) for u in updates}
    for user in range(12):
        for day in range(5):
            assert (f"u{user:04d}", day) in seen


def test_sparsity_targets_three_and_a_half_days():
    cfg = SynthConfig(n_users=1000, days=32, rng_seed=5)  # default sparsity
    updates = update_rows(generate_trace(cfg))
    active: dict[str, set[int]] = {}
    for u in updates:
        active.setdefault(u.user_id, set()).add(int(u.t // MINUTES_PER_DAY))
    mean_days = np.mean([len(days) for days in active.values()])
    assert abs(mean_days - 3.5) <= 0.2 * 3.5


def test_zipf_layout_weights():
    xy, weights = location_layout(SynthConfig(n_locations=50, zipf_exponent=1.0))
    assert xy.shape == (50, 2)
    assert weights[0] == max(weights)
    assert np.isclose(weights.sum(), 1.0)
    assert weights[0] / weights[9] == pytest.approx(10.0, rel=1e-9)


def test_hub_bias_shows_in_visit_counts():
    cfg = SynthConfig(n_users=300, days=6, rng_seed=6, n_locations=30,
                      zipf_exponent=1.2)
    xy, _ = location_layout(cfg)
    updates = update_rows(generate_trace(cfg))
    counts = np.zeros(30)
    for u in updates:
        counts[np.argmin(np.hypot(xy[:, 0] - u.x, xy[:, 1] - u.y))] += 1
    assert counts.max() >= 5 * np.median(counts[counts > 0])


def test_desk_profile_shape():
    cfg = desk_profile(rng_seed=9)
    assert cfg.n_users == 2000 and cfg.days == 14
    assert cfg.rng_seed == 9


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        SynthConfig(n_users=-1)
    with pytest.raises(ValueError):
        SynthConfig(active_day_probability=1.5)
    with pytest.raises(ValueError):
        SynthConfig(updates_per_visit=(0, 3))


@pytest.mark.parametrize("field, value", [
    ("zipf_exponent", float("nan")),
    ("zipf_exponent", float("inf")),
    ("area_m", (float("nan"), 500.0)),
    ("area_m", (500.0, float("inf"))),
    ("area_m", (500.0,)),
    ("area_m", (500.0, 600.0, 700.0)),
])
def test_non_finite_fields_named(field, value):
    with pytest.raises(ValueError, match=field):
        SynthConfig(**{field: value})


def _jitter(rng, n, scale):
    """Gaussian planar jitter clipped to stay well inside the visit radius."""
    off = rng.normal(0.0, scale, size=(n, 2))
    norm = np.hypot(off[:, 0], off[:, 1])
    cap = 3.0 * scale
    too_far = norm > cap
    if too_far.any():
        off[too_far] *= (cap / norm[too_far])[:, None]
    return off


def reference_trace(cfg):
    """The generator stated one update at a time, with ``Generator.choice``
    drawing the location and each user's rows sorted as (t, x, y) tuples."""
    loc_xy, loc_weights = location_layout(cfg)
    interval = synth.UPDATE_INTERVAL_MIN
    id_width = max(4, len(str(max(cfg.n_users - 1, 0))))
    updates = []
    for user in range(cfg.n_users):
        rng = np.random.default_rng(
            np.random.SeedSequence((cfg.rng_seed, synth._STREAM_USER, user)))
        active = rng.random(cfg.days) < cfg.active_day_probability
        rows = []
        for day in np.flatnonzero(active).tolist():
            n_visits = int(rng.integers(cfg.visits_per_active_day[0],
                                        cfg.visits_per_active_day[1] + 1))
            slot = MINUTES_PER_DAY / n_visits
            for k in range(n_visits):
                n_upd = int(rng.integers(cfg.updates_per_visit[0],
                                         cfg.updates_per_visit[1] + 1))
                slack = max(slot - (n_upd - 1) * interval - interval, 1.0)
                start = day * MINUTES_PER_DAY + k * slot + rng.uniform(0.0, slack)
                loc = int(rng.choice(cfg.n_locations, p=loc_weights))
                times = start + np.arange(n_upd) * interval \
                    + rng.uniform(-2.0, 2.0, n_upd)
                times = np.maximum.accumulate(np.round(np.maximum(times, 0.0)))
                offsets = _jitter(rng, n_upd, synth.POSITION_JITTER_M)
                for i in range(n_upd):
                    rows.append((int(times[i]), float(loc_xy[loc, 0] + offsets[i, 0]),
                                 float(loc_xy[loc, 1] + offsets[i, 1])))
        rows.sort()
        updates += [(f"u{user:0{id_width}d}", float(t), x, y) for t, x, y in rows]
    return updates


@pytest.mark.parametrize("cfg, interval", [
    (SynthConfig(n_users=30, days=4, rng_seed=7), synth.UPDATE_INTERVAL_MIN),
    # half-minute reports round onto tied minutes, and 20 updates overrun
    # their slot, so visits overlap: rows tie on time and sort by position
    (SynthConfig(n_users=20, days=2, rng_seed=8, updates_per_visit=(5, 20),
                 visits_per_active_day=(40, 60), active_day_probability=0.7,
                 n_locations=3, zipf_exponent=0.0), 0.5),
], ids=["default", "tied-and-overlapping"])
def test_matches_per_update_reference(cfg, interval):
    with mock.patch.object(synth, "UPDATE_INTERVAL_MIN", interval):
        rows = update_rows(generate_trace(cfg))
        assert [tuple(r) for r in rows] == reference_trace(cfg)
    if interval < 1.0:
        assert len({(r.user_id, r.t) for r in rows}) < len(rows)


@st.composite
def small_configs(draw):
    """Small traces: short ones, ones whose visits overrun their slots and
    overlap, and long horizons whose times pass 10^7 minutes."""
    long = draw(st.booleans())
    u_lo = draw(st.integers(1, 4))
    v_lo = draw(st.integers(1, 30))
    return SynthConfig(
        n_users=draw(st.integers(0, 5)),
        n_locations=draw(st.integers(1, 6)),
        days=draw(st.integers(8_000, 9_000) if long else st.integers(1, 3)),
        updates_per_visit=(u_lo, draw(st.integers(u_lo, u_lo + 16))),
        visits_per_active_day=(v_lo, draw(st.integers(v_lo, v_lo + 30))),
        active_day_probability=draw(st.sampled_from([0.0005, 0.002]) if long
                                    else st.sampled_from([0.3, 1.0])),
        zipf_exponent=draw(st.sampled_from([0.0, 1.0, 2.5])),
        rng_seed=draw(st.integers(0, 2**40)),
    )


@settings(max_examples=40, deadline=None)
@given(cfg=small_configs(), interval=st.sampled_from([synth.UPDATE_INTERVAL_MIN, 0.5]))
@example(cfg=SynthConfig(n_users=0), interval=synth.UPDATE_INTERVAL_MIN)
@example(cfg=SynthConfig(n_users=4, days=8_500, active_day_probability=0.002,
                         updates_per_visit=(1, 3), rng_seed=3), interval=0.5)
def test_matches_reference_on_random_configs(cfg, interval):
    with mock.patch.object(synth, "UPDATE_INTERVAL_MIN", interval):
        rows = [tuple(r) for r in update_rows(generate_trace(cfg))]
        assert rows == reference_trace(cfg)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), slack=st.floats(1.0, 2000.0),
       n=st.integers(1, 40))
def test_uniform_draws_are_scaled_doubles(seed, slack, n):
    # generate_trace draws a visit's uniform(0, slack), random() and
    # uniform(-2, 2, n) as one random(2 + n) and scales them itself
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = np.hstack([a.uniform(0.0, slack), a.random(), a.uniform(-2.0, 2.0, n),
                       a.random()])
    d = b.random(2 + n)
    scaled = np.hstack([0.0 + slack * d[0], d[1], -2.0 + 4.0 * d[2:], b.random()])
    assert drawn.tobytes() == scaled.tobytes()


DESK_GOLDEN = {
    "2.4.6": "452ac1ef4327e32a63ea4e3bf5e22f7e13f851f0e93c1feb3a5ad7c00acbea5e",
}


def test_desk_trace_matches_golden_digest():
    # the trace behind the desk-scale experiments and the benchmark: its
    # users, then its user, t, x and y columns; keyed, like the other
    # goldens, by the numpy version whose streams it was recorded with
    updates = generate_trace(desk_profile(0))
    digest = hashlib.sha256("\n".join(updates.users).encode())
    for col in (updates.user, updates.t, updates.x, updates.y):
        digest.update(col.tobytes())
    golden = DESK_GOLDEN.get(np.__version__)
    if golden is None:
        pytest.skip(f"no desk trace digest recorded for numpy {np.__version__}; "
                    f"this run gave {digest.hexdigest()!r}")
    assert digest.hexdigest() == golden
