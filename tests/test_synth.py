"""Synthetic trace generator: schema, determinism, sparsity target."""

import numpy as np
import pytest

from spdt.synth import SynthConfig, desk_profile, generate_trace, location_layout
from spdt.trace import parse_trace, write_trace_csv

MINUTES_PER_DAY = 1440


def test_empty_population():
    assert generate_trace(SynthConfig(n_users=0)) == []


def test_deterministic_under_seed():
    cfg = SynthConfig(n_users=40, days=6, rng_seed=42)
    assert generate_trace(cfg) == generate_trace(cfg)
    other = SynthConfig(n_users=40, days=6, rng_seed=43)
    assert generate_trace(other) != generate_trace(cfg)


def test_trace_schema_round_trip(tmp_path):
    updates = generate_trace(SynthConfig(n_users=25, days=4, rng_seed=1))
    path = tmp_path / "trace.csv"
    write_trace_csv(updates, path)
    parsed = parse_trace(path)
    assert parsed.skipped == 0
    assert len(parsed.updates) == len(updates)


def test_positions_inside_area():
    cfg = SynthConfig(n_users=60, days=5, rng_seed=2, area_m=(500.0, 300.0))
    for upd in generate_trace(cfg):
        assert 0.0 <= upd.x <= 500.0
        assert 0.0 <= upd.y <= 300.0


def test_times_sorted_and_nonnegative():
    cfg = SynthConfig(n_users=30, days=5, rng_seed=3)
    updates = generate_trace(cfg)
    by_user: dict[str, list[float]] = {}
    for upd in updates:
        assert upd.t >= 0
        by_user.setdefault(upd.user_id, []).append(upd.t)
    for times in by_user.values():
        assert times == sorted(times)


def test_every_user_every_day_when_probability_one():
    cfg = SynthConfig(n_users=12, days=5, rng_seed=4, active_day_probability=1.0)
    updates = generate_trace(cfg)
    seen = {(u.user_id, int(u.t // MINUTES_PER_DAY)) for u in updates}
    for user in range(12):
        for day in range(5):
            assert (f"u{user:04d}", day) in seen


def test_sparsity_targets_three_and_a_half_days():
    cfg = SynthConfig(n_users=1000, days=32, rng_seed=5)  # default sparsity
    updates = generate_trace(cfg)
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
    updates = generate_trace(cfg)
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
    ("position_jitter_m", float("nan")),
    ("position_jitter_m", float("inf")),
    ("position_jitter_m", -1.0),
    ("update_interval_min", float("inf")),
    ("update_interval_min", float("nan")),
    ("update_interval_min", 0.0),
    ("zipf_exponent", float("nan")),
    ("zipf_exponent", float("inf")),
    ("area_m", (float("nan"), 500.0)),
    ("area_m", (500.0, float("inf"))),
])
def test_non_finite_fields_named(field, value):
    with pytest.raises(ValueError, match=field):
        SynthConfig(**{field: value})


def test_zero_jitter_accepted():
    updates = generate_trace(SynthConfig(n_users=5, days=2, rng_seed=1,
                                         position_jitter_m=0.0))
    assert all(np.isfinite([u.x for u in updates]))
