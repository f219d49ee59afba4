"""Exposure model: closed forms against an independent quadrature oracle,
plus the analytic edge cases and ordering properties."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spdt.epidemic import SimulationConfig
from spdt.exposure import (
    EnvironmentParams,
    LinkInterval,
    concentration_after_departure,
    concentration_during_presence,
    default_env,
    emit_concentration_curve,
    infection_probability,
    link_exposure,
    total_exposure,
    write_concentration_csv,
)

ENV = default_env(r=1.0 / 60.0)


def oracle_dose(env, t_s, t_l, t_s_n, t_l_n):
    """Adaptive quadrature of p * C(t) over the neighbour's presence window.

    C is written out directly (rise while the host is present, exponential
    decay after), independent of the closed-form path under test.
    """

    def conc(t):
        if t <= t_l:
            return (env.g / (env.r * env.V)) * (1.0 - math.exp(-env.r * (t - t_s)))
        return (
            (env.g / (env.r * env.V))
            * (1.0 - math.exp(-env.r * (t_l - t_s)))
            * math.exp(-env.r * (t - t_l))
        )

    a, b = max(t_s, t_s_n), t_l_n
    total = 0.0
    if a < min(b, t_l):
        total += quad(conc, a, min(b, t_l), epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    if max(a, t_l) < b:
        total += quad(conc, max(a, t_l), b, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    return env.p * total


class TestEnvironmentParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            EnvironmentParams(g=0.0, V=1.0, p=1.0, r=1.0)
        with pytest.raises(ValueError):
            EnvironmentParams(g=1.0, V=1.0, p=1.0, r=-2.0)

    def test_steady_state_value(self):
        # canonical parameters saturate just below 0.436 PFU/m^3
        assert ENV.steady_state == pytest.approx(0.4357, abs=5e-5)


class TestLinkInterval:
    def test_case_classification_is_total(self):
        assert LinkInterval(0, 60, 10, 40).case == "direct"
        assert LinkInterval(0, 30, 10, 100).case == "mixed"
        assert LinkInterval(0, 30, 100, 150).case == "indirect"

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            LinkInterval(10, 5, 0, 20)
        with pytest.raises(ValueError):
            LinkInterval(0, 5, 20, 10)
        with pytest.raises(ValueError):
            LinkInterval(50, 60, 10, 40)  # neighbour gone before host arrives


class TestConcentration:
    def test_zero_at_arrival(self):
        assert concentration_during_presence(ENV, 5.0, 5.0) == 0.0

    def test_saturates_to_steady_state(self):
        c = concentration_during_presence(ENV, 0.0, 1e6)
        assert c == pytest.approx(ENV.steady_state, rel=1e-12)

    def test_strictly_increasing_and_bounded(self):
        values = [concentration_during_presence(ENV, 0.0, t) for t in (1, 10, 100, 500)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v < ENV.steady_state for v in values)

    def test_rejects_time_before_arrival(self):
        with pytest.raises(ValueError):
            concentration_during_presence(ENV, 10.0, 9.0)

    def test_smaller_removal_rate_higher_curve(self):
        # slower removal accumulates more particles at any fixed time
        slow, fast = default_env(r=1.0 / 60.0), default_env(r=1.0 / 10.0)
        for t in (5.0, 30.0, 200.0):
            assert concentration_during_presence(slow, 0.0, t) > \
                concentration_during_presence(fast, 0.0, t)

    def test_decay_continuous_at_departure(self):
        c_end = concentration_during_presence(ENV, 0.0, 200.0)
        c_start = concentration_after_departure(ENV, 0.0, 200.0, 200.0)
        assert c_start == pytest.approx(c_end, rel=1e-12)

    def test_decay_to_zero(self):
        assert concentration_after_departure(ENV, 0.0, 200.0, 1e7) == \
            pytest.approx(0.0, abs=1e-12)

    def test_decay_golden_value(self):
        # frozen closed-form evaluation, cross-checked by the dose oracle
        c = concentration_after_departure(ENV, 0.0, 200.0, 260.0)
        assert c == pytest.approx(0.15455599191413943, rel=1e-12)

    def test_decay_rejects_time_before_departure(self):
        with pytest.raises(ValueError):
            concentration_after_departure(ENV, 0.0, 100.0, 99.0)


class TestLinkExposure:
    def test_zero_duration_presence(self):
        assert link_exposure(ENV, LinkInterval(0, 60, 30, 30)) == 0.0

    def test_direct_only_golden(self):
        got = link_exposure(ENV, LinkInterval(0, 60, 10, 40))
        assert got == pytest.approx(0.03272784351394956, rel=1e-9)

    def test_mixed_golden(self):
        got = link_exposure(ENV, LinkInterval(0, 30, 10, 100))
        assert got == pytest.approx(0.07142606580328494, rel=1e-9)

    def test_indirect_only_golden(self):
        got = link_exposure(ENV, LinkInterval(0, 30, 100, 150))
        assert got == pytest.approx(0.01358188800236834, rel=1e-9)

    def test_mixed_equals_sum_of_segments(self):
        whole = link_exposure(ENV, LinkInterval(0, 30, 10, 100))
        direct = link_exposure(ENV, LinkInterval(0, 30, 10, 30))
        indirect = link_exposure(ENV, LinkInterval(0, 30, 30, 100))
        assert whole == pytest.approx(direct + indirect, rel=1e-12)

    def test_neighbour_before_host_clamped(self):
        # arrival before the host only counts from the host's arrival
        early = link_exposure(ENV, LinkInterval(10, 60, 0, 40))
        at_host = link_exposure(ENV, LinkInterval(10, 60, 10, 40))
        assert early == pytest.approx(at_host, rel=1e-12)

    def test_case_continuity_at_departure_boundary(self):
        below = link_exposure(ENV, LinkInterval(0, 60, 10, 60 - 1e-7))
        at = link_exposure(ENV, LinkInterval(0, 60, 10, 60))
        above = link_exposure(ENV, LinkInterval(0, 60, 10, 60 + 1e-7))
        assert at == pytest.approx(below, rel=1e-6)
        assert at == pytest.approx(above, rel=1e-6)


link_strategy = st.tuples(
    st.floats(0.0, 5000.0),      # t_s
    st.floats(0.1, 600.0),       # stay
    st.floats(-100.0, 500.0),    # neighbour arrival offset from t_s
    st.floats(0.1, 400.0),       # presence duration
    st.floats(1.0 / 300.0, 1.0 / 7.5),  # removal rate
).filter(lambda v: v[0] + v[2] + v[3] > v[0])  # t_l_n > t_s


def _mk(v):
    t_s, stay, off, dur, r = v
    return default_env(r=r), LinkInterval(t_s, t_s + stay, t_s + off, t_s + off + dur)


@given(link_strategy)
@settings(max_examples=150)
def test_exposure_matches_quadrature(v):
    env, link = _mk(v)
    closed = link_exposure(env, link)
    expected = oracle_dose(env, link.t_s, link.t_l, link.t_s_n, link.t_l_n)
    assert closed == pytest.approx(expected, rel=1e-8, abs=1e-12)


def merged_formula(env, link):
    """Single-expression dose with the case selector and arrival clamp.

    Algebraically this collapses the per-segment forms into one bracket;
    kept here as an independent transcription to pin the equivalence.
    """
    r, scale = env.r, env.g * env.p / (env.V * env.r * env.r)
    t_s, t_l = link.t_s, link.t_l
    t_s_n = max(link.t_s_n, t_s)  # neighbour inhales only from host arrival
    t_l_n = link.t_l_n
    if t_l_n <= t_l:
        t_i = t_l_n
    elif t_s_n >= t_l:
        t_i = t_s_n
    else:
        t_i = t_l
    return scale * (
        r * (t_i - t_s_n)
        + math.exp(r * t_l) * (math.exp(-r * t_i) - math.exp(-r * t_l_n))
        + math.exp(r * t_s) * (math.exp(-r * t_l_n) - math.exp(-r * t_s_n))
    )


@given(link_strategy)
@settings(max_examples=150)
def test_casewise_equals_merged_formula(v):
    # the one-bracket transcription and the per-segment sum agree for every
    # case; times are shifted near zero so the e^{rt} factors stay in range
    env, link = _mk(v)
    shift = link.t_s
    local = LinkInterval(0.0, link.t_l - shift,
                         link.t_s_n - shift, link.t_l_n - shift)
    assert link_exposure(env, local) == pytest.approx(
        merged_formula(env, local), rel=1e-7, abs=1e-12)


@given(link_strategy, st.floats(1.0, 50.0))
def test_exposure_monotone_in_departure(v, extra):
    env, link = _mk(v)
    longer = LinkInterval(link.t_s, link.t_l, link.t_s_n, link.t_l_n + extra)
    assert link_exposure(env, longer) >= link_exposure(env, link)


@given(link_strategy, st.floats(1.0, 50.0))
def test_exposure_monotone_in_arrival(v, extra):
    env, link = _mk(v)
    if link.t_s_n + extra > link.t_l_n:
        return
    later = LinkInterval(link.t_s, link.t_l, link.t_s_n + extra, link.t_l_n)
    assert link_exposure(env, later) <= link_exposure(env, link) + 1e-15


@given(link_strategy, st.floats(1.1, 3.0))
def test_exposure_monotone_in_generation_and_breathing(v, factor):
    env, link = _mk(v)
    base = link_exposure(env, link)
    more_g = EnvironmentParams(env.g * factor, env.V, env.p, env.r)
    more_p = EnvironmentParams(env.g, env.V, env.p * factor, env.r)
    assert link_exposure(more_g, link) >= base
    assert link_exposure(more_p, link) >= base


@given(link_strategy)
def test_exposure_bounded_by_steady_state_inhalation(v):
    env, link = _mk(v)
    window = link.t_l_n - max(link.t_s, link.t_s_n)
    bound = env.p * max(window, 0.0) * env.steady_state
    assert link_exposure(env, link) <= bound * (1 + 1e-12)


@given(link_strategy, st.floats(0.05, 0.95))
def test_exposure_additive_over_presence_split(v, frac):
    env, link = _mk(v)
    mid = link.t_s_n + frac * (link.t_l_n - link.t_s_n)
    if not (link.t_s_n < mid < link.t_l_n and mid > link.t_s):
        return
    left = LinkInterval(link.t_s, link.t_l, link.t_s_n, mid)
    right = LinkInterval(link.t_s, link.t_l, mid, link.t_l_n)
    merged = link_exposure(env, left) + link_exposure(env, right)
    whole = link_exposure(env, link)
    assert merged == pytest.approx(whole, rel=1e-9, abs=1e-12)
    # the dose-response of the total is therefore split-invariant too
    assert infection_probability(total_exposure([merged]), 0.33) == pytest.approx(
        infection_probability(whole, 0.33), rel=1e-9, abs=1e-12
    )


class TestTotalExposure:
    def test_empty(self):
        assert total_exposure([]) == 0.0

    def test_arithmetic(self):
        assert total_exposure([1.0, 2.0, 0.5]) == 3.5

    def test_linearity_for_identical_links(self):
        single = link_exposure(ENV, LinkInterval(0, 60, 10, 40))
        assert total_exposure([single] * 7) == pytest.approx(7 * single, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            total_exposure([1.0, -0.5])


class TestInfectionProbability:
    def test_zero_exposure(self):
        assert infection_probability(0.0, 0.33) == 0.0

    def test_half_infection_anchor(self):
        # 2.1 PFU at the default infectiousness infects half the susceptibles
        assert infection_probability(2.1, 0.33) == pytest.approx(0.5, abs=1e-3)

    def test_saturates_below_one(self):
        assert infection_probability(1e9, 0.33) == pytest.approx(1.0, abs=1e-12)
        assert infection_probability(1e9, 0.33) < 1.0 or \
            infection_probability(1e9, 0.33) == 1.0  # float saturation allowed

    def test_monotone(self):
        probs = [infection_probability(e, 0.33) for e in (0.1, 1.0, 5.0)]
        assert probs == sorted(probs)
        assert infection_probability(1.0, 0.5) > infection_probability(1.0, 0.33)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            infection_probability(-0.1, 0.33)
        with pytest.raises(ValueError):
            infection_probability(1.0, 0.0)


class TestDiseaseParams:
    """The disease-level constants (sigma, infectious period) live on
    SimulationConfig; a zero period bound or a negative sigma is refused."""

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            SimulationConfig(tau_range=(0, 5))
        with pytest.raises(ValueError):
            SimulationConfig(sigma=-1.0)


class TestConcentrationCurve:
    def test_junction_sampled_once(self):
        pts = emit_concentration_curve(ENV, 0.0, 100.0, 100.0, 10.0)
        times = [t for t, _ in pts]
        assert times.count(100.0) == 1
        assert times[-1] == 100.0

    def test_decay_ordering_across_removal_times(self):
        # slower removal: higher plateau and slower post-departure decay
        curves = {
            r_t: emit_concentration_curve(default_env(r=1.0 / r_t), 0, 200, 400, 5.0)
            for r_t in (10.0, 30.0, 60.0)
        }
        peak = {r_t: max(c for _, c in pts) for r_t, pts in curves.items()}
        assert peak[10.0] < peak[30.0] < peak[60.0]
        tail = {r_t: dict(pts)[300.0] for r_t, pts in curves.items()}
        assert tail[10.0] < tail[30.0] < tail[60.0]

    def test_values_bounded(self):
        pts = emit_concentration_curve(ENV, 0.0, 200.0, 500.0, 7.0)
        assert all(0.0 <= c <= ENV.steady_state for _, c in pts)

    def test_rejects_bad_step_and_horizon(self):
        with pytest.raises(ValueError):
            emit_concentration_curve(ENV, 0.0, 10.0, 20.0, 0.0)
        with pytest.raises(ValueError):
            emit_concentration_curve(ENV, 0.0, 10.0, 5.0, 1.0)

    def test_csv_round_trip(self, tmp_path):
        pts = emit_concentration_curve(ENV, 0.0, 60.0, 120.0, 15.0)
        path = tmp_path / "curve.csv"
        write_concentration_csv(pts, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_min,concentration_pfu_m3"
        assert len(lines) == len(pts) + 1
        t, c = lines[1].split(",")
        assert float(t) == pts[0][0] and float(c) == pts[0][1]
