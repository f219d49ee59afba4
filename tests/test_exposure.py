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
    default_env,
    infection_probability,
    link_exposure,
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
    bound = env.p * max(window, 0.0) * env.g / (env.r * env.V)
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
    assert infection_probability(merged, 0.33) == pytest.approx(
        infection_probability(whole, 0.33), rel=1e-9, abs=1e-12
    )


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
