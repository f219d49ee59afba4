"""Exposure model: the dose kernel's closed forms against an independent
quadrature oracle, the analytic edge cases and ordering properties, and the
dose-response conversion the simulator draws infections with."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spdt._kernel import batch_link_exposure
from spdt.epidemic import SimulationConfig
from spdt.exposure import (
    DEFAULT_GENERATION_RATE as G,
    DEFAULT_PROXIMITY_VOLUME as V,
    DEFAULT_PULMONARY_RATE as P,
    infection_probability,
)

R = 1.0 / 60.0


def doses(links, r=R, g=G, V=V, p=P):
    """Kernel doses of (t_s, t_l, t_s_n, t_l_n) links, in one call."""
    t_s, t_l, t_s_n, t_l_n = np.array(links, dtype=np.float64).reshape(-1, 4).T
    return batch_link_exposure(t_s, t_l, t_s_n, t_l_n, np.full(t_s.size, r), g, V, p)


def oracle_dose(r, t_s, t_l, t_s_n, t_l_n, g=G, V=V, p=P):
    """Adaptive quadrature of p * C(t) over the neighbour's presence window.

    C is written out directly (rise while the host is present, exponential
    decay after), independent of the closed-form path under test.
    """

    def conc(t):
        if t <= t_l:
            return (g / (r * V)) * (1.0 - math.exp(-r * (t - t_s)))
        return (g / (r * V)) * (1.0 - math.exp(-r * (t_l - t_s))) * math.exp(-r * (t - t_l))

    a, b = max(t_s, t_s_n), t_l_n
    total = 0.0
    if a < min(b, t_l):
        total += quad(conc, a, min(b, t_l), epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    if max(a, t_l) < b:
        total += quad(conc, max(a, t_l), b, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    return p * total


class TestLinkExposure:
    def test_zero_duration_presence(self):
        assert doses([(0, 60, 30, 30)])[0] == 0.0

    def test_direct_only_golden(self):
        got = doses([(0, 60, 10, 40)])[0]
        assert got == pytest.approx(0.03272784351394956, rel=1e-9)

    def test_mixed_golden(self):
        got = doses([(0, 30, 10, 100)])[0]
        assert got == pytest.approx(0.07142606580328494, rel=1e-9)

    def test_indirect_only_golden(self):
        got = doses([(0, 30, 100, 150)])[0]
        assert got == pytest.approx(0.01358188800236834, rel=1e-9)

    def test_mixed_equals_sum_of_segments(self):
        whole, direct, indirect = doses([(0, 30, 10, 100), (0, 30, 10, 30),
                                         (0, 30, 30, 100)])
        assert whole == pytest.approx(direct + indirect, rel=1e-12)

    def test_neighbour_before_host_clamped(self):
        # arrival before the host only counts from the host's arrival
        early, at_host = doses([(10, 60, 0, 40), (10, 60, 10, 40)])
        assert early == pytest.approx(at_host, rel=1e-12)

    def test_case_continuity_at_departure_boundary(self):
        below, at, above = doses([(0, 60, 10, 60 - 1e-7), (0, 60, 10, 60),
                                  (0, 60, 10, 60 + 1e-7)])
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
    """The removal rate and the (t_s, t_l, t_s_n, t_l_n) link drawn."""
    t_s, stay, off, dur, r = v
    return r, (t_s, t_s + stay, t_s + off, t_s + off + dur)


@given(link_strategy)
@settings(max_examples=150)
def test_exposure_matches_quadrature(v):
    r, link = _mk(v)
    closed = doses([link], r)[0]
    assert closed == pytest.approx(oracle_dose(r, *link), rel=1e-8, abs=1e-12)


def merged_formula(r, t_s, t_l, t_s_n, t_l_n):
    """Single-expression dose with the case selector and arrival clamp.

    Algebraically this collapses the per-segment forms into one bracket;
    kept here as an independent transcription to pin the equivalence.
    """
    scale = G * P / (V * r * r)
    t_s_n = max(t_s_n, t_s)  # neighbour inhales only from host arrival
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
    r, link = _mk(v)
    local = tuple(t - link[0] for t in link)
    assert doses([local], r)[0] == pytest.approx(
        merged_formula(r, *local), rel=1e-7, abs=1e-12)


@given(link_strategy, st.floats(1.0, 50.0))
def test_exposure_monotone_in_departure(v, extra):
    r, (t_s, t_l, t_s_n, t_l_n) = _mk(v)
    base, longer = doses([(t_s, t_l, t_s_n, t_l_n), (t_s, t_l, t_s_n, t_l_n + extra)], r)
    assert longer >= base


@given(link_strategy, st.floats(1.0, 50.0))
def test_exposure_monotone_in_arrival(v, extra):
    r, (t_s, t_l, t_s_n, t_l_n) = _mk(v)
    if t_s_n + extra > t_l_n:
        return
    base, later = doses([(t_s, t_l, t_s_n, t_l_n), (t_s, t_l, t_s_n + extra, t_l_n)], r)
    assert later <= base + 1e-15


@given(link_strategy, st.floats(1.1, 3.0))
def test_exposure_monotone_in_generation_and_breathing(v, factor):
    r, link = _mk(v)
    base = doses([link], r)[0]
    assert doses([link], r, g=G * factor)[0] >= base
    assert doses([link], r, p=P * factor)[0] >= base


@given(link_strategy)
def test_exposure_bounded_by_steady_state_inhalation(v):
    r, (t_s, t_l, t_s_n, t_l_n) = _mk(v)
    window = t_l_n - max(t_s, t_s_n)
    bound = P * max(window, 0.0) * G / (r * V)
    assert doses([(t_s, t_l, t_s_n, t_l_n)], r)[0] <= bound * (1 + 1e-12)


@given(link_strategy, st.floats(0.05, 0.95))
def test_exposure_additive_over_presence_split(v, frac):
    r, (t_s, t_l, t_s_n, t_l_n) = _mk(v)
    mid = t_s_n + frac * (t_l_n - t_s_n)
    if not (t_s_n < mid < t_l_n and mid > t_s):
        return
    left, right, whole = doses([(t_s, t_l, t_s_n, mid), (t_s, t_l, mid, t_l_n),
                                (t_s, t_l, t_s_n, t_l_n)], r)
    merged = left + right
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
        for dose, sigma in ((-0.1, 0.33), (1.0, 0.0),
                            (np.array([0.5, -0.1, 2.0]), 0.33),
                            (np.array([0.5, 2.0]), 0.0)):
            with pytest.raises(ValueError):
                infection_probability(dose, sigma)

    def test_array_is_elementwise(self):
        # the simulator converts a block's summed doses in one call
        dose = np.array([0.0, 0.1, 1.0, 2.1, 5.0, 1e9])
        probs = infection_probability(dose, 0.33)
        assert probs.shape == dose.shape
        for k, d in enumerate(dose.tolist()):
            assert probs[k] == infection_probability(d, 0.33)


class TestDiseaseParams:
    """The disease-level constants (sigma, infectious period) live on
    SimulationConfig; a zero period bound or a negative sigma is refused."""

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            SimulationConfig(tau_range=(0, 5))
        with pytest.raises(ValueError):
            SimulationConfig(sigma=-1.0)
