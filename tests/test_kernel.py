"""The dose kernel: backend report, block evaluation, the class kernel
against the single-pass reference, per-link agreement with quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from doseref import reference_doses
from linkrows import from_tuples
from spdt import epidemic, metrics
from spdt._kernel import (
    KERNEL_BACKEND,
    _exposure_np,
    available_backends,
    batch_link_exposure,
    link_doses,
    link_geometry,
)

GVP = (18.24, 2512.0, 0.0075)


def random_links(n, seed=0):
    rng = np.random.default_rng(seed)
    t_s = rng.uniform(0, 5000, n)
    t_l = t_s + rng.uniform(0, 600, n)
    t_s_n = t_s + rng.uniform(-100, 500, n)
    t_l_n = t_s_n + rng.uniform(0, 400, n)
    ok = t_l_n > t_s
    r = rng.uniform(1 / 300, 1 / 7.5, n)
    return t_s[ok], t_l[ok], t_s_n[ok], t_l_n[ok], r[ok]


def test_backend_reported():
    assert KERNEL_BACKEND == "numpy"
    assert list(available_backends()) == ["numpy"]


def _masked_phi(w):
    out = np.ones_like(w)
    nz = w > 0.0
    out[nz] = -np.expm1(-w[nz]) / w[nz]
    return out


def _masked_psi(w):
    out = np.empty_like(w)
    small = w < _exposure_np._PSI_SERIES_CUTOFF
    ws = w[small]
    out[small] = ws * (0.5 - ws * (1.0 / 6.0 - ws * (1.0 / 24.0 - ws / 120.0)))
    wb = w[~small]
    out[~small] = 1.0 + np.expm1(-wb) / wb
    return out


def test_branch_free_helpers_match_masked_reference():
    # phi and psi evaluate both branches with `where=` instead of gathering
    # and scattering each branch; every element must come out bit for bit
    w = np.concatenate([[0.0, 1e-300, 1e-12, 0.00999, 0.01, 0.01000001, 1.0,
                         50.0, 700.0, 1e4],
                        np.random.default_rng(5).exponential(0.05, 5000)])
    assert np.array_equal(_exposure_np._phi(w).view(np.int64),
                          _masked_phi(w).view(np.int64))
    assert np.array_equal(_exposure_np._psi(w).view(np.int64),
                          _masked_psi(w).view(np.int64))


def test_blocks_do_not_change_doses(monkeypatch):
    t_s, t_l, t_s_n, t_l_n, r = random_links(3000, seed=4)
    t_l[:50] = t_s[:50]  # zero stay: the indirect segment's phi(0) branch
    args = (t_s, t_l, t_s_n, t_l_n, r, 18.24, 2512.0, 0.0075)
    whole = batch_link_exposure(*args)
    monkeypatch.setattr(_exposure_np, "_BLOCK", 7)
    blocked = batch_link_exposure(*args)
    assert np.array_equal(whole.view(np.int64), blocked.view(np.int64))
    assert np.array_equal(
        whole[1000:1007].view(np.int64),
        batch_link_exposure(*(a[1000:1007] for a in args[:5]),
                            *args[5:]).view(np.int64))


KINDS = ("direct", "indirect", "both", "neither")


@st.composite
def classed_links(draw):
    """Links in whole minutes, each of a drawn geometry class, with removal
    rates from 1e-5 to 1 per minute, so that r times a length falls on both
    sides of the psi series cutoff; and a positive scale and a shift that
    make fractional times of the same order."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=30))
    pick = st.integers(0, 10**6)
    rows = []
    for kind in kinds:
        t_s = draw(st.integers(-1440, 46_080))
        stay = draw(st.integers(0 if kind in ("indirect", "neither") else 1, 600))
        t_l = t_s + stay
        if kind in ("direct", "both"):
            # arrives before the host leaves; leaves by then, or after
            t_s_n = t_s - 100 + draw(pick) % (stay + 100)
            a = max(t_s, t_s_n)
            t_l_n = (a + 1 + draw(pick) % (t_l - a) if kind == "direct"
                     else t_l + 1 + draw(pick) % 400)
        elif kind == "indirect":
            t_s_n = t_l + draw(pick) % 300
            t_l_n = t_s_n + 1 + draw(pick) % 400
        else:
            # a zero-length presence after the host arrived
            t_s_n = t_l_n = t_s + 1 + draw(pick) % 700
        rows.append((t_s, t_l, t_s_n, t_l_n, 10.0 ** draw(st.floats(-5.0, 0.0))))
    *times, r = (np.array(col) for col in zip(*rows))
    scale = draw(st.floats(0.1, 3.0))
    shift = draw(st.floats(-1e3, 1e3))
    return kinds, times, r, (scale, shift)


def same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@given(classed_links())
def test_class_kernel_matches_single_pass_reference(case):
    # each term evaluated only on the links that have it, into a zeroed
    # output, gives the reference's doses bit for bit, from int64 and int32
    # geometry; the wrapper does so for fractional float times too
    kinds, times, r, (scale, shift) = case
    geometry = link_geometry(*times)
    d_len, _, i_len, _, _ = geometry
    assert [(d > 0, i > 0) for d, i in zip(d_len.tolist(), i_len.tolist())] == [
        (k in ("direct", "both"), k in ("indirect", "both")) for k in kinds]
    want = reference_doses(*(t.astype(np.float64) for t in times), r, *GVP)
    assert same_bits(link_doses(*geometry, r, *GVP), want)
    assert same_bits(link_doses(*(x.astype(np.int32) for x in geometry), r, *GVP), want)
    fractional = [t * scale + shift for t in times]
    assert same_bits(batch_link_exposure(*fractional, r, *GVP),
                     reference_doses(*fractional, r, *GVP))


def test_class_kernel_at_the_series_cutoff():
    # one-minute direct and indirect segments at rates around the cutoff;
    # a zero stay deposits nothing
    w = np.array([0.0099999, _exposure_np._PSI_SERIES_CUTOFF, 0.0100001, 0.5])
    r = np.tile(w, 3)
    t_s = np.zeros(r.size, dtype=np.int64)
    t_l = np.repeat([1, 0, 1], w.size)
    t_s_n = np.repeat([0, 0, 1], w.size)
    t_l_n = np.repeat([1, 1, 2], w.size)
    want = reference_doses(t_s.astype(float), t_l.astype(float), t_s_n.astype(float),
                           t_l_n.astype(float), r, *GVP)
    assert np.array_equal(want > 0, t_l > t_s)
    assert same_bits(link_doses(*link_geometry(t_s, t_l, t_s_n, t_l_n), r, *GVP), want)


def test_every_dose_caller_reaches_the_class_kernel(monkeypatch):
    # the stepper calls link_doses on gathered geometry, the graph metrics
    # through batch_link_exposure; a spy counts the links each one passes
    seen = []
    real = _exposure_np.link_doses

    def spy(*args):
        seen.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(_exposure_np, "link_doses", spy)
    monkeypatch.setattr(epidemic, "link_doses", spy)
    net = from_tuples([("a", "b", 0, 30, 10, 100, 0), ("b", "c", 1440, 1500, 1450, 1700, 1),
                       ("c", "a", 1500, 1510, 1520, 1600, 1)], horizon=2)
    for call in (
        lambda: epidemic.run_simulation(net, epidemic.SimulationConfig(
            seeds=1, horizon_days=2, runs=4)),
        lambda: metrics.static_graph(net),
        lambda: metrics.daily_network_metrics(net, [10.0, 60.0]),
    ):
        seen.clear()
        call()
        assert sum(seen) > 0


@st.composite
def minute_links(draw):
    """Valid links in whole minutes up to a 32-day horizon, a removal rate,
    and a whole-day shift per link."""
    n = draw(st.integers(1, 40))
    ints = st.lists(st.integers(0, 46_080), min_size=n, max_size=n)
    t_s = np.array(draw(ints))
    t_l = t_s + np.array(draw(ints)) % 600
    t_s_n = t_s + np.array(draw(ints)) % 700 - 100
    t_l_n = np.maximum(t_s_n, t_s + 1) + np.array(draw(ints)) % 400
    r = 1.0 / np.array(draw(st.lists(st.floats(7.5, 300.0), min_size=n, max_size=n)))
    days = np.array(draw(st.lists(st.integers(-32, 32), min_size=n, max_size=n)))
    return (t_s, t_l, t_s_n, t_l_n), r, days * 1440


@given(minute_links())
def test_doses_do_not_change_under_whole_day_shifts(case):
    # a densified network's copies are their base links shifted by whole
    # days; every quantity in the kernel is a difference of whole minutes,
    # exact in float64, so their doses are bit-identical
    times, r, shift = case
    args = (r, 18.24, 2512.0, 0.0075)
    base = batch_link_exposure(*times, *args)
    moved = batch_link_exposure(*(t + shift for t in times), *args)
    assert np.array_equal(base.view(np.int64), moved.view(np.int64))


def test_batch_matches_quadrature_per_link():
    # each element of one mixed-rate batch is its own link's dose: adaptive
    # quadrature of the concentration the neighbour breathes, link by link
    g, V, p = 18.24, 2512.0, 0.0075
    t_s, t_l, t_s_n, t_l_n, r = random_links(500, seed=2)
    batch = batch_link_exposure(t_s, t_l, t_s_n, t_l_n, r, g, V, p)
    for i in range(0, t_s.size, 37):
        def conc(t, i=i):
            rise = (g / (r[i] * V)) * -math.expm1(-r[i] * (min(t, t_l[i]) - t_s[i]))
            return rise * math.exp(-r[i] * max(t - t_l[i], 0.0))

        a = max(t_s[i], t_s_n[i])
        edges = [a, *([t_l[i]] if a < t_l[i] < t_l_n[i] else []), t_l_n[i]]
        expected = p * sum(quad(conc, lo, hi, epsabs=1e-14, epsrel=1e-12)[0]
                           for lo, hi in zip(edges, edges[1:]))
        assert batch[i] == pytest.approx(expected, rel=1e-8, abs=1e-12)


def test_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        batch_link_exposure(np.zeros(3), np.ones(3), np.zeros(3), np.ones(2),
                            np.full(3, 0.1), 1.0, 1.0, 1.0)
