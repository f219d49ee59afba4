"""The dose kernel with one removal rate for every link.

``batch_link_exposure`` and ``link_doses`` take the rate as a float as well
as an array. A float must give the same bits as ``np.broadcast_to`` of it,
for whole-minute and float times, across block edges, and where a term's
w = r * length is 0 or underflows to 0, so that ``_phi``'s masked path runs
next to its mask-free one. Whole-minute links at a float rate are evaluated
from ``FactorTables``; an array rate never is, so it is the oracle for them.
"""

import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spdt._kernel import _exposure_np, batch_link_exposure, link_doses, link_geometry
from spdt.exposure import (
    DEFAULT_GENERATION_RATE as G,
    DEFAULT_PROXIMITY_VOLUME as V,
    DEFAULT_PULMONARY_RATE as P,
)

# the least subnormal: r * TINY rounds to 0 for any r below 0.5
TINY = 5e-324

whole_minutes = st.integers(0, 10_000)
float_times = st.one_of(st.floats(0.0, 1e4),
                        st.sampled_from([0.0, TINY, 2 * TINY, 1e-310, 1.0]))
# (t_s, t_l, t_s_n, t_l_n) rows, all whole minutes or all floats
rows = st.one_of(*(st.lists(st.tuples(t, t, t, t), min_size=1, max_size=60)
                   for t in (whole_minutes, float_times)))
# 1 / r_t as the metrics pass it, and rates in general; several a batch,
# since only some rates round g p / (r V) apart from another order
rates = st.lists(st.one_of(st.floats(1.0, 1000.0).map(lambda r_t: 1.0 / r_t),
                           st.floats(1e-3, 10.0)), min_size=1, max_size=8)
blocks = st.sampled_from([1, 3, 8, _exposure_np._BLOCK])

# an indirect segment after a zero stay (w = 0), and a direct segment one
# subnormal long (w underflows to 0)
ZERO_W = [(0, 0, 0, 10), (0.0, TINY, 0.0, TINY), (0.0, 30.0, 10.0, 100.0)]


def columns(links):
    return [np.array(col) for col in zip(*links)]


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(links=rows, rs=rates, block=blocks,
       kind=st.sampled_from([float, np.float64, np.asarray]))
@example(links=ZERO_W, rs=[1.0 / 60.0], block=2, kind=float)
def test_batch_link_exposure_fixed_rate_equals_repeated_rate(links, rs, block, kind):
    times = columns(links)
    with mock.patch.object(_exposure_np, "_BLOCK", block):
        for r in rs:
            got = batch_link_exposure(*times, kind(r), G, V, P)
            want = batch_link_exposure(*times, np.broadcast_to(r, times[0].shape), G, V, P)
            assert same_bits(got, want)


@given(links=rows, rs=rates, block=blocks)
@example(links=ZERO_W, rs=[1.0 / 60.0], block=2)
def test_link_doses_fixed_rate_equals_repeated_rate(links, rs, block):
    # whole-minute times give integer geometry, as the stepper keeps it
    geometry = link_geometry(*columns(links))
    with mock.patch.object(_exposure_np, "_BLOCK", block):
        for r in rs:
            got = link_doses(*geometry, r, G, V, P)
            want = link_doses(*geometry, np.broadcast_to(r, geometry[0].shape), G, V, P)
            assert same_bits(got, want)


def test_rate_array_must_match_the_times():
    times = (np.zeros(3), np.ones(3), np.zeros(3), np.ones(3))
    for r in (np.full(2, 0.1), np.full((1, 3), 0.1)):
        with pytest.raises(ValueError, match="rate must be a number or an array"):
            batch_link_exposure(*times, r, G, V, P)


def masked_phi(w):
    # (1 - e^-w)/w where w > 0, and 1 elsewhere, NaN included
    with np.errstate(all="ignore"):
        phi = np.expm1(-w) / -w
    return np.where(w > 0.0, phi, 1.0)


# the kernel's w are products of a positive rate and a length, so never
# below zero; NaN stands for any other fault
@given(hnp.arrays(np.float64, st.integers(1, 40),
                  elements=st.one_of(st.floats(0.0, 1e3, exclude_min=True),
                                     st.floats(0.0, allow_infinity=True),
                                     st.sampled_from([-0.0, np.nan]))))
@example(np.array([1.0, 0.0, 2.0]))
@example(np.array([1.0, np.nan]))
@example(np.array([TINY, 1e-300, 5.0]))
def test_phi_matches_masked_formula(w):
    # all-positive arrays take the mask-free path, the rest the masked one
    assert same_bits(_exposure_np._phi(w.copy()), masked_phi(w))


# whole-minute times near each other as well as far apart, so that zero and
# short lengths (w below psi's series cutoff at small rates) are common
minute = st.one_of(st.integers(0, 10_000), st.integers(0, 12))
minute_rows = st.lists(st.tuples(minute, minute, minute, minute), min_size=1, max_size=60)
time_dtypes = st.sampled_from([np.int64, np.int32, np.uint16, np.uint32, np.uint64])
# table bounds at which some of these links do not fit and some do
bounds = st.sampled_from([1 << 9, 1 << 11, 1 << 14])


def spy_tables(monkeypatch):
    """Record each FactorTables block's outcome and each table size fitted."""
    cls = _exposure_np.FactorTables
    seen = {"blocks": [], "sizes": []}
    doses, fit = cls.doses, cls._fit

    def doses_spy(self, *args):
        seen["blocks"].append(doses(self, *args))
        return seen["blocks"][-1]

    def fit_spy(self, size):
        seen["sizes"].append(size)
        return fit(self, size)

    monkeypatch.setattr(cls, "doses", doses_spy)
    monkeypatch.setattr(cls, "_fit", fit_spy)
    return seen


@given(links=minute_rows, rs=rates, block=blocks, bound=bounds, dtype=time_dtypes)
@example(links=[(0, 0, 0, 10), (0, 30, 10, 100), (5, 5, 5, 5)], rs=[1e-3, 10.0],
         block=2, bound=1 << 14, dtype=np.int64)
@example(links=[(0, 3, 0, 3)] * 3 + [(0, 4000, 0, 9000)] + [(0, 700, 1, 700)] * 2,
         rs=[1.0 / 60.0], block=2, bound=1 << 12, dtype=np.uint32)
def test_factor_tables_equal_the_per_link_kernel(links, rs, block, bound, dtype):
    # short batches take the tables once the bound admits their lengths; a
    # block past it is evaluated per link, mid-call
    times = [col.astype(dtype) for col in columns(links)]
    with mock.patch.object(_exposure_np, "_BLOCK", block), \
            mock.patch.object(_exposure_np, "_TABLE_MAX", bound):
        for r in rs:
            got = batch_link_exposure(*times, r, G, V, P)
            want = batch_link_exposure(*times, np.broadcast_to(r, times[0].shape), G, V, P)
            assert same_bits(got, want)
            geometry = link_geometry(*(t.astype(np.int64) for t in times))
            for kind in (np.int64, np.int32):
                assert same_bits(link_doses(*(x.astype(kind) for x in geometry), r, G, V, P),
                                 want)


def test_tables_grow_between_blocks_and_fall_back_past_the_bound(monkeypatch):
    # one link a block: lengths 3, 700, 3,000, 5,000 (past the bound), 3;
    # the tables grow twice and the long block alone is evaluated per link
    seen = spy_tables(monkeypatch)
    monkeypatch.setattr(_exposure_np, "_BLOCK", 1)
    times = columns([(0, 3, 0, 6), (0, 700, 10, 900), (0, 3000, 5, 2000),
                     (0, 5000, 0, 10), (7, 10, 8, 9)])
    for r in (1.0 / 35.0, 2.5):
        seen["blocks"].clear()
        seen["sizes"].clear()
        got = batch_link_exposure(*times, r, G, V, P)
        assert seen == {"blocks": [True, True, True, False, True],
                        "sizes": [512, 1024, 4096]}
        assert same_bits(got, batch_link_exposure(*times, np.full(5, r), G, V, P))


@pytest.mark.parametrize("r", [5e-324, 1e-310, 1e300, float("inf"), -0.5, float("nan")])
def test_tables_that_are_not_finite_and_positive_stay_exact(r):
    # where g p / (r V) overflows, or the rate is infinite, negative or NaN,
    # no block is taken whole: zero lengths keep their exact +0.0
    times = columns([(0, 30, 10, 100), (0, 0, 0, 10), (5, 5, 5, 5), (0, 30, 40, 50)] * 5)
    with np.errstate(all="ignore"):
        got = batch_link_exposure(*times, r, G, V, P)
        want = batch_link_exposure(*times, np.broadcast_to(r, times[0].shape), G, V, P)
    assert same_bits(got, want)


def test_float_rate_on_minute_times_takes_the_tables(monkeypatch):
    # a silent fallback to the per-link kernel would give the same bits, so
    # the oracles above cannot see it: count the blocks the tables evaluate
    seen = spy_tables(monkeypatch)
    per_link = mock.Mock(wraps=_exposure_np._class_doses)
    monkeypatch.setattr(_exposure_np, "_class_doses", per_link)
    monkeypatch.setattr(_exposure_np, "_BLOCK", 4)
    times = columns([(0, 30, 10, 100), (0, 0, 0, 10), (2, 9, 1, 20)] * 3)
    batch_link_exposure(*(t.astype(np.int64) for t in times), 1.0 / 35.0, G, V, P)
    assert seen["blocks"] == [True] * 3 and seen["sizes"] == [512]
    assert per_link.call_count == 0
    batch_link_exposure(*times, np.full(9, 1.0 / 35.0), G, V, P)
    batch_link_exposure(*(t.astype(np.float64) for t in times), 1.0 / 35.0, G, V, P)
    assert len(seen["blocks"]) == 3 and per_link.call_count == 6


def test_no_table_outlives_its_call(monkeypatch):
    made = []
    init = _exposure_np.FactorTables.__init__

    def init_spy(self, *args):
        made.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(_exposure_np.FactorTables, "__init__", init_spy)
    times = columns([(0, 30, 10, 100)] * 3)
    batch_link_exposure(*times, 0.1, G, V, P)
    link_doses(*link_geometry(*times), 0.1, G, V, P)
    gc.collect()
    assert len(made) == 2 and all(ref() is None for ref in made)
