"""The dose kernel with one removal rate for every link.

``batch_link_exposure`` and ``link_doses`` take the rate as a float as well
as an array. A float must give the same bits as ``np.broadcast_to`` of it,
for whole-minute and float times, across block edges, and where a term's
w = r * length is 0 or underflows to 0, so that ``_phi``'s masked path runs
next to its mask-free one.
"""

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
