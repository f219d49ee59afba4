"""Differential oracle for the per-run summaries read from a counts array.

The reference below is the per-object path: one record per run per day,
daily reproduction ratios collected in a dict, R_e as their mean summed left
to right, the initial R_t as the earliest defined ratio, and prevalence
totals accumulated day by day. The array path in `sweep._cell_rows` must
give `==` summary rows, prevalence rows and mean outbreak for any counts
array.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spdt.sweep import _cell_rows

CELL = "SDT,60,0.33,3-5"

# Ten defined days whose ratios numpy's pairwise sum adds up differently
# from a left-to-right sum.
PAIRWISE_NEW = [11, 8, 19, 3, 18, 1, 12, 11, 17, 5]
PAIRWISE_RECOVERED = [8, 6, 8, 2, 7, 8, 1, 3, 6, 1]


# ---------------------------------------------------------------------------
# reference: the per-run, per-day object loop


def _ref_fmt(value):
    return "" if value is None else repr(float(value))


def _ref_cell_rows(cell, counts):
    runs_stats = [[(day, i_n, i_r, i_p) for day, (i_n, i_r, i_p) in enumerate(run)]
                  for run in counts.tolist()]
    summary = []
    for run, stats in enumerate(runs_stats):
        daily = {}
        for day, i_n, i_r, _ in stats:
            if i_r > 0:
                daily[day] = i_n / i_r
        # an explicit left-to-right loop: from Python 3.12 on, sum()
        # compensates float rounding
        total = 0
        for ratio in daily.values():
            total += ratio
        effective = total / len(daily) if daily else None
        initial = daily[min(daily)] if daily else None
        outbreak = sum(i_n for _, i_n, _, _ in stats)
        summary.append(f"{cell},{run},{outbreak},{_ref_fmt(effective)},"
                       f"{_ref_fmt(initial)}")
    horizon = counts.shape[1]
    day_totals = np.zeros(horizon)
    for stats in runs_stats:
        for day, _, _, i_p in stats:
            day_totals[day] += i_p
    prevalence = [f"{cell},{day},{day_totals[day] / len(runs_stats)!r}"
                  for day in range(horizon)]
    mean_outbreak = float(np.mean([sum(s[1] for s in stats)
                                   for stats in runs_stats]))
    return summary, prevalence, mean_outbreak


def _counts(new, recovered, prevalence=None):
    new = np.asarray(new, dtype=np.int64)
    recovered = np.asarray(recovered, dtype=np.int64)
    if prevalence is None:
        prevalence = np.zeros_like(new)
    return np.stack([new, recovered, np.asarray(prevalence, dtype=np.int64)],
                    axis=-1)


# ---------------------------------------------------------------------------
# inputs


@st.composite
def counts_arrays(draw):
    """Counts arrays with many days without recoveries, runs without any
    recovery, and runs = 1."""
    runs = draw(st.integers(1, 6))
    days = draw(st.integers(1, 32))
    new = draw(arrays(np.int64, (runs, days), elements=st.integers(0, 60)))
    recovered = draw(arrays(np.int64, (runs, days), elements=st.integers(0, 9)))
    zero_rate = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    mask = draw(arrays(np.float64, (runs, days),
                       elements=st.floats(0.0, 1.0, exclude_max=True)))
    recovered[mask < zero_rate] = 0
    if runs > 1 and draw(st.booleans()):
        recovered[draw(st.integers(0, runs - 1))] = 0
    prevalence = draw(arrays(np.int64, (runs, days),
                             elements=st.integers(0, 10_000)))
    return _counts(new, recovered, prevalence)


# ---------------------------------------------------------------------------
# the oracle


@settings(max_examples=300, deadline=None)
@given(counts=counts_arrays())
@example(counts=_counts([PAIRWISE_NEW], [PAIRWISE_RECOVERED]))
@example(counts=_counts([PAIRWISE_NEW, [0] * 10], [PAIRWISE_RECOVERED, [0] * 10]))
@example(counts=_counts([[5, 3]], [[0, 0]], [[7, 1]]))
def test_cell_rows_match_reference(counts):
    assert _cell_rows(CELL, counts) == _ref_cell_rows(CELL, counts)


def test_pairwise_example_is_order_sensitive():
    ratios = np.array(PAIRWISE_NEW) / np.array(PAIRWISE_RECOVERED)
    left_to_right = 0.0
    for ratio in ratios.tolist():
        left_to_right += ratio
    assert np.sum(ratios) != left_to_right
    summary, _, _ = _cell_rows(CELL, _counts([PAIRWISE_NEW], [PAIRWISE_RECOVERED]))
    assert summary[0].split(",")[6] == repr(left_to_right / len(ratios))

