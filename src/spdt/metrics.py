"""Per-run outbreak and reproduction numbers, and network-structure metrics.

The daily reproduction ratio is the day's new infections divided by the
day's recoveries, defined only on days with at least one recovery; the
run-level value R_e is the mean of the defined days, and the initial R_t
is the ratio of the first defined day. Both are read from the counts array
of ``epidemic.run_simulation``. Structure metrics are
computed on unweighted graphs thresholded on per-link inhaled dose.

Graphs are integer arrays over the sorted node universe: each network user
is mapped to its node position once, the strong links are taken straight
from the dose array, and undirected edges are deduplicated as sorted codes
``lo * n + hi``, from which the sorted arcs and degrees follow. Triangles
are counted on a bitset adjacency of ``n * ceil(n / 64)`` 64-bit words
(about 0.5 MB for 2,000 users), stored as ``ceil(n / 64)`` word columns:
per edge, the ``np.bitwise_count`` of the AND of its two ends' words,
summed over the columns, is its number of common neighbours. Coefficients
divide integer counts in float64, so they equal the exact ratios, and means
are summed in node order. Doses are evaluated once per r_t over a network's
base links; a daily graph takes the strong base links of the day's
(day, host) cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _textio
from ._kernel import batch_link_exposure
from .epidemic import NEW_INFECTIONS, NEW_RECOVERIES, SimulationConfig
from .exposure import (
    DEFAULT_GENERATION_RATE,
    DEFAULT_PROXIMITY_VOLUME,
    DEFAULT_PULMONARY_RATE,
    check_positive,
)
from .network import DynamicContactNetwork, _ranges

DEFAULT_EDGE_THRESHOLD = 0.01  # PFU


def outbreak_size(counts: np.ndarray) -> np.ndarray:
    """Infections caused in each run (seed users not counted)."""
    return counts[:, :, NEW_INFECTIONS].sum(axis=1)


def run_summaries(counts: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-run outbreak size, R_e and initial R_t of a counts array.

    R_e and the initial R_t are NaN in a run without a recovery: undefined,
    never coerced to zero. R_e adds the defined ratios one day at a time,
    left to right, so its bits do not depend on numpy's pairwise summation.
    """
    new, recovered = counts[:, :, NEW_INFECTIONS], counts[:, :, NEW_RECOVERIES]
    defined = recovered > 0
    ratios = np.divide(new, recovered, out=np.zeros(new.shape), where=defined)
    n_defined = defined.sum(axis=1)
    has_any = n_defined > 0
    # cumsum adds one day at a time; an undefined day adds an exact +0.0
    total = np.cumsum(ratios, axis=1)[:, -1]
    effective = np.where(has_any, total / np.maximum(n_defined, 1), np.nan)
    first = ratios[np.arange(len(counts)), defined.argmax(axis=1)]
    initial = np.where(has_any, first, np.nan)
    return outbreak_size(counts), effective, initial


# bytes of one bitset column's words gathered at once per edge end when
# counting common neighbours
_CHUNK_BYTES = 1 << 18


class StaticGraph:
    """Unweighted undirected graph over a fixed node universe.

    ``nodes`` are sorted unique ids, addressed by position; there is an edge
    between positions ``u[k]`` and ``v[k]`` (``u != v``) for every k. Each
    edge is stored once as the code ``lo * n + hi`` (``lo < hi``) in a sorted
    array; ``_indices`` holds the targets of both directions of every edge,
    sorted by (source, target), and ``_degree`` each node's degree.
    """

    def __init__(self, nodes: tuple[str, ...], u: np.ndarray, v: np.ndarray):
        self.nodes = nodes
        n = len(nodes)
        codes = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        self._codes = codes[np.flatnonzero(np.diff(codes, prepend=-1))]
        lo, hi = np.divmod(self._codes, n)
        arcs = np.sort(np.concatenate((lo * n + hi, hi * n + lo)))
        src, self._indices = np.divmod(arcs, n)
        self._degree = np.bincount(src, minlength=n)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return int(self._codes.size)

    def _clustering(self) -> np.ndarray:
        """Local clustering per node, zero below degree two.

        The bitset adjacency is stored as ``ceil(n/64)`` columns of n 64-bit
        words, column c holding each node's neighbours 64c to 64c + 63. An
        edge's common neighbours, the triangles on it, are the bit counts of
        the AND of its two ends' words, added one column at a time; credited
        to both ends, they sum to 2 T(v) per node.
        """
        n = len(self.nodes)
        coeffs = np.zeros(n)
        if self._codes.size == 0:
            return coeffs
        width = -(-n // 64)
        word = (self._indices >> 6) * n + np.repeat(np.arange(n), self._degree)
        bit = np.left_shift(np.uint64(1), (self._indices & 63).astype(np.uint64))
        # arcs are sorted by (source, target), so the bits of each word
        # arrive as one run
        starts = np.flatnonzero(np.diff(word, prepend=-1))
        cols = np.zeros((width, n), dtype=np.uint64)
        cols.reshape(-1)[word[starts]] = np.bitwise_or.reduceat(bit, starts)
        lo, hi = np.divmod(self._codes, n)
        common = np.zeros(lo.size, dtype=np.int64)
        step = max(1, _CHUNK_BYTES // 8)
        for a in range(0, lo.size, step):
            u, v, total = lo[a:a + step], hi[a:a + step], common[a:a + step]
            for col in cols:
                total += np.bitwise_count(col[u] & col[v])
        closed = np.bincount(lo, common, n) + np.bincount(hi, common, n)
        d = self._degree
        hub = d >= 2
        coeffs[hub] = closed[hub] / (d[hub] * (d[hub] - 1))
        return coeffs


def _graph_nodes(net: DynamicContactNetwork, universe
                 ) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted node ids, and the node position of each network user."""
    nodes = tuple(sorted(set(net.users if universe is None else universe)))
    index = {u: i for i, u in enumerate(nodes)}
    missing = [u for u in net.users if u not in index]
    if missing:
        raise ValueError(f"universe misses {len(missing)} users present in the "
                         f"network, the first {missing[0]!r}")
    return nodes, np.array([index[u] for u in net.users], dtype=np.int64)


def check_r_t(r_t: float) -> None:
    """Reject a median removal time that is not positive and finite, or so
    small that the fixed rate 1 / r_t overflows to inf (every dose NaN)."""
    check_positive("r_t", r_t)
    if 1.0 / r_t == float("inf"):
        raise ValueError(f"r_t must be large enough for 1/r_t to be finite, got {r_t!r}")


def _strong_links(net: DynamicContactNetwork, r_t: float, threshold: float
                  ) -> np.ndarray:
    """Mask of the base links whose dose at ``r_t`` reaches the threshold; a
    base link's repeats join the same users with the same dose, since doses
    depend only on differences of whole minutes."""
    times = [getattr(net._base, f) for f in ("t_s", "t_l", "t_s_n", "t_l_n")]
    doses = batch_link_exposure(*times, 1.0 / r_t, DEFAULT_GENERATION_RATE,
                                DEFAULT_PROXIMITY_VOLUME, DEFAULT_PULMONARY_RATE)
    return doses >= threshold


def static_graph(
    net: DynamicContactNetwork,
    r_t: float = SimulationConfig.r_t,
    threshold: float = DEFAULT_EDGE_THRESHOLD,
    universe: Iterable[str] | None = None,
) -> StaticGraph:
    """Whole-horizon graph: an edge wherever any link's dose reaches the threshold.

    The dose is evaluated at the removal rate corresponding to the median
    removal time ``r_t``. Pass a ``universe`` superset to compare variants of
    the same trace over a common node set.
    """
    check_r_t(r_t)
    check_positive("threshold", threshold)
    nodes, node_of = _graph_nodes(net, universe)
    strong = np.flatnonzero(_strong_links(net, r_t, threshold))
    # the index's cell ends, day by day, never decrease: the first end past a
    # base row is the end of its (day, host) cell
    cell = np.searchsorted(net._cells[:, 1:].ravel(), strong, side="right")
    host, nbr = node_of[cell % net.n_users], node_of[net._base.nbr[strong]]
    del strong, cell  # freed before the graph's own temporaries
    return StaticGraph(nodes, host, nbr)


def degree_distribution(graph: StaticGraph) -> dict[int, int]:
    """Histogram of node degrees, ascending; counts sum to the node count."""
    degrees, counts = np.unique(graph._degree, return_counts=True)
    return dict(zip(degrees.tolist(), counts.tolist()))


def _mean(values: np.ndarray) -> float:
    # summed left to right whatever the Python version (3.12's sum compensates)
    return float(np.cumsum(values)[-1]) / values.size if values.size else 0.0


def clustering_distribution(graph: StaticGraph) -> tuple[dict[str, float], float]:
    """Local clustering per node and the mean over all nodes.

    c(v) = 2 T(v) / (d(v) (d(v)-1)) with T(v) the triangles through v;
    nodes of degree below two get zero.
    """
    coeffs = graph._clustering()
    return dict(zip(graph.nodes, coeffs.tolist())), _mean(coeffs)


@dataclass(frozen=True)
class DailyMetricsRow:
    day: int
    r_t: float
    mean_degree: float
    mean_clustering: float


def daily_network_metrics(
    net: DynamicContactNetwork,
    r_t_values: Sequence[float],
    threshold: float = DEFAULT_EDGE_THRESHOLD,
    universe: Iterable[str] | None = None,
) -> list[DailyMetricsRow]:
    """One aggregated graph per day per r_t; mean degree and clustering over
    the universe (absent users count as isolated)."""
    for r_t in r_t_values:
        check_r_t(r_t)
    check_positive("threshold", threshold)
    nodes, node_of = _graph_nodes(net, universe)
    # each base link's host, repeated over its (day, host) cell of the index
    host = np.repeat(np.tile(np.arange(net.n_users), net.horizon),
                     np.diff(net._cells, axis=1).ravel())
    host, nbr = node_of[host], node_of[net._base.nbr]
    strong_by_r_t = [_strong_links(net, r_t, threshold) for r_t in r_t_values]
    rows = []
    for day in range(net.horizon):
        links = _ranges(*net.host_links(day))
        for r_t, strong in zip(r_t_values, strong_by_r_t):
            idx = links[strong[links]]
            graph = StaticGraph(nodes, host[idx], nbr[idx])
            mean_deg = 2.0 * graph.n_edges / graph.n_nodes if graph.n_nodes else 0.0
            rows.append(DailyMetricsRow(day, r_t, mean_deg, _mean(graph._clustering())))
    return rows


def check_variant(variant: str) -> None:
    """Reject a variant label that a daily metrics CSV cannot hold as one
    field: the id rule, and no comma."""
    if _textio.bad_csv_id([variant]) is not None:
        raise ValueError(f"variant {variant!r} not representable in daily metrics "
                         f"CSV: a label is non-empty UTF-8, without whitespace or commas")


def write_summary_csv(counts: np.ndarray, path) -> None:
    """Write per-run aggregates as `run,outbreak_size,R_e` rows (empty R_e when
    undefined)."""
    outbreak, effective, _ = run_summaries(counts)
    _textio.write_table(path, "run,outbreak_size,R_e", (
        f"{run},{size},{_textio.float_field(r_e)}" for run, (size, r_e)
        in enumerate(zip(outbreak.tolist(), effective.tolist()))))


def write_daily_metrics_csv(rows: Sequence[DailyMetricsRow], variant: str, path) -> None:
    """Write `day,mean_degree,mean_clustering,r_t,variant` rows; a variant
    label that ``check_variant`` rejects raises before the file is opened."""
    check_variant(variant)
    _textio.write_table(path, "day,mean_degree,mean_clustering,r_t,variant", (
        f"{row.day},{row.mean_degree!r},{row.mean_clustering!r},{row.r_t!r},{variant}"
        for row in rows))


def write_histogram_csv(hist: dict, path) -> None:
    """Write a `value,count` histogram sorted by value."""
    _textio.write_table(path, "value,count",
                        (f"{value},{hist[value]}" for value in sorted(hist)))
