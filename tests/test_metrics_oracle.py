"""Differential oracle for the array-based graph metrics.

The reference below is the earlier set-based implementation: a graph of
string-keyed adjacency sets, an edge set built one strong link at a time,
neighbour-set intersections for clustering, and one dose evaluation per
(day, r_t). The package's CSR/bitset graph must agree with it exactly:
edge sets, degree histograms, per-node coefficients and every daily row
compared with ``==``, not approximately.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from linkrows import edge_set, from_tuples
from spdt._kernel import _exposure_np, batch_link_exposure
from spdt.exposure import (
    DEFAULT_GENERATION_RATE,
    DEFAULT_PROXIMITY_VOLUME,
    DEFAULT_PULMONARY_RATE,
)
from spdt import metrics
from spdt.network import DynamicContactNetwork, densify
from spdt.metrics import (
    DailyMetricsRow,
    StaticGraph,
    clustering_distribution,
    daily_network_metrics,
    degree_distribution,
    static_graph,
)

G, V, P = DEFAULT_GENERATION_RATE, DEFAULT_PROXIMITY_VOLUME, DEFAULT_PULMONARY_RATE


class SetGraph:
    """Reference graph: adjacency sets keyed by node id."""

    def __init__(self, nodes, edges):
        self.nodes = tuple(sorted(set(nodes)))
        self._adj = {u: set() for u in self.nodes}
        for u, v in edges:
            self._adj[u].add(v)
            self._adj[v].add(u)

    @property
    def n_edges(self):
        return sum(len(s) for s in self._adj.values()) // 2

    def degree(self, node):
        return len(self._adj[node])

    def neighbours(self, node):
        return frozenset(self._adj[node])

    def edges(self):
        return {(u, v) if u < v else (v, u)
                for u, nbrs in self._adj.items() for v in nbrs}


def ref_edge_set(net, link_mask, r_t, threshold):
    idx = np.flatnonzero(link_mask)
    if idx.size == 0:
        return set()
    doses = batch_link_exposure(
        net.t_s[idx].astype(np.float64), net.t_l[idx].astype(np.float64),
        net.t_s_n[idx].astype(np.float64), net.t_l_n[idx].astype(np.float64),
        np.full(idx.size, 1.0 / r_t), G, V, P,
    )
    strong = idx[doses >= threshold]
    edges = set()
    for h, n in zip(net.host[strong].tolist(), net.nbr[strong].tolist()):
        u, v = net.users[h], net.users[n]
        edges.add((u, v) if u < v else (v, u))
    return edges


def ref_clustering(graph):
    coeffs = {}
    for node in graph.nodes:
        nbrs = graph.neighbours(node)
        d = len(nbrs)
        if d < 2:
            coeffs[node] = 0.0
            continue
        closed = 0
        for u in nbrs:
            closed += len(graph.neighbours(u) & nbrs)
        coeffs[node] = closed / (d * (d - 1))
    mean = sum(coeffs.values()) / len(coeffs) if coeffs else 0.0
    return coeffs, mean


def ref_degree_distribution(graph):
    hist = {}
    for node in graph.nodes:
        d = graph.degree(node)
        hist[d] = hist.get(d, 0) + 1
    return hist


def ref_daily(net, r_t_values, threshold, nodes):
    rows = []
    for day in range(net.horizon):
        mask = net.day == day
        for r_t in r_t_values:
            graph = SetGraph(nodes, ref_edge_set(net, mask, r_t, threshold))
            _, mean_clust = ref_clustering(graph)
            n = len(graph.nodes)
            mean_deg = 2.0 * graph.n_edges / n if n else 0.0
            rows.append(DailyMetricsRow(day, r_t, mean_deg, mean_clust))
    return rows


# few users, so that small networks close triangles; string order differs
# from numeric order
USERS = [f"u{i}" for i in (0, 1, 2, 3, 10, 11, 12)]
# more than eight users, so that bitset rows span several bytes
DENSE_USERS = [f"v{i}" for i in range(21)]
# more than 128 users, so that bitset rows span three 64-bit words, the last
# one partial
WIDE_USERS = [f"w{i}" for i in range(130)]


@st.composite
def link(draw, horizon):
    host, nbr = draw(st.lists(st.sampled_from(USERS), min_size=2, max_size=2,
                              unique=True))
    t_s = draw(st.integers(0, 400))
    t_l = t_s + draw(st.integers(0, 240))
    t_s_n = draw(st.integers(max(0, t_s - 60), t_l + 200))
    t_l_n = max(t_s_n, t_s + 1) + draw(st.integers(0, 240))
    return host, nbr, t_s, t_l, t_s_n, t_l_n, draw(st.integers(0, horizon - 1))


@st.composite
def network_case(draw):
    horizon = draw(st.integers(1, 4))
    links = draw(st.lists(link(horizon), min_size=8, max_size=80))
    # repeat some pairs, in both directions, on other days
    repeats = draw(st.lists(st.sampled_from(links), max_size=15)) if links else []
    for host, nbr, *times, _ in repeats:
        day = draw(st.integers(0, horizon - 1))
        if draw(st.booleans()):
            host, nbr = nbr, host
        links.append((host, nbr, *times, day))
    net = from_tuples(links, horizon=horizon)
    # a scheduled network: its graphs read base links through the schedule
    if draw(st.booleans()):
        net = densify(net, draw(st.integers(0, 2**32 - 1)))
    extra = draw(st.lists(st.sampled_from([f"x{i}" for i in range(5)] + USERS),
                          max_size=6))
    universe = tuple(net.users) + tuple(extra) if draw(st.booleans()) else None
    threshold = draw(st.sampled_from([0.001, 0.01, 0.05, 0.2]))
    r_t_values = draw(st.lists(st.sampled_from([7.5, 10.0, 35.0, 60.0, 300.0]),
                               min_size=1, max_size=3, unique=True))
    return net, universe, threshold, r_t_values


def dense_network(rng, users=DENSE_USERS, max_links=300):
    """Up to max_links links among few users, so most days close many
    triangles."""
    horizon = int(rng.integers(1, 4))
    n = int(rng.integers(20, max_links))
    ends = np.array([rng.choice(len(users), size=2, replace=False)
                     for _ in range(n)])
    t_s = rng.integers(0, 400, n)
    t_l = t_s + rng.integers(0, 240, n)
    t_s_n = t_s + rng.integers(-60, 240, n).clip(-t_s)
    t_l_n = np.maximum(t_s_n, t_s + 1) + rng.integers(0, 240, n)
    days = rng.integers(0, horizon, n)
    links = [(users[a], users[b], *row)
             for (a, b), row in zip(ends.tolist(),
                                    zip(t_s, t_l, t_s_n, t_l_n, days))]
    return from_tuples(links, horizon=horizon)


@st.composite
def dense_network_case(draw):
    """A dense network drawn from a numpy stream keyed by a hypothesis seed."""
    net = dense_network(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    threshold = draw(st.sampled_from([0.001, 0.01, 0.05]))
    return net, None, threshold, [10.0, 35.0, 60.0]


def assert_graphs_equal(graph, ref):
    assert graph.nodes == ref.nodes
    assert graph.n_nodes == len(ref.nodes)
    assert graph.n_edges == ref.n_edges
    assert edge_set(graph) == ref.edges()
    assert degree_distribution(graph) == ref_degree_distribution(ref)
    assert graph._degree.tolist() == [ref.degree(node) for node in ref.nodes]
    coeffs, mean = clustering_distribution(graph)
    ref_coeffs, ref_mean = ref_clustering(ref)
    assert list(coeffs.items()) == list(ref_coeffs.items())
    assert mean == ref_mean


@given(st.one_of(network_case(), dense_network_case()))
def test_static_graph_matches_set_reference(case):
    net, universe, threshold, r_t_values = case
    nodes = universe if universe is not None else net.users
    for r_t in r_t_values:
        graph = static_graph(net, r_t=r_t, threshold=threshold, universe=universe)
        ref = SetGraph(nodes, ref_edge_set(net, np.ones(net.n_links, dtype=bool),
                                           r_t, threshold))
        assert_graphs_equal(graph, ref)


@given(st.one_of(network_case(), dense_network_case()))
def test_daily_metrics_match_set_reference(case):
    net, universe, threshold, r_t_values = case
    nodes = universe if universe is not None else net.users
    got = daily_network_metrics(net, r_t_values, threshold=threshold,
                                universe=universe)
    assert got == ref_daily(net, r_t_values, threshold, nodes)


@given(st.lists(st.tuples(st.integers(0, len(DENSE_USERS) - 1),
                          st.integers(0, len(DENSE_USERS) - 1))
                .filter(lambda e: e[0] != e[1]), max_size=120))
def test_constructor_matches_set_reference(edges):
    # repeated and reversed position pairs are one edge
    nodes = tuple(sorted(DENSE_USERS))
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    graph = StaticGraph(nodes, ends[:, 0], ends[:, 1])
    ref = SetGraph(nodes, [(nodes[a], nodes[b]) for a, b in edges])
    assert_graphs_equal(graph, ref)


@pytest.mark.parametrize("users, max_links, min_edges", [
    (DENSE_USERS, 300, 50),
    (WIDE_USERS, 6000, 1000),
], ids=["one-word-rows", "three-word-rows"])
def test_block_edges_do_not_change_results(monkeypatch, users, max_links, min_edges):
    # blocks far smaller than the inputs: kernel blocks of 7 links, and 16
    # bytes of each bitset column gathered at once, so two edges at a time
    # over one word column (21 users) or three (130 users)
    monkeypatch.setattr(_exposure_np, "_BLOCK", 7)
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", 16)
    net = dense_network(np.random.default_rng(5), users, max_links)
    assert net.n_links > 100
    for r_t in (10.0, 60.0):
        graph = static_graph(net, r_t=r_t)
        assert graph.n_edges > min_edges
        ref = SetGraph(net.users, ref_edge_set(
            net, np.ones(net.n_links, dtype=bool), r_t, metrics.DEFAULT_EDGE_THRESHOLD))
        assert_graphs_equal(graph, ref)
    assert daily_network_metrics(net, [10.0, 60.0]) == ref_daily(
        net, [10.0, 60.0], metrics.DEFAULT_EDGE_THRESHOLD, net.users)


def test_daily_metrics_read_hosts_from_the_index():
    # each base link's host is read off the index's row counts; the day and
    # host columns of _base_keys are never built
    net = dense_network(np.random.default_rng(5))
    for net in (net, densify(net)):
        want = ref_daily(net, [10.0, 60.0], metrics.DEFAULT_EDGE_THRESHOLD, net.users)
        with mock.patch.object(DynamicContactNetwork, "_base_keys",
                               side_effect=AssertionError("_base_keys called")):
            assert daily_network_metrics(net, [10.0, 60.0]) == want
